"""Compare GenLink against the Carvalho et al. GP baseline.

The paper's experiments (Tables 7 and 8) compare GenLink with the
genetic programming approach of de Carvalho et al., which evolves
arithmetic trees over fixed <attribute, similarity function> features.
This example trains both on the same noisy product workload and prints
a small leaderboard plus each learner's model: GenLink's operator tree
and the Carvalho function tree.

Run with::

    python examples/baseline_comparison.py
"""

from __future__ import annotations

from repro import DataSource, Entity, GenLink, GenLinkConfig, ReferenceLinkSet
from repro.baselines import CarvalhoConfig, CarvalhoGP
from repro.core import render_rule


def build_sources() -> tuple[DataSource, DataSource, ReferenceLinkSet]:
    """Product records with case noise and reordered tokens."""
    products = [
        "iPod Nano 8GB", "ThinkPad X1 Carbon", "Galaxy Note 4",
        "Kindle Paperwhite 2015", "PlayStation Vita Slim", "Lumia 930 Phone",
        "Nexus 7 Tablet", "Xperia Z Ultra", "MacBook Air 13",
        "Surface Book 2", "Chromebook Pixel LS", "Aspire One Cloudbook",
        "ZenBook Pro Duo", "Pavilion Gaming 15", "IdeaPad Slim 7",
        "Swift 3 OLED",
    ]
    shop_a = DataSource("shop_a")
    shop_b = DataSource("shop_b")
    matches = []
    for i, name in enumerate(products):
        uid_a, uid_b = f"a:{i}", f"b:{i}"
        shop_a.add(Entity(uid_a, {"title": name, "stock": str(i)}))
        # Shop B shouts and flips the token order.
        tokens = name.upper().split()
        shop_b.add(
            Entity(uid_b, {"name": " ".join(reversed(tokens)), "sku": str(100 + i)})
        )
        matches.append((uid_a, uid_b))
    negative = [
        (matches[i][0], matches[(i + 4) % len(matches)][1])
        for i in range(len(matches))
    ]
    return shop_a, shop_b, ReferenceLinkSet(positive=matches, negative=negative)


def main() -> None:
    shop_a, shop_b, links = build_sources()
    scores: dict[str, float] = {}

    print("=== GenLink ===")
    result = GenLink(GenLinkConfig(population_size=60, max_iterations=15)).learn(
        shop_a, shop_b, links, rng=3
    )
    scores["GenLink"] = result.history[-1].train_f_measure
    print(render_rule(result.best_rule))

    print("\n=== Carvalho et al. GP ===")
    carvalho = CarvalhoGP(CarvalhoConfig(population_size=60, max_generations=15))
    carvalho_result = carvalho.learn(shop_a, shop_b, links, rng=3)
    scores["Carvalho GP"] = carvalho_result.train_f_measure
    print(carvalho_result.render())

    print("\n=== Training F1 leaderboard ===")
    from repro.experiments import bar_chart

    ordered = dict(sorted(scores.items(), key=lambda kv: -kv[1]))
    print(bar_chart(ordered, maximum=1.0))
    print(
        "\nNote: the token-reordering noise is exactly what GenLink's\n"
        "transformations (tokenize + lowerCase) express and the fixed\n"
        "similarity features of the Carvalho GP cannot — the gap above is\n"
        "Section 6.2's story in miniature."
    )


if __name__ == "__main__":
    main()
