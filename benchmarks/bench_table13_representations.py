"""Table 13: F-measure per linkage rule representation.

Paper values (validation F1 at round 25):

                     Boolean  Linear  Nonlin.  Full
    Cora             0.900    0.896   0.898    0.965
    Restaurant       0.954    0.959   0.951    0.992
    SiderDrugBank    0.931    0.956   0.966    0.970
    NYT              0.714    0.716   0.724    0.916
    LinkedMDB        0.973    0.986   0.987    0.997
    DBpediaDrugBank  0.990    0.981   0.991    0.993

The headline shape to reproduce: the full representation wins on every
dataset, and the gap is largest where the noise structure requires
transformations (Cora, NYT).
"""

from repro.datasets import DATASET_NAMES
from repro.experiments.drivers import representation_comparison
from repro.experiments.tables import format_table

from benchmarks._util import strict_assertions, emit

ORDER = ("boolean", "linear", "nonlinear", "full")


def test_table13_representations(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: representation_comparison(DATASET_NAMES, seed=13),
        rounds=1,
        iterations=1,
    )
    rows = [
        [name] + [table[name][r].format() for r in ORDER] for name in table
    ]
    text = format_table(
        ["Dataset", "Boolean", "Linear", "Nonlin.", "Full"],
        rows,
        title="Table 13: representations (validation F1 at final iteration)",
    )
    emit(results_dir, "table13_representations", text)
    if not strict_assertions():
        return

    # Shape assertions: the full representation dominates on the
    # transformation-sensitive datasets by a clear margin.
    for name in ("cora", "nyt"):
        full = table[name]["full"].mean
        others = max(table[name][r].mean for r in ("boolean", "linear", "nonlinear"))
        assert full > others, f"full should win on {name}"
    # And it is never substantially worse anywhere else. At bench scale
    # (population 100, 3 runs, 20 % data) the full representation's
    # larger search space under-trains on the smallest dataset
    # (LinkedMDB, 100 links), so the tolerance is wider than at paper
    # scale — see the bench-scale Table 13 numbers in ROADMAP.md, item 3.
    from repro.experiments.scale import current_scale

    tolerance = 0.03 if current_scale().name == "paper" else 0.12
    for name in table:
        full = table[name]["full"].mean
        best = max(table[name][r].mean for r in ORDER)
        assert full >= best - tolerance, f"full fell behind on {name}"
