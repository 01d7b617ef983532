"""The GenLink learning algorithm (Algorithm 1, Section 5).

The learner starts from a population of random linkage rules (seeded
with compatible property pairs, Section 5.1) and evolves it with
tournament selection over the MCC-with-parsimony fitness and the
specialised crossover operators of Section 5.3. Mutation is headless
chicken crossover: with the configured probability the second parent is
replaced by a freshly generated random rule. Learning stops after a
fixed number of iterations or as soon as one rule reaches the full
training F-measure (Table 4).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.compatible import find_compatible_properties
from repro.core.crossover import CrossoverOperator, default_crossover_operators
from repro.core.evaluation import PairEvaluator
from repro.core.fitness import FitnessFunction
from repro.core.generation import RandomRuleGenerator
from repro.core.representation import FULL, Representation
from repro.core.rule import LinkageRule
from repro.core.selection import TournamentSelector
from repro.data.reference_links import ReferenceLinkSet
from repro.data.source import DataSource
from repro.distances.registry import DistanceRegistry
from repro.distances.registry import default_registry as default_distances
from repro.engine.session import EngineSession
from repro.transforms.registry import TransformationRegistry
from repro.transforms.registry import default_registry as default_transforms

#: Callback invoked after each recorded iteration with the iteration
#: number and the current population.
PopulationObserver = Callable[[int, list[LinkageRule]], None]


@dataclass
class GenLinkConfig:
    """Learner parameters; defaults follow Table 4 of the paper."""

    population_size: int = 500
    max_iterations: int = 50
    tournament_size: int = 5
    mutation_probability: float = 0.25
    stop_f_measure: float = 1.0
    parsimony_weight: float = 0.005
    parsimony_mode: str = "similarity"
    representation: Representation = FULL
    #: Seed the initial population with compatible property pairs
    #: (Algorithm 2). Disabled for the Table 14 "random" baseline.
    seeding: bool = True
    #: Links analysed by the compatible-property search.
    max_seeding_links: int = 100
    #: Probability of appending a transformation to a property (§5.1).
    transformation_probability: float = 0.5
    #: Probability that a seeded comparison explores a random measure
    #: from the catalogue (see repro.core.generation).
    measure_exploration: float = 0.25
    #: Offspring larger than this are replaced by their first parent;
    #: a safety net on top of the parsimony pressure.
    max_operator_count: int = 100
    #: Number of best-by-fitness rules copied into the next generation.
    #: Algorithm 1 refills the population entirely from crossover; one
    #: elite keeps best-so-far curves monotone, as in the paper's tables.
    elitism: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValueError("elitism must be in [0, population_size)")


@dataclass(frozen=True)
class IterationRecord:
    """Learning progress after one iteration (cf. Tables 7-12)."""

    iteration: int
    seconds: float
    train_f_measure: float
    train_mcc: float
    best_fitness: float
    operator_count: int
    comparison_count: int
    transformation_count: int
    validation_f_measure: float | None = None


@dataclass
class LearningResult:
    """Outcome of a GenLink run."""

    best_rule: LinkageRule
    history: list[IterationRecord] = field(default_factory=list)
    stopped_early: bool = False
    #: The final population, best fitness first (used by the active
    #: learning extension as a query-by-committee committee).
    final_population: list[LinkageRule] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.history[-1].iteration if self.history else 0

    def record_at(self, iteration: int) -> IterationRecord:
        """The record at an iteration (clamped to the last one reached,
        which is how the paper reports early-stopped runs)."""
        for record in self.history:
            if record.iteration == iteration:
                return record
        if self.history and iteration > self.history[-1].iteration:
            return self.history[-1]
        raise KeyError(f"no record for iteration {iteration}")


class GenLink:
    """The GenLink genetic programming learner (Algorithm 1)."""

    def __init__(
        self,
        config: GenLinkConfig | None = None,
        crossover_operators: Sequence[CrossoverOperator] | None = None,
        distances: DistanceRegistry | None = None,
        transforms: TransformationRegistry | None = None,
        workers: "int | str | None" = None,
        cache_dir: "str | None" = None,
    ):
        """``workers`` selects the executor of the learning session
        (``None`` consults the ``REPRO_ENGINE_WORKERS`` environment
        variable; 0 = serial), which learning never maps: the GP is
        sequential, and fitness evaluation builds each generation's
        distance columns inline (see
        :meth:`repro.engine.session.PairContext.population_scores`).
        Learning results are byte-identical for every setting.

        ``cache_dir`` enables the engine's persistent distance-column
        store for the learning session (``None`` consults
        ``REPRO_ENGINE_CACHE``; ``""`` forces it off): repeated
        learning runs over the same reference links skip the distance
        pass for every comparison op already persisted. Also
        result-invisible — only cold-start cost changes."""
        self.config = config if config is not None else GenLinkConfig()
        self._operators = (
            list(crossover_operators)
            if crossover_operators is not None
            else default_crossover_operators()
        )
        if not self._operators:
            raise ValueError("need at least one crossover operator")
        self._distances = distances if distances is not None else default_distances()
        self._transforms = (
            transforms if transforms is not None else default_transforms()
        )
        self._workers = workers
        self._cache_dir = cache_dir

    # -- public API -----------------------------------------------------------
    def learn(
        self,
        source_a: DataSource,
        source_b: DataSource,
        train_links: ReferenceLinkSet,
        validation_links: ReferenceLinkSet | None = None,
        rng: random.Random | int | None = None,
        observer: "PopulationObserver | None" = None,
    ) -> LearningResult:
        """Learn a linkage rule from reference links (Definition 4).

        ``observer``, when given, is called after every recorded
        iteration with ``(iteration, population)`` — e.g. a
        :class:`repro.core.diversity.DiversityTracker` collecting
        convergence diagnostics.
        """
        # One engine session backs both evaluators: entities shared
        # between the train and validation pair lists transform once.
        session = EngineSession(
            distances=self._distances,
            transforms=self._transforms,
            executor=self._workers,
            store=self._cache_dir,
        )
        try:
            return self._learn(
                session, source_a, source_b, train_links, validation_links,
                rng, observer,
            )
        finally:
            session.close()

    def _learn(
        self,
        session: EngineSession,
        source_a: DataSource,
        source_b: DataSource,
        train_links: ReferenceLinkSet,
        validation_links: ReferenceLinkSet | None,
        rng: random.Random | int | None,
        observer: "PopulationObserver | None",
    ) -> LearningResult:
        rng = _resolve_rng(rng)
        config = self.config
        start = time.perf_counter()

        train_pairs, train_labels = train_links.labelled_pairs(source_a, source_b)
        if not any(train_labels) or all(train_labels):
            raise ValueError(
                "training links must contain both positive and negative links"
            )
        evaluator = PairEvaluator(train_pairs, session=session)
        fitness_fn = FitnessFunction(
            evaluator,
            train_labels,
            parsimony_weight=config.parsimony_weight,
            parsimony_mode=config.parsimony_mode,
        )
        validation_fn: FitnessFunction | None = None
        if validation_links is not None:
            validation_pairs, validation_labels = validation_links.labelled_pairs(
                source_a, source_b
            )
            validation_fn = FitnessFunction(
                PairEvaluator(validation_pairs, session=session),
                validation_labels,
            )

        generator = self.build_generator(source_a, source_b, train_links, rng)
        population = generator.population(config.population_size)
        # Population-level evaluation: one compiled plan per generation
        # computes every unique comparison exactly once; the per-rule
        # stats() calls below then reduce over cached score vectors.
        fitness_fn.prime_population(population)

        stats_cache: dict = {}

        def stats(rule: LinkageRule) -> tuple[float, float, float]:
            """(fitness, train F1, train MCC), cached per root node."""
            cached = stats_cache.get(rule.root)
            if cached is None:
                confusion = fitness_fn.confusion(rule)
                mcc = confusion.mcc()
                fitness = (
                    mcc
                    - config.parsimony_weight * fitness_fn.operator_count(rule)
                )
                cached = (fitness, confusion.f_measure(), mcc)
                stats_cache[rule.root] = cached
            return cached

        selector = TournamentSelector(config.tournament_size)
        history: list[IterationRecord] = []
        result = LearningResult(best_rule=population[0])
        best_so_far: LinkageRule | None = None

        def record(iteration: int) -> IterationRecord:
            # History reports the best rule seen so far (by training F1,
            # ties broken by fitness). Selection pressure alone does not
            # guarantee the F1-best rule survives — elitism keeps the
            # fitness-best — so the learner remembers it explicitly,
            # which is also what it must return (Algorithm 1: "return
            # best linkage rule").
            nonlocal best_so_far
            generation_best = max(
                population, key=lambda r: (stats(r)[1], stats(r)[0])
            )
            if best_so_far is None or (
                (stats(generation_best)[1], stats(generation_best)[0])
                > (stats(best_so_far)[1], stats(best_so_far)[0])
            ):
                best_so_far = generation_best
            best = best_so_far
            fitness, f1, mcc = stats(best)
            validation_f1 = (
                validation_fn.f_measure(best) if validation_fn is not None else None
            )
            entry = IterationRecord(
                iteration=iteration,
                seconds=time.perf_counter() - start,
                train_f_measure=f1,
                train_mcc=mcc,
                best_fitness=fitness,
                operator_count=best.operator_count(),
                comparison_count=len(best.comparisons()),
                transformation_count=len(best.transformations()),
                validation_f_measure=validation_f1,
            )
            history.append(entry)
            result.best_rule = best
            return entry

        entry = record(0)
        if observer is not None:
            observer(0, population)
        for iteration in range(1, config.max_iterations + 1):
            if entry.train_f_measure >= config.stop_f_measure:
                result.stopped_early = True
                break
            population = self._next_generation(
                population, stats, selector, generator, rng
            )
            fitness_fn.prime_population(population)
            entry = record(iteration)
            if observer is not None:
                observer(iteration, population)
        result.history = history
        result.final_population = sorted(
            population, key=lambda r: stats(r)[0], reverse=True
        )
        return result

    def build_generator(
        self,
        source_a: DataSource,
        source_b: DataSource,
        train_links: ReferenceLinkSet,
        rng: random.Random,
    ) -> RandomRuleGenerator:
        """The random rule generator for a learning task (Section 5.1)."""
        config = self.config
        compatible = []
        if config.seeding:
            compatible = find_compatible_properties(
                source_a,
                source_b,
                train_links.positive,
                max_links=config.max_seeding_links,
                rng=rng,
            )
        return RandomRuleGenerator(
            compatible,
            rng,
            representation=config.representation,
            distances=self._distances,
            transforms=self._transforms,
            source_properties=source_a.property_names(),
            target_properties=source_b.property_names(),
            transformation_probability=config.transformation_probability,
            measure_exploration=config.measure_exploration,
        )

    # -- internals --------------------------------------------------------------
    def _next_generation(
        self,
        population: list[LinkageRule],
        stats,
        selector: TournamentSelector,
        generator: RandomRuleGenerator,
        rng: random.Random,
    ) -> list[LinkageRule]:
        config = self.config
        fitness = lambda rule: stats(rule)[0]
        next_population: list[LinkageRule] = []
        if config.elitism:
            elite = sorted(population, key=fitness, reverse=True)[: config.elitism]
            next_population.extend(elite)
        while len(next_population) < config.population_size:
            rule1 = selector.select(population, fitness, rng)
            operator = self._operators[rng.randrange(len(self._operators))]
            if rng.random() < config.mutation_probability:
                rule2 = generator.random_rule()
            else:
                rule2 = selector.select(population, fitness, rng)
            child = operator.apply(
                rule1, rule2, rng, generator, config.representation
            )
            if child.operator_count() > config.max_operator_count:
                child = rule1
            next_population.append(child)
        return next_population


def _resolve_rng(rng: random.Random | int | None) -> random.Random:
    if rng is None:
        return random.Random()
    if isinstance(rng, int):
        return random.Random(rng)
    return rng
