"""The evolutionary loop shared by the Pareto and lexicographic strategies.

Individuals are mutated copies of the point of interest. Non-actionable
features are never touched; every value the loop introduces is clamped to
the training bounds. The two strategies differ only in parent selection,
survival, and what the run returns.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, INTEGER, check_fields
from .errors import ConfigError, InvariantViolation
from .objectives import evaluate_population
from .selection import (
    DISTANCE_BEFORE_SPARSITY,
    SPARSITY_BEFORE_DISTANCE,
    LexParams,
    crowded_tournament_select,
    final_select_lex,
    first_front_size,
    lex_survival_select,
    lex_tournament_select,
    nondominated_sort,
    nsga2_select,
)

PARETO = "par"
LEX_DISTANCE_FIRST = "lex1"
LEX_SPARSITY_FIRST = "lex2"
STRATEGIES = (PARETO, LEX_DISTANCE_FIRST, LEX_SPARSITY_FIRST)

STRATEGY_ORDERINGS = {
    LEX_DISTANCE_FIRST: DISTANCE_BEFORE_SPARSITY,
    LEX_SPARSITY_FIRST: SPARSITY_BEFORE_DISTANCE,
}


@dataclass(frozen=True)
class Candidate:
    """One individual: raw feature values, its objectives, and the
    generation that created it."""

    values: tuple
    objectives: tuple
    generation: int


@dataclass(frozen=True)
class EAConfig:
    population_size: int = 20
    max_generations: int = 50
    crossover_prob: float = 0.7
    mutation_prob: float = 0.2
    reset_prob: float = 0.05
    strategy: str = LEX_DISTANCE_FIRST
    theta: float = 0.01
    k: int = 2
    resilience: bool = False
    seed: int = 0
    debug: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.population_size < 2:
            raise ConfigError("population_size must be >= 2")
        if self.max_generations < 1:
            raise ConfigError("max_generations must be >= 1")
        for name in ("crossover_prob", "mutation_prob", "reset_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError("%s must lie in [0, 1]" % name)
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy must be one of %s" % (STRATEGIES,))
        if not self.theta >= 0 or not 1 <= self.k <= self.population_size:
            raise ConfigError("need theta >= 0, 1 <= k <= population_size")


class GenerationTrace(NamedTuple):
    """One generation of a run: the best validity (o1) in the population,
    its mean distance (o2), and front_size, the number of members that no
    other member Pareto-dominates. Computing it draws no random numbers."""

    generation: int
    best_o1: float
    mean_o2: float
    front_size: int


@dataclass(frozen=True)
class EAResult:
    """Returned solutions, executed generation count, final population, and
    the per-generation trace. The genealogy holds every candidate ever
    created (debug runs only)."""

    solutions: tuple
    generations_executed: int
    population: tuple
    trace: tuple
    genealogy: tuple | None = field(default=None)


def _mutable_indices(schema, stats):
    """Actionable features that can actually take a different value."""
    indices = []
    for i, feat in enumerate(schema):
        if not feat.actionable:
            continue
        if feat.kind == CATEGORICAL:
            if len(stats[i].categories) > 1:
                indices.append(i)
        elif stats[i].range > 0:
            indices.append(i)
    return indices


def _sample_value(feat, st, rng, exclude=None):
    if feat.kind == CATEGORICAL:
        pool = [c for c in st.categories if c != exclude] or list(st.categories)
        return pool[int(rng.integers(len(pool)))]
    v = rng.uniform(st.lower, st.upper)
    if feat.kind == INTEGER:
        v = float(round(v))
    return float(min(max(v, st.lower), st.upper))


def init_population(x_pt, schema, stats, cfg, rng):
    """Copies of the point of interest with a random non-empty subset of the
    mutable actionable features resampled; every individual differs from
    the point of interest in at least one feature."""
    x_pt = tuple(getattr(x_pt, "values", x_pt))
    mutable = _mutable_indices(schema, stats)
    if not any(f.actionable for f in schema):
        raise ConfigError("no actionable features to mutate")
    if not mutable:
        raise ConfigError("no actionable feature can take a different value")
    population = []
    for _ in range(cfg.population_size):
        values = None
        for _attempt in range(100):
            size = int(rng.integers(1, len(mutable) + 1))
            subset = rng.choice(mutable, size=size, replace=False)
            trial = list(x_pt)
            for i in sorted(int(t) for t in subset):
                trial[i] = _sample_value(schema[i], stats[i], rng, exclude=x_pt[i])
            if tuple(trial) != x_pt:
                values = tuple(trial)
                break
        if values is None:
            # integer-heavy schemas can keep resampling the original values;
            # force one feature to a definitely-different value
            i = mutable[0]
            trial = list(x_pt)
            st = stats[i]
            if schema[i].kind == CATEGORICAL:
                trial[i] = next(c for c in st.categories if c != x_pt[i])
            else:
                trial[i] = st.lower if x_pt[i] != st.lower else st.upper
            values = tuple(trial)
        population.append(values)
    return population


def crossover(a, b, schema, cfg, rng):
    """Uniform crossover over actionable genes, applied with probability
    crossover_prob; otherwise the parents pass through unchanged."""
    a = tuple(getattr(a, "values", a))
    b = tuple(getattr(b, "values", b))
    if rng.random() >= cfg.crossover_prob:
        return a, b
    child1, child2 = list(a), list(b)
    for i, feat in enumerate(schema):
        if feat.actionable and rng.random() < 0.5:
            child1[i], child2[i] = b[i], a[i]
    return tuple(child1), tuple(child2)


def mutate(values, x_pt, schema, stats, cfg, rng):
    """Per-gene mutation (Gaussian for numerics, resample for categoricals)
    followed by a reset pass that pulls changed genes back to the point of
    interest, keeping sparsity reachable."""
    values = list(getattr(values, "values", values))
    x_pt = tuple(getattr(x_pt, "values", x_pt))
    for i, feat in enumerate(schema):
        if not feat.actionable or rng.random() >= cfg.mutation_prob:
            continue
        st = stats[i]
        if feat.kind == CATEGORICAL:
            if st.categories:
                values[i] = st.categories[int(rng.integers(len(st.categories)))]
            continue
        v = values[i] + rng.normal(0.0, 0.1 * st.range)
        if feat.kind == INTEGER:
            v = float(round(v))
        values[i] = float(min(max(v, st.lower), st.upper))
    for i, feat in enumerate(schema):
        if feat.actionable and values[i] != x_pt[i] and rng.random() < cfg.reset_prob:
            values[i] = x_pt[i]
    return tuple(values)


def check_candidate(values, x_pt, schema, stats):
    """Constraint check: non-actionable genes equal the point of interest;
    every numeric value the search introduced lies inside the training
    bounds (inherited out-of-range values of the point of interest are
    not the search's doing)."""
    for i, feat in enumerate(schema):
        if not feat.actionable and values[i] != x_pt[i]:
            raise InvariantViolation(
                "non-actionable feature %r was mutated" % feat.name
            )
        if feat.kind != CATEGORICAL and values[i] != x_pt[i]:
            if not stats[i].lower <= values[i] <= stats[i].upper:
                raise InvariantViolation(
                    "feature %r value %r outside [%r, %r]"
                    % (feat.name, values[i], stats[i].lower, stats[i].upper)
                )


def _dedup_pad(pool, size):
    """Remove exact duplicates (first occurrence wins), then pad with the
    removed ones if the distinct pool no longer fills a population."""
    distinct, dupes, seen = [], [], set()
    for cand in pool:
        if cand.values in seen:
            dupes.append(cand)
        else:
            seen.add(cand.values)
            distinct.append(cand)
    while len(distinct) < size and dupes:
        distinct.append(dupes.pop(0))
    return distinct


def _evaluate_candidates(values_list, generation, ctx):
    vectors = evaluate_population(values_list, ctx)
    return [Candidate(v, vec, generation) for v, vec in zip(values_list, vectors)]


def run_ea(ctx, cfg):
    """One full evolutionary run of exactly cfg.max_generations
    generations."""
    if bool(cfg.resilience) != bool(ctx.resilience):
        raise ConfigError("config and evaluation context disagree on resilience")
    rng = np.random.default_rng(cfg.seed)
    ordering = STRATEGY_ORDERINGS.get(cfg.strategy)

    population = _evaluate_candidates(
        init_population(ctx.x_pt, ctx.schema, ctx.stats, cfg, rng), 0, ctx
    )
    genealogy = list(population) if cfg.debug else None
    if cfg.debug:
        for cand in population:
            check_candidate(cand.values, ctx.x_pt, ctx.schema, ctx.stats)

    def snapshot(generation, fronts):
        """The trace entry of the current population. Pareto runs pass the
        fronts they sort anyway; lex runs count front 0 alone."""
        best_o1 = min(c.objectives[0] for c in population)
        mean_o2 = float(np.mean([c.objectives[1] for c in population]))
        size = len(fronts[0]) if fronts else first_front_size(population)
        return GenerationTrace(generation, best_o1, mean_o2, size)

    # Pareto fronts come from this sort, then from each survival; the trace
    # entry, the next parent tournament and the returned front read them
    fronts = nondominated_sort(population) if cfg.strategy == PARETO else None
    trace = [snapshot(0, fronts)]
    for gen in range(1, cfg.max_generations + 1):
        if cfg.strategy == PARETO:
            parents = crowded_tournament_select(population, cfg.population_size, rng, fronts)
        else:
            params = LexParams(cfg.population_size, cfg.k, cfg.theta, ordering)
            parents = lex_tournament_select(params, population, rng)

        offspring_values = []
        for i in range(0, len(parents) - 1, 2):
            c1, c2 = crossover(parents[i], parents[i + 1], ctx.schema, cfg, rng)
            offspring_values.append(mutate(c1, ctx.x_pt, ctx.schema, ctx.stats, cfg, rng))
            offspring_values.append(mutate(c2, ctx.x_pt, ctx.schema, ctx.stats, cfg, rng))
        if len(parents) % 2:
            offspring_values.append(
                mutate(parents[-1], ctx.x_pt, ctx.schema, ctx.stats, cfg, rng)
            )
        offspring = _evaluate_candidates(offspring_values, gen, ctx)
        if cfg.debug:
            genealogy.extend(offspring)
            for cand in offspring:
                check_candidate(cand.values, ctx.x_pt, ctx.schema, ctx.stats)

        pool = _dedup_pad(population + offspring, cfg.population_size)
        if cfg.strategy == PARETO:
            population, fronts = nsga2_select(pool, cfg.population_size)
        else:
            population = lex_survival_select(pool, cfg.population_size, ordering, cfg.theta)
        trace.append(snapshot(gen, fronts))

    if cfg.strategy == PARETO:
        solutions = tuple(population[i] for i in fronts[0])
    else:
        solutions = (final_select_lex(population, ordering, cfg.theta, rng),)
    return EAResult(
        solutions=solutions,
        generations_executed=cfg.max_generations,
        population=tuple(population),
        trace=tuple(trace),
        genealogy=tuple(genealogy) if genealogy is not None else None,
    )


def _child_seed(seed, index):
    return int(np.random.SeedSequence([int(seed), index]).generate_state(1)[0])


def run_paired(ctx, base_cfg):
    """Run all three strategies on one point of interest, in STRATEGIES
    order, each with its own child seed. Every run executes
    base_cfg.max_generations generations, so all three spend the same
    computational budget."""
    return tuple(
        run_ea(ctx, replace(base_cfg, strategy=strategy, seed=_child_seed(base_cfg.seed, i)))
        for i, strategy in enumerate(STRATEGIES)
    )
