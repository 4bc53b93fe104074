"""The evolutionary loop shared by the Pareto and lexicographic strategies.

Individuals are mutated copies of the point of interest. Non-actionable
features are never touched; every value the loop introduces is clamped to
the training bounds. The two strategies differ only in parent selection,
survival, and what the run returns.

A run holds each generation as one float matrix X, a row per candidate
in the evaluation context's Genome codes, next to its (n x 4) objective
array V; evaluate_population scores the coded rows themselves and
returns their objectives as such an array, and models read the rows
through Model.predict_coded. Selection reads V and returns indices, with
which the loop indexes X and the survival pool. Rows and objectives stay
arrays until the run returns: the final population is decoded once into
the result's Candidates, whose ObjectiveVectors are V's rows. A debug run
also decodes each generation for its genealogy, and checks its rows
with violating_rows, passing the rows it flags to check_candidate. A run
keeps no per-generation trace.

A run is a generator (_search) that yields each batch of rows it needs
scored, the initial population and then each generation's offspring,
and is sent their objective array and their slots in the context's
store. One loop (_lockstep) advances runs in lockstep: run_ea drives
one run, and run_paired drives par, lex1 and lex2 together, scoring the
three batches of each generation with one evaluate_population call and
handing each run its rows of the objective array and of the slots.
Equal rows share a slot, the one rule for equal scored rows: survival,
the lexicographic final round and the returned Pareto front keep each
row's first occurrence by the slots carried next to X and V. Each run
keeps its own generator and draw order, and a row's objectives do not
depend on its batch (its forest votes, logistic score and Gower sums
come out the same bits in any batch, and the context's cache holds pure
values), so a lockstep run returns exactly what it returns alone.

Random draws, all from the run's one generator, with n the population
size and A the number of actionable features:

- init_population draws rng.integers(1, m + 1, size=n), the subset sizes
  over the m mutable features, then rng.random((n, m)), whose ranks pick
  the subsets, then rng.uniform(lower, upper, size=(n, numeric)) and
  rng.integers(choices, size=(n, categorical)), choices counting each
  feature's training categories other than the point of interest's (at
  least 1).
- Each generation:
  1. parent selection draws n rounds of entrants at once, and the
     lexicographic tournament its tie draws (selection's module
     docstring gives the order);
  2. crossover draws rng.random(n // 2), the gate of each pair of
     consecutive parents, then rng.random((n // 2, A)), the swap mask;
  3. mutate draws rng.random((n, A)), the mutation mask, then
     rng.standard_normal((n, numeric)) for the actionable numeric
     features, rng.integers(categories, size=(n, categorical)) for the
     actionable categorical ones with a training category, and
     rng.random((n, A)), the reset mask.
- A lexicographic run's final pick draws one rng.integers(ties), only on
  a perfect tie.

Every draw is made whether or not its outcome is used, so the count per
generation depends only on the configuration and the schema.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .data import CATEGORICAL, INTEGER, check_fields
from .errors import ConfigError, InvariantViolation
from .objectives import evaluate_population, objective_vectors
from .selection import (
    DISTANCE_BEFORE_SPARSITY,
    SPARSITY_BEFORE_DISTANCE,
    LexParams,
    crowded_tournament_select,
    final_select_lex,
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
    """One evolutionary run's settings. k (tournament size) and theta act
    only on lex1 and lex2: a par run's parent tournament is always binary
    and crowded, and its survival has no tolerance."""

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
        if not 0 <= self.theta < float("inf") or not 1 <= self.k <= self.population_size:
            raise ConfigError("need finite theta >= 0, 1 <= k <= population_size")


@dataclass(frozen=True)
class EAResult:
    """Returned solutions, executed generation count, and final population.
    The genealogy holds every candidate ever created (debug runs only)."""

    solutions: tuple
    generations_executed: int
    population: tuple
    genealogy: tuple | None = field(default=None)


def init_population(genome, cfg, rng):
    """The initial population as coded rows: copies of the point of interest,
    each with a random non-empty subset of the mutable features drawn anew.
    A feature is mutable when it is actionable and training holds a value
    other than the point of interest's. A numeric draw is uniform in the
    training bounds (integers rounded) and takes the other bound when it
    lands on the point of interest's value; a categorical draw is uniform
    over the training categories other than the point of interest's. So no
    row equals the point of interest."""
    g, n = genome, cfg.population_size
    num, cat = g.act_numeric, g.act_categorical
    lo, hi, poi, code = g.lo[num], g.hi[num], g.poi[num], g.poi[cat]
    count = g.hi[cat].astype(np.int64) + 1
    known = code < count
    choices = count - known
    moves = (lo < hi) | (poi != lo)
    mutable = np.union1d(num[moves], cat[choices > 0])
    if not mutable.size:
        raise ConfigError("no actionable feature can take a different value")
    sizes = rng.integers(1, mutable.size + 1, size=n)
    ranks = rng.random((n, mutable.size)).argsort(axis=1).argsort(axis=1)
    drawn = np.zeros((n, g.poi.size), dtype=bool)
    drawn[:, mutable] = ranks < sizes[:, None]
    new = np.tile(g.poi, (n, 1))
    values = rng.uniform(lo, hi, size=(n, num.size))
    whole = g.whole[num]
    # + 0.0 turns a rounded -0.0 into 0.0, as mutate does
    values[:, whole] = np.round(values[:, whole]) + 0.0
    new[:, num] = np.where(values == poi, np.where(poi == lo, hi, lo), values)
    picks = rng.integers(np.maximum(choices, 1), size=(n, cat.size))
    new[:, cat] = picks + (known & (picks >= code))
    return np.where(drawn, new, g.poi)


def crossover(parents, genome, cfg, rng):
    """Uniform crossover of consecutive parent rows, 0 with 1, 2 with 3 and
    so on: a pair crosses with probability crossover_prob, and a crossed
    pair swaps each actionable gene with probability 1/2. An odd last row
    passes through. Returns the children as a new matrix."""
    pairs = len(parents) // 2
    crossed = rng.random(pairs) < cfg.crossover_prob
    swap = (rng.random((pairs, genome.actionable.size)) < 0.5) & crossed[:, None]
    act = genome.actionable
    first, second = parents[0 : 2 * pairs : 2, act], parents[1 : 2 * pairs : 2, act]
    children = parents.copy()
    children[0 : 2 * pairs : 2, act] = np.where(swap, second, first)
    children[1 : 2 * pairs : 2, act] = np.where(swap, first, second)
    return children


def mutate(rows, genome, cfg, rng):
    """Per-gene mutation of every row, each actionable gene with probability
    mutation_prob: a Gaussian step of 0.1 times the training range for
    numerics (integers rounded), clamped to the training bounds, and a
    uniform resample of the training categories for categoricals. A reset
    pass then pulls each changed actionable gene back to the point of
    interest with probability reset_prob, keeping sparsity reachable.
    Returns a new matrix."""
    g, m = genome, len(rows)
    num, cat = g.act_numeric, g.act_categorical
    hit, reset = np.zeros((2, m, g.poi.size), dtype=bool)
    hit[:, g.actionable] = rng.random((m, g.actionable.size)) < cfg.mutation_prob
    steps = rng.standard_normal((m, num.size))
    picks = rng.integers(g.hi[cat].astype(np.int64) + 1, size=(m, cat.size))
    reset[:, g.actionable] = rng.random((m, g.actionable.size)) < cfg.reset_prob
    out = rows.copy()
    old = out[:, num]
    new = old + steps * (0.1 * g.span[num])
    whole = g.whole[num]
    new[:, whole] = np.round(new[:, whole])
    # + 0.0 turns a rounded -0.0 into 0.0, as Python's round gives
    new = np.minimum(np.maximum(new, g.lo[num]), g.hi[num]) + 0.0
    out[:, num] = np.where(hit[:, num], new, old)
    out[:, cat] = np.where(hit[:, cat], picks, out[:, cat])
    return np.where(reset & (out != g.poi), g.poi, out)


def check_candidate(values, x_pt, schema, stats):
    """Constraint check on every value the search introduced, that is every
    value that differs from the point of interest's (inherited values are
    not the search's doing): the feature is actionable, a categorical value
    is one of the feature's training categories, and a numeric value lies
    inside the training bounds, integral for an integer feature."""
    for i, feat in enumerate(schema):
        value, st = values[i], stats[i]
        if value == x_pt[i]:
            continue
        if not feat.actionable:
            raise InvariantViolation("non-actionable feature %r was mutated" % feat.name)
        if feat.kind == CATEGORICAL:
            if value not in st.categories:
                raise InvariantViolation(
                    "feature %r value %r is not a training category" % (feat.name, value)
                )
        elif not st.lower <= value <= st.upper:
            raise InvariantViolation(
                "feature %r value %r outside [%r, %r]" % (feat.name, value, st.lower, st.upper)
            )
        elif feat.kind == INTEGER and not float(value).is_integer():
            raise InvariantViolation("integer feature %r value %r" % (feat.name, value))


def _first_occurrences(slots):
    """Mask of each store slot's first occurrence: the distinct rows of a
    batch, given each row's slot (equal rows share a slot)."""
    first = np.zeros(len(slots), dtype=bool)
    first[np.unique(slots, return_index=True)[1]] = True
    return first


def _dedup_pad(slots, size):
    """Indices of the distinct rows of a pool (_first_occurrences), then the
    repeated rows as padding if the distinct rows no longer fill a
    population of size, each in row order (a stable sort of the mask)."""
    first = _first_occurrences(slots)
    return np.argsort(~first, kind="stable")[: max(size, np.count_nonzero(first))]


def violating_rows(X, genome):
    """check_candidate over coded rows as array operations: a boolean mask
    of the rows of X, in genome's codes, that check_candidate refuses once
    decoded. A cell that differs from the point of interest's passes when
    its feature is actionable and the cell lies in the feature's limits:
    the training bounds for a numeric feature, integral for an integer
    one, and a training category's code (below the count of training
    categories) for a categorical one: genome's per-feature table."""
    g = genome
    inside = g.movable & (g.lo <= X) & (X <= g.hi) & (~g.whole | (X == np.floor(X)))
    return ((X != g.poi) & ~inside).any(axis=1)


def _search(ctx, cfg):
    """One run as a generator of its evaluation batches: it yields each
    batch of coded rows, the initial population and then each
    generation's offspring, is sent their (rows x 4) objective array and
    their slots in ctx.store, and returns the EAResult after
    cfg.max_generations generations. Survival and the returned solutions
    drop repeated rows by their slots, so no row is keyed again."""
    if bool(cfg.resilience) != bool(ctx.resilience):
        raise ConfigError("config and evaluation context disagree on resilience")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.population_size
    ordering = STRATEGY_ORDERINGS.get(cfg.strategy)
    params = None if ordering is None else LexParams(n, cfg.k, cfg.theta, ordering)
    genome = ctx.genome
    genealogy = [] if cfg.debug else None

    def audit(rows, V, generation):
        """A debug run keeps every candidate and checks its constraints:
        the rows the array check flags go to check_candidate, which
        raises with its message."""
        values = genome.decode(rows)
        genealogy.extend(Candidate(v, o, generation) for v, o in zip(values, objective_vectors(V)))
        for r in np.flatnonzero(violating_rows(rows, genome)):
            check_candidate(values[r], ctx.x_pt, ctx.schema, ctx.stats)

    # the population: coded rows X, objective array V, store slots, birth
    # generations
    X = init_population(genome, cfg, rng)
    V, slots = yield X
    born = np.zeros(n, dtype=np.int64)
    if cfg.debug:
        audit(X, V, 0)

    # Pareto fronts come from this sort, then from each survival; the next
    # parent tournament and the returned front read them
    fronts = nondominated_sort(V) if cfg.strategy == PARETO else None
    for gen in range(1, cfg.max_generations + 1):
        if cfg.strategy == PARETO:
            parents = X[crowded_tournament_select(V, n, rng, fronts)]
        else:
            parents = lex_tournament_select(params, X, rng, V=V)
        offspring = mutate(crossover(parents, genome, cfg, rng), genome, cfg, rng)
        offspring_V, offspring_slots = yield offspring
        if cfg.debug:
            audit(offspring, offspring_V, gen)

        pool_X = np.concatenate((X, offspring))
        pool_V = np.concatenate((V, offspring_V))
        pool_slots = np.concatenate((slots, offspring_slots))
        pool = _dedup_pad(pool_slots, n)
        if cfg.strategy == PARETO:
            kept, fronts = nsga2_select(pool_V[pool], n)
        else:
            kept = lex_survival_select(pool_V[pool], n, ordering, cfg.theta)
        rows = pool[kept]
        X, V, slots = pool_X[rows], pool_V[rows], pool_slots[rows]
        born = np.concatenate((born, np.full(len(offspring), gen)))[rows]

    population = tuple(map(Candidate, genome.decode(X), objective_vectors(V), born.tolist()))
    if cfg.strategy == PARETO:
        picks = np.array(fronts[0])[_first_occurrences(slots[fronts[0]])]
    else:
        distinct = np.flatnonzero(_first_occurrences(slots))
        picks = [distinct[final_select_lex(V[distinct], ordering, cfg.theta, rng)]]
    return EAResult(
        solutions=tuple(population[i] for i in picks),
        generations_executed=cfg.max_generations,
        population=population,
        genealogy=tuple(genealogy) if genealogy is not None else None,
    )


def _lockstep(ctx, cfgs):
    """Run one search per config on ctx in lockstep, and return their
    EAResults in order. Each round concatenates the batches the unfinished
    runs propose, scores them with one evaluate_population call and sends
    each run the rows of the objective array, and the store slots
    (ctx.batch_slots), that belong to its batch."""
    runs = [_search(ctx, cfg) for cfg in cfgs]
    pending = {i: next(run) for i, run in enumerate(runs)}  # run -> proposed rows
    results = [None] * len(runs)
    while pending:
        V = evaluate_population(np.concatenate(list(pending.values())), ctx)
        slots, start = ctx.batch_slots, 0
        for i, rows in list(pending.items()):
            stop = start + len(rows)
            part, start = (V[start:stop], slots[start:stop]), stop
            try:
                pending[i] = runs[i].send(part)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def run_ea(ctx, cfg):
    """One full evolutionary run of exactly cfg.max_generations
    generations."""
    return _lockstep(ctx, [cfg])[0]


def _child_seed(seed, index):
    return int(np.random.SeedSequence([int(seed), index]).generate_state(1)[0])


def run_paired(ctx, base_cfg):
    """Run all three strategies on one point of interest, each with its own
    child seed and generator. The runs advance in lockstep: each
    generation their three batches of rows, and at the start their
    initial populations, are scored by one evaluate_population call. A
    row's objectives do not depend on its batch, so each run returns what
    it would return alone. Every run executes base_cfg.max_generations
    generations, so all three spend the same computational budget."""
    cfgs = [
        replace(base_cfg, strategy=strategy, seed=_child_seed(base_cfg.seed, i))
        for i, strategy in enumerate(STRATEGIES)
    ]
    return tuple(_lockstep(ctx, cfgs))
