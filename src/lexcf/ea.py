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
store. One loop (_lockstep) advances runs in lockstep, scoring the
batches of each generation with one evaluate_population call and
handing each run its rows of the objective array and of the slots.
run_ea drives one run. run_paired forks a child process that runs lex2
alone, while the parent drives par and lex1 in lockstep; on a host with
fewer than two usable CPUs it drives all three in-process instead.
Equal rows share a slot, the one rule for equal scored rows: survival,
the lexicographic final round and the returned Pareto front keep each
row's first occurrence by the slots carried next to X and V. Each run
keeps its own generator and draw order, and a row's objectives do not
depend on its batch (its forest votes, logistic score and Gower sums
come out the same bits in any batch, and the context's cache holds pure
values), so a lockstep or forked run returns exactly what it returns
alone.

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
     actionable categorical ones with a training category, made only
     when there is one, and rng.random((n, A)), the reset mask. Skipping
     the categorical draw leaves the stream as it was: a draw of size 0
     consumes no state.
- A lexicographic run's final pick draws one rng.integers(ties), only on
  a perfect tie.

Every draw is made whether or not its outcome is used, so the count per
generation depends only on the configuration and the schema.
"""

import os
import pickle
import signal
import traceback
import warnings
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
    g, t, n = genome, genome.variation, cfg.population_size
    num, cat = g.act_numeric, g.act_categorical
    lo, hi, count, poi, code = t.lo, t.hi, t.counts, t.poi[t.num], t.poi[t.cat]
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
    # + 0.0 turns a rounded -0.0 into 0.0, as mutate does
    values[:, t.whole] = np.round(values[:, t.whole]) + 0.0
    new[:, num] = np.where(values == poi, np.where(poi == lo, hi, lo), values)
    picks = rng.integers(np.maximum(choices, 1), size=(n, cat.size))
    new[:, cat] = picks + (known & (picks >= code))
    return np.where(drawn, new, g.poi)


def crossover(parents, genome, cfg, rng):
    """Uniform crossover of consecutive parent rows, 0 with 1, 2 with 3 and
    so on: a pair crosses with probability crossover_prob, and a crossed
    pair swaps each actionable gene with probability 1/2. An odd last row
    passes through. Returns the children as a new matrix."""
    pairs, act = len(parents) // 2, genome.actionable
    crossed = rng.random(pairs) < cfg.crossover_prob
    swap = (rng.random((pairs, act.size)) < 0.5) & crossed[:, None]
    genes = parents[: 2 * pairs, act]
    swapped = genes.copy()
    np.copyto(swapped[0::2], genes[1::2], where=swap)
    np.copyto(swapped[1::2], genes[0::2], where=swap)
    children = parents.copy()
    children[: 2 * pairs, act] = swapped
    return children


def mutate(rows, genome, cfg, rng):
    """Per-gene mutation of every row, each actionable gene with probability
    mutation_prob: a Gaussian step of 0.1 times the training range for
    numerics (integers rounded), clamped to the training bounds, and a
    uniform resample of the training categories for categoricals. A reset
    pass then pulls each changed actionable gene back to the point of
    interest with probability reset_prob, keeping sparsity reachable.
    Returns a new matrix.

    The actionable genes are gathered once, from the genome's variation
    table, and varied in place. Without an actionable categorical feature
    the categorical draw is skipped: a draw of size 0 consumes no state."""
    t, m, act = genome.variation, len(rows), genome.actionable
    hit = rng.random((m, act.size)) < cfg.mutation_prob
    steps = rng.standard_normal((m, t.num.size))
    if t.cat.size:
        picks = rng.integers(t.counts, size=(m, t.cat.size))
    reset = rng.random((m, act.size)) < cfg.reset_prob
    genes = rows[:, act]
    # each gene's mutated value; a categorical feature without a training
    # category keeps its own
    moved = genes.copy()
    steps *= t.scale
    steps += genes[:, t.num]
    if t.whole.size:
        steps[:, t.whole] = np.round(steps[:, t.whole])
    np.maximum(steps, t.lo, out=steps)
    np.minimum(steps, t.hi, out=steps)
    # + 0.0 turns a rounded -0.0 into 0.0, as Python's round gives
    steps += 0.0
    moved[:, t.num] = steps
    if t.cat.size:
        moved[:, t.cat] = picks
    np.copyto(genes, moved, where=hit)
    np.copyto(genes, t.poi, where=reset & (genes != t.poi))
    out = rows.copy()
    out[:, act] = genes
    return out


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
    batch, given each row's slot (equal rows share a slot). One stable
    argsort groups equal slots in row order, and each group's head is
    its first occurrence."""
    order = np.argsort(slots, kind="stable")
    first = np.zeros(len(slots), dtype=bool)
    first[order[:1]] = True
    ordered = slots[order]
    first[order[1:]] = ordered[1:] != ordered[:-1]
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


def _check_resilience(ctx, cfg):
    if bool(cfg.resilience) != bool(ctx.resilience):
        raise ConfigError("config and evaluation context disagree on resilience")


def _search(ctx, cfg):
    """One run as a generator of its evaluation batches: it yields each
    batch of coded rows, the initial population and then each
    generation's offspring, is sent their (rows x 4) objective array and
    their slots in ctx.store, and returns the EAResult after
    cfg.max_generations generations. Survival and the returned solutions
    drop repeated rows by their slots, so no row is keyed again."""
    _check_resilience(ctx, cfg)
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


def _usable_cpus():
    """How many CPUs this process may run on; 1 where the platform cannot
    say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def split_runs():
    """Whether run_paired runs lex2 in a forked child on this host: only
    where at least two CPUs are usable, so that both processes have one."""
    return _usable_cpus() >= 2


def _fork():
    """os.fork. Python 3.12 warns that forking a multi-threaded process may
    deadlock the child, and OpenBLAS starts idle worker threads when numpy
    loads. The child calls no BLAS routine (search scoring uses einsum and
    ufuncs; only train_logistic uses @), so it never waits on a lock those
    threads hold, and exactly that warning is filtered."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore",
            message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead "
            r"to deadlocks in the child\.",
            category=DeprecationWarning,
        )
        return os.fork()


class _ChildTraceback(Exception):
    """The text of the traceback of an error that run_paired's child
    raised: the cause of the error run_paired raises for it."""


def _pickled_error(exc, trace):
    """The child's reply for an error: exc and its traceback's text,
    pickled. An error that does not come back from pickling goes as a
    RuntimeError that names its type and message."""
    try:
        reply = pickle.dumps((None, exc, trace), pickle.HIGHEST_PROTOCOL)
        pickle.loads(reply)
        return reply
    except Exception:
        lost = RuntimeError("%s: %s" % (type(exc).__name__, exc))
        return pickle.dumps((None, lost, trace), pickle.HIGHEST_PROTOCOL)


def _run_in_child(ctx, cfg, reader, writer):
    """The body of run_paired's child: run cfg alone on ctx, write the
    pickled (EAResult, None, None), or (None, error, traceback text) if the
    run raised, to the pipe, and leave with os._exit, so that no atexit
    handler runs and no inherited stdio buffer is flushed. Never
    returns."""
    status = 1
    try:
        reader.close()
        try:
            reply = pickle.dumps((_lockstep(ctx, [cfg])[0], None, None), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            reply = _pickled_error(exc, traceback.format_exc())
        writer.write(reply)
        writer.close()
        status = 0
    finally:
        os._exit(status)


def run_paired(ctx, base_cfg):
    """Run all three strategies on one point of interest, each with its own
    child seed and generator. Every run executes base_cfg.max_generations
    generations, so all three spend the same computational budget.

    Where split_runs holds, a forked child runs lex2 alone on its copy of
    ctx, while this process runs par and lex1 in lockstep: each generation
    their two batches of rows, and at the start their initial
    populations, are scored by one evaluate_population call. The child
    sends its EAResult back through a pipe, and is always reaped, and
    killed first if this process raised; an error the child's run raised
    is raised here with its type and message, caused by a _ChildTraceback
    that holds the child's traceback. Elsewhere all three runs go
    in lockstep in this process. A row's objectives do not depend on its
    batch or on the context's cache, so each run returns what it would
    return alone, on either path."""
    cfgs = [
        replace(base_cfg, strategy=strategy, seed=_child_seed(base_cfg.seed, i))
        for i, strategy in enumerate(STRATEGIES)
    ]
    if not split_runs():
        return tuple(_lockstep(ctx, cfgs))
    _check_resilience(ctx, base_cfg)
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
        pid = _fork()
        if pid == 0:
            _run_in_child(ctx, cfgs[2], reader, writer)
        writer.close()
        try:
            par, lex1 = _lockstep(ctx, cfgs[:2])
            reply = reader.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
    if not reply:
        raise ChildProcessError("the lex2 run's process ended without a result")
    lex2, error, trace = pickle.loads(reply)
    if error is not None:
        raise error from _ChildTraceback(trace)
    return par, lex1, lex2
