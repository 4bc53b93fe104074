"""Both multi-objective selection machineries.

Lexicographic: tournament rounds that winnow participants objective by
objective under a tolerance threshold, falling back to exact comparison
and finally a random pick among perfect ties. Pareto: dominance,
nondominated sorting, crowding distance, and the elitist survival fill.

All objectives are minimized. An objective ordering is a permutation of
the objective indices (0..3); validity-first orderings differ in whether
distance or sparsity is compared next.

Every routine that looks at a whole population or pool takes V, the
(n x 4) float array of its objectives (or anything np.asarray turns into
one), and returns indices into its rows: the dominance matrix, crowding
distances and the lexicographic winnow are array operations over V, and
the caller indexes its own rows with the picks. lex_tournament_select
alone returns the victors themselves, and also takes a list of
Candidates.

A tournament call draws all its entrants at once. With n members and N
rounds, two entrants per round are a = rng.integers(n, size=N) and
b = (a + 1 + rng.integers(n - 1, size=N)) % n, two distinct members;
k entrants are the first k columns of np.argsort(rng.random((N, n))),
in that order. A lexicographic tournament then draws u = rng.random(N),
and a round that ends in a perfect tie among t entrants picks the
survivor at position int(u * t), in entrant order. The crowded
tournament needs no tie draw.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation
from .objectives import row_keys

FIRST_BETTER = -1
TIE = 0
SECOND_BETTER = 1

DISTANCE_BEFORE_SPARSITY = (0, 1, 2, 3)
SPARSITY_BEFORE_DISTANCE = (0, 2, 1, 3)


@dataclass(frozen=True)
class LexParams:
    """Inputs of the lexicographic tournament: rounds, size, threshold, ordering."""

    n: int
    k: int
    theta: float
    ordering: tuple
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or not 0 <= self.theta < float("inf"):
            raise ConfigError("need n >= 1, k >= 1, finite theta >= 0")
        if sorted(self.ordering) != [0, 1, 2, 3]:
            raise ConfigError("ordering must be a permutation of objectives 0..3")


def _vector_of(item):
    return getattr(item, "objectives", item)


def lex_compare(a, b, ordering, theta):
    """Two-candidate lexicographic comparison.

    Walk objectives in priority order: the first difference above theta
    decides. If no objective differs by more than theta, repeat exactly
    (theta 0); a tie means all four values are equal. Returns -1 / 0 / 1
    for first-better / tie / second-better.
    """
    va, vb = _vector_of(a), _vector_of(b)
    thresholds = (theta, 0.0) if theta > 0 else (0.0,)
    for th in thresholds:
        for j in ordering:
            if abs(va[j] - vb[j]) > th:
                return FIRST_BETTER if va[j] < vb[j] else SECOND_BETTER
    return TIE


def _pair_entrants(n, rounds, rng):
    """Two distinct entrants per round, as two index arrays."""
    a = rng.integers(n, size=rounds)
    b = (a + 1 + rng.integers(n - 1, size=rounds)) % n
    return a, b


def _priority_columns(V, ordering):
    """The columns of an objective array in priority order, as the rows of
    one contiguous (4 x n) array."""
    return V.T[list(ordering)]


def _winnow(cols, idx, theta):
    """One pass over the objective columns in priority order, keeping the
    participants (indices into the columns) within theta of the best at
    each stage; stops early once a single survivor remains.

    A value v is kept when fl(v - best) <= theta. That difference is never
    negative and never decreases as v grows, so the kept set is the prefix
    a stable sort by the objective would keep. idx keeps its order, so the
    survivors of a perfect tie stay in participant order, as they would
    through stable sorts.
    """
    for col in cols:
        c = col[idx]
        idx = idx[c - c.min() <= theta]
        if idx.size == 1:
            break
    return idx


def _lex_survivors(cols, idx, theta):
    """Winnow under theta, then rewalk the survivors with theta 0; more than
    one survivor means a perfect tie."""
    idx = _winnow(cols, idx, theta)
    if idx.size > 1 and theta > 0:
        idx = _winnow(cols, idx, 0.0)
    return idx


def _pair_outcomes(A, B, theta):
    """lex_compare of column j of A with column j of B, for every j at once;
    A and B hold objectives in priority order (4 x rounds)."""
    diff = np.abs(A - B)
    outcome = np.zeros(A.shape[1], dtype=np.int64)
    rounds = np.arange(A.shape[1])
    for th in (theta, 0.0) if theta > 0 else (0.0,):
        apart = diff > th
        j = apart.argmax(axis=0)
        open_ = (outcome == TIE) & apart.any(axis=0)
        first = A[j, rounds] < B[j, rounds]
        outcome[open_] = np.where(first, FIRST_BETTER, SECOND_BETTER)[open_]
    return outcome


def lex_tournament_select(params, population, rng=None, V=None):
    """Run params.n tournament rounds of size params.k over the population
    and return the victors; victors across rounds may repeat. The
    population is a list of vectors or Candidates, returned as a list, or
    an array of rows whose objectives V holds, returned as an array.

    A round keeps the entrants that survive a theta pass over the
    objectives in priority order and then an exact pass; on a perfect tie
    it picks a survivor by the round's tie draw (see the module docstring
    for the draws). Two-entrant rounds are decided for all rounds at once,
    by lex_compare's rule as array comparisons; larger rounds winnow the
    population's objective array round by round.
    """
    n, k, rounds, theta = len(population), params.k, params.n, params.theta
    if k > n:
        raise ConfigError("tournament size %d exceeds population %d" % (k, n))
    if rng is None:
        rng = np.random.default_rng(params.seed)
    if V is None:
        V = np.array([_vector_of(item) for item in population], dtype=float)
    cols = _priority_columns(V, params.ordering)
    if k == 2:
        a, b = _pair_entrants(n, rounds, rng)
        u = rng.random(rounds)
        outcome = _pair_outcomes(cols[:, a], cols[:, b], theta)
        decided = np.where(outcome == FIRST_BETTER, a, b)
        picks = np.where(outcome == TIE, np.where(u < 0.5, a, b), decided)
    else:
        entrants = np.argsort(rng.random((rounds, n)), axis=1)[:, :k]
        picks = []
        for idx, draw in zip(entrants, rng.random(rounds).tolist()):
            survivors = _lex_survivors(cols, idx, theta)
            picks.append(survivors[int(draw * survivors.size)])
    if isinstance(population, np.ndarray):
        return population[picks]
    return [population[i] for i in picks]


def first_occurrences(rows):
    """Mask of each row's first occurrence in a matrix, in row order; rows
    are equal when their objectives.row_keys are."""
    keys = row_keys(rows)
    # read backwards, each key's last entry is its first occurrence
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    mask = np.zeros(len(keys), dtype=bool)
    mask[list(first.values())] = True
    return mask


def final_select_lex(rows, V, ordering, theta, rng):
    """Pick the single returned solution: the index, among rows, of the
    victor of one tournament round over the distinct rows (each row's first
    occurrence), whose objectives are V's rows. Only a perfect tie draws:
    one rng.integers over the tied rows, in row order."""
    if not len(rows):
        raise InvariantViolation("cannot select from an empty population")
    cols = _priority_columns(np.asarray(V, dtype=float), ordering)
    survivors = _lex_survivors(cols, first_occurrences(rows).nonzero()[0], theta)
    if survivors.size == 1:
        return int(survivors[0])
    return int(survivors[int(rng.integers(survivors.size))])


def lex_best_index(V, ordering, theta):
    """Deterministic winner of a tournament round over every row of V: the
    lexicographic survivors, perfect ties resolved to the smallest index."""
    cols = _priority_columns(np.asarray(V, dtype=float), ordering)
    return int(_lex_survivors(cols, np.arange(cols.shape[1]), theta)[0])


def pareto_dominates(a, b):
    """True when a is at least as good everywhere and strictly better somewhere."""
    va, vb = _vector_of(a), _vector_of(b)
    return all(x <= y for x, y in zip(va, vb)) and any(x < y for x, y in zip(va, vb))


def pareto_compare(a, b):
    """Pareto dominance as a three-way outcome, in lex_compare's terms: -1 /
    0 / 1 for a dominates b / neither dominates / b dominates a."""
    if pareto_dominates(a, b):
        return FIRST_BETTER
    if pareto_dominates(b, a):
        return SECOND_BETTER
    return TIE


def _dominance_matrix(V):
    """dom[i, j]: row i of V Pareto-dominates row j.

    le[i, j] holds when row i is no worse than row j on every objective,
    built with one 2-D comparison per objective. Then i dominates j exactly
    when le[i, j] holds and le[j, i] does not, because two rows that are
    each no worse than the other are equal.
    """
    le = V[:, 0, None] <= V[:, 0]
    for j in range(1, V.shape[1]):
        le &= V[:, j, None] <= V[:, j]
    return le & ~le.T


def _peel(dom):
    """Yield the fronts of a dominance matrix in rank order, each an index
    list in index order; a caller that stops early skips the later fronts."""
    counts = dom.sum(axis=0)
    current = (counts == 0).nonzero()[0]
    while current.size:
        yield current.tolist()
        counts -= dom[current].sum(axis=0)
        counts[current] = -1
        current = (counts == 0).nonzero()[0]


def nondominated_sort(V):
    """Partition the rows of V into fronts: index lists, front 0 dominated
    by nobody, each later front nondominated once earlier fronts are
    removed."""
    return list(_peel(_dominance_matrix(np.asarray(V, dtype=float))))


def crowding_distance(V):
    """Diversity score of each row of V, a front's objective array, as an
    array; boundary rows are infinite, interior ones accumulate normalized
    gaps between their sorted neighbors. Objectives constant across the
    front contribute nothing."""
    V = np.asarray(V, dtype=float)
    n = len(V)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(V.shape[1]):
        col = V[:, j]
        lo, hi = float(col.min()), float(col.max())
        if hi == lo:
            continue
        order = np.argsort(col, kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        gaps = (col[order[2:]] - col[order[:-2]]) / (hi - lo)
        dist[order[1:-1]] += gaps
    return dist


def nsga2_select(V, target_size):
    """Survival fill over the pool whose objectives are V's rows: whole
    fronts in rank order, the straddling front cut by descending crowding
    distance (index ascending on exact ties). Returns the survivors' index
    list, front by front, and their fronts as runs of consecutive positions
    in that list, equal to nondominated_sort(V[survivors]): whatever
    dominates a survivor in the pool lies in an earlier, whole front."""
    V = np.asarray(V, dtype=float)
    if not 1 <= target_size <= len(V):
        raise ConfigError("target size %d outside [1, %d]" % (target_size, len(V)))
    chosen, fronts = [], []
    for front in _peel(_dominance_matrix(V)):
        room = target_size - len(chosen)
        if len(front) > room:
            cd = crowding_distance(V[front]).tolist()
            ranked = sorted(range(len(front)), key=lambda t: (-cd[t], front[t]))
            front = [front[t] for t in ranked[:room]]
        fronts.append(list(range(len(chosen), len(chosen) + len(front))))
        chosen.extend(front)
        if len(chosen) == target_size:
            break
    return chosen, fronts


def crowded_tournament_select(V, n, rng, fronts=None):
    """NSGA-II parent selection over the rows of V: n binary tournaments,
    all drawn at once (see the module docstring), each decided by front
    rank, then crowding distance, then the smaller index. Returns the
    victors' index array. fronts, when given, is nondominated_sort(V),
    already computed."""
    V = np.asarray(V, dtype=float)
    size = len(V)
    if size < 2:
        raise ConfigError("need at least two candidates for binary tournaments")
    if fronts is None:
        fronts = _peel(_dominance_matrix(V))
    rank = np.zeros(size, dtype=np.int64)
    crowd = np.zeros(size)
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(V[front])
    a, b = _pair_entrants(size, n, rng)
    by_crowd = np.where(crowd[a] != crowd[b], np.where(crowd[a] > crowd[b], a, b), np.minimum(a, b))
    return np.where(rank[a] != rank[b], np.where(rank[a] < rank[b], a, b), by_crowd)


def lex_survival_select(V, target_size, ordering, theta):
    """Survival for the lexicographic path over the pool whose objectives
    are V's rows; it draws no random numbers and returns the survivors'
    index list.

    The deterministic tournament winner over the whole pool (a theta pass,
    an exact pass if more than one survives, then the smallest index) is
    kept first. Then theta-tied top groups are peeled off the remaining
    members in turn, each by one theta pass of the same winnow over the
    pool's objective array, and each group is ranked by descending
    whole-pool crowding distance, index ascending on ties, until
    target_size members are kept.
    """
    V = np.asarray(V, dtype=float)
    if target_size > len(V):
        raise ConfigError("target size %d exceeds pool %d" % (target_size, len(V)))
    cd = crowding_distance(V).tolist()
    cols = _priority_columns(V, ordering)
    best = lex_best_index(V, ordering, theta)
    ranked = [best]
    alive = np.ones(len(V), dtype=bool)
    alive[best] = False
    while len(ranked) < target_size:
        group = _winnow(cols, alive.nonzero()[0], theta)
        alive[group] = False
        ranked.extend(sorted(group.tolist(), key=lambda i: (-cd[i], i)))
    return ranked[:target_size]
