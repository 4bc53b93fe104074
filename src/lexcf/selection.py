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
Candidates. Selection never sees rows: the caller decides which rows
are equal, and hands survival and the final round only distinct ones.

One crowding kernel serves every front: crowding_distance gives each row
its distance within its front, given a front id per row, from one sort
per objective of all rows at once. The crowded tournament calls it once
for all fronts, NSGA-II survival on the front it cuts, and lexicographic
survival on the whole pool as one front. Lexicographic survival peels
theta-tied groups off the pool without re-running the winnow: each
priority column is sorted once, a stage keeps a window of its column's
order that starts at its best member, and the first three stages' kept
sets are carried from one group to the next.

A tournament call draws all its entrants at once. With n members and N
rounds, two entrants per round are a = rng.integers(n, size=N) and
b = (a + 1 + rng.integers(n - 1, size=N)) % n, two distinct members;
k entrants are the first k columns of np.argsort(rng.random((N, n))),
in that order. A lexicographic tournament then draws u = rng.random(N),
and a round that ends in a perfect tie among t entrants picks the
survivor at position int(u * t), in entrant order. The crowded
tournament needs no tie draw.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantViolation

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


def final_select_lex(V, ordering, theta, rng):
    """Pick the single returned solution: the index of the victor of one
    tournament round over every row of V. Only a perfect tie draws: one
    rng.integers over the tied rows, in row order."""
    if not len(V):
        raise InvariantViolation("cannot select from an empty population")
    cols = _priority_columns(np.asarray(V, dtype=float), ordering)
    survivors = _lex_survivors(cols, np.arange(len(V)), theta)
    return int(survivors[rng.integers(survivors.size) if survivors.size > 1 else 0])


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


def crowding_distance(V, front=None):
    """Diversity score of each row of V within its front, as an array:
    front holds a front id per row (non-negative integers; None makes
    all rows one front). Within a front, boundary rows are infinite and
    interior ones accumulate normalized gaps between their sorted
    neighbors, objective by objective; an objective constant across the
    front contributes nothing and makes no boundary, and a front of at
    most 2 rows is all infinite.

    Each objective's rows are ordered as a stable sort of each front
    alone would order them, ties by index: one stable argsort of all
    columns for a single front, and with fronts a second argsort of a
    unique key per cell, its row's front id and its rank in the column."""
    VT = np.asarray(V, dtype=float).T
    n = VT.shape[-1]
    order = np.argsort(VT, axis=1, kind="stable")
    rows = np.arange(len(VT))[:, None]
    ids = None
    if front is not None:
        front = np.asarray(front, dtype=np.int64)
        rank = np.empty(order.shape, dtype=np.int64)
        rank[rows, order] = np.arange(n)
        order = np.argsort(front * n + rank, axis=1)
        ids = front[order[0]]
    return _crowding(VT[rows, order], order, ids)


def _crowding(S, order, ids=None):
    """crowding_distance from each objective's sorted values: S[j] holds
    column j of V in the order order[j], which lists each front's rows as
    one run; ids holds the front id at each position of those runs (None
    for a single front). A front's least and greatest values are the ends
    of its run, and gaps add in objective order, as one front's loop adds
    them."""
    m, n = S.shape
    if ids is None and n <= 2:
        return np.full(n, np.inf)
    if ids is None:
        span = S[:, -1:] - S[:, :1]
        edge, small = slice(None, None, n - 1), None
    else:
        count = np.bincount(ids)
        start = (np.cumsum(count) - count)[ids]
        stop = start + count[ids] - 1
        at = np.arange(n)
        span = S[:, stop] - S[:, start]
        edge, small = (at == start) | (at == stop), stop - start < 2
    gap = np.empty(S.shape)
    gap[:, 1:-1] = S[:, 2:] - S[:, :-2]
    gap[:, edge] = np.inf
    constant = span == 0
    span[constant] = 1.0
    gap /= span
    np.copyto(gap, 0.0, where=constant)
    if small is not None:
        gap[:, small] = np.inf
    D = np.empty(S.shape)
    D[np.arange(m)[:, None], order] = gap
    dist = np.zeros(n)
    for gaps in D:
        dist += gaps
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
            ranked = np.lexsort((front, -crowding_distance(V[front])))
            front = [front[t] for t in ranked[:room].tolist()]
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
    fronts = list(fronts)
    rank = np.zeros(size, dtype=np.int64)
    if len(fronts) > 1:
        rank[[i for front in fronts for i in front]] = np.repeat(
            np.arange(len(fronts)), [len(front) for front in fronts]
        )
    crowd = crowding_distance(V, rank if len(fronts) > 1 else None)
    # each row's place in the order the tournament decides by
    place = np.empty(size, dtype=np.int64)
    place[np.lexsort((np.arange(size), -crowd, rank))] = np.arange(size)
    a, b = _pair_entrants(size, n, rng)
    return np.where(place[a] < place[b], a, b)


class _WindowEnds(dict):
    """The end of the window _winnow keeps from each position p of an
    ascending list of values, computed on first use: the first position q
    with fl(values[q] - values[p]) > theta, or len(values). bisect on
    values[p] + theta guesses it; the guess is then moved, one distinct
    value at a time, to where the rounded difference itself crosses
    theta, either way."""

    def __init__(self, values, theta):
        super().__init__()
        self.values, self.theta = values, theta

    def __missing__(self, p):
        values, theta = self.values, self.theta
        best = values[p]
        end = bisect_right(values, best + theta, p)
        while values[end - 1] - best > theta:
            end = bisect_left(values, values[end - 1], p)
        while end < len(values) and values[end] - best <= theta:
            end = bisect_right(values, values[end], end)
        self[p] = end
        return end


def lex_survival_select(V, target_size, ordering, theta):
    """Survival for the lexicographic path over the pool whose objectives
    are V's rows; it draws no random numbers and returns the survivors'
    index list.

    The deterministic tournament winner over the whole pool (a theta pass,
    an exact pass if more than one survives, then the smallest index) is
    kept first. Then theta-tied top groups are peeled off the remaining
    members in turn, each the set one theta pass of _winnow keeps, and
    each group is ranked by descending whole-pool crowding distance,
    index ascending on ties, until target_size members are kept.

    One stable argsort of the four columns serves the crowding distance
    and the peel. In each priority column's order, a stage keeps the
    window from its best member up to _WindowEnds's end, so the peel
    keeps the sets of its first three stages between groups, each as
    positions in the next column's order. Stage 1 keeps the remaining
    members in the window of the first remaining position in column 0's
    order: removing a group only takes members out of it, and it grows
    only when its best value leaves and the window slides on. Stage 2
    keeps the members of stage 1 up to the window end of its first in
    column 1's order, and stage 3 those of stage 2 up to the window end
    of its first in column 2's order; each changes beyond the group's
    removal only when that end moves or the stage before it changes, and
    is then rebuilt. The group is the window at the head of stage 3.
    """
    V = np.asarray(V, dtype=float)
    n = len(V)
    if not 1 <= target_size <= n:
        raise ConfigError("target size %d outside [1, %d]" % (target_size, n))
    VT = V.T
    order = np.argsort(VT, axis=1, kind="stable")
    rows = np.arange(len(VT))[:, None]
    S = VT[rows, order]
    # each row's place in the order of descending crowding, index ascending
    crowded = np.empty(n, dtype=np.int64)
    crowded[np.argsort(-_crowding(S, order), kind="stable")] = np.arange(n)
    crowded = crowded.tolist()
    priority = list(ordering)
    order, S = order[priority], S[priority]
    end0, end1, end2, end3 = (_WindowEnds(values, theta) for values in S.tolist())
    by0, by1, by2, by3 = order.tolist()
    at = np.empty((3, n), dtype=np.int64)  # each row's position in columns 1-3
    at[rows[:3], order[1:]] = np.arange(n)
    at1, at3 = at[0].tolist(), at[2].tolist()
    # a position in column k's order mapped to its row's in column k + 1's
    to2, to3 = at[1, order[1]].tolist(), at[2, order[2]].tolist()
    alive = [True] * n
    # stage k holds the members it keeps as their positions in column k's
    # order, ascending; stages 1 and 2 hold dead ones too, which head1
    # and head2 skip at their front and the rebuild of stage 3 drops.
    # Stage 1 holds the members at by0's positions from first (the first
    # alive) up to reach, stage 2 those of stage 1 below the window end
    # stop1 of its first, stage 3 those of stage 2 below stop2 of its first
    stage1, head1, first, reach = [], 0, 0, 0
    stage2, head2, stage3, stop1, stop2 = [], 0, [], None, None
    ranked = []
    while len(ranked) < target_size:
        while not alive[by0[first]]:
            first += 1
        grown = end0[first] > reach
        if grown:
            # no group has taken a member beyond reach yet
            stage1 = sorted(stage1[head1:] + [at1[i] for i in by0[reach : end0[first]]])
            head1, reach = 0, end0[first]
        while not alive[by1[stage1[head1]]]:
            head1 += 1
        if grown or end1[stage1[head1]] != stop1:
            stop1, stop2 = end1[stage1[head1]], None
            window = stage1[head1 : bisect_left(stage1, stop1, head1)]
            stage2, head2 = sorted([to2[q] for q in window]), 0
        while not alive[by2[stage2[head2]]]:
            head2 += 1
        if end2[stage2[head2]] != stop2:
            stop2 = end2[stage2[head2]]
            window = stage2[head2 : bisect_left(stage2, stop2, head2)]
            stage3 = sorted([to3[q] for q in window if alive[by2[q]]])
        t = bisect_left(stage3, end3[stage3[0]])
        group = [by3[q] for q in stage3[:t]]
        if ranked:
            del stage3[:t]
        else:
            if len(group) > 1 and theta > 0:
                group = _winnow(VT[priority], np.array(group), 0.0).tolist()
            group = [min(group)]
            del stage3[bisect_left(stage3, at3[group[0]])]
        for i in group:
            alive[i] = False
        if len(group) > 1:
            group.sort(key=crowded.__getitem__)
        ranked.extend(group)
    return ranked[:target_size]
