"""Both multi-objective selection machineries.

Lexicographic: tournament rounds that winnow participants objective by
objective under a tolerance threshold, falling back to exact comparison
and finally a random pick among perfect ties. Pareto: dominance,
nondominated sorting, crowding distance, and the elitist survival fill.

All objectives are minimized. An objective ordering is a permutation of
the objective indices (0..3); validity-first orderings differ in whether
distance or sparsity is compared next.
"""

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
        if self.n < 1 or self.k < 1 or self.theta < 0:
            raise ConfigError("need n >= 1, k >= 1, theta >= 0")
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


def _winnow(indices, vectors, ordering, theta):
    """One pass over the objectives, retaining the best participant plus all
    within theta at each stage; stops early once a single survivor remains."""
    survivors = list(indices)
    for j in ordering:
        survivors.sort(key=lambda idx: vectors[idx][j])
        best = vectors[survivors[0]][j]
        m = 1
        while m < len(survivors) and abs(vectors[survivors[m]][j] - best) <= theta:
            m += 1
        survivors = survivors[:m]
        if len(survivors) == 1:
            break
    return survivors


def _lex_survivors(indices, vectors, ordering, theta):
    """Winnow under theta, then rewalk the survivors with theta 0; more than
    one survivor means a perfect tie."""
    survivors = _winnow(indices, vectors, ordering, theta)
    if len(survivors) > 1 and theta > 0:
        survivors = _winnow(survivors, vectors, ordering, 0.0)
    return survivors


def _tournament_round(indices, vectors, ordering, theta, rng):
    """One tournament round: the lexicographic survivors, and only then a
    random victor among perfect ties."""
    survivors = _lex_survivors(indices, vectors, ordering, theta)
    if len(survivors) == 1:
        return survivors[0]
    return survivors[int(rng.integers(len(survivors)))]


def lex_tournament_select(params, population, rng=None):
    """Run params.n tournament rounds of size params.k over the population.

    Participants are sampled without replacement within a round; victors
    across rounds may repeat. Returns the list of victors.
    """
    if params.k > len(population):
        raise ConfigError(
            "tournament size %d exceeds population %d" % (params.k, len(population))
        )
    if rng is None:
        rng = np.random.default_rng(params.seed)
    vectors = [_vector_of(c) for c in population]
    victors = []
    for _ in range(params.n):
        entrants = rng.choice(len(population), size=params.k, replace=False)
        winner = _tournament_round(entrants.tolist(), vectors, params.ordering, params.theta, rng)
        victors.append(population[winner])
    return victors


def final_select_lex(last_population, ordering, theta, rng=None):
    """Pick the single returned solution: deduplicate by feature values, then
    run one tournament round over every distinct individual."""
    if not last_population:
        raise InvariantViolation("cannot select from an empty population")
    if rng is None:
        rng = np.random.default_rng(0)
    distinct = []
    seen = set()
    for cand in last_population:
        key = tuple(getattr(cand, "values", cand))
        if key not in seen:
            seen.add(key)
            distinct.append(cand)
    vectors = [_vector_of(c) for c in distinct]
    winner = _tournament_round(list(range(len(distinct))), vectors, ordering, theta, rng)
    return distinct[winner]


def lex_best_index(population, ordering, theta):
    """Deterministic winner of a full-population tournament round (no random
    tie-break: perfect ties resolve to the smallest index)."""
    vectors = [_vector_of(c) for c in population]
    return min(_lex_survivors(range(len(population)), vectors, ordering, theta))


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


def _dominance_matrix(vectors):
    V = np.array(vectors, dtype=float)
    le = (V[:, None, :] <= V[None, :, :]).all(axis=2)
    lt = (V[:, None, :] < V[None, :, :]).any(axis=2)
    return le & lt


def nondominated_sort(population):
    """Partition into fronts: index lists, front 0 dominated by nobody, each
    later front nondominated once earlier fronts are removed."""
    if not population:
        return []
    vectors = [_vector_of(c) for c in population]
    dom = _dominance_matrix(vectors)
    counts = dom.sum(axis=0).astype(np.int64)
    fronts = []
    current = np.nonzero(counts == 0)[0]
    while current.size:
        fronts.append(current.tolist())
        counts = counts - dom[current].sum(axis=0)
        counts[current] = -1
        current = np.nonzero(counts == 0)[0]
    return fronts


def crowding_distance(front):
    """Diversity score per front member; boundary candidates are infinite,
    interior ones accumulate normalized gaps between their sorted neighbors.
    Objectives constant across the front contribute nothing."""
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    V = np.array([_vector_of(c) for c in front], dtype=float)
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
    return dist.tolist()


def nsga2_select(pool, target_size):
    """Survival fill: whole fronts in rank order, the straddling front cut by
    descending crowding distance (index ascending on exact ties)."""
    if target_size > len(pool):
        raise ConfigError("target size %d exceeds pool %d" % (target_size, len(pool)))
    chosen = []
    for front in nondominated_sort(pool):
        if len(chosen) + len(front) <= target_size:
            chosen.extend(front)
            if len(chosen) == target_size:
                break
            continue
        cd = crowding_distance([pool[i] for i in front])
        ranked = sorted(range(len(front)), key=lambda t: (-cd[t], front[t]))
        chosen.extend(front[t] for t in ranked[: target_size - len(chosen)])
        break
    return [pool[i] for i in chosen]


def crowded_tournament_select(population, n, rng):
    """NSGA-II parent selection: binary tournaments decided by front rank,
    then crowding distance, then the smaller index."""
    if len(population) < 2:
        raise ConfigError("need at least two candidates for binary tournaments")
    fronts = nondominated_sort(population)
    rank = [0] * len(population)
    crowd = [0.0] * len(population)
    for r, front in enumerate(fronts):
        cd = crowding_distance([population[i] for i in front])
        for i, c in zip(front, cd):
            rank[i] = r
            crowd[i] = c
    victors = []
    for _ in range(n):
        i, j = (int(t) for t in rng.choice(len(population), size=2, replace=False))
        if rank[i] != rank[j]:
            winner = i if rank[i] < rank[j] else j
        elif crowd[i] != crowd[j]:
            winner = i if crowd[i] > crowd[j] else j
        else:
            winner = min(i, j)
        victors.append(population[winner])
    return victors


def lex_survival_select(pool, target_size, ordering, theta):
    """Survival for the lexicographic path: the deterministic tournament
    winner is kept unconditionally, then theta-tied top groups are extracted
    in turn, each ordered by descending whole-pool crowding distance."""
    if target_size > len(pool):
        raise ConfigError("target size %d exceeds pool %d" % (target_size, len(pool)))
    vectors = [_vector_of(c) for c in pool]
    cd = crowding_distance(pool)
    best = lex_best_index(pool, ordering, theta)
    ranked = [best]
    remaining = [i for i in range(len(pool)) if i != best]
    while remaining and len(ranked) < target_size:
        group = _winnow(remaining, vectors, ordering, theta)
        members = set(group)
        ranked.extend(sorted(group, key=lambda i: (-cd[i], i)))
        remaining = [i for i in remaining if i not in members]
    return [pool[i] for i in ranked[:target_size]]
