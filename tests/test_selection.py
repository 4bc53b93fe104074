import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcf.ea import _first_occurrences
from lexcf.errors import ConfigError, InvariantViolation
from lexcf.selection import (
    DISTANCE_BEFORE_SPARSITY,
    FIRST_BETTER,
    SECOND_BETTER,
    SPARSITY_BEFORE_DISTANCE,
    TIE,
    LexParams,
    crowded_tournament_select,
    crowding_distance,
    final_select_lex,
    lex_best_index,
    lex_compare,
    lex_survival_select,
    lex_tournament_select,
    nondominated_sort,
    nsga2_select,
    pareto_dominates,
)
from lexcf.selection import _WindowEnds


@dataclass(frozen=True)
class Cand:
    values: tuple
    objectives: tuple


def vec4(o1, o2, o3, o4):
    return (float(o1), float(o2), int(o3), float(o4))


# small pools reused across tests
LADDER = [vec4(0, 3, 0, 5), vec4(1, 2, 0, 5), vec4(2, 1, 0, 5), vec4(3, 0, 0, 5)]


def test_lex_compare_first_decisive_objective_wins():
    a = vec4(0.0, 0.3, 2, 0.1)
    b = vec4(0.1, 0.2, 1, 0.0)
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.01) == FIRST_BETTER
    assert lex_compare(b, a, DISTANCE_BEFORE_SPARSITY, 0.01) == SECOND_BETTER


def test_lex_compare_theta_masks_then_exact_pass_decides():
    # every objective within theta, so the exact pass runs and the highest
    # priority objective with any difference decides
    a = vec4(0.0, 0.105, 1, 0.0)
    b = vec4(0.005, 0.1, 1, 0.0)
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.01) == FIRST_BETTER


def test_lex_compare_tie_requires_exact_equality():
    a = vec4(0.0, 0.2, 1, 0.3)
    assert lex_compare(a, tuple(a), DISTANCE_BEFORE_SPARSITY, 0.01) == TIE
    b = vec4(0.0, 0.2, 1, 0.3 + 1e-9)
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.01) == FIRST_BETTER


def test_lex_compare_ordering_changes_outcome():
    a = vec4(0.0, 0.5, 0, 0.0)
    b = vec4(0.0, 0.0, 3, 0.0)
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.01) == SECOND_BETTER
    assert lex_compare(a, b, SPARSITY_BEFORE_DISTANCE, 0.01) == FIRST_BETTER


def test_lex_compare_threshold_applies_to_sparsity_counts():
    a = vec4(0.0, 0.0, 2, 0.0)
    b = vec4(0.0, 0.0, 3, 0.9)
    # a unit sparsity gap exceeds a small theta and decides directly
    assert lex_compare(a, b, SPARSITY_BEFORE_DISTANCE, 0.01) == FIRST_BETTER


def test_lex_compare_masking_promotes_lower_objective():
    # the distance gap sits inside theta while the sparsity gap does not, so
    # under theta the decision falls to sparsity; at theta 0 distance decides
    a = vec4(0.0, 0.0, 3, 0.0)
    b = vec4(0.0, 0.005, 0, 0.0)
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.01) == SECOND_BETTER
    assert lex_compare(a, b, DISTANCE_BEFORE_SPARSITY, 0.0) == FIRST_BETTER


@given(
    a=st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(0, 4), st.floats(0, 1)),
    b=st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(0, 4), st.floats(0, 1)),
    theta=st.sampled_from([0.0, 0.01, 0.1]),
)
def test_lex_compare_antisymmetric(a, b, theta):
    for ordering in (DISTANCE_BEFORE_SPARSITY, SPARSITY_BEFORE_DISTANCE):
        assert lex_compare(a, b, ordering, theta) == -lex_compare(b, a, ordering, theta)
        assert lex_compare(a, a, ordering, theta) == TIE


def test_lex_params_validation():
    with pytest.raises(ConfigError):
        LexParams(0, 2, 0.01, DISTANCE_BEFORE_SPARSITY)
    for theta in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite theta"):
            LexParams(1, 2, theta, DISTANCE_BEFORE_SPARSITY)
    with pytest.raises(ConfigError):
        LexParams(1, 2, 0.01, (0, 1, 2))
    with pytest.raises(ConfigError):
        LexParams(1, 2, 0.01, (0, 1, 2, 2))


# The rewalk trace: under theta the pool narrows to {M, N}; the exact pass
# then runs over those survivors, not the original entrants, so M wins even
# though L holds the single best validity value.
L = vec4(0.00, 0.020, 0, 0.000)
M = vec4(0.01, 0.000, 0, 0.000)
N = vec4(0.01, 0.005, 0, 0.005)


def test_tournament_rewalks_survivors_not_entrants():
    pop = [L, M, N]
    assert lex_best_index(pop, DISTANCE_BEFORE_SPARSITY, 0.01) == 1
    params = LexParams(n=1, k=3, theta=0.01, ordering=DISTANCE_BEFORE_SPARSITY, seed=0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert lex_tournament_select(params, pop, rng) == [M]


def test_tournament_random_pick_only_on_perfect_tie():
    twin_a = Cand(("a",), vec4(0.0, 0.1, 1, 0.2))
    twin_b = Cand(("b",), vec4(0.0, 0.1, 1, 0.2))
    pop = [twin_a, twin_b]
    params = LexParams(n=40, k=2, theta=0.01, ordering=DISTANCE_BEFORE_SPARSITY)
    victors = lex_tournament_select(params, pop, np.random.default_rng(7))
    names = {v.values for v in victors}
    assert names == {("a",), ("b",)}  # both sampled over 40 rounds


def test_tournament_seeded_determinism():
    pop = [vec4(0, i * 0.01, i % 3, 0) for i in range(8)]
    params = LexParams(n=10, k=2, theta=0.01, ordering=SPARSITY_BEFORE_DISTANCE, seed=42)
    assert lex_tournament_select(params, pop) == lex_tournament_select(params, pop)
    other = LexParams(n=10, k=2, theta=0.01, ordering=SPARSITY_BEFORE_DISTANCE, seed=43)
    runs = {tuple(map(tuple, lex_tournament_select(p, pop))) for p in (params, other)}
    assert len(runs) == 2


def test_tournament_k_exceeding_population():
    params = LexParams(n=1, k=4, theta=0.01, ordering=DISTANCE_BEFORE_SPARSITY)
    with pytest.raises(ConfigError):
        lex_tournament_select(params, [L, M], np.random.default_rng(0))


def test_tournament_without_replacement_always_finds_best():
    best = vec4(0.0, 0.0, 0, 0.0)
    worse = vec4(0.3, 0.5, 2, 0.5)
    params = LexParams(n=50, k=2, theta=0.01, ordering=DISTANCE_BEFORE_SPARSITY)
    victors = lex_tournament_select(params, [worse, best], np.random.default_rng(3))
    assert victors == [best] * 50


def test_tournament_victor_count_and_membership():
    pop = [vec4(i * 0.1, 0, 0, 0) for i in range(6)]
    params = LexParams(n=9, k=3, theta=0.0, ordering=DISTANCE_BEFORE_SPARSITY)
    victors = lex_tournament_select(params, pop, np.random.default_rng(1))
    assert len(victors) == 9
    assert all(v in pop for v in victors)


def test_final_select_dedups_by_slots():
    # five copies of one row and one distinct better one: the search hands
    # the round each slot's first occurrence, two rows, and the round picks
    # the better deterministically
    slots = np.array([4, 4, 4, 9, 4, 4])
    worse, best = vec4(0.1, 0.1, 1, 0.1), vec4(0.0, 0.0, 1, 0.1)
    V = np.array([worse] * 3 + [best] + [worse] * 2)
    distinct = np.flatnonzero(_first_occurrences(slots))
    assert distinct.tolist() == [0, 3]
    rng = np.random.default_rng(0)
    assert distinct[final_select_lex(V[distinct], DISTANCE_BEFORE_SPARSITY, 0.01, rng)] == 3
    # a deterministic pick draws nothing
    assert rng.random() == np.random.default_rng(0).random()


def test_final_select_perfect_tie_samples_among_distinct():
    # rows 0 and 2 share a slot; a perfect tie draws among the first
    # occurrences, rows 0 and 1, with one rng.integers
    slots = np.array([5, 2, 5])
    V = np.array([vec4(0.0, 0.1, 1, 0.2)] * 3)
    distinct = np.flatnonzero(_first_occurrences(slots))
    picks = set()
    for seed in range(20):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        pick = int(distinct[final_select_lex(V[distinct], DISTANCE_BEFORE_SPARSITY, 0.01, rng)])
        assert pick == int(twin.integers(2)) and rng.random() == twin.random()
        picks.add(pick)
    assert picks == {0, 1}


def test_final_select_empty_population():
    with pytest.raises(InvariantViolation):
        final_select_lex(np.empty((0, 4)), DISTANCE_BEFORE_SPARSITY, 0.01,
                         np.random.default_rng(0))


def test_pareto_dominates_basic():
    a = vec4(0, 0, 0, 0)
    b = vec4(0, 1, 0, 0)
    assert pareto_dominates(a, b)
    assert not pareto_dominates(b, a)
    assert not pareto_dominates(a, a)  # equal vectors do not dominate
    c = vec4(1, 0, 0, 0)
    assert not pareto_dominates(b, c) and not pareto_dominates(c, b)


@given(
    v=st.tuples(st.floats(0, 1), st.floats(0, 1), st.integers(0, 4), st.floats(0, 1))
)
def test_pareto_dominance_irreflexive(v):
    assert not pareto_dominates(v, v)


def _oracle_fronts(vectors):
    remaining = list(range(len(vectors)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(pareto_dominates(vectors[j], vectors[i]) for j in remaining)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in set(front)]
    return fronts


def test_nondominated_sort_hand_example():
    pop = [
        vec4(0, 3, 0, 5),   # front 0
        vec4(1, 2, 0, 5),   # front 0
        vec4(1, 3, 0, 5),   # dominated by both above? only by (1,2) and (0,3)
        vec4(2, 4, 1, 6),   # dominated deeper
    ]
    fronts = nondominated_sort(pop)
    assert fronts == _oracle_fronts(pop)
    assert fronts[0] == [0, 1]


def test_nondominated_sort_matches_oracle_on_random_pools(rng):
    for _ in range(200):
        n = int(rng.integers(1, 30))
        pop = [
            vec4(rng.integers(0, 4) * 0.1, rng.random(), rng.integers(0, 4), rng.random())
            for _ in range(n)
        ]
        assert nondominated_sort(pop) == _oracle_fronts(pop)


def test_nondominated_sort_duplicates_share_front():
    pop = [vec4(0, 0, 0, 0)] * 3 + [vec4(1, 1, 1, 1)]
    assert nondominated_sort(pop) == [[0, 1, 2], [3]]


def test_nondominated_sort_empty():
    assert nondominated_sort(np.empty((0, 4))) == []


def test_crowding_distance_small_fronts():
    assert crowding_distance(np.empty((0, 4))).tolist() == []
    assert crowding_distance([vec4(0, 0, 0, 0)]).tolist() == [float("inf")]
    assert crowding_distance(LADDER[:2]).tolist() == [float("inf")] * 2


def test_crowding_distance_hand_computed():
    cd = crowding_distance(LADDER)
    assert cd[0] == float("inf") and cd[3] == float("inf")
    assert cd[1] == pytest.approx(4.0 / 3.0)
    assert cd[2] == pytest.approx(4.0 / 3.0)
    assert not any(np.isnan(cd))


def test_crowding_distance_skips_constant_objectives():
    # all objectives constant: nobody accumulates anything, nobody is nan
    front = [vec4(1, 1, 1, 1)] * 4
    cd = crowding_distance(front)
    assert cd.tolist() == [0.0] * 4


def test_crowding_distance_boundary_always_infinite():
    front = [vec4(0, 5, 0, 0), vec4(1, 4, 0, 0), vec4(9, 1, 0, 0), vec4(10, 0, 0, 0)]
    cd = crowding_distance(front)
    assert cd[0] == float("inf") and cd[3] == float("inf")
    assert 0.0 < cd[1] < float("inf") and 0.0 < cd[2] < float("inf")


def test_nsga2_select_whole_fronts_then_cut():
    pool = LADDER + [vec4(5, 5, 0, 5)]  # last one dominated by all of LADDER
    got, fronts = nsga2_select(pool, 5)
    assert [pool[i] for i in got] == pool  # both fronts fit exactly
    assert fronts == [[0, 1, 2, 3], [4]]
    cut, fronts = nsga2_select(pool, 3)
    # boundary members survive first, then the lower-index interior one
    assert [pool[i] for i in cut] == [pool[0], pool[3], pool[1]]
    assert fronts == [[0, 1, 2]]


def test_nsga2_select_errors_and_identity():
    for target in (0, 5):
        with pytest.raises(ConfigError):
            nsga2_select(LADDER, target)
    assert nsga2_select(LADDER, 4) == ([0, 1, 2, 3], [[0, 1, 2, 3]])


@settings(max_examples=60)
@given(data=st.data())
def test_nsga2_select_size_and_membership(data):
    n = data.draw(st.integers(1, 20))
    pool = [
        data.draw(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.2]),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.integers(0, 3),
                st.sampled_from([0.0, 0.5]),
            )
        )
        for _ in range(n)
    ]
    target = data.draw(st.integers(1, n))
    got, _ = nsga2_select(pool, target)
    assert len(got) == target
    pool_left = list(pool)
    for item in [pool[i] for i in got]:
        assert item in pool_left
        pool_left.remove(item)


def test_crowded_tournament_rank_dominates_everything():
    best = vec4(0, 0, 0, 0)
    worse = vec4(1, 1, 1, 1)
    pool = [worse, best]
    victors = crowded_tournament_select(pool, 20, np.random.default_rng(2))
    assert [pool[i] for i in victors] == [best] * 20


def test_crowded_tournament_prefers_spread_within_front():
    x = vec4(0, 4, 0, 0)
    y = vec4(1, 1, 0, 0)  # interior, finite crowding
    z = vec4(4, 0, 0, 0)
    pool = [x, y, z]
    victors = [pool[i] for i in crowded_tournament_select(pool, 30, np.random.default_rng(5))]
    assert y not in victors
    assert set(map(tuple, victors)) <= {tuple(x), tuple(z)}


def test_crowded_tournament_needs_two():
    with pytest.raises(ConfigError):
        crowded_tournament_select([vec4(0, 0, 0, 0)], 3, np.random.default_rng(0))


def test_lex_survival_keeps_deterministic_best_first():
    pool = [
        vec4(0.0, 1.0, 0, 0.0),
        vec4(0.0, 1.0, 0, 0.0),
        vec4(0.2, 0.0, 0, 0.0),
        vec4(0.4, 0.0, 0, 0.0),
        vec4(0.4, 5.0, 0, 0.0),
    ]
    got = lex_survival_select(pool, 3, DISTANCE_BEFORE_SPARSITY, 0.01)
    assert [pool[i] for i in got] == [pool[0], pool[1], pool[2]]
    full = lex_survival_select(pool, 5, DISTANCE_BEFORE_SPARSITY, 0.01)
    assert sorted(pool[i] for i in full) == sorted(map(tuple, pool))


def test_lex_survival_orders_theta_group_by_crowding():
    pool = [
        vec4(0.000, 0, 0, 0),
        vec4(0.005, 1, 0, 0),
        vec4(0.010, 1, 0, 0),
        vec4(0.009, 1, 0, 0),
    ]
    got = lex_survival_select(pool, 3, DISTANCE_BEFORE_SPARSITY, 0.01)
    # best first, then the theta-tied group by descending whole-pool crowding
    # (infinite-crowding members precede the interior one, index breaks ties)
    assert [pool[i] for i in got] == [pool[0], pool[2], pool[3]]


def test_lex_survival_respects_ordering_argument():
    a = vec4(0.0, 0.9, 0, 0.0)
    b = vec4(0.0, 0.0, 2, 0.0)
    got1 = lex_survival_select([a, b], 1, DISTANCE_BEFORE_SPARSITY, 0.01)
    got2 = lex_survival_select([a, b], 1, SPARSITY_BEFORE_DISTANCE, 0.01)
    assert got1 == [1]  # b
    assert got2 == [0]  # a


def test_lex_survival_target_exceeds_pool():
    # targets outside [1, pool size] are refused, as nsga2_select refuses them
    for target in (9, 0):
        with pytest.raises(ConfigError, match=r"target size %d outside \[1, \d+\]" % target):
            lex_survival_select(LADDER, target, DISTANCE_BEFORE_SPARSITY, 0.01)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_window_ends_match_brute_force(data):
    # ascending values with few distinct ones: theta-near pairs such as
    # (-0.5, -0.49) at theta 0.01, -0.0 next to 0.0, and theta 0
    near = st.sampled_from([-0.5, -0.49, -0.0, 0.0, 0.01, 0.06, 0.07, 0.0700001, 0.11, 0.12])
    cells = st.one_of(near, st.floats(-1.0, 1.0))
    distinct = data.draw(st.lists(cells, min_size=1, max_size=6))
    values = sorted(data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30)))
    theta = data.draw(st.one_of(st.sampled_from([0.0, 0.01]), st.floats(0.0, 1.0)))
    ends = _WindowEnds(values, theta)
    for p in data.draw(st.permutations(range(len(values)))):
        brute = next((q for q in range(len(values)) if values[q] - values[p] > theta), len(values))
        assert ends[p] == brute


def test_orderings_are_permutations():
    for ordering in (DISTANCE_BEFORE_SPARSITY, SPARSITY_BEFORE_DISTANCE):
        assert sorted(ordering) == [0, 1, 2, 3]
    assert DISTANCE_BEFORE_SPARSITY.index(1) < DISTANCE_BEFORE_SPARSITY.index(2)
    assert SPARSITY_BEFORE_DISTANCE.index(2) < SPARSITY_BEFORE_DISTANCE.index(1)


# Sort-based references for the array kernels: lexicographic winnowing by
# stable sorts of Python lists, and dominance from a 3-D broadcast. The
# kernels must return exactly what these return and make the same random
# draws in the same order: the tournaments draw in the batched order the
# selection module documents, and each round is decided by list sorts.


def _oracle_winnow(indices, vectors, ordering, theta):
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


def _oracle_lex_survivors(indices, vectors, ordering, theta):
    survivors = _oracle_winnow(indices, vectors, ordering, theta)
    if len(survivors) > 1 and theta > 0:
        survivors = _oracle_winnow(survivors, vectors, ordering, 0.0)
    return survivors


def _oracle_round(indices, vectors, ordering, theta, rng):
    survivors = _oracle_lex_survivors(indices, vectors, ordering, theta)
    if len(survivors) == 1:
        return survivors[0]
    return survivors[int(rng.integers(len(survivors)))]


def _oracle_entrants(n, k, rounds, rng):
    """Entrant lists in the documented batched draw order."""
    if k == 2:
        a = rng.integers(n, size=rounds)
        b = (a + 1 + rng.integers(n - 1, size=rounds)) % n
        return list(zip(a.tolist(), b.tolist()))
    return np.argsort(rng.random((rounds, n)), axis=1)[:, :k].tolist()


def _oracle_tournament(params, population, rng):
    vectors = [c.objectives for c in population]
    entrants = _oracle_entrants(len(population), params.k, params.n, rng)
    victors = []
    for idx, u in zip(entrants, rng.random(params.n).tolist()):
        survivors = _oracle_lex_survivors(idx, vectors, params.ordering, params.theta)
        victors.append(population[survivors[int(u * len(survivors))]])
    return victors


def _oracle_crowding(V):
    """Crowding distance of one front, the rows of V, one objective at a
    time: the per-front routine the all-fronts kernel replaced."""
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


def _oracle_crowding_by_front(V, front):
    """_oracle_crowding run on each front alone, its rows in index order."""
    V, front = np.asarray(V, dtype=float), np.asarray(front)
    dist = np.empty(len(V))
    for f in np.unique(front):
        rows = np.flatnonzero(front == f)
        dist[rows] = _oracle_crowding(V[rows])
    return dist


def _oracle_nsga2(V, target_size):
    """The survival fill with the straddling front cut by a list sort on
    (descending crowding, index)."""
    V = np.asarray(V, dtype=float)
    chosen, fronts = [], []
    for front in _oracle_sort([Cand((), tuple(v)) for v in V.tolist()]):
        room = target_size - len(chosen)
        if len(front) > room:
            cd = _oracle_crowding(V[front]).tolist()
            ranked = sorted(range(len(front)), key=lambda t: (-cd[t], front[t]))
            front = [front[t] for t in ranked[:room]]
        fronts.append(list(range(len(chosen), len(chosen) + len(front))))
        chosen.extend(front)
        if len(chosen) == target_size:
            break
    return chosen, fronts


def _oracle_peel(V, target_size, ordering, theta):
    """The lexicographic survival that re-runs every winnow stage, as masked
    numpy passes, over all remaining members at each peel."""
    V = np.asarray(V, dtype=float)
    cols = V.T[list(ordering)]

    def winnow(idx, th):
        for col in cols:
            c = col[idx]
            idx = idx[c - c.min() <= th]
            if idx.size == 1:
                break
        return idx

    cd = _oracle_crowding(V).tolist()
    survivors = winnow(np.arange(len(V)), theta)
    if survivors.size > 1 and theta > 0:
        survivors = winnow(survivors, 0.0)
    ranked = [int(survivors[0])]
    alive = np.ones(len(V), dtype=bool)
    alive[ranked[0]] = False
    while len(ranked) < target_size:
        group = winnow(alive.nonzero()[0], theta)
        alive[group] = False
        ranked.extend(sorted(group.tolist(), key=lambda i: (-cd[i], i)))
    return ranked[:target_size]


def _oracle_crowded_tournament(population, rounds, rng):
    rank, crowd = {}, {}
    for r, front in enumerate(_oracle_sort(population)):
        front_V = np.array([population[i].objectives for i in front])
        for i, cd in zip(front, _oracle_crowding(front_V).tolist()):
            rank[i], crowd[i] = r, cd
    victors = []
    for pair in _oracle_entrants(len(population), 2, rounds, rng):
        ranked = sorted(pair, key=lambda i: (rank[i], -crowd[i], i))
        victors.append(population[ranked[0]])
    return victors


def _oracle_survival(pool, target_size, ordering, theta):
    vectors = [c.objectives for c in pool]
    cd = _oracle_crowding(vectors).tolist()
    best = min(_oracle_lex_survivors(range(len(pool)), vectors, ordering, theta))
    ranked = [best]
    remaining = [i for i in range(len(pool)) if i != best]
    while remaining and len(ranked) < target_size:
        group = _oracle_winnow(remaining, vectors, ordering, theta)
        members = set(group)
        ranked.extend(sorted(group, key=lambda i: (-cd[i], i)))
        remaining = [i for i in remaining if i not in members]
    return [pool[i] for i in ranked[:target_size]]


def _oracle_sort(population):
    V = np.array([c.objectives for c in population], dtype=float)
    le = (V[:, None, :] <= V[None, :, :]).all(axis=2)
    lt = (V[:, None, :] < V[None, :, :]).any(axis=2)
    dom = le & lt
    counts = dom.sum(axis=0).astype(np.int64)
    fronts = []
    current = np.nonzero(counts == 0)[0]
    while current.size:
        fronts.append(current.tolist())
        counts = counts - dom[current].sum(axis=0)
        counts[current] = -1
        current = np.nonzero(counts == 0)[0]
    return fronts


# Value sets with theta-near gaps: 0.01 - 0.0 is exactly theta, 0.07 - 0.06
# and -0.49 - -0.5 round to just above it, 0.11 - 0.1 and 0.12 - 0.11 to
# just below. Negative o1 values are what resilient validity produces.
_NEAR_TIES = st.tuples(
    st.sampled_from([-0.5, -0.49, 0.0, 0.01, 0.06, 0.07, 0.0700001, 0.3]),
    st.sampled_from([0.1, 0.11, 0.12, 0.5]),
    st.integers(0, 3),
    st.sampled_from([-0.0, 0.0, 0.005, 0.015, 0.2]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_array_kernels_match_sort_oracles(data):
    # a few distinct vectors drawn many times, so exact duplicates abound
    distinct = data.draw(st.lists(_NEAR_TIES, min_size=1, max_size=12))
    vectors = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    pool = [Cand((i,), v) for i, v in enumerate(vectors)]
    n = len(pool)
    theta = data.draw(st.sampled_from([0.0, 0.01]))
    ordering = data.draw(st.sampled_from([DISTANCE_BEFORE_SPARSITY, SPARSITY_BEFORE_DISTANCE]))
    seed = data.draw(st.integers(0, 2**16))

    vecs = [c.objectives for c in pool]
    V = np.array(vecs, dtype=float)
    ids = np.arange(n)
    fronts = _oracle_sort(pool)
    assert nondominated_sort(V) == fronts

    best = min(_oracle_lex_survivors(range(n), vecs, ordering, theta))
    assert lex_best_index(V, ordering, theta) == best
    target = data.draw(st.integers(1, n))
    survivors = lex_survival_select(V, target, ordering, theta)
    assert [pool[i] for i in survivors] == _oracle_survival(pool, target, ordering, theta)

    # the list of vectors, turned into the objective array, gives the same picks
    assert lex_survival_select(vecs, target, ordering, theta) == survivors
    assert nsga2_select(vecs, target) == nsga2_select(V, target) == _oracle_nsga2(V, target)

    for k in (1, 2, 3):
        if k > n:
            continue
        params = LexParams(n=25, k=k, theta=theta, ordering=ordering)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        victors = lex_tournament_select(params, pool, rng_new)
        assert victors == _oracle_tournament(params, pool, rng_old)
        assert rng_new.random() == rng_old.random()
        picks = lex_tournament_select(params, ids, np.random.default_rng(seed), V=V)
        assert [pool[i] for i in picks] == victors

    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = final_select_lex(V, ordering, theta, rng_new)
    assert got == _oracle_round(list(range(n)), vecs, ordering, theta, rng_old)
    assert rng_new.random() == rng_old.random()
    # rows that repeat enter the round once, at their first occurrence by
    # slot; equal vectors share a slot, numbered out of row order
    slots = np.array([sorted(set(vecs)).index(v) for v in vecs])
    distinct = [i for i in range(n) if vecs[i] not in vecs[:i]]
    first = np.flatnonzero(_first_occurrences(slots))
    assert first.tolist() == distinct
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = first[final_select_lex(V[first], ordering, theta, rng_new)]
    assert got == _oracle_round(distinct, vecs, ordering, theta, rng_old)
    assert rng_new.random() == rng_old.random()

    if n >= 2:
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = crowded_tournament_select(V, 25, rng_new)
        assert [pool[i] for i in picks] == _oracle_crowded_tournament(pool, 25, rng_old)
        assert rng_new.random() == rng_old.random()
        given_fronts = crowded_tournament_select(V, 25, np.random.default_rng(seed), fronts)
        assert given_fronts.tolist() == picks.tolist()
        from_list = crowded_tournament_select(vecs, 25, np.random.default_rng(seed), fronts)
        assert from_list.tolist() == picks.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_rounds_follow_lex_compare(data):
    # every two-entrant round, decided for all rounds at once, names the
    # winner lex_compare names for its drawn pair, and the tie draw picks
    # the first entrant below 1/2
    distinct = data.draw(st.lists(_NEAR_TIES, min_size=1, max_size=6))
    vectors = data.draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=20))
    pool = [Cand((i,), v) for i, v in enumerate(vectors)]
    theta = data.draw(st.sampled_from([0.0, 0.01]))
    ordering = data.draw(st.sampled_from([DISTANCE_BEFORE_SPARSITY, SPARSITY_BEFORE_DISTANCE]))
    seed = data.draw(st.integers(0, 2**16))
    params = LexParams(n=30, k=2, theta=theta, ordering=ordering)
    victors = lex_tournament_select(params, pool, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    pairs = _oracle_entrants(len(pool), 2, 30, rng)
    for victor, (a, b), u in zip(victors, pairs, rng.random(30).tolist()):
        assert a != b
        outcome = lex_compare(pool[a], pool[b], ordering, theta)
        winner = {FIRST_BETTER: a, SECOND_BETTER: b, TIE: a if u < 0.5 else b}[outcome]
        assert victor == pool[winner]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_nsga2_select_fronts_equal_sort_of_survivors(data):
    # a few distinct vectors drawn many times, so ties and duplicates abound
    distinct = data.draw(st.lists(_NEAR_TIES, min_size=1, max_size=12))
    pool = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    target = data.draw(st.integers(1, len(pool)))
    survivors, fronts = nsga2_select(pool, target)
    assert fronts == nondominated_sort([pool[i] for i in survivors])
    assert [i for front in fronts for i in front] == list(range(target))


# Values for wide pools, a few drawn per column: pairs whose rounded
# difference falls on either side of theta (0.01) although their exact
# difference does not say so: -0.49 - -0.5 and 0.65 - 0.64 round just above
# it, 0.0018615800645129489 - -0.008138419935487052 rounds down onto it
# although -0.008138419935487052 + 0.01 rounds below 0.0018615800645129489;
# signed zeros; and whole numbers, as sparsity holds.
_WIDE_VALUES = (
    (-0.5, -0.49, -0.008138419935487052, 0.0018615800645129489, -0.0, 0.0, 0.01, 0.3),
    (-0.0, 0.0, 0.1, 0.105, 0.11, 0.12, 0.13, 0.64, 0.65),
    (0.0, 1.0, 2.0, 3.0),
    (-0.0, 0.0, 0.005, 0.01, 0.015, 0.2, 0.64, 0.65),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_selection_kernels_match_oracles_on_wide_pools(data):
    # up to 200 rows over few distinct values per column, so each stage's
    # best value is used up and its window slides during a survival, and
    # theta-tied groups are large
    n = data.draw(st.integers(1, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    V = np.column_stack([
        rng.choice(rng.choice(values, size=int(rng.integers(1, len(values) + 1)), replace=False),
                   size=n)
        for values in _WIDE_VALUES
    ])
    theta = data.draw(st.sampled_from([0.0, 0.01]))
    ordering = data.draw(st.sampled_from([DISTANCE_BEFORE_SPARSITY, SPARSITY_BEFORE_DISTANCE]))
    target = data.draw(st.integers(1, n))
    want = _oracle_peel(V, target, ordering, theta)
    assert lex_survival_select(V, target, ordering, theta) == want

    def same_bits(a, b):
        return a.tobytes() == b.tobytes()

    # one front, fronts of the nondominated sort, and random fronts, many
    # of one or two rows
    assert same_bits(crowding_distance(V), _oracle_crowding(V))
    fronts = nondominated_sort(V)
    rank = np.empty(n, dtype=np.int64)
    for r, front in enumerate(fronts):
        rank[front] = r
    for front in (rank, rng.integers(0, int(rng.integers(1, n + 1)), size=n)):
        assert same_bits(crowding_distance(V, front), _oracle_crowding_by_front(V, front))
    assert nsga2_select(V, target) == _oracle_nsga2(V, target)
    if n >= 2:
        pool = [Cand((i,), v) for i, v in enumerate(map(tuple, V.tolist()))]
        seed = int(rng.integers(2**16))
        picks = crowded_tournament_select(V, 30, np.random.default_rng(seed), fronts)
        want = _oracle_crowded_tournament(pool, 30, np.random.default_rng(seed))
        assert [pool[i] for i in picks] == want


@pytest.mark.parametrize(
    "low, high, tied",
    [
        (-0.5, -0.49, False),  # the difference rounds above theta; a + theta does not
        (0.64, 0.65, False),
        (-0.008138419935487052, 0.0018615800645129489, True),  # the other way round
        (0.0, 0.01, True),  # exactly theta
        (-0.0, 0.0, True),
    ],
)
def test_lex_survival_ties_by_the_rounded_difference(low, high, tied):
    # stage 1 keeps high next to low exactly when fl(high - low) <= theta,
    # whatever low + theta rounds to; sparsity then prefers high
    V = np.array([[low, 0.0, 2.0, 0.0], [high, 0.0, 1.0, 0.0], [0.9, 0.0, 0.0, 0.0]])
    assert (high - low <= 0.01) == tied
    got = lex_survival_select(V, 3, SPARSITY_BEFORE_DISTANCE, 0.01)
    assert got == ([1, 0, 2] if tied else [0, 1, 2])
    assert got == _oracle_peel(V, 3, SPARSITY_BEFORE_DISTANCE, 0.01)


def test_lex_survival_rebuilds_a_stage_without_members_already_taken():
    # row 1 is best on validity; rows 0, 2 and 3 then tie on validity and
    # sparsity, and on distance rows 2 and 3 lie within theta of row 0.
    # Row 3 leaves with row 0's group, on plausibility. The distance window
    # then starts at row 2 and reaches further, so the stage after it is
    # rebuilt, and row 3 must not come back into it
    V = np.array([
        [0.01, 0.105, 2.0, 0.005],
        [-0.008138419935487052, 0.12, 2.0, 0.2],
        [0.01, 0.11, 2.0, 0.64],
        [0.01, 0.11, 2.0, 0.005],
    ])
    got = lex_survival_select(V, 4, SPARSITY_BEFORE_DISTANCE, 0.01)
    assert got == [1, 0, 3, 2] == _oracle_peel(V, 4, SPARSITY_BEFORE_DISTANCE, 0.01)


def test_crowding_distance_by_front_hand_example():
    # fronts 0 and 2 interleaved in index order; front 1 has a single row
    # and front 2 two rows, so both are all infinite
    V = LADDER + [vec4(9, 9, 9, 9), vec4(5, 5, 1, 5), vec4(6, 6, 1, 6)]
    front = [0, 0, 0, 0, 1, 2, 2]
    cd = crowding_distance(V, front)
    assert cd.tolist() == crowding_distance(LADDER).tolist() + [float("inf")] * 3
    assert cd.tolist() == _oracle_crowding_by_front(V, front).tolist()
