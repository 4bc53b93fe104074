import os
import re
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexcf.ea
from lexcf.data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    FeatureSchema,
    FeatureStats,
    compute_feature_stats,
    generate_synthetic,
    split_dataset,
)
from lexcf.errors import ConfigError, InvariantViolation
from lexcf.model import LearnerConfig, train_model
from lexcf.objectives import (
    EvalContext,
    Genome,
    ObjectiveVector,
    evaluate,
    evaluate_population,
    row_keys,
)
from lexcf.ea import (
    EAConfig,
    LEX_DISTANCE_FIRST,
    LEX_SPARSITY_FIRST,
    PARETO,
    STRATEGIES,
    check_candidate,
    crossover,
    init_population,
    mutate,
    run_ea,
    run_paired,
    violating_rows,
)
from lexcf.ea import _child_seed, _dedup_pad, _lockstep
from lexcf.selection import (
    DISTANCE_BEFORE_SPARSITY,
    SPARSITY_BEFORE_DISTANCE,
    nondominated_sort,
    pareto_dominates,
)

from conftest import CountingModel, ThresholdModel, make_dataset, make_stats, numeric_schema

SCHEMA = (
    FeatureSchema("x", CONTINUOUS),
    FeatureSchema("n", INTEGER),
    FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
    FeatureSchema("fixed", CONTINUOUS, actionable=False),
)
STATS = make_stats([(0.0, 100.0), (0, 5), ("a", "b", "c"), (0.0, 1.0)])
X_PT = (10.0, 2.0, "a", 0.5)
GENOME = Genome(X_PT, SCHEMA, STATS)


def _rows(*values):
    return GENOME.encode(list(values))


def _train(rng, n=40):
    rows = [
        [rng.uniform(0, 100), float(rng.integers(0, 6)), ("a", "b", "c")[rng.integers(3)],
         rng.uniform(0, 1)]
        for _ in range(n)
    ]
    return make_dataset(SCHEMA, rows, [0] * n)


def _context(rng, resilience=False):
    # positive once x climbs to 30; the point of interest sits below it
    model = ThresholdModel(SCHEMA, 0, 30.0, positive_below=False)
    return EvalContext(X_PT, model, _train(rng), STATS, resilience=resilience)


def test_ea_config_validation():
    with pytest.raises(ConfigError):
        EAConfig(population_size=1)
    with pytest.raises(ConfigError):
        EAConfig(max_generations=0)
    with pytest.raises(ConfigError):
        EAConfig(crossover_prob=1.5)
    with pytest.raises(ConfigError):
        EAConfig(strategy="random_walk")
    for theta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite theta"):
            EAConfig(theta=theta)
    with pytest.raises(ConfigError, match="population_size"):
        EAConfig(population_size=4, k=5)
    assert EAConfig(population_size=4, k=4).k == 4
    for wrong in ({"population_size": "a"}, {"k": True}, {"theta": "low"}, {"resilience": 1}):
        with pytest.raises(ConfigError, match=next(iter(wrong))):
            EAConfig(**wrong)
    assert EAConfig().strategy == LEX_DISTANCE_FIRST
    # numpy scalars are numbers too
    assert EAConfig(seed=np.int64(3), theta=np.float64(0.5)).seed == 3


def test_init_population_draws_only_mutable_features(rng):
    # a feature is drawn when it is actionable and training holds a value
    # other than the POI's
    schema = (
        FeatureSchema("a", CONTINUOUS),
        FeatureSchema("b", CONTINUOUS, actionable=False),
        FeatureSchema("c", CONTINUOUS),                      # zero range, POI on it
        FeatureSchema("d", CATEGORICAL, categories=("x", "y")),
        FeatureSchema("e", CATEGORICAL, categories=("x", "y")),  # POI the one observed
        FeatureSchema("f", CATEGORICAL, categories=("x", "y"), actionable=False),
    )
    stats = make_stats([(0, 1), (0, 1), (3, 3), ("x", "y"), ("x",), ("x", "y")])
    poi = (0.5, 0.5, 3.0, "x", "x", "x")
    genome = Genome(poi, schema, stats)
    X = init_population(genome, EAConfig(population_size=200), rng)
    changed = X != genome.poi
    assert changed.any(axis=1).all()
    assert changed[:, [0, 3]].any(axis=0).all() and not changed[:, [1, 2, 4, 5]].any()


def test_init_population_draw_kinds(rng):
    # integer draws are integral and inside the bounds, and a categorical
    # draw never repeats the POI's category
    cfg = EAConfig(population_size=200)
    for values in GENOME.decode(init_population(GENOME, cfg, rng)):
        assert values[1] == int(values[1]) and 0 <= values[1] <= 5
        check_candidate(values, X_PT, SCHEMA, STATS)
    for poi, other in (("a", "b"), ("b", "a")):
        genome = Genome((poi,), (SCHEMA[2],), make_stats([("a", "b")]))
        assert genome.decode(init_population(genome, cfg, rng)) == [(other,)] * 200


def test_init_population_moves_what_mutate_can_move(rng):
    # a single training category the POI does not hold, and a zero range
    # the POI sits off, are each one value the search can take
    cfg = EAConfig(population_size=5, mutation_prob=1.0, reset_prob=0.0)
    for feat, stats, poi, moved in (
        (FeatureSchema("k", CATEGORICAL, categories=("a", "b")), [("a",)], "b", "a"),
        (FeatureSchema("z", INTEGER), [(3, 3)], 5.0, 3.0),
    ):
        genome = Genome((poi,), (feat,), make_stats(stats))
        assert genome.decode(init_population(genome, cfg, rng)) == [(moved,)] * 5
        assert genome.decode(mutate(genome.poi[None], genome, cfg, rng)) == [(moved,)]


def test_init_population_differs_and_respects_constraints(rng):
    cfg = EAConfig(population_size=30)
    X = init_population(GENOME, cfg, rng)
    assert X.shape == (30, 4)
    for values in GENOME.decode(X):
        assert values != X_PT
        assert values[3] == X_PT[3]  # non-actionable untouched
        check_candidate(values, X_PT, SCHEMA, STATS)


def test_init_population_requires_mutable_feature(rng):
    cfg = EAConfig()
    frozen = tuple(
        FeatureSchema(f.name, f.kind, False, f.categories) for f in SCHEMA
    )
    with pytest.raises(ConfigError):
        init_population(Genome(X_PT, frozen, STATS), cfg, rng)
    degenerate = (FeatureSchema("x", CONTINUOUS),)
    with pytest.raises(ConfigError):
        init_population(Genome((1.0,), degenerate, make_stats([(1, 1)])), cfg, rng)


def test_init_population_deterministic():
    cfg = EAConfig()
    a = init_population(GENOME, cfg, np.random.default_rng(4))
    b = init_population(GENOME, cfg, np.random.default_rng(4))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("poi", [X_PT, (10.0, 0.0, "z", 0.5)])
def test_init_draws_follow_documented_order(poi):
    # init_population makes exactly the draws ea's docstring lists and
    # applies them feature by feature as this loop does; the mutable
    # features are x, n and k
    genome, n = Genome(poi, SCHEMA, STATS), 60
    got = init_population(genome, EAConfig(population_size=n), np.random.default_rng(3))

    rng = np.random.default_rng(3)
    sizes, ranks = rng.integers(1, 4, size=n), rng.random((n, 3))
    values = rng.uniform([0.0, 0.0], [100.0, 5.0], size=(n, 2))
    pool = [c for c in STATS[2].categories if c != poi[2]]
    picks = rng.integers([len(pool)], size=(n, 1))
    rows = []
    for r in range(n):
        row = list(poi)
        for i in sorted(range(3), key=lambda i: ranks[r, i])[: sizes[r]]:
            if i == 2:
                row[i] = pool[picks[r, 0]]
                continue
            v = float(round(values[r, i])) if i == 1 else values[r, i]
            if v == poi[i]:  # a draw on the POI's value takes the other bound
                v = STATS[i].upper if poi[i] == STATS[i].lower else STATS[i].lower
            row[i] = v
        rows.append(tuple(row))
    assert genome.decode(got) == rows


def test_genome_code_tables():
    # a POI category that training never saw gets the code after the
    # training categories; rows round-trip through the matrix
    genome = Genome((10.0, 2.0, "z", 0.5), SCHEMA, STATS)
    assert genome.tables[2] == ("a", "b", "c", "z")
    assert GENOME.tables[2] == ("a", "b", "c")
    assert genome.tables[0] is None and genome.tables[3] is None
    rows = [(10.0, 2.0, "z", 0.5), (99.5, 0.0, "c", 0.5)]
    X = genome.encode(rows)
    assert X.tolist() == [[10.0, 2.0, 3.0, 0.5], [99.5, 0.0, 2.0, 0.5]]
    assert genome.decode(X) == rows
    assert genome.poi.tolist() == [10.0, 2.0, 3.0, 0.5]
    # a value in neither training nor the POI gets the next code and
    # decodes back; the codes given before stay
    unseen = [(10.0, 2.0, "y", 0.5), (99.5, 0.0, "z", 0.5)]
    X = genome.encode(unseen)
    assert X[:, 2].tolist() == [4.0, 3.0]
    assert genome.tables[2] == ("a", "b", "c", "z", "y")
    assert genome.decode(X) == unseen
    assert genome.encode(rows).tolist() == [[10.0, 2.0, 3.0, 0.5], [99.5, 0.0, 2.0, 0.5]]


def test_genome_feature_table():
    # a zero-span numeric, a non-actionable integer, a categorical whose
    # POI category training never saw, one with no training category, and
    # a plain numeric
    schema = (
        FeatureSchema("z", CONTINUOUS),
        FeatureSchema("n", INTEGER, actionable=False),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
        FeatureSchema("e", CATEGORICAL, categories=("p", "q")),
        FeatureSchema("x", CONTINUOUS),
    )
    stats = (
        FeatureStats(3.0, 3.0),
        FeatureStats(0.0, 5.0),
        FeatureStats(categories=("a", "c")),
        FeatureStats(categories=()),
        FeatureStats(-1.0, 2.0),
    )
    g = Genome((3.0, 2.0, "b", "p", 0.5), schema, stats)
    assert g.poi.tolist() == [3.0, 2.0, 2.0, 0.0, 0.5]
    assert g.numeric.tolist() == [True, True, False, False, True]
    assert g.movable.tolist() == [True, False, True, True, True]
    assert g.lo.tolist() == [3.0, 0.0, 0.0, 0.0, -1.0]
    assert g.hi.tolist() == [3.0, 5.0, 1.0, -1.0, 2.0]
    assert g.whole.tolist() == [False, True, False, False, False]
    assert g.span.tolist() == [0.0, 5.0, 1.0, 1.0, 3.0]
    # the actionable subsets mutation reads: a categorical without a
    # training category is actionable but draws no code
    assert g.actionable.tolist() == [0, 2, 3, 4]
    assert g.act_numeric.tolist() == [0, 4]
    assert g.act_categorical.tolist() == [2]
    assert g.lo[g.act_numeric].tolist() == [3.0, -1.0]
    assert g.hi[g.act_numeric].tolist() == [3.0, 2.0]
    assert g.hi[g.act_categorical].tolist() == [1.0]  # two training categories


def test_genome_encode_appends_new_categories_in_first_seen_order():
    genome = Genome(X_PT, SCHEMA, STATS)
    rows = [
        (1.0, 0.0, "b", 0.5),
        (2.0, 1.0, "q", 0.5),
        (3.0, 2.0, "a", 0.5),
        (4.0, 3.0, "p", 0.5),
        (5.0, 4.0, "q", 0.5),
    ]
    X = genome.encode(rows)
    # known categories keep their codes; q and p take the next two codes,
    # in the order the batch first shows them
    assert X[:, 2].tolist() == [1.0, 3.0, 0.0, 4.0, 3.0]
    assert genome.tables[2] == ("a", "b", "c", "q", "p")
    assert genome.decode(X) == rows
    # a batch of known values alone leaves the table as it is
    table = genome.tables[2]
    assert genome.encode(rows[:3]).tolist() == X[:3].tolist()
    assert genome.tables[2] is table


def test_crossover_gate():
    cfg = EAConfig(crossover_prob=0.0)
    parents = _rows((1.0, 2.0, "a", 0.5), (9.0, 4.0, "c", 0.5), (5.0, 1.0, "b", 0.5))
    for seed in range(10):
        children = crossover(parents, GENOME, cfg, np.random.default_rng(seed))
        assert np.array_equal(children, parents) and children is not parents


def test_crossover_conserves_genes_per_position(rng):
    cfg = EAConfig(crossover_prob=1.0)
    a = (1.0, 2.0, "a", 0.5)
    b = (9.0, 4.0, "c", 0.5)
    odd = (5.0, 1.0, "b", 0.5)
    parents = _rows(*[a, b] * 15, odd)
    swapped_somewhere = False
    for _ in range(5):
        children = GENOME.decode(crossover(parents, GENOME, cfg, rng))
        assert children[-1] == odd  # the odd last parent is not crossed
        for c1, c2 in zip(children[0:-1:2], children[1:-1:2]):
            for i in range(len(SCHEMA)):
                assert {c1[i], c2[i]} == {a[i], b[i]}
            swapped_somewhere |= c1 != a
    assert swapped_somewhere


def test_crossover_never_touches_non_actionable(rng):
    cfg = EAConfig(crossover_prob=1.0)
    parents = _rows(*[(1.0, 2.0, "a", 0.1), (9.0, 4.0, "c", 0.9)] * 20)
    for _ in range(2):
        children = crossover(parents, GENOME, cfg, rng)
        assert np.array_equal(children[:, 3], parents[:, 3])


def test_mutate_identity_when_disabled(rng):
    cfg = EAConfig(mutation_prob=0.0, reset_prob=0.0)
    rows = _rows(*[(42.0, 3.0, "b", 0.5)] * 10)
    assert np.array_equal(mutate(rows, GENOME, cfg, rng), rows)


def test_mutate_respects_bounds_and_kinds(rng):
    cfg = EAConfig(mutation_prob=1.0, reset_prob=0.0)
    rows = _rows(*[(42.0, 3.0, "b", 0.5)] * 60)
    out = GENOME.decode(mutate(rows, GENOME, cfg, rng))
    for values in out:
        assert 0.0 <= values[0] <= 100.0
        assert values[1] == int(values[1]) and 0 <= values[1] <= 5
        assert values[2] in ("a", "b", "c")
        assert values[3] == 0.5  # non-actionable never mutated
    assert len({values[0] for values in out}) > 1


def test_mutate_reset_pass_restores_poi_genes(rng):
    cfg = EAConfig(mutation_prob=0.0, reset_prob=1.0)
    rows = _rows(*[(42.0, 3.0, "b", X_PT[3])] * 5)
    assert GENOME.decode(mutate(rows, GENOME, cfg, rng)) == [X_PT] * 5


def test_variation_draws_follow_documented_order():
    # the batch operators make exactly the draws ea's docstring lists and
    # apply them gene by gene as this loop does
    cfg = EAConfig(crossover_prob=0.6, mutation_prob=0.5, reset_prob=0.3)
    parents = _rows(
        (1.0, 2.0, "a", 0.5), (9.0, 4.0, "c", 0.5), (55.0, 0.0, "b", 0.5),
        (10.0, 2.0, "a", 0.5), (99.0, 5.0, "b", 0.5),
    )
    got = mutate(crossover(parents, GENOME, cfg, np.random.default_rng(8)), GENOME, cfg,
                 np.random.default_rng(9))

    rng = np.random.default_rng(8)
    gate, swap = rng.random(2), rng.random((2, 3))
    rows = [list(r) for r in GENOME.decode(parents)]
    for p in range(2):
        for j, i in enumerate((0, 1, 2)):  # the actionable features
            if gate[p] < cfg.crossover_prob and swap[p, j] < 0.5:
                rows[2 * p][i], rows[2 * p + 1][i] = rows[2 * p + 1][i], rows[2 * p][i]
    rng = np.random.default_rng(9)
    hit, steps = rng.random((5, 3)), rng.standard_normal((5, 2))
    picks, reset = rng.integers([3], size=(5, 1)), rng.random((5, 3))
    for r, values in enumerate(rows):
        for j, i in enumerate((0, 1)):
            if hit[r, j] < cfg.mutation_prob:
                v = values[i] + steps[r, j] * 0.1 * STATS[i].range
                v = float(round(v)) if i == 1 else v
                values[i] = min(max(v, STATS[i].lower), STATS[i].upper)
        if hit[r, 2] < cfg.mutation_prob:
            values[2] = STATS[2].categories[picks[r, 0]]
        for j, i in enumerate((0, 1, 2)):
            if values[i] != X_PT[i] and reset[r, j] < cfg.reset_prob:
                values[i] = X_PT[i]
    assert GENOME.decode(got) == [tuple(values) for values in rows]


@st.composite
def _mixed_problem(draw, kinds=(CONTINUOUS, INTEGER, CATEGORICAL)):
    """A schema with every degenerate case variation must survive, its
    stats, a point of interest and an odd or even population size; its
    features take the given kinds."""
    schema, stats, poi = [], [], []
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    for j, kind in enumerate(kinds):
        actionable = draw(st.booleans())
        if kind == CATEGORICAL:
            # training sets of no category or one, and POI categories training
            # never saw
            seen = draw(st.sampled_from([(), ("a",), ("a", "b"), ("b", "c", "a")]))
            schema.append(FeatureSchema("f%d" % j, kind, actionable, ("a", "b", "c", "z")))
            stats.append(FeatureStats(categories=seen))
            poi.append(draw(st.sampled_from(["a", "b", "z"])))
        else:
            lower = float(draw(st.integers(-5, 5)))
            width = float(draw(st.sampled_from([0, 1, 3, 10])))  # 0: a zero range
            schema.append(FeatureSchema("f%d" % j, kind, actionable))
            # inside the bounds, on them, or outside them
            upper = lower + width
            stats.append(FeatureStats(lower=lower, upper=upper))
            x = draw(st.sampled_from([lower, lower + 0.37 * width, upper, lower - 2, upper + 2]))
            poi.append(float(round(x)) if kind == INTEGER else x)
    size = draw(st.integers(2, 9))
    return tuple(schema), tuple(stats), tuple(poi), size


@settings(max_examples=150, deadline=None)
@given(
    problem=_mixed_problem(),
    probs=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3),
    seed=st.integers(0, 2**16),
)
def test_offspring_pass_check_candidate(problem, probs, seed):
    schema, stats, poi, size = problem
    cfg = EAConfig(population_size=size, crossover_prob=probs[0], mutation_prob=probs[1],
                   reset_prob=probs[2])
    genome = Genome(poi, schema, stats)
    rng = np.random.default_rng(seed)
    # the initial rows change only features that are actionable and have a
    # training value other than the POI's, and never equal the POI
    mutable = [
        feat.actionable and (
            any(c != x for c in st.categories) if feat.kind == CATEGORICAL
            else st.lower < st.upper or x != st.lower
        )
        for feat, st, x in zip(schema, stats, poi)
    ]
    if any(mutable):
        rows = init_population(genome, cfg, rng)
        for values in genome.decode(rows):
            check_candidate(values, poi, schema, stats)
            changed = [a != b for a, b in zip(values, poi)]
            assert any(changed) and all(m for m, c in zip(mutable, changed) if c)
    else:
        with pytest.raises(ConfigError):
            init_population(genome, cfg, rng)
        rows = genome.encode([poi] * size)
    for _ in range(4):
        rows = mutate(crossover(rows, genome, cfg, rng), genome, cfg, rng)
        assert rows.shape == (size, len(schema))
        for values in genome.decode(rows):
            check_candidate(values, poi, schema, stats)


# The variation kernels as they were before they read the genome's
# variation table: mutate and crossover must return the same bits and
# leave the generator in the same state.


def _oracle_crossover(parents, genome, cfg, rng):
    pairs = len(parents) // 2
    crossed = rng.random(pairs) < cfg.crossover_prob
    swap = (rng.random((pairs, genome.actionable.size)) < 0.5) & crossed[:, None]
    act = genome.actionable
    first, second = parents[0 : 2 * pairs : 2, act], parents[1 : 2 * pairs : 2, act]
    children = parents.copy()
    children[0 : 2 * pairs : 2, act] = np.where(swap, second, first)
    children[1 : 2 * pairs : 2, act] = np.where(swap, first, second)
    return children


def _oracle_mutate(rows, genome, cfg, rng):
    g, m = genome, len(rows)
    num, cat = g.act_numeric, g.act_categorical
    hit, reset = np.zeros((2, m, g.poi.size), dtype=bool)
    hit[:, g.actionable] = rng.random((m, g.actionable.size)) < cfg.mutation_prob
    steps = rng.standard_normal((m, num.size))
    # made even without a categorical feature: a draw of size 0
    picks = rng.integers(g.hi[cat].astype(np.int64) + 1, size=(m, cat.size))
    reset[:, g.actionable] = rng.random((m, g.actionable.size)) < cfg.reset_prob
    out = rows.copy()
    old = out[:, num]
    new = old + steps * (0.1 * g.span[num])
    whole = g.whole[num]
    new[:, whole] = np.round(new[:, whole])
    new = np.minimum(np.maximum(new, g.lo[num]), g.hi[num]) + 0.0
    out[:, num] = np.where(hit[:, num], new, old)
    out[:, cat] = np.where(hit[:, cat], picks, out[:, cat])
    return np.where(reset & (out != g.poi), g.poi, out)


def test_empty_draw_consumes_no_state():
    # why mutate may skip the categorical draw of an all-numeric genome
    rng = np.random.default_rng(5)
    assert rng.integers(np.array([], dtype=np.int64), size=(100, 0)).shape == (100, 0)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    problem=st.one_of(_mixed_problem(), _mixed_problem(kinds=(CONTINUOUS, INTEGER))),
    probs=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3),
    seed=st.integers(0, 2**16),
)
def test_variation_kernels_match_oracles(problem, probs, seed):
    schema, stats, poi, size = problem
    cfg = EAConfig(population_size=size, crossover_prob=probs[0], mutation_prob=probs[1],
                   reset_prob=probs[2])
    genome = Genome(poi, schema, stats)
    # rows whose cells sit on the bounds, on the POI's value, on either
    # zero, or on any code of a categorical's table or the next one, which
    # encode gives the next value it has not seen
    draw = np.random.default_rng(seed)
    rows = np.tile(genome.poi, (size, 1))
    for j, table in enumerate(genome.tables):
        if table is None:
            cells = [genome.poi[j], genome.lo[j], genome.hi[j], -0.0, 0.0, genome.lo[j] + 0.5]
        else:
            cells = range(len(table) + 1)
        rows[:, j] = draw.choice(np.array(cells, dtype=float), size=size)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = crossover(rows, genome, cfg, rng_new)
        want = _oracle_crossover(rows, genome, cfg, rng_old)
        assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        got = mutate(got, genome, cfg, rng_new)
        want = _oracle_mutate(want, genome, cfg, rng_old)
        # equal bytes: equal values and equal signs of zero
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        rows = got


def _raises(values, poi, schema, stats):
    try:
        check_candidate(values, poi, schema, stats)
    except InvariantViolation:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(problem=_mixed_problem(), seed=st.integers(0, 2**16))
def test_violating_rows_flags_what_check_candidate_refuses(problem, seed):
    # offspring with some cells replaced by the POI's value, a value on or
    # off the bounds, a non-integral one, NaN, or any code of the feature's
    # table, including the POI's unseen category and one encoded later
    schema, stats, poi, size = problem
    genome = Genome(poi, schema, stats)
    genome.encode([tuple("c" if f.kind == CATEGORICAL else x for f, x in zip(schema, poi))])
    rng = np.random.default_rng(seed)
    cfg = EAConfig(population_size=size, mutation_prob=0.5)
    try:
        rows = init_population(genome, cfg, rng)
    except ConfigError:
        rows = np.tile(genome.poi, (size, 1))
    rows = mutate(crossover(rows, genome, cfg, rng), genome, cfg, rng)
    for i, (feat, st_i) in enumerate(zip(schema, stats)):
        if feat.kind == CATEGORICAL:
            choices = np.arange(len(genome.tables[i]), dtype=float)
        else:
            lo, hi = st_i.lower, st_i.upper
            choices = np.array([genome.poi[i], lo, hi, lo - 1, hi + 1, (lo + hi) / 2,
                                lo + 0.5, -0.0, np.nan])
        hit = rng.random(size) < 0.3
        rows[hit, i] = rng.choice(choices, size=int(hit.sum()))
    flags = violating_rows(rows, genome)
    assert flags.tolist() == [_raises(v, poi, schema, stats) for v in genome.decode(rows)]


def test_check_candidate_contract():
    check_candidate(X_PT, X_PT, SCHEMA, STATS)
    with pytest.raises(InvariantViolation):
        check_candidate((10.0, 2.0, "a", 0.9), X_PT, SCHEMA, STATS)  # non-actionable moved
    with pytest.raises(InvariantViolation):
        check_candidate((150.0, 2.0, "a", 0.5), X_PT, SCHEMA, STATS)  # out of bounds
    # an introduced category must be a training category, and an introduced
    # integer value integral: a wrong code table shows as either
    with pytest.raises(InvariantViolation, match="category"):
        check_candidate((10.0, 2.0, "z", 0.5), X_PT, SCHEMA, STATS)
    with pytest.raises(InvariantViolation, match="category"):
        check_candidate((10.0, 2.0, 1.0, 0.5), X_PT, SCHEMA, STATS)
    with pytest.raises(InvariantViolation, match="integer"):
        check_candidate((10.0, 2.5, "a", 0.5), X_PT, SCHEMA, STATS)
    # out-of-range, unseen or non-integral values inherited from the point
    # of interest are tolerated
    poi = (120.0, 2.5, "z", 0.5)
    check_candidate((120.0, 2.5, "z", 0.5), poi, SCHEMA, STATS)
    check_candidate((120.0, 4.0, "z", 0.5), poi, SCHEMA, STATS)
    check_candidate((50.0, 2.5, "b", 0.5), poi, SCHEMA, STATS)


def _slots(rows):
    """Store slots as evaluate_population assigns them, in a fresh store:
    equal row keys share a slot, numbered in first-occurrence order."""
    slot_of = {}
    return np.array([slot_of.setdefault(key, len(slot_of)) for key in row_keys(rows)])


def test_dedup_pad_keeps_first_and_pads():
    a, b = [1.0, 0.0], [2.0, 0.0]
    rows = np.array([a, b, a, [0.0, 1.0], b, a])
    # three distinct rows, first occurrences in row order; padding refills
    # with the repeated rows in row order
    assert _dedup_pad(_slots(rows), 3).tolist() == [0, 1, 3]
    assert _dedup_pad(_slots(rows), 2).tolist() == [0, 1, 3]
    assert _dedup_pad(_slots(rows), 5).tolist() == [0, 1, 3, 2, 4]
    assert _dedup_pad(_slots(np.array([a, a, a])), 2).tolist() == [0, 1]
    # -0.0 and 0.0 are one value, as in the value tuples
    assert _dedup_pad(_slots(np.array([[0.0, 1.0], [-0.0, 1.0]])), 1).tolist() == [0]
    # slots need not come in first-occurrence order: a pool's survivors
    # carry slots from earlier generations
    assert _dedup_pad(np.array([7, 2, 7, 0, 2]), 4).tolist() == [0, 1, 3, 2]


def test_batch_slots_match_row_keys(rng):
    # rows share a store slot exactly when their keys are equal, over
    # batches that revisit rows the store already holds
    ctx = _context(rng)
    X = _rows((10.0, 2.0, "b", 0.5), (20.0, 3.0, "a", 0.5), (10.0, 2.0, "b", 0.5))
    evaluate_population(X, ctx)
    assert ctx.batch_slots.tolist() == [0, 1, 0]
    Y = np.concatenate((X[1:], _rows((30.0, 1.0, "c", 0.5)), X[:1]))
    V = evaluate_population(Y, ctx)
    assert ctx.batch_slots.tolist() == [1, 0, 2, 0]
    assert np.array_equal(V, ctx.store[ctx.batch_slots])


def test_run_ea_rejects_resilience_mismatch(rng):
    ctx = _context(rng, resilience=False)
    with pytest.raises(ConfigError):
        run_ea(ctx, EAConfig(resilience=True))


def test_run_ea_result_shape(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=12, max_generations=8, seed=3)
    result = run_ea(ctx, cfg)
    assert result.generations_executed == 8
    assert len(result.population) == 12
    assert result.genealogy is None
    # lex strategies return exactly one solution drawn from the population
    assert len(result.solutions) == 1
    assert result.solutions[0] in result.population


def test_run_ea_pareto_returns_front_zero(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=12, max_generations=8, strategy=PARETO, seed=3)
    result = run_ea(ctx, cfg)
    front = nondominated_sort([c.objectives for c in result.population])[0]
    assert list(result.solutions) == [result.population[i] for i in front]
    for s in result.solutions:
        assert not any(pareto_dominates(o.objectives, s.objectives) for o in result.population)


def test_run_ea_pareto_returns_each_row_once_in_a_small_space():
    # one actionable integer feature with values 0-2 leaves three distinct
    # rows, so survival pads the population with repeats; the returned
    # front holds each of its rows once, at its first occurrence
    schema = (FeatureSchema("n", INTEGER), FeatureSchema("fixed", CONTINUOUS, actionable=False))
    rng = np.random.default_rng(0)
    rows = [(float(rng.integers(0, 3)), float(rng.uniform(0, 1))) for _ in range(60)]
    train = make_dataset(schema, rows, [int(row[0] == 2) for row in rows])
    model = train_model(train, LearnerConfig("logistic"))
    stats = compute_feature_stats(train)
    for seed in range(5):
        ctx = EvalContext((0.0, 0.5), model, train, stats)
        cfg = EAConfig(population_size=10, max_generations=5, strategy=PARETO, seed=seed)
        result = run_ea(ctx, cfg)
        front = nondominated_sort([c.objectives for c in result.population])[0]
        firsts = {}
        for i in front:
            firsts.setdefault(result.population[i].values, result.population[i])
        assert len(front) > len(firsts)
        assert list(result.solutions) == list(firsts.values())


def test_run_ea_finds_valid_solution(rng):
    ctx = _context(rng)
    cfg = EAConfig(seed=5)
    result = run_ea(ctx, cfg)
    assert result.solutions[0].objectives[0] == 0.0
    x = result.solutions[0].values
    assert x[0] >= 30.0  # the only way to be classified positive


def test_run_ea_deterministic_per_seed(rng):
    ctx_a = _context(np.random.default_rng(12345))
    ctx_b = _context(np.random.default_rng(12345))
    cfg = EAConfig(population_size=10, max_generations=6, seed=9)
    ra = run_ea(ctx_a, cfg)
    rb = run_ea(ctx_b, cfg)
    assert ra.solutions == rb.solutions
    assert ra.population == rb.population
    rc = run_ea(ctx_a, EAConfig(population_size=10, max_generations=6, seed=10))
    assert rc.population != ra.population


def test_run_ea_debug_genealogy(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=10, max_generations=4, seed=6, debug=True)
    result = run_ea(ctx, cfg)
    assert result.genealogy is not None
    # initial population plus one batch of offspring per generation
    assert len(result.genealogy) == 10 * (4 + 1)
    for cand in result.genealogy:
        check_candidate(cand.values, ctx.x_pt, ctx.schema, ctx.stats)
    assert {c.generation for c in result.genealogy} == set(range(5))


def test_run_ea_resilient_solution_scores_negative(rng):
    ctx = _context(rng, resilience=True)
    cfg = EAConfig(seed=5, resilience=True)
    result = run_ea(ctx, cfg)
    # the model is monotone in x, so every valid solution is fully resilient
    assert result.solutions[0].objectives[0] == -1.0


@pytest.mark.parametrize("size", [2, 3, 5])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_ea_small_and_odd_populations(rng, strategy, size):
    ctx = _context(rng)
    cfg = EAConfig(population_size=size, max_generations=6, strategy=strategy, k=2, seed=size,
                   debug=True)
    result = run_ea(ctx, cfg)
    assert len(result.population) == size
    # the initial population, then one offspring per parent each generation
    assert len(result.genealogy) == size * 7
    # every vector a run hands back, rebuilt from its objective array or
    # not, is the candidate's evaluation, with an int sparsity count
    for cand in result.genealogy + result.population + result.solutions:
        check_candidate(cand.values, ctx.x_pt, ctx.schema, ctx.stats)
        assert cand.objectives == evaluate(cand.values, ctx)
        assert type(cand.objectives) is ObjectiveVector and type(cand.objectives.o3) is int
    assert result.solutions and all(s in result.population for s in result.solutions)
    assert run_ea(ctx, cfg) == result


def test_child_seeds_are_distinct_and_stable():
    seeds = {_child_seed(7, i) for i in range(3)}
    assert len(seeds) == 3
    assert _child_seed(7, 1) == _child_seed(7, 1)
    assert _child_seed(8, 1) != _child_seed(7, 1)


def test_run_paired_shares_generation_budget(rng):
    ctx = _context(rng)
    par, lex1, lex2 = run_paired(ctx, EAConfig(population_size=10, max_generations=12, seed=4))
    assert par.generations_executed == lex1.generations_executed == lex2.generations_executed == 12
    assert len(lex1.solutions) == 1 and len(lex2.solutions) == 1
    assert par.solutions  # front zero is never empty


def test_run_paired_strategies_use_distinct_seeds(rng):
    ctx = _context(rng)
    par, lex1, lex2 = run_paired(ctx, EAConfig(population_size=10, max_generations=6, seed=4))
    # same strategy config rerun reproduces identically
    par2, lex1_2, lex2_2 = run_paired(ctx, EAConfig(population_size=10, max_generations=6, seed=4))
    assert par.solutions == par2.solutions
    assert lex1.solutions == lex1_2.solutions
    assert lex2.solutions == lex2_2.solutions


@pytest.fixture(scope="module")
def trained():
    """A mixed-kind training split and its stats, a logistic model and a
    forest, and two points of interest from the test split."""
    train, test = split_dataset(generate_synthetic(150, 11, 3, 2, 2), test_cap=0.2, seed=4)
    models = {
        "logistic": train_model(train, LearnerConfig("logistic")),
        "forest": train_model(
            train, LearnerConfig("random_forest", {"ntree": 12, "mtry": 2, "max_depth": 6}, 2)
        ),
    }
    pois = [inst.values for inst in test.instances[:2]]
    return train, compute_feature_stats(train), models, pois


@pytest.mark.parametrize("size", [2, 3, 5, 20])
@pytest.mark.parametrize("resilience", [False, True])
@pytest.mark.parametrize("learner", ["logistic", "forest"])
def test_run_paired_equals_three_runs_alone(trained, monkeypatch, learner, resilience, size):
    # the lockstep runs share one context and one evaluation batch per
    # generation; each returns what it returns alone on a fresh context.
    # One usable CPU keeps all three runs in this process, which the call
    # counts below describe
    monkeypatch.setattr(lexcf.ea, "_usable_cpus", lambda: 1)
    train, stats, models, pois = trained
    calls = []
    evaluate_population = lexcf.ea.evaluate_population

    def counted(X, ctx):
        calls.append(len(X))
        return evaluate_population(X, ctx)

    cfg = EAConfig(population_size=size, max_generations=5, k=min(3, size),
                   resilience=resilience, seed=size, debug=True)
    for poi in pois:
        def fresh():
            return EvalContext(poi, models[learner], train, stats, resilience=resilience)

        with monkeypatch.context() as patch:
            patch.setattr(lexcf.ea, "evaluate_population", counted)
            paired = run_paired(fresh(), cfg)
        # one call per generation, plus one for the initial populations
        assert len(calls) == cfg.max_generations + 1 and set(calls) == {3 * size}
        calls.clear()
        for i, (strategy, got) in enumerate(zip(STRATEGIES, paired)):
            alone = run_ea(fresh(), replace(cfg, strategy=strategy, seed=_child_seed(cfg.seed, i)))
            assert got.solutions == alone.solutions
            assert got.population == alone.population
            assert got.genealogy == alone.genealogy and len(got.genealogy) == size * 6
            assert got == alone


def test_run_paired_rejects_resilience_mismatch_before_any_model_call(rng, monkeypatch):
    ctx = _context(rng, resilience=False)
    ctx.model = CountingModel(ctx.model)
    calls = []
    monkeypatch.setattr(lexcf.ea, "evaluate_population", lambda X, ctx: calls.append(X))
    with pytest.raises(ConfigError, match="resilience"):
        run_paired(ctx, EAConfig(resilience=True))
    assert calls == [] and ctx.model.calls == 0


def _paired_configs(cfg):
    """The three configs run_paired builds from cfg."""
    return [replace(cfg, strategy=s, seed=_child_seed(cfg.seed, i)) for i, s in enumerate(STRATEGIES)]


def _assert_no_child():
    # every child this process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, so run_paired forks on any host, and the pids of
    the children it forks. A test that has not finished within two
    minutes raises TimeoutError, so a lost child cannot hang the suite."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(lexcf.ea, "_usable_cpus", lambda: 2)
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    def timed_out(signum, frame):
        raise TimeoutError("run_paired did not return within 120 s")

    monkeypatch.setattr(os, "fork", recorded)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(120)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("size", [2, 3, 5, 20])
@pytest.mark.parametrize("resilience", [False, True])
@pytest.mark.parametrize("learner", ["logistic", "forest"])
def test_forked_run_paired_equals_in_process_lockstep(trained, forks, learner, resilience, size):
    # lex2 runs in a forked child and comes back through a pipe; all three
    # results equal the one-process lockstep's, genealogy included
    train, stats, models, pois = trained
    cfg = EAConfig(population_size=size, max_generations=5, k=min(3, size),
                   resilience=resilience, seed=size, debug=True)
    for poi in pois:
        def fresh():
            return EvalContext(poi, models[learner], train, stats, resilience=resilience)

        forked = run_paired(fresh(), cfg)
        assert len(forks) == 1 and forks.pop() > 0
        _assert_no_child()
        together = _lockstep(fresh(), _paired_configs(cfg))
        assert forked == tuple(together)
        assert all(len(result.genealogy) == size * 6 for result in forked)


def test_run_paired_stays_in_process_on_one_cpu(trained, monkeypatch):
    monkeypatch.setattr(lexcf.ea, "_usable_cpus", lambda: 1)
    assert not lexcf.ea.split_runs()

    def refused():
        raise AssertionError("run_paired forked on one usable CPU")

    monkeypatch.setattr(os, "fork", refused)
    train, stats, models, pois = trained
    cfg = EAConfig(population_size=6, max_generations=4, seed=2)
    result = run_paired(EvalContext(pois[0], models["forest"], train, stats), cfg)
    assert result == tuple(_lockstep(EvalContext(pois[0], models["forest"], train, stats),
                                     _paired_configs(cfg)))


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert lexcf.ea._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert lexcf.ea._usable_cpus() == 1 and not lexcf.ea.split_runs()


def test_fork_filters_only_the_multithreaded_fork_warning(monkeypatch):
    # Python 3.12's os.fork warns in the parent when the process has other
    # threads; _fork filters that warning and no other
    def warning_fork(message):
        def fork():
            warnings.warn(message, DeprecationWarning, stacklevel=1)
            return 4242
        return fork

    threaded = ("This process (pid=%d) is multi-threaded, use of fork() may lead to "
                "deadlocks in the child." % os.getpid())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(os, "fork", warning_fork(threaded))
        assert lexcf.ea._fork() == 4242
        monkeypatch.setattr(os, "fork", warning_fork("some other deprecation"))
        with pytest.raises(DeprecationWarning, match="some other deprecation"):
            lexcf.ea._fork()


class OrderingError(Exception):
    pass


def _failing_survival(monkeypatch, ordering):
    """Make lexicographic survival raise OrderingError under ordering."""
    survive = lexcf.ea.lex_survival_select

    def failing(V, n, order, theta):
        if order == ordering:
            raise OrderingError("survival refused %s" % (order,))
        return survive(V, n, order, theta)

    monkeypatch.setattr(lexcf.ea, "lex_survival_select", failing)


def test_run_paired_raises_the_childs_error(trained, forks, monkeypatch):
    # only lex2's run, in the child, fails: this process re-raises its
    # error with its type and message, and has reaped the child
    _failing_survival(monkeypatch, SPARSITY_BEFORE_DISTANCE)
    train, stats, models, pois = trained
    ctx = EvalContext(pois[0], models["logistic"], train, stats)
    with pytest.raises(OrderingError, match=r"^survival refused %s$" % re.escape(
            str(SPARSITY_BEFORE_DISTANCE))) as raised:
        run_paired(ctx, EAConfig(population_size=6, max_generations=3, seed=1))
    # the child's traceback comes along as the cause
    cause = raised.value.__cause__
    assert type(cause) is lexcf.ea._ChildTraceback and "in failing" in str(cause)
    assert len(forks) == 1
    _assert_no_child()


class UnpicklableError(Exception):
    # pickles, but cannot be rebuilt from its args
    def __init__(self, a, b):
        super().__init__("%s and %s" % (a, b))


def test_run_paired_names_a_child_error_that_does_not_unpickle(trained, forks, monkeypatch):
    survive = lexcf.ea.lex_survival_select

    def failing(V, n, order, theta):
        if order == SPARSITY_BEFORE_DISTANCE:
            raise UnpicklableError("one", "two")
        return survive(V, n, order, theta)

    monkeypatch.setattr(lexcf.ea, "lex_survival_select", failing)
    train, stats, models, pois = trained
    ctx = EvalContext(pois[0], models["logistic"], train, stats)
    with pytest.raises(RuntimeError, match=r"^UnpicklableError: one and two$"):
        run_paired(ctx, EAConfig(population_size=6, max_generations=3, seed=1))
    _assert_no_child()


def test_run_paired_reports_a_child_that_ends_without_a_result(trained, forks, monkeypatch):
    survive = lexcf.ea.lex_survival_select

    def leaving(V, n, order, theta):
        if order == SPARSITY_BEFORE_DISTANCE:
            os._exit(3)
        return survive(V, n, order, theta)

    monkeypatch.setattr(lexcf.ea, "lex_survival_select", leaving)
    train, stats, models, pois = trained
    ctx = EvalContext(pois[0], models["logistic"], train, stats)
    with pytest.raises(ChildProcessError, match="without a result"):
        run_paired(ctx, EAConfig(population_size=6, max_generations=3, seed=1))
    _assert_no_child()


def test_run_paired_kills_and_reaps_the_child_when_it_raises(trained, forks, monkeypatch):
    # lex1's run, in this process, fails: the child is killed, then
    # reaped, before the error leaves run_paired
    _failing_survival(monkeypatch, DISTANCE_BEFORE_SPARSITY)
    events, kill, waitpid = [], os.kill, os.waitpid

    def killed(pid, sig):
        events.append(("kill", pid, sig))
        kill(pid, sig)

    def reaped(pid, options):
        got = waitpid(pid, options)
        events.append(("wait", pid, got[0]))
        return got

    monkeypatch.setattr(os, "kill", killed)
    monkeypatch.setattr(os, "waitpid", reaped)
    train, stats, models, pois = trained
    ctx = EvalContext(pois[0], models["logistic"], train, stats)
    with pytest.raises(OrderingError, match="survival refused"):
        run_paired(ctx, EAConfig(population_size=6, max_generations=3, seed=1))
    pid, = forks
    assert events == [("kill", pid, signal.SIGKILL), ("wait", pid, pid)]
    monkeypatch.undo()
    _assert_no_child()


def test_run_paired_reaps_the_child_after_a_normal_return(trained, forks):
    train, stats, models, pois = trained
    ctx = EvalContext(pois[1], models["forest"], train, stats, resilience=True)
    par, lex1, lex2 = run_paired(ctx, EAConfig(population_size=4, max_generations=2, resilience=True))
    assert len(forks) == 1 and lex2.generations_executed == 2
    _assert_no_child()


def test_run_paired_closes_the_pipe_when_fork_fails(trained, monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    monkeypatch.setattr(lexcf.ea, "_usable_cpus", lambda: 2)

    def refused():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    train, stats, models, pois = trained
    ctx = EvalContext(pois[0], models["logistic"], train, stats)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="fork refused"):
        run_paired(ctx, EAConfig(population_size=4, max_generations=2))
    assert len(os.listdir("/proc/self/fd")) == before


def test_strategy_constants():
    assert STRATEGIES == (PARETO, LEX_DISTANCE_FIRST, LEX_SPARSITY_FIRST)
    assert PARETO == "par" and LEX_DISTANCE_FIRST == "lex1" and LEX_SPARSITY_FIRST == "lex2"
