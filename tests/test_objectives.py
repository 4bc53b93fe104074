import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcf.data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    FeatureSchema,
    FeatureStats,
    compute_feature_stats,
)
from lexcf.ea import EAConfig, crossover, init_population, mutate
from lexcf.errors import ConfigError, InvariantViolation
from lexcf.model import (
    FixedLinearModel,
    LearnerConfig,
    LogisticModel,
    Model,
    _Encoder,
    train_random_forest,
)
from lexcf.objectives import (
    EvalContext,
    FeatureResilience,
    Genome,
    ObjectiveVector,
    ResilienceReport,
    TrainGowerScan,
    evaluate,
    evaluate_population,
    evaluate_with_report,
    objective_vectors,
    gower_dist,
    obj_distance,
    obj_plausibility,
    obj_sparsity,
    obj_validity,
    obj_validity_resilient,
    resilience_scores,
    resilience_step,
    row_keys,
)
from lexcf import objectives
from lexcf.objectives import _walk_reports

from conftest import (
    ConstantModel,
    CountingModel,
    ThresholdModel,
    make_dataset,
    make_stats,
    numeric_schema,
)

MIXED_SCHEMA = (
    FeatureSchema("x", CONTINUOUS),
    FeatureSchema("n", INTEGER),
    FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
)
MIXED_STATS = make_stats([(0.0, 10.0), (0, 5), ("a", "b", "c")])


def test_gower_dist_numeric():
    assert gower_dist(MIXED_SCHEMA, MIXED_STATS, 2.0, 7.0, 0) == 0.5
    assert gower_dist(MIXED_SCHEMA, MIXED_STATS, 3.0, 3.0, 0) == 0.0
    # out-of-range differences clamp at 1
    assert gower_dist(MIXED_SCHEMA, MIXED_STATS, -20.0, 30.0, 0) == 1.0


def test_gower_dist_degenerate_span():
    stats = make_stats([(4.0, 4.0), (0, 5), ("a", "b", "c")])
    assert gower_dist(MIXED_SCHEMA, stats, 4.0, 9.0, 0) == 0.0


def test_gower_dist_categorical():
    assert gower_dist(MIXED_SCHEMA, MIXED_STATS, "a", "a", 2) == 0.0
    assert gower_dist(MIXED_SCHEMA, MIXED_STATS, "a", "c", 2) == 1.0


@given(
    a=st.floats(-1e6, 1e6),
    b=st.floats(-1e6, 1e6),
    lo=st.floats(-1e3, 1e3),
    width=st.floats(0.0, 1e3),
)
def test_gower_dist_symmetric_and_bounded(a, b, lo, width):
    schema = numeric_schema(1)
    stats = make_stats([(lo, lo + width)])
    d_ab = gower_dist(schema, stats, a, b, 0)
    d_ba = gower_dist(schema, stats, b, a, 0)
    assert d_ab == d_ba
    assert 0.0 <= d_ab <= 1.0
    assert gower_dist(schema, stats, a, a, 0) == 0.0


def test_obj_distance_is_feature_mean():
    x = (2.0, 3.0, "b")
    x_pt = (7.0, 3.0, "a")
    # (0.5 + 0.0 + 1.0) / 3
    assert obj_distance(x, x_pt, MIXED_SCHEMA, MIXED_STATS) == pytest.approx(0.5)


def test_obj_sparsity_counts_exact_changes():
    x_pt = (1.0, 2.0, "a")
    assert obj_sparsity((1.0, 2.0, "a"), x_pt, MIXED_SCHEMA) == 0
    assert obj_sparsity((1.5, 2.0, "a"), x_pt, MIXED_SCHEMA) == 1
    assert obj_sparsity((1.5, 3.0, "c"), x_pt, MIXED_SCHEMA) == 3
    # a microscopic numeric difference still counts as a change
    assert obj_sparsity((1.0 + 1e-12, 2.0, "a"), x_pt, MIXED_SCHEMA) == 1
    assert isinstance(obj_sparsity(x_pt, x_pt, MIXED_SCHEMA), int)


def _gower_mean_oracle(a, b, schema, stats):
    s = 0.0
    for i, feat in enumerate(schema):
        if feat.kind == CATEGORICAL:
            s += 0.0 if a[i] == b[i] else 1.0
        else:
            span = stats[i].range
            s += 0.0 if span == 0 else min(1.0, abs(a[i] - b[i]) / span)
    return s / len(schema)


def _plausibility_oracle(values, train, schema, stats):
    return min(_gower_mean_oracle(values, inst.values, schema, stats) for inst in train)


def _random_mixed_dataset(rng, n):
    rows = []
    for _ in range(n):
        rows.append(
            [rng.uniform(-5, 15), float(rng.integers(0, 6)), ("a", "b", "c")[rng.integers(3)]]
        )
    return make_dataset(MIXED_SCHEMA, rows, [0] * n)


def test_plausibility_matches_sequential_oracle_exactly(rng):
    train = _random_mixed_dataset(rng, 60)
    for _ in range(40):
        probe = (
            rng.uniform(-5, 15),
            float(rng.integers(0, 6)),
            ("a", "b", "c")[rng.integers(3)],
        )
        got = obj_plausibility(probe, train, MIXED_SCHEMA, MIXED_STATS)
        want = _plausibility_oracle(probe, train, MIXED_SCHEMA, MIXED_STATS)
        assert got == want  # bit-for-bit, no tolerance


def test_plausibility_zero_for_training_row(rng):
    train = _random_mixed_dataset(rng, 10)
    assert obj_plausibility(train.instances[3].values, train, MIXED_SCHEMA, MIXED_STATS) == 0.0


def test_plausibility_rejects_empty_train():
    empty = make_dataset(MIXED_SCHEMA, [], [])
    with pytest.raises(ConfigError):
        obj_plausibility((1.0, 1.0, "a"), empty, MIXED_SCHEMA, MIXED_STATS)


def test_eval_context_rejects_empty_train():
    empty = make_dataset(MIXED_SCHEMA, [], [])
    model = ConstantModel(MIXED_SCHEMA, 0.8)
    with pytest.raises(ConfigError, match="non-empty training set"):
        EvalContext((1.0, 1.0, "a"), model, empty, MIXED_STATS)


def test_scan_skips_degenerate_span(rng):
    stats = make_stats([(0.0, 0.0), (0, 5), ("a", "b", "c")])
    train = _random_mixed_dataset(rng, 20)
    probe = (99.0, 2.0, "b")
    rows = [inst.values for inst in train]
    genome = Genome(probe, MIXED_SCHEMA, stats)
    got = TrainGowerScan(genome, rows).min_mean_dist(genome.encode([probe]))[0]
    assert got == _plausibility_oracle(probe, train, MIXED_SCHEMA, stats)


_SCAN_KINDS = {
    # (kind, actionable, categories, stats bounds): numerics of span 8, a
    # zero-span numeric and a categorical column whose training split
    # holds a, b and c
    "num": (CONTINUOUS, True, (), (0.0, 8.0)),
    "fixed": (INTEGER, False, (), (0.0, 8.0)),
    "flat": (CONTINUOUS, True, (), (3.0, 3.0)),
    "cat": (CATEGORICAL, True, tuple("abcde"), ("a", "b", "c")),
}


def _scan_value(rng, kind, grid, wide):
    """One cell: on the grid, numerics are whole numbers, so every Gower
    sum is exact and equal sums tie; wide cells leave the training range
    (numerics) or hold categories training never saw."""
    if kind == "cat":
        return str(rng.choice(list("abcde" if wide else "abc")))
    if kind == "flat":
        return float(rng.integers(1, 6)) if wide else 3.0
    lo, hi = (-4, 12) if wide else (0, 8)
    return float(rng.integers(lo, hi + 1)) if grid else float(rng.uniform(lo, hi))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(sorted(_SCAN_KINDS)), min_size=1, max_size=5),
    n=st.integers(1, 600),
    duplicates=st.integers(0, 20),
    size=st.integers(1, 40),
    grid=st.booleans(),
    chunk_cells=st.sampled_from([None, 1, 50]),
    outside=st.sampled_from([0.0, 0.05, 0.5]),
    copies=st.integers(0, 10),
)
@example(seed=0, kinds=["flat", "flat"], n=40, duplicates=0, size=5, grid=True, chunk_cells=None,
         outside=0.0, copies=0)
@example(seed=1, kinds=["num", "cat"], n=6, duplicates=2, size=9, grid=True, chunk_cells=1,
         outside=0.0, copies=0)
@example(seed=2, kinds=["num", "cat", "fixed", "cat", "num"], n=500, duplicates=0, size=40,
         grid=False, chunk_cells=None, outside=0.05, copies=10)
@example(seed=3, kinds=["cat", "cat", "cat"], n=300, duplicates=5, size=30, grid=False,
         chunk_cells=50, outside=0.05, copies=5)
@example(seed=4, kinds=["num", "fixed", "num"], n=600, duplicates=0, size=40, grid=False,
         chunk_cells=None, outside=0.5, copies=5)
# the scan clamps one of its two numeric features, and the clamp decides
@example(seed=267, kinds=["num", "cat", "num"], n=40, duplicates=0, size=20, grid=False,
         chunk_cells=None, outside=0.05, copies=0)
def test_pruned_scan_equals_exhaustive_scan(
    seed, kinds, n, duplicates, size, grid, chunk_cells, outside, copies
):
    rng = np.random.default_rng(seed)
    schema = tuple(
        FeatureSchema("%s%d" % (k, j), *_SCAN_KINDS[k][:3]) for j, k in enumerate(kinds)
    )
    stats = make_stats([_SCAN_KINDS[k][3] for k in kinds])
    # an outside share of the reference cells leave the stats bounds, so a
    # column's reference values can span more than its normalizer
    rows = [
        tuple(_scan_value(rng, k, grid, outside > 0 and rng.random() < outside) for k in kinds)
        for _ in range(n)
    ]
    rows += [rows[i] for i in rng.integers(0, n, duplicates)]
    x_pt = tuple(_scan_value(rng, k, grid, rng.random() < 0.3) for k in kinds)
    # candidates move a few cells of the POI to a training row's or a new
    # value; copies of whole training rows end their scan at a minimum of 0
    batch = [rows[i] for i in rng.integers(0, len(rows), copies)] if copies else []
    for _ in range(size):
        row = rows[rng.integers(len(rows))]
        cand = []
        for j, k in enumerate(kinds):
            pick = rng.random()
            cand.append(
                x_pt[j] if pick < 0.4 else row[j] if pick < 0.8
                else _scan_value(rng, k, grid, True)
            )
        batch.append(tuple(cand))
    train = make_dataset(schema, rows)
    genome = Genome(x_pt, schema, stats)
    scan = TrainGowerScan(genome, rows)
    F = genome.encode(batch)
    with mock.patch.object(objectives, "_CHUNK_CELLS", chunk_cells or objectives._CHUNK_CELLS):
        got = scan.min_mean_dist(F)
        assert scan.min_mean_dist(F, scan.to_poi(F)) == got
        assert got == objectives._min_mean_gower(scan, F)
    assert got == [_plausibility_oracle(cand, train, schema, stats) for cand in batch]
    assert got[:copies] == [0.0] * copies
    # the pivot sums are p times o2
    assert (scan.to_poi(F) / len(schema)).tolist() == [
        obj_distance(cand, x_pt, schema, stats) for cand in batch
    ]


def test_pruned_scan_skips_rows_beyond_the_bound(rng, monkeypatch):
    train = _random_mixed_dataset(rng, 400)
    x_pt = train.instances[0].values
    genome = Genome(x_pt, MIXED_SCHEMA, MIXED_STATS)
    scan = TrainGowerScan(genome, [inst.values for inst in train])
    batch = [(x_pt[0] + rng.uniform(-0.5, 0.5), x_pt[1], x_pt[2]) for _ in range(30)]
    F = genome.encode(batch)
    cells = []
    kernel = objectives._gower_sums

    def counting(cand, ref, scan, clamp):
        cells.append(cand[0].shape[1] * ref[0].shape[1])
        return kernel(cand, ref, scan, clamp)

    monkeypatch.setattr(objectives, "_gower_sums", counting)
    got = scan.min_mean_dist(F)
    # near the POI, a candidate's bound leaves out most training rows
    assert sum(cells) < 0.1 * len(batch) * scan.n
    assert got == [_plausibility_oracle(cand, train, MIXED_SCHEMA, MIXED_STATS) for cand in batch]


def test_pruned_scan_margin_keeps_a_row_rounding_pushes_past_the_bound():
    # c lies between the POI and r, so d(poi, r) = d(c, r) + d(c, poi)
    # exactly, but the computed d(poi, r) rounds above the computed sum;
    # the row near the POI bounds c's distance just above d(c, r)
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 3.0)])
    poi, c, r = 0.0010369144513182249, 0.22038200467042368, 0.4141416159830818
    near = 0.02662239335776553
    rows = [(poi - (r - poi) / 2,)] * 8 + [(near,), (r,)]
    genome = Genome((poi,), schema, stats)
    scan = TrainGowerScan(genome, rows)
    F = genome.encode([(c,)])
    expected = [gower_dist(schema, stats, c, r, 0)]
    assert scan.min_mean_dist(F) == objectives._min_mean_gower(scan, F) == expected
    scan.margin = 0.0
    assert scan.min_mean_dist(F) != expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_eval_context_refuses_non_finite_poi(rng, value):
    train = _random_mixed_dataset(rng, 10)
    model = ConstantModel(MIXED_SCHEMA, 0.8)
    for x_pt in ((value, 1.0, "a"), (1.0, value, "a")):
        with pytest.raises(ConfigError, match="not finite") as info:
            EvalContext(x_pt, model, train, MIXED_STATS)
        assert "\n" not in str(info.value)


def test_eval_context_and_evaluate_refuse_malformed_value_tuples(rng):
    train = _random_mixed_dataset(rng, 10)
    model = ConstantModel(MIXED_SCHEMA, 0.8)
    refused = [
        ((1.0, 2.0), r"holds 2 values for 3 features"),
        ((1.0, 2.0, "a", 4.0), r"holds 4 values for 3 features"),
        (("abc", 2.0, "a"), r"feature 'x' takes numbers, not 'abc'"),
        ((1.0, "2", "a"), r"feature 'n' takes numbers, not '2'"),
        ((1.0, None, "a"), r"feature 'n' takes numbers, not None"),
        ((1.0, -math.inf, "a"), r"feature 'n' value -inf is not finite"),
    ]
    for x_pt, message in refused:
        with pytest.raises(ConfigError, match=message) as info:
            EvalContext(x_pt, model, train, MIXED_STATS)
        assert "\n" not in str(info.value)
    ctx = EvalContext((1.0, 2.0, "a"), model, train, MIXED_STATS)
    for candidate, message in refused:
        with pytest.raises(ConfigError, match=message):
            evaluate(candidate, ctx)
    with pytest.raises(ConfigError, match=r"holds 1 values for 3 features"):
        evaluate((1.0,), ctx)
    # the refused value is named as given, among numbers in its column
    with pytest.raises(ConfigError, match=r"feature 'x' takes numbers, not 'abc'"):
        ctx.genome.encode([(1.0, 2.0, "a"), ("abc", 2.0, "a")])
    # a numeric feature takes any real number, ints and numpy scalars too
    assert evaluate((np.float64(1.0), 2, "a"), ctx) == evaluate((1.0, 2.0, "a"), ctx)


@settings(max_examples=200)
@given(data=st.data())
def test_row_keys_match_float_oracle(data):
    # small integer-valued rows with repeats, and signed zeros: keys are
    # equal exactly when the rows are equal as floats (so -0.0 == 0.0)
    n, p = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4))
    cells = st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.0])
    rows = np.array(data.draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n,
                                       max_size=n)), dtype=float).reshape(n, p)
    equal = [[bool((rows[i] == rows[j]).all()) for j in range(n)] for i in range(n)]
    keys = row_keys(rows)
    assert [[keys[i] == keys[j] for j in range(n)] for i in range(n)] == equal


def test_obj_validity_values():
    assert obj_validity(0.9) == 0.0
    assert obj_validity(0.5) == 0.0
    assert obj_validity(0.35) == 0.5 - 0.35
    assert obj_validity(0.0) == 0.5
    with pytest.raises(InvariantViolation):
        obj_validity(1.2)
    with pytest.raises(InvariantViolation):
        obj_validity(-0.1)


@given(p=st.floats(0.0, 1.0))
def test_obj_validity_range(p):
    v = obj_validity(p)
    assert 0.0 <= v <= 0.5
    assert (v == 0.0) == (p >= 0.5)


def _report(*scores):
    feats = tuple(FeatureResilience(i, 1.0, 10, int(10 * s), s) for i, s in enumerate(scores))
    return ResilienceReport(feats)


def test_obj_validity_resilient():
    assert obj_validity_resilient(0.35, None) == 0.5 - 0.35
    assert obj_validity_resilient(0.8, _report(0.4, 0.8)) == pytest.approx(-0.6)
    assert obj_validity_resilient(0.8, _report(1.0, 1.0)) == -1.0
    # no changed numeric features: mean defaults to zero
    assert obj_validity_resilient(0.8, ResilienceReport(())) == 0.0
    with pytest.raises(InvariantViolation):
        obj_validity_resilient(0.7, None)


def test_resilience_step_continuous():
    step, steps = resilience_step(50.0, 0.0, 100.0, False)
    assert step == 5.0 and steps == 10
    step, steps = resilience_step(0.7, 1.0, 0.4, False)
    assert step == pytest.approx(-0.03) and steps == 10


def test_resilience_step_integer_rounding():
    # 0.8 rounds up to a whole step
    assert resilience_step(2.0, 0.0, 10.0, True) == (1.0, 8)
    # 1.5 rounds to 2 under round-half-to-even
    assert resilience_step(-5.0, -8.0, 10.0, True) == (2.0, 7)
    # 0.5 rounds to 0, then falls back to one unit upward
    assert resilience_step(5.0, 0.0, 10.0, True) == (1.0, 5)
    # collapse on a decreasing walk falls back to one unit downward
    assert resilience_step(3.0, 5.0, 0.0, True) == (-1.0, 3)
    # tiny remaining distances still get one step
    assert resilience_step(9.0, 0.0, 10.0, True) == (1.0, 1)


def test_step_below_the_smallest_tenth_walks_in_one_step():
    # a tenth of 5e-324 underflows to zero: the walk takes the whole distance
    assert resilience_step(0.0, 1.0, -5e-324, False) == (-5e-324, 1)
    schema = numeric_schema(1)
    stats = make_stats([(-5e-324, 1.0)])
    report = resilience_scores((0.0,), (1.0,), ConstantModel(schema, 0.9), schema, stats)
    assert report.features == (FeatureResilience(0, -5e-324, 1, 1, 1.0),)


class RecordingModel(CountingModel):
    """Wraps another model and keeps every row it is asked to classify."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = []

    def predict_proba_batch(self, rows):
        self.seen.extend(rows)
        return super().predict_proba_batch(rows)


def test_walk_plan_clamps_to_bound():
    # unclamped, the tenth step of (1 - 0.076) / 10 would overshoot 1.0
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 1.0)])
    step = (1.0 - 0.076) / 10.0
    assert 0.076 + 10 * step > 1.0
    model = RecordingModel(ConstantModel(schema, 0.9))
    report = resilience_scores((0.076,), (0.0,), model, schema, stats)
    assert model.seen[0] == (0.076,)  # the validity check
    walk = [row[0] for row in model.seen[1:]]
    assert walk == [0.076 + s * step for s in range(1, 10)] + [1.0]
    assert report.features == (FeatureResilience(0, step, 10, 10, 1.0),)


def test_walk_plan_skips_unchanged_and_categorical():
    model = RecordingModel(ConstantModel(MIXED_SCHEMA, 0.9))
    report = resilience_scores((2.0, 3.0, "b"), (2.0, 1.0, "a"), model, MIXED_SCHEMA, MIXED_STATS)
    assert [f.index for f in report.features] == [1]
    # only feature n walks: 3 -> 4 -> 5
    assert model.seen[1:] == [(2.0, 4.0, "b"), (2.0, 5.0, "b")]


class BoxModel(Model):
    """Positive while every numeric feature lies in its closed box [a, b];
    a per-row oracle whose class does not depend on the batch."""

    learner_name = "box"

    def __init__(self, schema, box):
        self.schema = tuple(schema)
        self.box = box

    def predict_proba_batch(self, rows):
        inside = [
            all(a <= row[j] <= b for j, (a, b) in self.box.items()) for row in rows
        ]
        return np.where(inside, 0.9, 0.1)


def _walk_oracle(key, x_pt, model, schema, stats):
    """The resilience report of one key, walked one step at a time: each
    step is one predict_class call, and a walk stops at its first
    negative step."""
    features = []
    for i, feat in enumerate(schema):
        x = key[i]
        if feat.kind == CATEGORICAL or x == x_pt[i]:
            continue
        lo, hi = stats[i].lower, stats[i].upper
        if not lo < x < hi:
            features.append(FeatureResilience(i, 0.0, 0, 0, 1.0))
            continue
        up = x > x_pt[i]
        step, steps_max = resilience_step(x, x_pt[i], hi if up else lo, feat.kind == INTEGER)
        kept = 0
        for s in range(1, steps_max + 1):
            v = x + s * step
            v = min(v, hi) if step > 0 else max(v, lo)
            if model.predict_class(key[:i] + (v,) + key[i + 1 :]) != 1:
                break
            kept += 1
        features.append(FeatureResilience(i, step, steps_max, kept, kept / steps_max))
    return ResilienceReport(tuple(features))


def _walk_reports_of(keys, x_pt, model, schema, stats):
    """_walk_reports on keys (value tuples), coded through a Genome, as one
    ResilienceReport per key; each key's mean must equal its report's."""
    genome = Genome(x_pt, schema, stats)
    (key_of, *columns), mean = _walk_reports(genome.encode(keys), genome, model)
    assert np.all(np.diff(key_of) >= 0)  # key-major
    walks = list(map(FeatureResilience, *(c.tolist() for c in columns)))
    reports = [
        ResilienceReport(tuple(w for w, k in zip(walks, key_of.tolist()) if k == i))
        for i in range(len(keys))
    ]
    assert mean.tolist() == [report.mean for report in reports]
    return reports


@st.composite
def _walk_batches(draw):
    """A schema, its stats, a POI, a box model and a batch of keys. Any
    feature may be non-actionable, and keys change those too, since a
    walk covers every changed numeric feature. Bounds may coincide (zero
    range) and values may sit at or beyond a bound.
    Integer ranges are short enough that steps round to 0 and long enough
    that they round to 2 or more; walks of one step come from values next
    to a bound."""
    kind = st.sampled_from((CONTINUOUS, INTEGER, CATEGORICAL))
    kinds = draw(st.lists(kind, min_size=1, max_size=4))
    schema, stats, x_pt, values, box = [], [], [], [], {}
    for j, kind in enumerate(kinds):
        actionable = draw(st.booleans())
        if kind == CATEGORICAL:
            schema.append(FeatureSchema("f%d" % j, kind, actionable, ("a", "b")))
            stats.append(FeatureStats(categories=("a", "b")))
            values.append(st.sampled_from(("a", "b")))
            x_pt.append(draw(values[-1]))
            continue
        whole = kind == INTEGER
        number = st.integers(-20, 20).map(float) if whole else st.floats(-20, 20)
        lo = draw(number)
        hi = lo if draw(st.integers(0, 3)) == 0 else draw(number)
        lo, hi = min(lo, hi), max(lo, hi)
        inside = st.integers(int(lo), int(hi)).map(float) if whole else st.floats(lo, hi)
        value = st.one_of(inside, inside, inside, st.sampled_from((lo, hi)), number)
        schema.append(FeatureSchema("f%d" % j, kind, actionable))
        stats.append(FeatureStats(lower=lo, upper=hi))
        values.append(value)
        x_pt.append(draw(value))
        # about half the numeric features cut the positive region on one side
        side = draw(st.integers(0, 3))
        if side < 2:
            cut = draw(inside)
            box[j] = (-math.inf, cut) if side == 0 else (cut, math.inf)
    keys = draw(
        st.lists(
            st.tuples(*(st.one_of(st.just(p), v) for p, v in zip(x_pt, values))),
            min_size=1,
            max_size=6,
        )
    )
    return tuple(schema), tuple(stats), tuple(x_pt), BoxModel(schema, box), keys


@settings(max_examples=300, deadline=None)
@given(batch=_walk_batches())
def test_walk_reports_match_stepwise_oracle(batch):
    schema, stats, x_pt, model, keys = batch
    recorder = RecordingModel(model)
    reports = _walk_reports_of(keys, x_pt, recorder, schema, stats)
    assert recorder.calls <= 1  # every walk row of the batch in one call
    assert reports == [_walk_oracle(key, x_pt, model, schema, stats) for key in keys]
    # the rows come key-major, then feature-minor, each walk inside its bounds
    rows = iter(recorder.seen)
    for key, report in zip(keys, reports):
        for f in report.features:
            i, lo, hi = f.index, stats[f.index].lower, stats[f.index].upper
            for row in itertools.islice(rows, f.steps_max):
                assert row[:i] + row[i + 1 :] == key[:i] + key[i + 1 :]
                assert lo <= row[i] <= hi
    assert next(rows, None) is None


# a categorical feature first, so encoded columns are not schema indices;
# then an integer, a continuous and a zero-range numeric feature
ENCODED_SCHEMA = (
    FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
    FeatureSchema("n", INTEGER),
    FeatureSchema("x", CONTINUOUS),
    FeatureSchema("z", CONTINUOUS),
)
ENCODED_POI = ("b", 4.0, 0.1, 3.0)


def _encoded_fixture():
    """Training data, stats, and keys around ENCODED_POI: some values lie
    beyond a bound, and z differs from the POI only where it has no range."""
    rng = np.random.default_rng(7)
    rows, labels = [], []
    for _ in range(120):
        k, n, x = rng.choice(["a", "b", "c"]), float(rng.integers(0, 11)), rng.uniform(-1, 1)
        rows.append((str(k), n, float(x), 3.0))
        labels.append(int(n / 10 + x + (k == "c") > 0.9))
    train = make_dataset(ENCODED_SCHEMA, rows, labels)
    stats = compute_feature_stats(train)
    keys = [
        (str(rng.choice(["a", "b", "c"])), float(rng.integers(-2, 13)), float(x), z)
        for x, z in zip(rng.uniform(-1.3, 1.3, 40), rng.choice([3.0, 3.0, 5.0], 40))
    ]
    keys += [("b", 12.0, 0.1, 3.0), ("a", 4.0, 1.5, 3.0), ("c", 0.0, -1.0, 2.0)]
    return train, stats, keys


def test_walk_reports_on_encoded_models_match_stepwise_oracle():
    train, stats, keys = _encoded_fixture()
    assert any(key[1] > stats[1].upper or abs(key[2]) > 1.0 for key in keys)
    forest = train_random_forest(train, LearnerConfig("random_forest", {"ntree": 15}, seed=3))
    # encoded columns: k a, k b, k c, n, x, z (zero range, encodes to 0)
    weights = [0.4, -0.3, 0.9, 2.1, 1.7, 5.0]
    logistic = LogisticModel(ENCODED_SCHEMA, _Encoder.fit(train), weights, -1.6)
    for model in (forest, logistic):
        recorder = RecordingModel(model)
        expected = _walk_reports_of(keys, ENCODED_POI, recorder, ENCODED_SCHEMA, stats)
        assert expected == [
            _walk_oracle(key, ENCODED_POI, model, ENCODED_SCHEMA, stats) for key in keys
        ]
        assert _walk_reports_of(keys, ENCODED_POI, model, ENCODED_SCHEMA, stats) == expected
        # partial walks, and more walk rows than one forest chunk
        assert any(0 < f.score < 1 for report in expected for f in report.features)
        assert len(recorder.seen) > 256
    # no walk row of the logistic model lies near enough to 0.5 for a
    # last-bit difference in its score to flip its class
    probs = logistic.predict_proba_batch(recorder.seen)
    assert np.abs(probs - 0.5).min() > 1e-9


def test_walk_reports_encode_only_the_candidates():
    # an encoded model encodes the candidates once and scales each walk
    # row's changed cell alone; no walk row goes through transform_coded
    train, stats, keys = _encoded_fixture()
    forest = train_random_forest(train, LearnerConfig("random_forest", {"ntree": 15}, seed=3))
    weights = [0.4, -0.3, 0.9, 2.1, 1.7, 5.0]
    logistic = LogisticModel(ENCODED_SCHEMA, _Encoder.fit(train), weights, -1.6)
    genome = Genome(ENCODED_POI, ENCODED_SCHEMA, stats)
    F = genome.encode(keys)
    transform_coded = _Encoder.transform_coded
    seen = []

    def counting(encoder, X, genome):
        seen.append(len(X))
        return transform_coded(encoder, X, genome)

    with mock.patch.object(_Encoder, "transform_coded", counting):
        for model in (forest, logistic):
            (*_, steps, _, _), _ = _walk_reports(F, genome, model)
            assert steps.sum() > len(F)
    assert seen == [len(F), len(F)]


def test_resilient_validity_sums_walk_scores_in_walk_order():
    # walks of 10 steps of 5 from 50 keep 1, 2 and 3 steps: scores 0.1,
    # 0.2 and 0.3, whose float sum depends on the order of addition
    schema = numeric_schema(3)
    stats = make_stats([(0.0, 100.0)] * 3)
    model = BoxModel(schema, {0: (-math.inf, 57.0), 1: (-math.inf, 62.0), 2: (-math.inf, 67.0)})
    train = make_dataset(schema, [[0.0] * 3, [100.0] * 3], [0, 1])
    ctx = EvalContext((0.0,) * 3, model, train, stats, resilience=True)
    report = resilience_scores((50.0,) * 3, ctx.x_pt, model, schema, stats)
    assert [f.score for f in report.features] == [0.1, 0.2, 0.3]
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert report.mean == ((0.1 + 0.2) + 0.3) / 3
    assert evaluate((50.0,) * 3, ctx).o1 == 0.0 - report.mean


def test_forest_vectors_do_not_depend_on_the_batch():
    train, stats, keys = _encoded_fixture()
    forest = train_random_forest(train, LearnerConfig("random_forest", {"ntree": 15}, seed=3))
    batch = EvalContext(ENCODED_POI, forest, train, stats, resilience=True)
    single = EvalContext(ENCODED_POI, forest, train, stats, resilience=True)
    vectors = objective_vectors(evaluate_population(batch.genome.encode(keys), batch))
    assert vectors == [evaluate(key, single) for key in keys]
    assert any(v.o1 < 0 for v in vectors) and any(v.o1 > 0 for v in vectors)


def test_resilience_partial_walk_score():
    # positive while x <= 67; walk 50 -> 55, 60, 65, 70, ... flips at 70
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 100.0)])
    model = ThresholdModel(schema, 0, 67.0, positive_below=True)
    report = resilience_scores((50.0,), (0.0,), model, schema, stats)
    assert len(report.features) == 1
    f = report.features[0]
    assert (f.step, f.steps_max, f.steps_successful) == (5.0, 10, 3)
    assert f.score == 0.3
    assert report.mean == 0.3


def test_resilience_monotone_model_fully_resilient():
    # positive whenever x >= 30; pushing x further up can never flip it
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 100.0)])
    model = ThresholdModel(schema, 0, 30.0, positive_below=False)
    report = resilience_scores((40.0,), (10.0,), model, schema, stats)
    assert report.features[0].score == 1.0
    assert report.mean == 1.0


def test_resilience_at_bound_counts_as_full():
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 100.0)])
    model = ThresholdModel(schema, 0, 30.0, positive_below=False)
    report = resilience_scores((100.0,), (10.0,), model, schema, stats)
    f = report.features[0]
    assert (f.steps_max, f.steps_successful, f.score) == (0, 0, 1.0)


def test_resilience_first_flip_stops_counting():
    # flips immediately: first step already negative
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 100.0)])
    model = ThresholdModel(schema, 0, 52.0, positive_below=True)
    report = resilience_scores((50.0,), (0.0,), model, schema, stats)
    assert report.features[0].steps_successful == 0
    assert report.mean == 0.0


def test_evaluate_population_rejects_probability_outside_unit_interval():
    schema = numeric_schema(1)
    train = make_dataset(schema, [[0.0], [10.0]], [0, 1])
    stats = make_stats([(0.0, 10.0)])
    for p in (1.5, -0.1, float("nan")):
        for resilience in (False, True):
            ctx = EvalContext((1.0,), ConstantModel(schema, p), train, stats, resilience)
            with pytest.raises(InvariantViolation, match=r"outside \[0, 1\]"):
                evaluate_population(ctx.genome.encode([(1.0,), (2.0,)]), ctx)


def test_resilience_rejects_invalid_candidate():
    schema = numeric_schema(1)
    stats = make_stats([(0.0, 100.0)])
    model = ThresholdModel(schema, 0, 30.0, positive_below=True)
    with pytest.raises(InvariantViolation):
        resilience_scores((50.0,), (0.0,), model, schema, stats)


def test_resilience_mixed_features_mean():
    # feature 0 partially resilient (0.3), feature 1 at its bound (1.0)
    schema = numeric_schema(2)
    stats = make_stats([(0.0, 100.0), (0.0, 10.0)])
    model = ThresholdModel(schema, 0, 67.0, positive_below=True)
    report = resilience_scores((50.0, 10.0), (0.0, 2.0), model, schema, stats)
    assert [f.score for f in report.features] == [0.3, 1.0]
    assert report.mean == pytest.approx(0.65)


def _context(rng, resilience=False, p=0.8):
    train = _random_mixed_dataset(rng, 30)
    model = ConstantModel(MIXED_SCHEMA, p)
    x_pt = (1.0, 1.0, "a")
    return EvalContext(x_pt, model, train, MIXED_STATS, resilience=resilience), model


def test_evaluate_vector_matches_direct_objectives(rng):
    ctx, model = _context(rng)
    cand = (6.0, 1.0, "b")
    vec = evaluate(cand, ctx)
    assert isinstance(vec, ObjectiveVector)
    assert vec.o1 == obj_validity(model.predict_proba(cand))
    assert vec.o2 == obj_distance(cand, ctx.x_pt, MIXED_SCHEMA, MIXED_STATS)
    assert vec.o3 == obj_sparsity(cand, ctx.x_pt, MIXED_SCHEMA)
    assert vec.o4 == obj_plausibility(cand, ctx.train, MIXED_SCHEMA, MIXED_STATS)


def test_evaluate_population_caches_and_dedups(rng):
    ctx, _ = _context(rng)
    counter = CountingModel(ctx.model)
    ctx.model = counter
    cand = (6.0, 1.0, "b")
    out = objective_vectors(evaluate_population(ctx.genome.encode([cand] * 5), ctx))
    assert counter.calls == 1 and counter.rows == 1
    assert len(set(out)) == 1
    evaluate(cand, ctx)
    assert counter.calls == 1  # cache hit, no further model calls


def test_evaluate_population_order_matches_input(rng):
    ctx, _ = _context(rng)
    cands = [(6.0, 1.0, "b"), (2.0, 1.0, "a"), (6.0, 1.0, "b")]
    out = objective_vectors(evaluate_population(ctx.genome.encode(cands), ctx))
    assert out[0] == out[2]
    assert out[0] == evaluate(cands[0], ctx)
    assert out[1] == evaluate(cands[1], ctx)


def test_evaluate_population_store_growth_is_exact(rng):
    # many small batches on one context, its store doubling as it fills,
    # give the bits of one batch on another
    train = _random_mixed_dataset(rng, 30)
    model = FixedLinearModel(MIXED_SCHEMA, {"x": 1.0, "n": 1.0}, intercept=-4.0)
    small, whole = (
        EvalContext((1.0, 1.0, "a"), model, train, MIXED_STATS, resilience=True) for _ in "ab"
    )
    X = np.column_stack(
        (2.5 * rng.integers(0, 4, 70), rng.integers(0, 3, 70), rng.integers(0, 3, 70))
    ).astype(float)
    X[2] = X[1]  # a repeat within the batch of rows 1..3
    X[3] = X[0]  # a row the first batch cached
    X[4], X[5] = (0.0, 2.0, 1.0), (-0.0, 2.0, 1.0)  # one key, in the batch of rows 4..5
    X[69] = (-0.0, 2.0, 1.0)
    parts, start, sizes = [], 0, []
    for size in itertools.cycle((1, 3, 2, 4)):
        parts.append(evaluate_population(X[start : start + size], small))
        sizes.append(len(small.store))
        start += size
        if start >= len(X):
            break
    out = evaluate_population(X, whole)
    assert np.concatenate(parts).tobytes() == out.tobytes()
    assert out[4].tobytes() == out[5].tobytes() == out[69].tobytes()
    distinct = len(set(map(tuple, X.tolist())))
    assert len(small.cache) == len(whole.cache) == distinct < len(X)
    assert len(set(sizes)) >= 4 and sizes == sorted(sizes) and sizes[-1] >= distinct
    assert out.shape == (len(X), 4) and np.array_equal(out[:, 2], np.floor(out[:, 2]))
    assert {o1 <= 0 for o1 in out[:, 0]} == {True, False}
    vectors = objective_vectors(out)
    assert all(type(v.o3) is int for v in vectors)
    assert vectors == [evaluate(values, whole) for values in whole.genome.decode(X)]


def test_evaluate_with_report_valid_and_invalid(rng):
    ctx, _ = _context(rng, resilience=True, p=0.8)
    vec, report = evaluate_with_report((6.0, 1.0, "b"), ctx)
    assert report is not None
    assert vec.o1 == -report.mean
    ctx_bad, _ = _context(rng, resilience=True, p=0.2)
    vec_bad, report_bad = evaluate_with_report((6.0, 1.0, "b"), ctx_bad)
    assert report_bad is None
    assert vec_bad.o1 == pytest.approx(0.3)


def test_evaluate_population_batches_resilience_walks(rng):
    ctx, _ = _context(rng, resilience=True, p=0.8)
    counter = CountingModel(ctx.model)
    ctx.model = counter
    cands = [(6.0, 1.0, "b"), (2.5, 4.0, "a"), (1.0, 1.0, "c")]
    evaluate_population(ctx.genome.encode(cands), ctx)
    # one probability batch plus one merged class batch for all walks
    assert counter.calls == 2
    for cand in cands:
        vec, report = evaluate_with_report(cand, ctx)
        assert evaluate(cand, ctx) == vec
        assert report is not None
        assert vec.o1 == -report.mean


@pytest.mark.parametrize("chunk_cells", [None, 100], ids=["one_chunk", "two_rows_a_chunk"])
def test_evaluate_population_batch_equals_scalar_oracles(rng, monkeypatch, chunk_cells):
    if chunk_cells is not None:
        monkeypatch.setattr(objectives, "_CHUNK_CELLS", chunk_cells)
    # valid while x + n >= 8; the zero-range feature z adds nothing
    schema = (
        FeatureSchema("x", CONTINUOUS),
        FeatureSchema("n", INTEGER),
        FeatureSchema("z", CONTINUOUS),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
    )
    stats = make_stats([(0.0, 10.0), (0, 5), (3.0, 3.0), ("a", "b", "c")])
    rows = [
        [rng.uniform(0, 10), float(rng.integers(0, 6)), 3.0, ("a", "b", "c")[rng.integers(3)]]
        for _ in range(40)
    ]
    train = make_dataset(schema, rows, [0] * 40)
    model = FixedLinearModel(schema, {"x": 1.0, "n": 1.0}, intercept=-8.0)
    x_pt = (2.0, 4.0, 3.0, "a")
    batch = [
        x_pt,
        (6.0, 3.0, 3.0, "b"),  # valid; the walk down n flips after one step
        (8.5, 2.0, 3.0, "a"),
        (4.5, 5.0, 3.0, "c"),  # n already at its bound
        (7.0, 0.0, 3.0, "a"),  # invalid
        (6.0, 3.0, 3.0, "b"),
        (6.5, 3.0, 5.0, "a"),  # changes the zero-range feature
        (2.0, 4.0, 3.0, "b"),  # invalid, categorical change only
        x_pt,
    ]
    batch += [tuple(r) for r in rows[:8]]
    for resilience in (False, True):
        ctx = EvalContext(x_pt, model, train, stats, resilience=resilience)
        out = objective_vectors(evaluate_population(ctx.genome.encode(batch), ctx))
        assert len(out) == len(batch)
        for cand, vec in zip(batch, out):
            p_hat = model.predict_proba(cand)
            if resilience and p_hat >= 0.5:
                report = resilience_scores(cand, x_pt, model, schema, stats)
                assert evaluate_with_report(cand, ctx) == (vec, report)
                assert vec.o1 == obj_validity_resilient(p_hat, report)
            else:
                assert evaluate_with_report(cand, ctx) == (vec, None)
                assert vec.o1 == obj_validity(p_hat)
            assert vec.o2 == obj_distance(cand, x_pt, schema, stats)
            assert vec.o3 == obj_sparsity(cand, x_pt, schema)
            assert vec.o4 == obj_plausibility(cand, train, schema, stats)
            assert vec.o4 == _plausibility_oracle(cand, train, schema, stats)
        assert {vec.o1 <= 0 for vec in out} == {True, False}
    assert -1.0 < out[1].o1 < 0.0  # a partial walk score took part


@pytest.mark.parametrize("two_rows_a_chunk", [False, True], ids=["one_chunk", "two_rows_a_chunk"])
def test_unseen_categories_match_scalar_oracles(rng, monkeypatch, two_rows_a_chunk):
    # the schema declares d and e; the training split and its stats hold
    # neither, the POI carries d, and no scan has seen e
    schema = (
        FeatureSchema("x", CONTINUOUS),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c", "d", "e")),
        FeatureSchema("n", INTEGER),
    )
    stats = make_stats([(0.0, 10.0), ("a", "b", "c"), (0, 5)])
    rows = [
        [rng.uniform(0, 10), ("a", "b", "c")[rng.integers(3)], float(rng.integers(0, 6))]
        for _ in range(30)
    ]
    train = make_dataset(schema, rows, [0] * 30)
    if two_rows_a_chunk:
        monkeypatch.setattr(objectives, "_CHUNK_CELLS", 2 * len(train))
    model = FixedLinearModel(schema, {"x": 1.0, "n": 1.0}, intercept=-6.0)
    x_pt = (2.0, "d", 1.0)
    batch = [
        x_pt,
        (7.0, "d", 1.0),  # holds the POI's unseen category
        (2.0, "e", 1.0),  # holds a value neither scan has seen
        (7.0, "e", 4.0),
        tuple(rows[0]),
        (2.0, "a", 1.0),
        (13.0, "d", 1.0),  # beyond the training range
        (-1.0, "e", 5.0),
    ]
    ctx = EvalContext(x_pt, model, train, stats)
    assert ctx.gower_to_poi(ctx.genome.encode([x_pt])) == [0.0]
    out = objective_vectors(evaluate_population(ctx.genome.encode(batch), ctx))
    for cand, vec in zip(batch, out):
        assert vec.o2 == obj_distance(cand, x_pt, schema, stats)
        assert vec.o2 == sum(gower_dist(schema, stats, cand[i], x_pt[i], i) for i in range(3)) / 3
        assert vec.o4 == obj_plausibility(cand, train, schema, stats)
        assert vec.o4 == _plausibility_oracle(cand, train, schema, stats)
    assert out[0].o2 == 0.0 and out[1].o2 == 0.5 / 3
    assert out[2].o2 == 1.0 / 3
    assert out[6].o2 == 1.0 / 3
    assert out[4].o4 == 0.0
    # an unseen category mismatches every training row
    assert min(out[i].o4 for i in (0, 1, 2, 3, 6, 7)) >= 1.0 / 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    size=st.integers(2, 9),
    probs=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3),
    poi_k=st.sampled_from(["a", "d"]),
    resilience=st.booleans(),
)
def test_coded_offspring_match_scalar_oracles(seed, size, probs, poi_k, resilience):
    # valid while x + n >= 8; training never saw category d, and the
    # zero-range feature z adds nothing
    schema = (
        FeatureSchema("x", CONTINUOUS),
        FeatureSchema("n", INTEGER),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c", "d")),
        FeatureSchema("z", CONTINUOUS),
    )
    stats = make_stats([(0.0, 10.0), (0, 5), ("a", "b", "c"), (3.0, 3.0)])
    rng = np.random.default_rng(seed)
    rows = [
        [rng.uniform(0, 10), float(rng.integers(0, 6)), "abc"[rng.integers(3)], 3.0]
        for _ in range(25)
    ]
    train = make_dataset(schema, rows, [0] * 25)
    model = FixedLinearModel(schema, {"x": 1.0, "n": 1.0}, intercept=-8.0)
    x_pt = (2.0, 4.0, poi_k, 3.0)
    ctx = EvalContext(x_pt, model, train, stats, resilience=resilience)
    cfg = EAConfig(population_size=size, crossover_prob=probs[0], mutation_prob=probs[1],
                   reset_prob=probs[2])
    X = init_population(ctx.genome, cfg, rng)
    for _ in range(3):
        X = mutate(crossover(X, ctx.genome, cfg, rng), ctx.genome, cfg, rng)
        out = objective_vectors(evaluate_population(X, ctx))
        for values, vec in zip(ctx.genome.decode(X), out):
            p_hat = model.predict_proba(values)
            if resilience and p_hat >= 0.5:
                report = resilience_scores(values, x_pt, model, schema, stats)
                o1 = obj_validity_resilient(p_hat, report)
            else:
                o1 = obj_validity(p_hat)
            assert vec == (
                o1,
                obj_distance(values, x_pt, schema, stats),
                obj_sparsity(values, x_pt, schema),
                obj_plausibility(values, train, schema, stats),
            )


def test_base_objective_without_resilience_has_no_report(rng):
    ctx, _ = _context(rng, resilience=False, p=0.8)
    vec, report = evaluate_with_report((6.0, 1.0, "b"), ctx)
    assert vec.o1 == 0.0
    assert report is None


@settings(max_examples=40)
@given(data=st.data())
def test_plausibility_oracle_property(data):
    n = data.draw(st.integers(2, 12))
    rows = data.draw(
        st.lists(
            st.tuples(
                st.floats(-5, 15),
                st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=n,
            max_size=n,
        )
    )
    train = make_dataset(MIXED_SCHEMA, [list(r) for r in rows], [0] * n)
    probe = data.draw(
        st.tuples(
            st.floats(-5, 15),
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            st.sampled_from(["a", "b", "c"]),
        )
    )
    got = obj_plausibility(probe, train, MIXED_SCHEMA, MIXED_STATS)
    assert got == _plausibility_oracle(probe, train, MIXED_SCHEMA, MIXED_STATS)
    assert 0.0 <= got <= 1.0
