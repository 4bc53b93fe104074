"""The four minimized objectives and the stepwise resilience extension.

o1 validity: distance of the predicted probability to the target interval
[0.5, 1]; optionally extended below zero by resilience. o2: mean Gower
distance to the point of interest. o3: count of changed features. o4:
Gower distance to the nearest training instance.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, INTEGER, POSITIVE
from .errors import ConfigError, InvariantViolation


class ObjectiveVector(NamedTuple):
    o1: float
    o2: float
    o3: int
    o4: float


class FeatureResilience(NamedTuple):
    index: int
    step: float
    steps_max: int
    steps_successful: int
    score: float


@dataclass(frozen=True)
class ResilienceReport:
    """Per-feature walk outcomes for the changed numeric features."""

    features: tuple

    @property
    def mean(self):
        if not self.features:
            return 0.0
        return float(sum(f.score for f in self.features) / len(self.features))


def _values_of(x):
    return getattr(x, "values", x)


def gower_dist(schema, stats, a_i, b_i, i):
    """Per-feature distance in [0, 1]: range-normalized absolute difference
    for numerics (0 when the training range is degenerate), inequality
    indicator for categoricals."""
    feat = schema[i]
    if feat.kind == CATEGORICAL:
        return 0.0 if a_i == b_i else 1.0
    span = stats[i].range
    if span == 0:
        return 0.0
    return min(1.0, abs(a_i - b_i) / span)


def obj_distance(x, x_pt, schema, stats):
    a = _values_of(x)
    b = _values_of(x_pt)
    p = len(schema)
    return sum(gower_dist(schema, stats, a[i], b[i], i) for i in range(p)) / p


def obj_sparsity(x, x_pt, schema):
    a = _values_of(x)
    b = _values_of(x_pt)
    return sum(1 for i in range(len(schema)) if a[i] != b[i])


def obj_plausibility(x, train, schema, stats):
    if len(train) == 0:
        raise ConfigError("plausibility needs a non-empty training set")
    scan = TrainGowerScan(schema, stats, train)
    return scan.min_mean_dist(_values_of(x))


def obj_validity(p_hat):
    if not 0.0 <= p_hat <= 1.0:
        raise InvariantViolation("probability %r outside [0, 1]" % p_hat)
    if p_hat >= 0.5:
        return 0.0
    return 0.5 - p_hat


def obj_validity_resilient(p_hat, report):
    """Extended validity: valid candidates score 0 minus their mean
    resilience, invalid ones keep the base distance to [0.5, 1]."""
    if not 0.0 <= p_hat <= 1.0:
        raise InvariantViolation("probability %r outside [0, 1]" % p_hat)
    if p_hat >= 0.5:
        if report is None:
            raise InvariantViolation("valid candidate needs a resilience report")
        return 0.0 - report.mean
    return 0.5 - p_hat


def resilience_step(x_cf_i, x_pt_i, bound, is_integer):
    """Step size and count for one feature's walk toward its bound.

    One tenth of the remaining distance per step; integer features round
    the step and fall back to a whole unit in the walk direction when
    rounding collapses it to zero.
    """
    step = (bound - x_cf_i) / 10.0
    if is_integer:
        step = float(round(step))
        if step == 0.0:
            step = 1.0 if x_cf_i > x_pt_i else -1.0
    # the epsilon absorbs float error in an exact-quotient case like 5/0.5
    steps_max = int(math.floor(abs((bound - x_cf_i) / step) + 1e-9))
    return step, max(1, steps_max)


class _FeatureWalk(NamedTuple):
    index: int
    step: float
    steps_max: int
    values: tuple | None  # None marks the at-or-beyond-bound case


def _walk_plan(x_cf_values, x_pt_values, schema, stats):
    """Plan the univariate walks for every changed numeric feature."""
    plan = []
    for i, feat in enumerate(schema):
        if feat.kind == CATEGORICAL or x_cf_values[i] == x_pt_values[i]:
            continue
        lo, hi = stats[i].lower, stats[i].upper
        x = x_cf_values[i]
        if x >= hi or x <= lo:
            plan.append(_FeatureWalk(i, 0.0, 0, None))
            continue
        bound = hi if x > x_pt_values[i] else lo
        step, steps_max = resilience_step(x, x_pt_values[i], bound, feat.kind == INTEGER)
        values = []
        for s in range(1, steps_max + 1):
            v = x + s * step
            v = min(v, hi) if step > 0 else max(v, lo)
            values.append(v)
        plan.append(_FeatureWalk(i, step, steps_max, tuple(values)))
    return plan


def _walk_rows(x_cf_values, plan):
    rows = []
    for walk in plan:
        if walk.values is None:
            continue
        for v in walk.values:
            row = list(x_cf_values)
            row[walk.index] = v
            rows.append(tuple(row))
    return rows


def _score_plan(plan, classes):
    """Turn predicted classes for the walk rows back into per-feature scores."""
    features = []
    offset = 0
    for walk in plan:
        if walk.values is None:
            features.append(FeatureResilience(walk.index, walk.step, 0, 0, 1.0))
            continue
        successful = 0
        for s in range(walk.steps_max):
            if classes[offset + s] != POSITIVE:
                break
            successful += 1
        offset += walk.steps_max
        features.append(
            FeatureResilience(
                walk.index,
                walk.step,
                walk.steps_max,
                successful,
                successful / walk.steps_max,
            )
        )
    return ResilienceReport(tuple(features))


def resilience_scores(x_cf, x_pt, model, schema, stats):
    """Walk each changed numeric feature toward its training bound and
    measure how many cumulative steps keep the positive class.

    Features already at or beyond a bound are fully resilient. Only valid
    counterfactuals have resilience; calling this on an invalid candidate
    is a contract violation.
    """
    x_cf_values = _values_of(x_cf)
    x_pt_values = _values_of(x_pt)
    if model.predict_class(x_cf_values) != POSITIVE:
        raise InvariantViolation("resilience is defined only for valid counterfactuals")
    plan = _walk_plan(x_cf_values, x_pt_values, schema, stats)
    rows = _walk_rows(x_cf_values, plan)
    classes = model.predict_class_batch(rows) if rows else np.empty(0, dtype=int)
    return _score_plan(plan, classes)


class TrainGowerScan:
    """Vectorized exhaustive nearest-neighbor Gower scan over a training set.

    Distances accumulate feature by feature in schema order with the same
    arithmetic as gower_dist, so the scan agrees bit for bit with a plain
    per-row loop.
    """

    def __init__(self, schema, stats, train):
        self.schema = schema
        self.p = len(schema)
        self.columns = []
        for i, feat in enumerate(schema):
            raw = [inst.values[i] for inst in train.instances]
            if feat.kind == CATEGORICAL:
                self.columns.append((i, None, np.array(raw, dtype=object)))
            else:
                self.columns.append((i, stats[i].range, np.array(raw, dtype=float)))
        self.n = len(train)

    def min_mean_dist(self, values):
        total = np.zeros(self.n)
        for i, span, col in self.columns:
            if span is None:
                total = total + (col != values[i])
            elif span > 0:
                total = total + np.minimum(np.abs(col - values[i]) / span, 1.0)
        return float(total.min() / self.p)


class EvalContext:
    """Fixed inputs of one optimization run plus a result cache.

    Evaluation is pure, so vectors are cached by candidate feature values;
    the cache may be shared by runs with the same point of interest, model,
    and resilience setting.
    """

    def __init__(self, x_pt, model, train, stats, resilience=False):
        self.x_pt = tuple(_values_of(x_pt))
        self.model = model
        self.train = train
        self.stats = stats
        self.schema = train.schema
        self.resilience = resilience
        self.scan = TrainGowerScan(self.schema, stats, train)
        self.cache = {}

    def gower_to_poi(self, values):
        return obj_distance(values, self.x_pt, self.schema, self.stats)


def evaluate_population(rows, ctx):
    """Objective vectors for a batch of candidates, model calls batched.

    Uncached candidates are classified in one batch; resilience walks for
    all valid candidates are merged into a second batch.
    """
    keys = [tuple(_values_of(r)) for r in rows]
    fresh = []
    seen = set()
    for key in keys:
        if key not in ctx.cache and key not in seen:
            fresh.append(key)
            seen.add(key)
    if fresh:
        probs = ctx.model.predict_proba_batch(fresh)
        plans = {}
        merged = []
        spans = {}
        if ctx.resilience:
            for key, p_hat in zip(fresh, probs):
                if p_hat >= 0.5:
                    plan = _walk_plan(key, ctx.x_pt, ctx.schema, ctx.stats)
                    walk_rows = _walk_rows(key, plan)
                    spans[key] = (len(merged), len(walk_rows))
                    merged.extend(walk_rows)
                    plans[key] = plan
        classes = ctx.model.predict_class_batch(merged) if merged else None
        for key, p_hat in zip(fresh, probs):
            p_hat = float(p_hat)
            report = None
            if key in plans:
                start, count = spans[key]
                report = _score_plan(plans[key], classes[start : start + count])
            o1 = obj_validity_resilient(p_hat, report) if ctx.resilience else obj_validity(p_hat)
            vector = ObjectiveVector(
                o1,
                ctx.gower_to_poi(key),
                obj_sparsity(key, ctx.x_pt, ctx.schema),
                ctx.scan.min_mean_dist(key),
            )
            ctx.cache[key] = (vector, report)
    return [ctx.cache[key][0] for key in keys]


def evaluate(candidate, ctx):
    """Objective vector for a single candidate (see evaluate_population)."""
    return evaluate_population([candidate], ctx)[0]


def evaluate_with_report(candidate, ctx):
    """Objective vector plus the resilience report (None when absent)."""
    evaluate_population([candidate], ctx)
    return ctx.cache[tuple(_values_of(candidate))]
