"""The four minimized objectives and the stepwise resilience extension.

o1 validity: distance of the predicted probability to the target interval
[0.5, 1]; optionally extended below zero by resilience. o2: mean Gower
distance to the point of interest. o3: count of changed features. o4:
Gower distance to the nearest training instance.

evaluate_population scores candidates as rows in a Genome's codes, the
form they keep from variation on; the model reads them through
Model.predict_coded, and resilience-walk rows through Model.predict_walks,
as each walk's candidate with one numeric cell changed. The scalar obj_*
functions and resilience_scores are the reference it equals.
"""

import math
from dataclasses import dataclass
from numbers import Real
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
    genome = Genome(_values_of(x), schema, stats)
    scan = TrainGowerScan(genome, [inst.values for inst in train])
    return _min_mean_gower(scan, genome.poi[None])[0]


def obj_validity(p_hat):
    if not 0.0 <= p_hat <= 1.0:
        raise InvariantViolation("probability %r outside [0, 1]" % p_hat)
    if p_hat >= 0.5:
        return 0.0
    return 0.5 - p_hat


def obj_validity_resilient(p_hat, report):
    """Extended validity: valid candidates score 0 minus their mean
    resilience, invalid ones keep the base distance to [0.5, 1]."""
    distance = obj_validity(p_hat)
    if distance > 0:
        return distance
    if report is None:
        raise InvariantViolation("valid candidate needs a resilience report")
    return 0.0 - report.mean


def resilience_step(x_cf_i, x_pt_i, bound, is_integer):
    """Step size and count for one feature's walk toward its bound.

    One tenth of the remaining distance per step; integer features round
    the step and fall back to a whole unit in the walk direction when
    rounding collapses it to zero. A continuous distance so small that
    its tenth underflows to zero is walked in one step.
    """
    step = (bound - x_cf_i) / 10.0
    if is_integer:
        step = float(round(step))
    if step == 0.0:
        step = (1.0 if x_cf_i > x_pt_i else -1.0) if is_integer else bound - x_cf_i
    # the epsilon absorbs float error in an exact-quotient case like 5/0.5
    steps_max = int(math.floor(abs((bound - x_cf_i) / step) + 1e-9))
    return step, max(1, steps_max)


def _walk_reports(F, genome, model):
    """Resilience walks of valid candidates, the rows of F in genome's codes.

    Every changed numeric feature of every row is walked toward the
    training bound (genome.lo or genome.hi) it moves away from genome.poi
    by, with resilience_step's steps clamped at that bound; a feature at
    or beyond a bound gets an empty walk. A walk row is its candidate's
    row with the walked column set. All walk rows, row-major and then
    feature-minor, are classified in one Model.predict_walks batch, given
    as F and each walk row's candidate, column and value, so a model can
    reuse what it computes per candidate; no row is built here. Each walk
    scores the share of its steps before its first negative one, or 1
    when it has no steps.

    Returns the walks as arrays (candidate, feature, step, steps, kept,
    score) and each candidate's mean score, summed as ResilienceReport's.
    """
    numeric = np.flatnonzero(genome.numeric)
    # one walk per changed numeric feature, row-major then feature-minor
    key_of, col = np.nonzero(F[:, numeric] != genome.poi[numeric])
    feature = numeric[col]
    x, pt = F[key_of, feature], genome.poi[feature]
    lo, hi = genome.lo[feature], genome.hi[feature]
    inside = (lo < x) & (x < hi)
    # resilience_step's arithmetic on the walks with steps; np.round
    # rounds half to even, as round does
    up = x > pt
    dist = np.where(up, hi, lo) - x
    step = np.where(inside, dist / 10.0, 0.0)
    whole = genome.whole[feature]
    step[whole] = np.round(step[whole])
    zero = inside & (step == 0.0)
    step[zero] = np.where(whole, np.where(up, 1.0, -1.0), dist)[zero]
    n = np.zeros(len(x), dtype=np.int64)
    n[inside] = np.maximum(1, np.floor(np.abs(dist[inside] / step[inside]) + 1e-9))
    # step s of walk w sits at x + s * step, clamped at the bound
    walk = np.repeat(np.arange(len(x)), n)
    firsts = np.cumsum(n) - n
    s = np.arange(len(walk)) - firsts[walk] + 1
    v = x[walk] + s * step[walk]
    v = np.where(step[walk] > 0, np.minimum(v, hi[walk]), np.maximum(v, lo[walk]))
    kept = n.copy()
    if len(walk):
        negative = ~(model.predict_walks(F, genome, key_of[walk], feature[walk], v) >= 0.5)
        # each walk keeps the steps before its first negative one
        first = np.where(negative, s - 1, n[walk])
        kept[n > 0] = np.minimum.reduceat(first, firsts[n > 0])
    score = np.divide(kept, n, out=np.ones(len(n)), where=n > 0)
    # Python's sum adds the numeric columns left to right, so each row's
    # scores add in walk order; the zeros of unwalked features add nothing
    grid = np.zeros((len(F), len(numeric)))
    grid[key_of, col] = score
    count = np.bincount(key_of, minlength=len(F))
    mean = np.divide(sum(grid.T, np.zeros(len(F))), count, out=np.zeros(len(F)), where=count > 0)
    return (key_of, feature, step, n, kept, score), mean


def resilience_scores(x_cf, x_pt, model, schema, stats):
    """Walk each changed numeric feature toward its training bound and
    measure how many cumulative steps keep the positive class.

    Features already at or beyond a bound are fully resilient. Only valid
    counterfactuals have resilience; calling this on an invalid candidate
    is a contract violation.
    """
    x_cf_values = tuple(_values_of(x_cf))
    if model.predict_class(x_cf_values) != POSITIVE:
        raise InvariantViolation("resilience is defined only for valid counterfactuals")
    genome = Genome(_values_of(x_pt), schema, stats)
    walks, _ = _walk_reports(genome.encode([x_cf_values]), genome, model)
    return ResilienceReport(tuple(map(FeatureResilience, *(c.tolist() for c in walks[1:]))))


class Variation(NamedTuple):
    """The variation table of a Genome, over its actionable features: num
    and cat, the positions within actionable of act_numeric and
    act_categorical; scale (0.1 * span), lo and hi of the act_numeric
    features, and whole, the positions within num of the integer ones;
    counts, the training categories of each act_categorical feature; and
    poi, the point of interest's actionable genes."""

    num: np.ndarray
    cat: np.ndarray
    scale: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    whole: np.ndarray
    counts: np.ndarray
    poi: np.ndarray


class Genome:
    """How candidates are held as float rows: a numeric feature as its
    value, a categorical feature as an integer code into its code table.
    A table starts with the feature's training categories, then the point
    of interest's own value when training never saw it; encode gives any
    other value the next code, so every encoded row decodes to itself.

    The one per-feature table the search and the objectives read, arrays
    over every feature: numeric, movable (actionable), lo and hi (the
    training bounds, or the training-category codes 0..count - 1), whole
    (integer) and span (the Gower normalizer: the training range, or 1
    for a categorical). Mutation moves the actionable act_numeric and
    act_categorical features, the latter only with a training category,
    and draws only training-category codes; it reads them through
    variation, a Variation built once.
    """

    def __init__(self, x_pt, schema, stats):
        self._names = [feat.name for feat in schema]
        self._codes = [
            {v: c for c, v in enumerate(st.categories)} if feat.kind == CATEGORICAL else None
            for feat, st in zip(schema, stats)
        ]
        self.tables = [None if codes is None else tuple(codes) for codes in self._codes]
        self.poi = self.encode([tuple(x_pt)])[0]
        self.numeric = np.array([feat.kind != CATEGORICAL for feat in schema], dtype=bool)
        self.movable = np.array([feat.actionable for feat in schema], dtype=bool)
        self.lo = np.array([st.lower if num else 0 for num, st in zip(self.numeric, stats)], float)
        self.hi = np.array(
            [st.upper if num else len(st.categories) - 1 for num, st in zip(self.numeric, stats)],
            float,
        )
        self.whole = np.array([feat.kind == INTEGER for feat in schema], dtype=bool)
        self.span = np.where(self.numeric, self.hi - self.lo, 1.0)
        self.actionable = np.flatnonzero(self.movable)
        self.act_numeric = np.flatnonzero(self.movable & self.numeric)
        self.act_categorical = np.flatnonzero(self.movable & ~self.numeric & (self.hi >= 0))
        num = self.act_numeric
        self.variation = Variation(
            num=np.searchsorted(self.actionable, num),
            cat=np.searchsorted(self.actionable, self.act_categorical),
            scale=0.1 * self.span[num],
            lo=self.lo[num],
            hi=self.hi[num],
            whole=np.flatnonzero(self.whole[num]),
            counts=self.hi[self.act_categorical].astype(np.int64) + 1,
            poi=self.poi[self.actionable],
        )

    def encode(self, rows):
        """Value tuples as one (rows x features) float matrix. A tuple of the
        wrong length, or a numeric feature's value that is not a finite real
        number, is a ConfigError."""
        p = len(self.tables)
        for length in set(map(len, rows)) - {p}:
            raise ConfigError("a value tuple holds %d values for %d features" % (length, p))
        X = np.empty((len(rows), p))
        for i, (codes, column) in enumerate(zip(self._codes, zip(*rows))):
            if codes is not None:
                known = len(codes)
                column = [codes.setdefault(v, len(codes)) for v in column]
                if len(codes) > known:
                    self.tables[i] = tuple(codes)
            elif (values := np.asarray(column)).dtype.kind in "biuf":
                column = values
            else:
                for v in filter(lambda v: not isinstance(v, Real), column):
                    raise ConfigError("feature %r takes numbers, not %r" % (self._names[i], v))
            X[:, i] = column
        # a categorical code is always finite
        for r, i in np.argwhere(~np.isfinite(X))[:1]:
            raise ConfigError("feature %r value %r is not finite" % (self._names[i], X.item(r, i)))
        return X

    def decode(self, X):
        """The rows of a float matrix as value tuples."""
        columns = X.T.tolist()
        for i, table in enumerate(self.tables):
            if table is not None:
                columns[i] = [table[c] for c in map(int, columns[i])]
        return list(zip(*columns))


# cells per (candidates x reference rows) matrix in one chunk of the
# kernel, which holds one such matrix per summed numeric feature and a
# boolean one per categorical feature
_CHUNK_CELLS = 1 << 13

# the factor by which each block of the pruned scan outgrows the last
_GROWTH = 3


def _gower_sums(cand, ref, scan, clamp):
    """Gower sums of each candidate to each reference row: a (candidates
    x reference rows) matrix. cand and ref hold their rows in the scan's
    two kind blocks (TrainGowerScan.split).

    Per-feature distances are added in schema order with gower_dist's
    arithmetic, so each cell equals the scalar oracle's sum bit for bit.
    A categorical term is the mismatch ref != cand of whole-number codes,
    which is exactly min(|a - b|, 1) at span 1; a code no reference row
    holds mismatches every row. A numeric term is |a - b| / span, clamped
    at 1 only for the features clamp lists, rows of the numeric block
    (TrainGowerScan.clamped); in one call when it lists them all.
    """
    (cand_num, cand_cat), (ref_num, ref_cat) = cand, ref
    # C order keeps each feature's (candidates x reference rows) matrix
    # contiguous, whatever the layout of the candidates
    diff = np.subtract(ref_num[:, None, :], cand_num[:, :, None], order="C")
    np.abs(diff, out=diff)
    diff /= scan.spans[:, None, None]
    if len(clamp) == len(diff):
        np.minimum(diff, 1.0, out=diff)
    else:
        for k in clamp:
            np.minimum(diff[k], 1.0, out=diff[k])
    mismatch = np.not_equal(ref_cat[:, None, :], cand_cat[:, :, None], order="C")
    total = np.zeros(diff.shape[1:])
    for numeric, k in scan.terms:
        total += diff[k] if numeric else mismatch[k]
    return total


def _min_gower_sums(scan, cand, clamp, lo, hi):
    """Each candidate's least Gower sum to reference rows lo..hi-1 of
    scan, in chunks of at most _CHUNK_CELLS cells; cand holds the
    candidates in the scan's kind blocks."""
    out = np.empty(cand[0].shape[1])
    ref = tuple(block[:, lo:hi] for block in scan.ref)
    step = max(1, _CHUNK_CELLS // (hi - lo))
    for start in range(0, len(out), step):
        rows = slice(start, start + step)
        chunk = tuple(block[:, rows] for block in cand)
        _gower_sums(chunk, ref, scan, clamp).min(axis=1, out=out[rows])
    return out


def _min_mean_gower(scan, F):
    """Mean Gower distance of each row of F, in the scan's genome codes,
    to its nearest reference row of scan: the exhaustive scan over every
    reference row, every numeric term clamped, which
    TrainGowerScan.min_mean_dist equals."""
    return (_min_gower_sums(scan, scan.split(F), scan.clamp_all, 0, scan.n) / scan.p).tolist()


class TrainGowerScan:
    """Nearest-neighbor Gower scan over fixed reference rows (value
    tuples), held in genome's codes as two kind blocks, one of numeric
    and one of categorical features (split); min_mean_dist reads
    candidates in the same codes. Numeric features with a degenerate
    training range add nothing and are left out. No reference rows is a
    ConfigError.

    The scan prunes with genome.poi as a pivot: LAESA's metric search
    with one pivot, and its elimination loop. Each summed term,
    min(|a - b| / span, 1) or a category mismatch, is a metric, so their
    sum d is one, and d(c, r) >= d(poi, r) - d(c, poi). The reference
    rows are sorted once by d(poi, r), the pivot column. Any computed sum
    U(c) of a candidate c to a reference row bounds c's nearest row r:
    d(poi, r) <= U(c) + d(c, poi), so only the rows up to that reach,
    plus the rounding margin below, can hold r. min_mean_dist takes U(c)
    as c's running minimum, so the reach shrinks as the scan goes on.
    Every cell is still summed in schema order by _gower_sums, and the
    minimum over a set that holds the nearest row is the exhaustive
    minimum, so min_mean_dist equals _min_mean_gower bit for bit.
    """

    def __init__(self, genome, rows):
        if len(rows) == 0:
            raise ConfigError("plausibility needs a non-empty training set")
        self.p = len(genome.tables)
        self.n = len(rows)
        R = genome.encode(rows)
        self.num = np.flatnonzero(genome.numeric & (genome.span != 0))
        self.cat = np.flatnonzero(~genome.numeric)
        self.spans = genome.span[self.num]
        # the summed terms in schema order: (numeric?, row in its block)
        kinds = {i: (True, k) for k, i in enumerate(self.num.tolist())}
        kinds.update({i: (False, k) for k, i in enumerate(self.cat.tolist())})
        self.terms = [kinds[i] for i in sorted(kinds)]
        # every numeric feature clamped: exact for any rows, as min(x, 1)
        # leaves a term of at most 1 as it is
        self.clamp_all = np.arange(len(self.spans))
        self.poi = self.split(genome.poi[None])
        pivot = self.to_poi(R)
        order = np.argsort(pivot, kind="stable")
        self.pivot = pivot[order]
        self.ref = tuple(np.ascontiguousarray(block) for block in self.split(R[order]))
        # each numeric feature's least and greatest reference value
        self.ref_lo = self.ref[0].min(axis=1, initial=np.inf)
        self.ref_hi = self.ref[0].max(axis=1, initial=-np.inf)
        self.m = min(self.n, max(8, math.isqrt(self.n - 1) + 1))
        # Rounding margin of the bound. A computed term is within 2u + u^2
        # (u the unit roundoff, eps / 2) of its exact value: the
        # subtraction and the division each round once, and min(., 1) and
        # a mismatch add no error. A computed sum of q terms, each at most
        # 1, adds at most u * (2 + ... + q) < q(q + 1)u / 2 of summation
        # error, so it is within e = (q^2 + 5q)eps / 4 + q u^2 of the
        # exact sum. The test d(poi, r) <= U(c) + d(c, poi) compares three
        # computed sums (3e) through two rounded additions of values below
        # 2q + 1 (under (2q + 1)eps), which a margin of 3(q^2 + 2q)eps
        # covers with room to spare.
        q = len(self.terms)
        self.margin = 3 * (q * q + 2 * q) * np.finfo(float).eps

    def split(self, F):
        """The rows of F as the two kind blocks (numeric, categorical):
        the summed features of each kind, a (features x rows) array."""
        return F[:, self.num].T, F[:, self.cat].T

    def clamped(self, cand, lo, hi):
        """The numeric features (rows of the numeric block) whose terms
        from the candidates (in kind blocks) to reference values in [lo,
        hi] may exceed 1. When both lie in one interval [L, H] with fl(H -
        L) <= span, rounding is monotone, so fl(|a - b|) <= span and no
        term exceeds 1."""
        values = cand[0]
        low = np.minimum(lo, values.min(axis=1, initial=np.inf))
        high = np.maximum(hi, values.max(axis=1, initial=-np.inf))
        return np.flatnonzero(~(high - low <= self.spans))

    def to_poi(self, F):
        """Gower sum of each row of F to the POI, p times its o2. Every
        numeric term is clamped: on a one-row reference, checking which
        terms need it costs more than the clamps it saves."""
        return _gower_sums(self.split(F), self.poi, self, self.clamp_all)[:, 0]

    def min_mean_dist(self, F, to_poi=None):
        """Mean Gower distance of each row of F to its nearest reference
        row. to_poi, the rows' Gower sums to the POI, is computed when
        absent.

        Rows 0..m-1 are scanned for every candidate. The rows after them
        go in blocks, the first m rows long and each next _GROWTH times
        the last; a block is scanned for the candidates whose reach,
        recomputed from their running minimum, passes its start, up to
        the furthest such reach. A candidate whose minimum is 0 is done.
        """
        if to_poi is None:
            to_poi = self.to_poi(F)
        cand = self.split(F)
        clamp = self.clamped(cand, self.ref_lo, self.ref_hi)
        best = _min_gower_sums(self, cand, clamp, 0, self.m)
        live = np.arange(len(F))
        start, size = self.m, self.m
        while start < self.n:
            reach = np.searchsorted(self.pivot, best[live] + to_poi[live] + self.margin, "right")
            keep = (reach > start) & (best[live] > 0)
            if not keep.any():
                break
            live = live[keep]
            stop = min(start + size, reach[keep].max())
            far = _min_gower_sums(self, tuple(block[:, live] for block in cand), clamp, start, stop)
            best[live] = np.minimum(best[live], far)
            start, size = stop, size * _GROWTH
        best /= self.p
        return best.tolist()


class EvalContext:
    """Fixed inputs of one optimization run plus a result cache.

    genome is the one code table of the search's rows, the Gower scan and
    the cache. Evaluation is pure, so objectives are cached by each coded
    row's key (row_keys): cache maps a key to its row of store, a float
    array of four columns that doubles when it fills, one row per distinct
    row evaluated. batch_slots holds, after each evaluate_population call,
    the store row (slot) of each row of its batch, as an int array: two
    rows share a slot exactly when their keys are equal. The cache may be
    shared by runs with the same point of interest, model, and resilience
    setting. A malformed point of interest is Genome.encode's ConfigError.
    """

    def __init__(self, x_pt, model, train, stats, resilience=False):
        self.x_pt = tuple(_values_of(x_pt))
        self.model = model
        self.train = train
        self.stats = stats
        self.schema = train.schema
        self.resilience = resilience
        self.genome = Genome(self.x_pt, self.schema, stats)
        self.scan = TrainGowerScan(self.genome, [inst.values for inst in train])
        self.cache = {}
        self.store = np.empty((0, 4))
        self.batch_slots = np.empty(0, dtype=np.int64)

    def gower_to_poi(self, F):
        """Gower sum of each row of F to the POI, p times its o2."""
        return self.scan.to_poi(F)


def row_keys(X):
    """The search's one rule for equal coded rows: each row's bytes after
    + 0.0, which makes -0.0 and 0.0 one value. NaN never reaches a coded
    row, so rows with equal keys are exactly rows equal as floats."""
    X = np.ascontiguousarray(X, dtype=float) + 0.0
    return X.view(np.dtype((np.void, X.shape[1] * X.itemsize))).ravel().tolist()


def evaluate_population(X, ctx):
    """Objectives of a batch of candidates, the rows of X in ctx.genome's
    codes: an (n x 4) float array, a row per candidate, whose sparsity
    column holds whole numbers.

    Distinct uncached rows are evaluated together and appended to
    ctx.store: one predict_coded batch on the coded rows, o1 as one array
    expression over its probabilities, one Gower pass to the POI, whose
    sums are p times o2 and bound the pruned scan to the training set
    (TrainGowerScan), o3 as one comparison with the POI's row, and, under
    resilience, one predict_walks batch for the walks of every valid
    candidate. The batch's slots in ctx.store are left in ctx.batch_slots.
    """
    keys = row_keys(X)
    # each distinct uncached key in first-occurrence order, with a row of it
    row_of = dict(zip(keys, range(len(keys))))
    fresh = {key: i for key, i in row_of.items() if key not in ctx.cache}
    if fresh:
        F = np.asarray(X, dtype=float)[list(fresh.values())]
        p = np.asarray(ctx.model.predict_coded(F, ctx.genome), dtype=float)
        outside = ~((0.0 <= p) & (p <= 1.0))  # NaN too
        if outside.any():
            raise InvariantViolation("probability %r outside [0, 1]" % float(p[outside][0]))
        start = len(ctx.cache)
        stop = start + len(F)
        if stop > len(ctx.store):
            store = np.empty((max(stop, 2 * len(ctx.store)), 4))
            store[:start] = ctx.store[:start]
            ctx.store = store
        V = ctx.store[start:stop]
        V[:, 0] = np.where(p >= 0.5, 0.0, 0.5 - p)
        if ctx.resilience:
            valid = np.flatnonzero(p >= 0.5)
            _, mean = _walk_reports(F[valid], ctx.genome, ctx.model)
            V[valid, 0] = 0.0 - mean
        to_poi = ctx.gower_to_poi(F)
        V[:, 1] = to_poi / ctx.scan.p
        V[:, 2] = np.count_nonzero(F != ctx.genome.poi, axis=1)
        V[:, 3] = ctx.scan.min_mean_dist(F, to_poi)
        ctx.cache.update(zip(fresh, range(start, stop)))
    ctx.batch_slots = np.array([ctx.cache[key] for key in keys], dtype=np.int64)
    return ctx.store[ctx.batch_slots]


def objective_vectors(V):
    """The rows of an objective array as ObjectiveVectors, o3 an int."""
    return [ObjectiveVector(o1, o2, int(o3), o4) for o1, o2, o3, o4 in V.tolist()]


def evaluate(candidate, ctx):
    """Objective vector of one candidate's values (see evaluate_population)."""
    X = ctx.genome.encode([_values_of(candidate)])
    return objective_vectors(evaluate_population(X, ctx))[0]


def evaluate_with_report(candidate, ctx):
    """Objective vector plus the resilience report of a valid candidate
    under resilience, built on demand by resilience_scores; the report is
    None for an invalid candidate or without resilience."""
    vector = evaluate(candidate, ctx)
    if not ctx.resilience or vector.o1 > 0:
        return vector, None
    return vector, resilience_scores(candidate, ctx.x_pt, ctx.model, ctx.schema, ctx.stats)
