"""Black-box classifiers over raw feature space.

Two built-in learners (logistic regression, random forest), each one row
of the LEARNERS table, plus a fixed-weight linear model built in code for
deterministic tests. All models expose batched probability prediction
over raw value tuples, predict_coded over rows in a search Genome's
codes, and predict_walks over resilience-walk rows, each a coded row with
one numeric cell changed. A model without an encoder reads coded rows
decoded; an encoded model maps the codes through the same encoder kernel
as the tuples, and encodes a walk row's candidate once and its changed
cell alone.

The random forest grows its trees together, in waves: each wave pops a
node needing a split from every unfinished tree, in the tree's own
preorder, and one batched search over padded arrays splits them all,
exactly as a search of each node alone would. It scores trees of at most
64 leaves by leaf bitmasks and deeper trees by a level-by-level
traversal; both reach the same leaf as a walk down the tree. Walk rows
reuse their candidate's bitmasks on every column but the changed one.
The tables are rebuilt whenever a forest is trained or loaded, so saved
models hold only the trees.
"""

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    CATEGORICAL, FeatureSchema, check_fields, compute_feature_stats, config_from, schema_fingerprint
)
from .errors import ConfigError, ModelFormatError, TrainingError

MODEL_FORMAT = "lexcf-model"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LearnerConfig:
    """Learner name, hyperparameters, and training seed."""

    learner: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _set_cells(X, row, column, values):
    """Copies of the rows X[row], cell column[i] of copy i set to values[i]."""
    out = X[row]
    out[np.arange(len(out)), column] = values
    return out


class Model:
    """Interface consumed by the optimizer: probabilities for the positive class.

    predict_class is positive exactly when the probability reaches 0.5;
    the target interval for counterfactuals is closed at 0.5. A subclass
    implements predict_proba_batch; predict_coded and predict_walks read
    rows in a search Genome's codes and may be overridden to skip the
    decoding, as long as every row scores the bits the tuple path gives.
    """

    learner_name = "abstract"
    schema = ()

    def predict_proba_batch(self, rows):
        raise NotImplementedError

    def predict_coded(self, X, genome):
        """Probabilities of the rows of X, a float matrix in genome's codes
        (objectives.Genome)."""
        return self.predict_proba_batch(genome.decode(X))

    def predict_walks(self, F, genome, row, column, values):
        """Probabilities of resilience-walk rows: walk row i is row row[i]
        of F, a float matrix in genome's codes, with its numeric column
        column[i] set to values[i]. This default builds the rows and calls
        predict_coded."""
        return self.predict_coded(_set_cells(F, row, column, values), genome)

    def predict_proba(self, values):
        return float(self.predict_proba_batch([values])[0])

    def predict_class_batch(self, rows):
        return (self.predict_proba_batch(rows) >= 0.5).astype(int)

    def predict_class(self, values):
        return int(self.predict_proba(values) >= 0.5)

    def accuracy(self, dataset):
        preds = self.predict_class_batch([inst.values for inst in dataset.instances])
        return float(np.mean(preds == dataset.labels()))


class _Encoder:
    """One-hot encoding for categoricals, min-max scaling for numerics.

    Fitted on training data; constant numeric columns encode to 0.
    """

    def __init__(self, columns):
        # columns: per feature either ("num", lo, hi) or ("cat", categories)
        self.columns = columns
        sizes = [1 if c[0] == "num" else len(c[1]) for c in columns]
        self.width = sum(sizes)
        # the encoded column of each feature (a categorical's first one)
        self.column_of = np.cumsum(sizes, dtype=np.intp) - sizes
        # per numeric feature its lower bound and its range, hi - lo where
        # positive and 0 otherwise; NaN for a categorical
        self._lo = np.array([c[1] if c[0] == "num" else np.nan for c in columns], float)
        self._span = np.array(
            [(c[2] - c[1] if c[2] > c[1] else 0.0) if c[0] == "num" else np.nan for c in columns],
            float,
        )
        # per categorical column: {category: code} and a table whose row for
        # a code is that category's one-hot block; the last row, which the
        # code -1 of an unknown token selects, is all zeros
        self._onehot = {
            j: (
                {cat: k for k, cat in enumerate(c[1])},
                np.array([[a == b for b in c[1]] for a in c[1]] + [[False] * len(c[1])], float),
            )
            for j, c in enumerate(columns)
            if c[0] == "cat"
        }

    @classmethod
    def fit(cls, train):
        """Scale each numeric feature by its training bounds
        (compute_feature_stats) and one-hot every declared category."""
        columns = [
            ("cat", f.categories) if f.kind == CATEGORICAL else ("num", st.lower, st.upper)
            for f, st in zip(train.schema, compute_feature_stats(train))
        ]
        return cls(columns)

    def _matrix(self, n, columns):
        """The encoded matrix of n rows given per feature: a numeric
        feature's values, a categorical feature's category indices, where
        -1 (an unknown token) selects the all-zero block."""
        out = np.zeros((n, self.width))
        for j, (spec, col, column) in enumerate(zip(self.columns, self.column_of, columns)):
            if spec[0] == "cat":
                out[:, col : col + len(spec[1])] = self._onehot[j][1].take(column, axis=0)
            elif self._span[j] > 0:
                out[:, col] = (np.asarray(column, dtype=float) - self._lo[j]) / self._span[j]
        return out

    def numeric_cells(self, features, values):
        """The encoded column of each numeric feature in features, and its
        value in values scaled as _matrix scales it: (v - lo) / (hi - lo),
        or 0 for a zero-range feature."""
        span = self._span[features]
        scaled = np.zeros(len(span))
        np.divide(values - self._lo[features], span, out=scaled, where=span > 0)
        return self.column_of[features], scaled

    def transform(self, rows):
        """The encoded matrix of value tuples."""
        columns = [[row[j] for row in rows] for j in range(len(self.columns))]
        for j, (codes, _) in self._onehot.items():
            columns[j] = [codes.get(v, -1) for v in columns[j]]
        return self._matrix(len(rows), columns)

    def transform_coded(self, X, genome):
        """transform(genome.decode(X)) without decoding: a numeric column of
        X holds the values themselves, and a categorical code selects the
        block of its value in genome.tables. The map is built per call, as
        genome.encode may append codes."""
        columns = list(X.T)
        for j, (codes, _) in self._onehot.items():
            index = np.array([codes.get(v, -1) for v in genome.tables[j]], dtype=np.intp)
            columns[j] = index[columns[j].astype(np.intp)]
        return self._matrix(len(X), columns)

    def to_spec(self):
        return [list(c) for c in self.columns]

    @classmethod
    def from_spec(cls, spec, schema):
        """The encoder a saved spec describes. It must hold one column per
        schema feature, of the feature's kind: ["num", lo, hi] with finite
        lo <= hi, or ["cat", categories] with the feature's own categories."""
        if not isinstance(spec, list) or len(spec) != len(schema):
            raise ModelFormatError("the encoder needs one column per schema feature")
        columns = []
        for entry, feat in zip(spec, schema):
            numeric = isinstance(entry, list) and len(entry) == 3 and entry[0] == "num"
            # bounds are numbers, not booleans
            numeric = numeric and {type(b) for b in entry[1:]} <= {int, float}
            if feat.kind == CATEGORICAL and entry == ["cat", list(feat.categories)]:
                columns.append(("cat", feat.categories))
            elif feat.kind != CATEGORICAL and numeric and -np.inf < entry[1] <= entry[2] < np.inf:
                columns.append(("num", float(entry[1]), float(entry[2])))
            else:
                raise ModelFormatError(
                    "encoder column %r does not fit %s feature %r" % (entry, feat.kind, feat.name)
                )
        return cls(columns)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _check_binary(train):
    labels = set(train.labels().tolist())
    if len(labels) < 2:
        raise TrainingError("training set contains a single class: %r" % sorted(labels))


class _EncodedModel(Model):
    """A model that reads rows through its _Encoder, self.encoder, and
    scores encoded rows with predict_encoded.

    predict_walks encodes the candidates F once, scales each walk row's
    changed cell alone (_Encoder.numeric_cells), and hands both to
    predict_encoded_walks. Each encoded walk row equals its row's
    encoding, cell for cell, so it scores the same bits."""

    def predict_coded(self, X, genome):
        return self.predict_encoded(self.encoder.transform_coded(X, genome))

    def predict_walks(self, F, genome, row, column, values):
        E = self.encoder.transform_coded(F, genome)
        return self.predict_encoded_walks(E, row, *self.encoder.numeric_cells(column, values))

    def predict_encoded_walks(self, E, row, column, values):
        """Probabilities of the encoded rows E[row] with encoded column
        column[i] of row i set to values[i]."""
        return self.predict_encoded(_set_cells(E, row, column, values))


class LogisticModel(_EncodedModel):
    """Logistic regression fitted by full-batch gradient descent."""

    learner_name = "logistic"

    def __init__(self, schema, encoder, weights, bias):
        self.schema = tuple(schema)
        self.encoder = encoder
        self.weights = np.asarray(weights, dtype=float)
        self.bias = float(bias)
        if self.weights.shape != (encoder.width,):
            raise ModelFormatError(
                "logistic weights have shape %s, the encoder width is %d"
                % (self.weights.shape, encoder.width)
            )
        if not np.isfinite(self.weights).all() or not np.isfinite(self.bias):
            raise ModelFormatError("logistic weights and bias must be finite numbers")

    def predict_proba_batch(self, rows):
        return self.predict_encoded(self.encoder.transform(rows))

    def predict_encoded(self, encoded):
        # einsum sums each C-order row alone: the same bits at any batch size
        scores = np.einsum("ij,j->i", np.ascontiguousarray(encoded), self.weights)
        return _sigmoid(scores + self.bias)

    def to_params(self):
        return {
            "encoder": self.encoder.to_spec(),
            "weights": self.weights.tolist(),
            "bias": self.bias,
        }

    @classmethod
    def from_params(cls, schema, params):
        return cls(
            schema,
            _Encoder.from_spec(params["encoder"], schema),
            params["weights"],
            params["bias"],
        )


@dataclass(frozen=True)
class LogisticParams:
    """Logistic regression hyperparameters and their defaults."""

    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ConfigError("bad logistic hyperparameters: %r" % (self,))


@dataclass(frozen=True)
class ForestParams:
    """Random forest hyperparameters; mtry None means sqrt of the encoded
    width, max_depth None means unlimited."""

    ntree: int = 100
    mtry: int | None = None
    max_depth: int | None = None
    min_leaf: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.ntree < 1:
            raise ConfigError("ntree must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1, or None for unlimited")


def encoded_width(schema):
    """Columns of the model encoding of schema: one per numeric feature,
    one per category of a categorical feature."""
    return sum(len(f.categories) if f.kind == CATEGORICAL else 1 for f in schema)


def learner_params(cfg, schema):
    """cfg.params as the learner's hyperparameter dataclass, for data of
    the given schema. An unknown learner, an unknown key, a wrongly typed
    value or an mtry outside [1, encoded width] is a ConfigError."""
    p = config_from(_learner(cfg.learner).params, cfg.params, "%s learner params" % cfg.learner)
    width = encoded_width(schema)
    if isinstance(p, ForestParams) and p.mtry is not None and not 1 <= p.mtry <= width:
        raise ConfigError("mtry %d outside [1, %d]" % (p.mtry, width))
    return p


def train_logistic(train, cfg):
    """Deterministic full-batch gradient descent; L2 on weights, not bias."""
    _check_binary(train)
    p = learner_params(cfg, train.schema)
    encoder = _Encoder.fit(train)
    X = encoder.transform([inst.values for inst in train.instances])
    y = train.labels().astype(float)
    n = len(y)
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(p.epochs):
        err = _sigmoid(X @ w + b) - y
        w -= p.learning_rate * (X.T @ err / n + p.l2 * w)
        b -= p.learning_rate * float(err.mean())
    return LogisticModel(train.schema, encoder, w, b)


class _Tree:
    """One CART tree in flat arrays; leaves have feature index -1.

    Plain data: RandomForestModel checks the arrays and predicts from one
    table of all its trees."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left)
        self.right = np.asarray(right)
        self.value = np.asarray(value)


# Cells of one batched split search: nodes x mtry x padded rows. A wave's
# nodes are grouped by the power of two at or above their row count, and
# each group is searched in batches of at most this many cells (a lone
# node may exceed it), so a search's scratch arrays stay small whatever
# the forest.
_SPLIT_CELLS = 8192


def _split_batch(Xp, yp, P, F, n, min_leaf):
    """The best split of each of B nodes, searched together.

    Row b of P holds the rows of node b (indices into Xp), padded with
    the index of Xp's last row, which is +inf in every column and has
    label 0; n[b] counts its real rows, and F[b] lists its mtry sampled
    features. Each (node, feature) row is sorted and scored with the
    elementwise Gini arithmetic of a search of that node alone (tied
    values may sort in any order: a threshold falls only between
    distinct values, where the counts on each side are the same): padded
    cells sort after every real value, and a threshold with fewer than
    min_leaf real rows on either side is invalid. Per row, argmin keeps
    the lowest threshold; across a node's features, the first in sampled
    order. The threshold is the midpoint of the two values the split
    falls between, or the lower value where the midpoint rounds up to the
    upper one. Returns, per node: whether it has a valid split, the
    split's feature, threshold, left row count and left positive count
    (as lists), and the node's rows sorted on the split feature (a 2-D
    array)."""
    B, L = P.shape
    at = np.arange(B)
    order = np.argsort(Xp[P[:, None, :], F[:, :, None]], axis=2)
    S = P.take(order + (at * L)[:, None, None])  # [b, j]: node b's rows sorted on F[b, j]
    cs = Xp[S, F[:, :, None]]
    cum = np.cumsum(yp.take(S), axis=2)
    sizes_l = np.arange(1, L, dtype=float)
    nn = n.astype(float)[:, None, None]
    sizes_r = nn - sizes_l
    valid = (cs[..., 1:] != cs[..., :-1]) & (sizes_r >= min_leaf)
    if min_leaf > 1:
        valid &= sizes_l >= min_leaf
    pos_l = cum[..., :-1]
    pos_r = cum[..., -1:] - pos_l
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - (pos_l / sizes_l) ** 2 - ((sizes_l - pos_l) / sizes_l) ** 2
        gini_r = 1.0 - (pos_r / sizes_r) ** 2 - ((sizes_r - pos_r) / sizes_r) ** 2
        score = (sizes_l * gini_l + sizes_r * gini_r) / nn
    score[~valid] = np.inf
    k = score.argmin(axis=2)
    best = score.min(axis=2)
    j = best.argmin(axis=1)
    k = k[at, j]
    cs, cum = cs[at, j], cum[at, j]
    lower, upper = cs[at, k], cs[at, k + 1]
    # the midpoint of adjacent floats may round up to the upper one, which
    # sends the rows at the upper value left too: in a node whose largest
    # value it is, every row, so the node never shrinks. The lower value
    # sends left exactly the rows the split searched, k + 1 of them
    threshold = 0.5 * (lower + upper)
    threshold = np.where(threshold == upper, lower, threshold)
    n_left = k + 1
    return (
        np.isfinite(best[at, j]).tolist(),
        F[at, j].tolist(),
        threshold.tolist(),
        n_left.tolist(),
        cum[at, n_left - 1].astype(np.int64).tolist(),
        S[at, j],
    )


class _Node(NamedTuple):
    """A node waiting on a tree's stack: its rows (indices into the
    training matrix), their count and positive count, its depth and its
    slot in the tree's arrays."""

    rows: np.ndarray
    n: int
    pos: int
    depth: int
    slot: int


class _Growing:
    """A tree being grown: its node arrays as lists, its generator, and its
    preorder stack of _Nodes to settle."""

    __slots__ = ("rng", "stack", "feature", "threshold", "left", "right", "value")

    def __init__(self, rng, y):
        self.rng = rng
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        rows = rng.integers(0, len(y), size=len(y))  # the bootstrap sample
        self.stack = [_Node(rows, len(rows), int(y[rows].sum()), 0, self.new_node())]

    def new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0)
        return len(self.feature) - 1

    def next_split(self, d, mtry, max_depth, min_leaf):
        """Settle nodes in preorder up to the first that needs a split
        search; return it and its sampled features, or None once the tree
        is done."""
        while self.stack:
            node = self.stack.pop()
            self.value[node.slot] = 1 if 2 * node.pos > node.n else 0
            if node.pos == 0 or node.pos == node.n or node.n < 2 * min_leaf:
                continue
            if max_depth is not None and node.depth >= max_depth:
                continue
            return node, self.rng.choice(d, size=mtry, replace=False)
        return None

    def split(self, node, feature, threshold, n_left, pos_left, rows):
        """Make node a split, with children rows[:n_left] and the rest of
        its rows, and push them so the left child is settled first. A
        child's rows come in the order of the split feature, not the
        parent's; that cannot change the tree, as a split falls only
        between distinct values, where the rows on each side are the same
        set in any order."""
        self.feature[node.slot] = feature
        self.threshold[node.slot] = threshold
        self.left[node.slot] = left = self.new_node()
        self.right[node.slot] = right = self.new_node()
        depth = node.depth + 1
        self.stack.append(
            _Node(rows[n_left : node.n], node.n - n_left, node.pos - pos_left, depth, right)
        )
        self.stack.append(_Node(rows[:n_left], n_left, pos_left, depth, left))

    def tree(self):
        return _Tree(self.feature, self.threshold, self.left, self.right, self.value)


def _grow_forest(X, y, rngs, mtry, max_depth, min_leaf):
    """One CART tree per generator, on the bootstrap sample of the rows of
    X that the generator draws first, all grown together in waves.

    In a wave, every unfinished tree settles nodes in its own preorder up
    to its first node that needs a split search, and draws that node's
    features from its own generator, so each tree makes the draws of a
    tree grown alone, in the same order. One batched search
    (_split_batch) then splits the wave's nodes, in groups of the same
    padded length."""
    d = X.shape[1]
    Xp = np.vstack([X, np.full((1, d), np.inf)])
    yp = np.append(y, 0).astype(float)
    trees = [_Growing(rng, y) for rng in rngs]
    growing = trees
    while growing:
        wave = {}
        for tree in growing:
            popped = tree.next_split(d, mtry, max_depth, min_leaf)
            if popped is not None:
                width = 1 << (popped[0].n - 1).bit_length()
                wave.setdefault(width, []).append((tree, *popped))
        growing = []
        for width, group in wave.items():
            step = max(1, _SPLIT_CELLS // (mtry * width))
            for start in range(0, len(group), step):
                batch = group[start : start + step]
                P = np.full((len(batch), width), len(X))
                for i, (_, node, _) in enumerate(batch):
                    P[i, : node.n] = node.rows
                F = np.array([features for _, _, features in batch])
                n = np.array([node.n for _, node, _ in batch])
                found, *splits = _split_batch(Xp, yp, P, F, n, min_leaf)
                for (tree, node, _), ok, *split in zip(batch, found, *splits):
                    if ok:
                        tree.split(node, *split)
                    growing.append(tree)
    return [t.tree() for t in trees]


# Rows scored together. Large resilience-walk batches go in chunks of this
# many rows, so a chunk's (rows, trees) arrays of leaf masks or node
# positions stay in cache and peak memory stays bounded.
_CHUNK_ROWS = 256

# A tree with at most this many leaves is scored by leaf bitmasks: one
# uint64 per (row, tree) holds the leaves a row can still reach.
_MASK_LEAVES = 64
_ALL_LEAVES = np.uint64(2**64 - 1)

# (candidate, split column) masks the walk kernel (_mask_walk_votes)
# holds at once: 1 MB of words per block of 64 trees
_MASK_GROUP = 2048


def _check_tree(k, tree, width):
    """Reject node arrays that cannot describe a CART tree. Children must
    come after their parent, as _Growing appends them; that also rules
    out cycles. Every node but the root is the child of exactly one
    split, so the nodes form one tree."""
    n = len(tree.feature)
    ints = (tree.feature, tree.left, tree.right, tree.value)
    if n == 0 or any(a.shape != (n,) for a in ints + (tree.threshold,)):
        raise ModelFormatError("tree %d: node arrays must be non-empty and of equal length" % k)
    if any(a.dtype.kind not in "iu" for a in ints):
        raise ModelFormatError("tree %d: feature, child and value arrays must hold integers" % k)
    if np.any((tree.feature < -1) | (tree.feature >= width)):
        raise ModelFormatError("tree %d: split feature index outside [0, %d)" % (k, width))
    parents = np.flatnonzero(tree.feature >= 0)
    children = np.concatenate([tree.left[parents], tree.right[parents]])
    if np.any((children <= np.tile(parents, 2)) | (children >= n)):
        raise ModelFormatError("tree %d: child index out of range or not after its parent" % k)
    if np.any(np.bincount(children, minlength=n)[1:] != 1):
        raise ModelFormatError(
            "tree %d: every node but the root must be the child of exactly one split" % k
        )
    if not np.isfinite(tree.threshold).all():
        raise ModelFormatError("tree %d: split thresholds must be finite numbers" % k)
    if np.any((tree.value != 0) & (tree.value != 1)):
        raise ModelFormatError("tree %d: node values must be 0 or 1" % k)


def _flatten_forest(trees):
    """One node table for all trees: (feature, threshold, children, value,
    roots, levels).

    Node i of the table has its left child at children[2i] and its right
    child at children[2i + 1]; a leaf's children are the leaf itself.
    levels[d] holds the split nodes at depth d, so len(levels) routing
    steps from the roots put every row at its leaf in every tree.
    """
    sizes = [len(t.feature) for t in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    children = np.stack(
        [
            np.concatenate([t.left + r for t, r in zip(trees, roots)]),
            np.concatenate([t.right + r for t, r in zip(trees, roots)]),
        ],
        axis=1,
    )
    is_leaf = feature < 0
    leaves = np.flatnonzero(is_leaf)
    children[leaves] = leaves[:, None]
    feature[leaves] = 0  # any in-row column: a leaf's both children are itself
    levels = []
    frontier = roots[~is_leaf[roots]]
    while len(frontier):
        levels.append(frontier)
        frontier = children[frontier].ravel()
        frontier = frontier[~is_leaf[frontier]]
    return feature, threshold, children.ravel(), value, roots, levels


class _Masks(NamedTuple):
    """The leaf-bitmask tables of _mask_tables."""

    cuts: list
    lookup: np.ndarray
    table: np.ndarray
    positive: np.ndarray
    cut_of: np.ndarray
    keys: np.ndarray


def _mask_tables(trees, width):
    """Leaf-bitmask tables (QuickScorer) for trees of at most _MASK_LEAVES
    leaves, over rows of the given encoded width: _Masks(cuts, lookup,
    table, positive, cut_of, keys).

    A tree's leaves are numbered left to right, leaf i as bit i. A split's
    mask clears the bits of its left subtree's leaves, a contiguous run:
    the leaves a row cannot reach once it goes right there. The lowest
    bit left in the AND of the masks of every split a row goes right at
    is its leaf.

    cuts lists each split column, its sorted distinct thresholds and its
    offset. A value x goes right at the splits with threshold < x, the
    first searchsorted(thresholds, x, "left") of them; a NaN sorts after
    every threshold and goes right, as in a walk down the tree. That
    count plus the offset is x's position. The trees go in blocks of at
    most 64, one uint64 word per tree; lookup[b] maps a position to the
    row of table that holds, per tree of block b, the AND of the masks of
    the splits x goes right at on that column. positive[b] marks each
    tree's positive leaves. A block has at most 64 * 63 + width rows of
    64 words, about 2.1 MB.

    cut_of maps an encoded column to its index j in cuts, or -1 where no
    tree splits. keys holds every (j, threshold) pair as the complex
    number j + threshold * 1j, in cuts' order, which numpy's lexicographic
    complex order sorts; a value x on split column j then has position
    searchsorted(keys, j + x * 1j) + j (_key_positions)."""
    feature, threshold, children, value, roots, levels = _flatten_forest(trees)
    left, right = children[0::2], children[1::2]
    # leaves under each node, then the number of its leftmost leaf
    size = (left == np.arange(len(left))).astype(np.int64)
    for nodes in reversed(levels):
        size[nodes] = size[left[nodes]] + size[right[nodes]]
    first = np.zeros_like(size)
    for nodes in levels:
        first[left[nodes]] = first[nodes]
        first[right[nodes]] = first[nodes] + size[left[nodes]]
    one = np.uint64(1)
    bit = one << first.astype(np.uint64)
    mask = ~(((one << size[left].astype(np.uint64)) - one) * bit)
    tree = np.repeat(np.arange(len(trees)), [len(t.feature) for t in trees])
    block, word = np.divmod(tree, 64)
    splits = np.flatnonzero(size > 1)
    columns, column_of = np.unique(feature[splits], return_inverse=True)
    cuts = [np.unique(threshold[splits[column_of == j]]) for j in range(len(columns))]
    runs = np.array([len(c) + 1 for c in cuts], dtype=np.int64)
    offsets = np.cumsum(runs) - runs
    column_at = np.repeat(np.arange(len(cuts)), runs)
    # each split's position: that of the values just above its threshold
    position = np.zeros(len(size), dtype=np.int64)
    for j, (c, off) in enumerate(zip(cuts, offsets)):
        on = splits[column_of == j]
        position[on] = off + 1 + np.searchsorted(c, threshold[on])
    lookups, tables = [], []
    # the words past the last block's last tree stay all ones and vote 0
    words = min(64, len(trees))
    base = 0
    for b in range(block[-1] + 1):
        nodes = splits[block[splits] == b]
        nodes = nodes[np.argsort(position[nodes], kind="stable")]
        # a row per split, in position order, and before each column's
        # splits a row for the values below them all
        rows = np.arange(len(nodes)) + column_at[position[nodes]] + 1
        table = np.full((len(nodes) + len(cuts), words), _ALL_LEAVES)
        table[rows, word[nodes]] = mask[nodes]
        lookup = np.searchsorted(position[nodes], np.arange(len(column_at)), "right") + column_at
        for lo, hi in zip(lookup[offsets], [*lookup[offsets[1:]], len(table)]):
            np.bitwise_and.accumulate(table[lo:hi], axis=0, out=table[lo:hi])
        lookups.append(lookup + base)
        tables.append(table)
        base += len(table)
    leaves = np.flatnonzero((size == 1) & (value == 1))
    positive = np.zeros((len(lookups), words), dtype=np.uint64)
    np.bitwise_or.at(positive, (block[leaves], word[leaves]), bit[leaves])
    cut_of = np.full(width, -1)
    cut_of[columns] = np.arange(len(columns))
    keys = np.concatenate([np.zeros(0, complex), *(j + c * 1j for j, c in enumerate(cuts))])
    cuts = list(zip(columns.tolist(), cuts, offsets.tolist()))
    return _Masks(cuts, np.stack(lookups), np.concatenate(tables), positive, cut_of, keys)


def _mask_positions(encoded, cuts):
    """Each row's position on each split column of the _mask_tables cuts:
    a (columns x rows) array."""
    values = encoded.T.copy()  # searchsorted runs faster on contiguous values
    at = np.empty((len(cuts), len(encoded)), dtype=np.int64)
    for j, (column, thresholds, offset) in enumerate(cuts):
        at[j] = offset + np.searchsorted(thresholds, values[column])
    return at


def _key_positions(keys, cut, values):
    """The positions (_mask_tables) of values on split columns cut,
    indices into cuts broadcast against values, from one search of keys.
    It serves values of mixed columns, and on a few dozen rows it also
    beats _mask_positions' search per column. The parts are set one by
    one, as j + x * 1j has a NaN real part for an infinite x. numpy sorts
    a NaN imaginary part after every complex number, so a NaN x is
    searched as +inf: after every threshold of its column, as
    _mask_positions places it."""
    query = np.empty(np.shape(values), complex)
    query.real = cut
    query.imag = np.fmin(values, np.inf)
    return np.searchsorted(keys, query) + cut


def _leaf_votes(reach, positive):
    """Positive votes per row of reach, a (blocks, rows, words) array of
    the leaves each row can still reach: the lowest bit left is the row's
    leaf."""
    leaf = np.negative(reach)  # modulo 2**64, ~reach + 1
    leaf &= reach
    leaf &= positive[:, None]
    return (leaf != 0).sum(axis=(0, 2))


def _mask_votes(at, lookup, table, positive):
    """Positive votes per row from the _mask_tables tables, given the
    rows' positions (_mask_positions)."""
    reach = np.full((len(positive), at.shape[1], positive.shape[1]), _ALL_LEAVES)
    for column in at:
        reach &= table.take(lookup.take(column, axis=1), axis=0)
    return _leaf_votes(reach, positive)


def _mask_walk_votes(E, row, column, values, masks):
    """Positive votes per walk row from the _mask_tables tables, masks:
    walk row i is E[row[i]] with encoded column column[i] set to
    values[i].

    A walk row's position equals its candidate's on every split column
    but its walked one. So per candidate and split column j, the AND of
    the candidate's masks on every other split column, made from prefix
    and suffix ANDs over the columns, ANDed with the one table row of the
    walked value's position on j, is the walk row's reach. A walk along a
    column no tree splits on reaches what its candidate reaches. The
    candidates go in groups whose (candidate, column) masks number at
    most _MASK_GROUP, and the walk rows of a group in chunks of
    _CHUNK_ROWS."""
    lookup, table, positive = masks.lookup, masks.table, masks.positive
    blocks, words = positive.shape
    columns = np.flatnonzero(masks.cut_of >= 0)
    cut = masks.cut_of[column]
    split = cut >= 0
    pos = _key_positions(masks.keys, cut, values)
    votes = np.empty(len(row), dtype=np.int64)
    step = max(1, _MASK_GROUP // max(1, len(columns)))
    for first in range(0, len(E), step):
        group = E[first : first + step]
        mine = (first <= row) & (row < first + len(group))
        at = _key_positions(masks.keys, np.arange(len(columns))[:, None], group.T[columns])
        # (blocks, columns, candidates, words): each candidate's mask per
        # split column, then in others the AND of its masks on all the
        # other split columns
        own = table.take(lookup.take(at, axis=1), axis=0)
        others = np.empty_like(own)
        ahead = np.full((blocks, len(group), words), _ALL_LEAVES)
        for j in range(len(columns)):
            others[:, j] = ahead
            ahead &= own[:, j]
        behind = np.full_like(ahead, _ALL_LEAVES)
        for j in reversed(range(len(columns))):
            others[:, j] &= behind
            behind &= own[:, j]
        idle = np.flatnonzero(mine & ~split)
        if len(idle):
            # ahead holds each candidate's own reach
            votes[idle] = _leaf_votes(ahead, positive)[row[idle] - first]
        others = others.reshape(blocks, -1, words)
        walks = np.flatnonzero(mine & split)
        for start in range(0, len(walks), _CHUNK_ROWS):
            chunk = walks[start : start + _CHUNK_ROWS]
            reach = others.take(cut[chunk] * len(group) + row[chunk] - first, axis=1)
            reach &= table.take(lookup.take(pos[chunk], axis=1), axis=0)
            votes[chunk] = _leaf_votes(reach, positive)
    return votes


def _routed_votes(chunk, flat):
    """Positive votes per row of chunk from a _flatten_forest table, every
    row routed through every tree one level at a time."""
    feature, threshold, children, value, roots, levels = flat
    cells = chunk.ravel()
    row_start = (np.arange(len(chunk)) * chunk.shape[1])[:, None]
    pos = np.broadcast_to(roots, (len(chunk), len(roots)))
    for _ in levels:
        go_right = ~(cells[row_start + feature[pos]] <= threshold[pos])
        pos = children[2 * pos + go_right]
    return value[pos].sum(axis=1)


class RandomForestModel(_EncodedModel):
    """Bagged CART trees; probability is the fraction of positive votes.

    When the model is built, trained or loaded, trees of at most
    _MASK_LEAVES leaves go into leaf-bitmask tables (_mask_tables), in
    blocks of up to 64 trees, and the deeper ones into one node table
    (_flatten_forest). Neither is saved, so the model format holds only
    the trees. The bitmask tables cost one binary search per split column
    over the whole batch. Prediction then scores _CHUNK_ROWS rows at a
    time: one table lookup and AND per column and block for the bitmask
    tables, and for the node table every row routed through its trees
    together, one vectorized step per tree level. Both give each (row,
    tree) the leaf a walk down the tree reaches.

    Resilience-walk rows (predict_walks) differ from their candidate in
    one cell. The bitmask tables score each from its candidate's masks on
    the other split columns, ANDed once per (candidate, column), and one
    search and table row on its own column (_mask_walk_votes); the node
    table routes the walk rows themselves.
    """

    learner_name = "random_forest"

    def __init__(self, schema, encoder, trees):
        self.schema = tuple(schema)
        self.encoder = encoder
        self.trees = trees
        if not trees:
            raise ModelFormatError("a forest needs at least one tree")
        for k, tree in enumerate(trees):
            _check_tree(k, tree, encoder.width)
        shallow = [t for t in trees if np.count_nonzero(t.feature < 0) <= _MASK_LEAVES]
        deep = [t for t in trees if np.count_nonzero(t.feature < 0) > _MASK_LEAVES]
        self._masks = _mask_tables(shallow, encoder.width) if shallow else None
        self._deep = _flatten_forest(deep) if deep else None

    def predict_proba_batch(self, rows):
        return self.predict_encoded(self.encoder.transform(rows))

    def predict_encoded(self, encoded):
        votes = np.zeros(encoded.shape[0], dtype=np.int64)
        masks = self._masks
        if masks is not None:
            at = _mask_positions(encoded, masks.cuts)
        for start in range(0, encoded.shape[0], _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            if masks is not None:
                votes[rows] += _mask_votes(at[:, rows], masks.lookup, masks.table, masks.positive)
            if self._deep is not None:
                votes[rows] += _routed_votes(encoded[rows], self._deep)
        return votes / len(self.trees)

    def predict_encoded_walks(self, E, row, column, values):
        """The bitmask trees score the walk rows from their candidates'
        masks (_mask_walk_votes); the deep trees route the walk rows
        themselves, _CHUNK_ROWS at a time."""
        votes = np.zeros(len(row), dtype=np.int64)
        if self._masks is not None:
            votes += _mask_walk_votes(E, row, column, values, self._masks)
        if self._deep is not None:
            X = _set_cells(E, row, column, values)
            for start in range(0, len(X), _CHUNK_ROWS):
                rows = slice(start, start + _CHUNK_ROWS)
                votes[rows] += _routed_votes(X[rows], self._deep)
        return votes / len(self.trees)

    def to_params(self):
        return {
            "encoder": self.encoder.to_spec(),
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_params(cls, schema, params):
        trees = [
            _Tree(t["feature"], t["threshold"], t["left"], t["right"], t["value"])
            for t in params["trees"]
        ]
        return cls(schema, _Encoder.from_spec(params["encoder"], schema), trees)


def train_random_forest(train, cfg):
    """CART with Gini splits, bootstrap samples, per-node feature subsets.

    Tree t draws its bootstrap sample and then each split node's mtry
    features from its own generator, seeded from (cfg.seed, t). The trees
    grow together (_grow_forest), so that one batched search scores a
    node of every unfinished tree at once; each tree is the one it would
    be grown alone, bit for bit."""
    _check_binary(train)
    p = learner_params(cfg, train.schema)
    encoder = _Encoder.fit(train)
    X = encoder.transform([inst.values for inst in train.instances])
    y = train.labels()
    mtry = max(1, int(np.sqrt(X.shape[1]))) if p.mtry is None else p.mtry
    rngs = [
        np.random.default_rng(np.random.SeedSequence([int(cfg.seed), t])) for t in range(p.ntree)
    ]
    trees = _grow_forest(X, y, rngs, mtry, p.max_depth, p.min_leaf)
    return RandomForestModel(train.schema, encoder, trees)


class FixedLinearModel(Model):
    """Sigmoid of a fixed linear score over raw numeric features.

    Built in code as a deterministic oracle for tests, never saved or
    loaded: with non-negative weights the probability is monotone
    non-decreasing in every weighted feature.
    """

    learner_name = "fixed_linear"

    def __init__(self, schema, weights, intercept=0.0):
        self.schema = tuple(schema)
        for feat in self.schema:
            if feat.kind == CATEGORICAL and weights.get(feat.name, 0.0) != 0.0:
                raise ConfigError(
                    "fixed linear model cannot weight categorical feature %r" % feat.name
                )
        self.weights = {f.name: float(weights.get(f.name, 0.0)) for f in self.schema}
        self.intercept = float(intercept)

    def predict_proba_batch(self, rows):
        score = np.full(len(rows), self.intercept)
        for j, feat in enumerate(self.schema):
            w = self.weights[feat.name]
            if w == 0.0 or feat.kind == CATEGORICAL:
                continue
            score += w * np.array([row[j] for row in rows], dtype=float)
        return _sigmoid(score)


class Learner(NamedTuple):
    """One row of the learner table: the hyperparameter dataclass, the
    trainer, the model class a saved file loads into, and search_space,
    which maps the schema's feature count d to each tuned hyperparameter's
    random-search range (lo, hi)."""

    params: type
    train: Callable
    model: type
    search_space: Callable


LEARNERS = {
    "logistic": Learner(
        LogisticParams,
        train_logistic,
        LogisticModel,
        lambda d: {"learning_rate": (0.01, 1.0), "epochs": (100, 1000), "l2": (0.0, 0.1)},
    ),
    "random_forest": Learner(
        ForestParams,
        train_random_forest,
        RandomForestModel,
        lambda d: {"ntree": (50, 500), "mtry": (1, d), "max_depth": (2, 20), "min_leaf": (1, 5)},
    ),
}


# other names a config or the command line may give a learner
LEARNER_ALIASES = {"rf": "random_forest"}


def learner_key(name):
    """The LEARNERS name that name or its alias stands for; any other name
    is a ConfigError."""
    key = LEARNER_ALIASES.get(name, name) if isinstance(name, str) else None
    if key not in LEARNERS:
        raise ConfigError(
            "unknown learner %r (have: %s)" % (name, ", ".join([*LEARNERS, *LEARNER_ALIASES]))
        )
    return key


def _learner(name):
    """The LEARNERS row of name or its alias; any other name is a
    ConfigError."""
    return LEARNERS[learner_key(name)]


def train_model(train, cfg):
    return _learner(cfg.learner).train(train, cfg)


def sample_search_space(learner, schema, n_trials, seed):
    """Deterministic list of trial configs from the learner's search space
    for data of the given schema. Parameters are drawn in alphabetical
    order: an integer in [lo, hi] for integer bounds, else a float."""
    space = sorted(_learner(learner).search_space(len(schema)).items())
    rng = np.random.default_rng(seed)
    trials = []
    for t in range(n_trials):
        params = {}
        for name, (lo, hi) in space:
            if isinstance(lo, int):
                params[name] = int(rng.integers(lo, hi + 1))
            else:
                params[name] = float(rng.uniform(lo, hi))
        trials.append(LearnerConfig(learner, params, seed=int(seed) + t))
    return trials


def kfold_indices(n, k, seed):
    """Seeded permutation cut into k near-equal folds; returns (train, val) pairs."""
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    pairs = []
    for i in range(k):
        rest = [folds[j] for j in range(k) if j != i]
        pairs.append((np.concatenate(rest), folds[i]))
    return pairs


def _subset(train, indices):
    from .data import Dataset

    return Dataset(train.schema, [train.instances[int(i)] for i in indices])


def cross_val_accuracy(train, cfg, folds):
    scores = []
    for tr_idx, val_idx in folds:
        model = train_model(_subset(train, tr_idx), cfg)
        scores.append(model.accuracy(_subset(train, val_idx)))
    return float(np.mean(scores))


def tune_random_search(learner, train, n_trials=10, seed=0):
    """Pick the trial config, drawn from the learner's search space, with
    the best 3-fold CV accuracy; ties keep the first-sampled trial."""
    if n_trials < 1:
        raise ConfigError("n_trials must be >= 1")
    trials = sample_search_space(learner, train.schema, n_trials, seed)
    folds = kfold_indices(len(train), 3, seed)
    best_cfg = None
    best_score = -1.0
    for cfg in trials:
        score = cross_val_accuracy(train, cfg, folds)
        if score > best_score:
            best_cfg, best_score = cfg, score
    return best_cfg


def save_model(model, path):
    """Write a model as a self-describing JSON container."""
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "learner": model.learner_name,
        "schema_fingerprint": schema_fingerprint(model.schema),
        "schema": [
            [f.name, f.kind, bool(f.actionable), list(f.categories)] for f in model.schema
        ],
        "params": model.to_params(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_model(path):
    """Read a JSON model container; corrupt files and unknown versions fail."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError("corrupt model file %s: %s" % (path, exc)) from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("%s is not a model container" % path)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            "unsupported model format version %r" % payload.get("format_version")
        )
    try:
        learner = payload["learner"]
        schema = tuple(
            FeatureSchema(name, kind, bool(act), tuple(cats))
            for name, kind, act, cats in payload["schema"]
        )
        params = payload["params"]
        fingerprint = payload["schema_fingerprint"]
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ModelFormatError("corrupt model file %s: %s" % (path, exc)) from None
    if schema_fingerprint(schema) != fingerprint:
        raise ModelFormatError("schema fingerprint mismatch in %s" % path)
    try:
        return _learner(learner).model.from_params(schema, params)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError, ModelFormatError) as exc:
        raise ModelFormatError("corrupt model file %s: %s" % (path, exc)) from None
