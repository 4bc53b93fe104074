"""Dataset ingestion, schemas, splitting, and training-set statistics.

Feature values live in raw space: continuous and integer features as
floats, categorical features as strings. The search holds candidates in
objectives.Genome's codes, which decode to these values, and models do
their own encoding of either form.
"""

import csv
import hashlib
import io
import json
import math
import numbers
import os
import typing
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .errors import ConfigError, DataError, ParseError, SchemaError

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"
FEATURE_KINDS = (CONTINUOUS, INTEGER, CATEGORICAL)

NEGATIVE = 0
POSITIVE = 1

DEFAULT_MISSING_TOKENS = ("", "NA", "?")

# Non-actionable feature lists shipped with the package, keyed by a short
# dataset handle. Referenced from dataset config files via `non_actionable:
# preset:<name>`.
PRESET_NON_ACTIONABLE = {
    "adult": (
        "age",
        "education",
        "marital_status",
        "relationship",
        "race",
        "sex",
        "native_country",
    ),
    "compas": ("age", "age_cat", "race", "sex"),
    "diabetes": ("age", "pregnancies"),
    "fico": ("externalRiskEstimate",),
    "german_credit": ("age", "sex"),
}


@dataclass(frozen=True)
class FeatureSchema:
    """Declaration of a single feature: name, kind, mutability, categories."""

    name: str
    kind: str
    actionable: bool = True
    categories: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        check_fields(self)
        if self.kind not in FEATURE_KINDS:
            raise SchemaError("unknown feature kind %r for %r" % (self.kind, self.name))
        if self.kind == CATEGORICAL and not self.categories:
            raise SchemaError("categorical feature %r needs categories" % self.name)
        if self.kind != CATEGORICAL and self.categories:
            raise SchemaError("numeric feature %r must not declare categories" % self.name)


@dataclass(frozen=True)
class Instance:
    """One row: a tuple of raw feature values plus an optional class label."""

    values: tuple
    label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature training statistics: numeric bounds or observed categories."""

    lower: float = 0.0
    upper: float = 0.0
    categories: tuple = ()

    @property
    def range(self):
        return self.upper - self.lower


class Dataset:
    """An immutable collection of schema-valid instances."""

    def __init__(self, schema, instances):
        self.schema = tuple(schema)
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names in schema")
        self.instances = tuple(instances)
        for inst in self.instances:
            if len(inst.values) != len(self.schema):
                raise SchemaError(
                    "instance has %d values, schema has %d features"
                    % (len(inst.values), len(self.schema))
                )
        labels = {inst.label for inst in self.instances if inst.label is not None}
        if not labels <= {NEGATIVE, POSITIVE}:
            raise DataError("labels must be binary (0/1), got %r" % sorted(labels))

    def __len__(self):
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def labels(self):
        return np.array([inst.label for inst in self.instances])


def parse_value(raw, feature, where):
    """Parse one raw value (a CSV cell or an inline JSON value) for its
    declared feature kind; where labels it in error messages."""
    if feature.kind == CATEGORICAL:
        if raw not in feature.categories:
            raise ParseError(
                "%s: value %r not among declared categories of %r" % (where, raw, feature.name)
            )
        return raw
    if isinstance(raw, bool):
        raise ParseError("%s: boolean %r is not numeric for %r" % (where, raw, feature.name))
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            "%s: cannot parse %r as numeric for %r" % (where, raw, feature.name)
        ) from None
    if not math.isfinite(value):
        raise ParseError("%s: non-finite value %r for %r" % (where, raw, feature.name))
    if feature.kind == INTEGER:
        if value != int(value):
            raise ParseError(
                "%s: non-integral value %r for integer feature %r" % (where, raw, feature.name)
            )
        value = float(int(value))
    return value


def load_dataset(
    path,
    schema,
    class_column,
    positive_label,
    missing_tokens=DEFAULT_MISSING_TOKENS,
):
    """Read a CSV with a header row into a Dataset.

    Rows containing a missing token in any column are dropped. The header
    must contain exactly the schema's feature names plus the class column,
    each once. The class column is mapped to 0/1 via positive_label; more
    than two distinct class tokens is an error.
    """
    schema = tuple(schema)
    missing = set(missing_tokens)
    expected = {f.name for f in schema} | {class_column}
    with io.StringIO(read_text(path, DataError, newline=""), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: %s" % path) from None
        header = [h.strip() for h in header]
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated or set(header) != expected:
            unknown = sorted(set(header) - expected)
            absent = sorted(expected - set(header))
            raise SchemaError(
                "header mismatch in %s (unknown: %s, missing: %s, repeated: %s)"
                % (path, unknown, absent, repeated)
            )
        col_of = {name: i for i, name in enumerate(header)}
        feature_cols = [col_of[f.name] for f in schema]
        class_col = col_of[class_column]

        instances = []
        class_tokens = set()
        for row_index, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(
                    "row %d: expected %d cells, got %d" % (row_index, len(header), len(row))
                )
            cells = [c.strip() for c in row]
            if any(c in missing for c in cells):
                continue
            where = "row %d" % row_index
            values = tuple(
                parse_value(cells[col], feat, where) for col, feat in zip(feature_cols, schema)
            )
            token = cells[class_col]
            class_tokens.add(token)
            label = POSITIVE if token == positive_label else NEGATIVE
            instances.append(Instance(values, label))
    if len(class_tokens) > 2:
        raise DataError(
            "class column %r has %d distinct values; binary labels required"
            % (class_column, len(class_tokens))
        )
    return Dataset(schema, instances)


def split_dataset(ds, test_cap=500, seed=0):
    """Split into (train, test) with a seeded unstratified shuffle.

    An integral test_cap, an int or a float such as 150.0, caps the test
    size at min(test_cap, n // 3); any other float is itself used as the
    fraction. The cap rule keeps a fixed 500-row test pool for large
    datasets while smaller ones fall back to a one-third split.
    """
    n = len(ds)
    if n < 2:
        raise ConfigError("cannot split a dataset of %d instances" % n)
    if isinstance(test_cap, float) and not test_cap.is_integer():
        if not 0.0 < test_cap < 1.0:
            raise ConfigError("fractional test_cap must lie in (0, 1)")
        test_n = int(math.floor(test_cap * n))
    else:
        cap = int(test_cap)
        if cap < 1:
            raise ConfigError("test_cap must be positive")
        if cap >= n:
            raise ConfigError("test_cap %d >= dataset size %d" % (cap, n))
        test_n = min(cap, n // 3)
    test_n = max(1, test_n)
    order = np.random.default_rng(seed).permutation(n)
    test_idx = set(order[:test_n].tolist())
    train = [ds.instances[i] for i in range(n) if i not in test_idx]
    test = [ds.instances[i] for i in sorted(test_idx)]
    return Dataset(ds.schema, train), Dataset(ds.schema, test)


def _check_numeric(name, column):
    """Refuse, in one line, a training value of numeric feature name that
    is not a real number (a string, None) or not finite."""
    if not {type(v) for v in column} <= {float, int}:
        bad = [v for v in column if not isinstance(v, numbers.Real)]
        if bad:
            raise DataError(
                "feature %r has a training value that is not a number: %r" % (name, bad[0])
            )
    if not np.isfinite(np.asarray(column, dtype=float)).all():
        raise DataError("feature %r has a training value that is not finite" % name)


def compute_feature_stats(train):
    """Per-feature min/max (numeric) or observed categories (categorical).

    Computed from the training split only; the bounds define both the Gower
    normalizer and the feasibility box for mutation. A numeric value that
    is not a finite real number is a DataError.
    """
    if len(train) == 0:
        raise DataError("cannot compute stats on an empty training set")
    stats = []
    for i, feat in enumerate(train.schema):
        column = [inst.values[i] for inst in train.instances]
        if feat.kind == CATEGORICAL:
            seen = set(column)
            stats.append(FeatureStats(categories=tuple(c for c in feat.categories if c in seen)))
        else:
            _check_numeric(feat.name, column)
            stats.append(FeatureStats(lower=float(min(column)), upper=float(max(column))))
    return tuple(stats)


_TOKENS = ("a", "b", "c")  # the categories of every synthetic categorical feature


def _synthetic_schema(n_continuous, n_integer, n_categorical):
    """The features generate_synthetic makes, in its column order."""
    return tuple(
        [FeatureSchema("num%d" % i, CONTINUOUS) for i in range(n_continuous)]
        + [FeatureSchema("int%d" % i, INTEGER) for i in range(n_integer)]
        + [FeatureSchema("cat%d" % i, CATEGORICAL, True, _TOKENS) for i in range(n_categorical)]
    )


def generate_synthetic(n, seed, n_continuous=8, n_integer=0, n_categorical=0):
    """Deterministic linearly-informative binary dataset for desk-scale tests.

    Continuous features are uniform on [0, 10], integers uniform on
    {0..10}, categoricals drawn from three tokens. The label thresholds a
    random linear score at its median, so both classes are always well
    represented.
    """
    if n < 2:
        raise ConfigError("synthetic dataset needs n >= 2")
    if n_continuous + n_integer + n_categorical < 1:
        raise ConfigError("at least one feature required")
    rng = np.random.default_rng(seed)
    schema = _synthetic_schema(n_continuous, n_integer, n_categorical)

    cont = rng.uniform(0.0, 10.0, size=(n, n_continuous))
    ints = rng.integers(0, 11, size=(n, n_integer)).astype(float)
    cats = rng.integers(0, len(_TOKENS), size=(n, n_categorical))

    w_cont = rng.normal(0.0, 1.0, size=n_continuous)
    w_int = rng.normal(0.0, 1.0, size=n_integer)
    w_cat = rng.normal(0.0, 1.0, size=(n_categorical, len(_TOKENS)))

    score = cont @ w_cont + ints @ w_int
    for j in range(n_categorical):
        score = score + w_cat[j][cats[:, j]]
    labels = (score > np.median(score)).astype(int)

    instances = []
    for r in range(n):
        # plain floats keep instances JSON-serializable downstream
        values = [float(v) for v in cont[r]]
        values += [float(v) for v in ints[r]]
        values += [_TOKENS[c] for c in cats[r]]
        instances.append(Instance(tuple(values), int(labels[r])))
    return Dataset(schema, instances)


def schema_fingerprint(schema):
    """Stable hash of feature names, kinds, and categories."""
    payload = [[f.name, f.kind, list(f.categories)] for f in schema]
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# the keys a dataset config file may hold
_DATASET_CONFIG_KEYS = (
    "name", "csv", "class_column", "positive_label", "features",
    "non_actionable", "missing_tokens", "test_cap", "split_seed", "synthetic",
)

# what each annotation accepts, and how an error names it; any other
# annotation is a config dataclass, which a config file writes as a mapping
_TYPE_RULES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    bool: ((bool, np.bool_), "a boolean"),
    str: (str, "a string"),
    list: (list, "a list"),
    tuple: (tuple, "a tuple"),
    dict: (dict, "a mapping"),
}


def check_type(name, value, annotation):
    """value, if the annotation accepts it; otherwise a ConfigError naming
    name. int and float refuse booleans, and X | None also takes None."""
    kinds = typing.get_args(annotation) or (annotation,)
    for kind in kinds:
        accepted = _TYPE_RULES.get(kind, (kind,))[0]
        if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
            return value
    what = _TYPE_RULES.get(kinds[0], (None, "a mapping"))[1]
    raise ConfigError("%s must be %s, got %r" % (name, what, value))


def check_fields(obj):
    """Check every field of a config dataclass against its annotation."""
    for f in fields(obj):
        check_type(f.name, getattr(obj, f.name), f.type)


def config_from(cls, raw, where):
    """The config dataclass cls built from a YAML mapping; a non-mapping or
    a key that is not a field of cls is a ConfigError naming where."""
    if not isinstance(raw, dict):
        raise ConfigError("%s must be a mapping, got %r" % (where, raw))
    reject_unknown_keys(raw, {f.name for f in fields(cls)}, where)
    return cls(**raw)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings of a dataset config's synthetic block."""

    n: int = 300
    seed: int = 0
    continuous: int = 8
    integer: int = 0
    categorical: int = 0

    def __post_init__(self):
        check_fields(self)
        if min(self.seed, self.continuous, self.integer, self.categorical) < 0:
            raise ConfigError("synthetic seed and feature counts must be >= 0")


@dataclass
class DatasetConfig:
    """Parsed dataset config file: schema plus ingestion and split settings."""

    csv_path: str
    class_column: str
    positive_label: str
    schema: tuple
    missing_tokens: tuple = DEFAULT_MISSING_TOKENS
    test_cap: float = 500
    split_seed: int = 0
    name: str = "dataset"
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        if isinstance(self.synthetic, dict):
            self.synthetic = config_from(SyntheticConfig, self.synthetic, "synthetic")
        check_fields(self)
        if self.split_seed < 0:
            raise ConfigError("split_seed must be >= 0")
        if self.synthetic is not None:
            syn = self.synthetic
            layout = _synthetic_schema(syn.continuous, syn.integer, syn.categorical)
            if [(f.name, f.kind) for f in layout] != [(f.name, f.kind) for f in self.schema]:
                raise ConfigError("declared schema does not match synthetic layout")
            for f in self.schema:
                if f.kind == CATEGORICAL and not set(_TOKENS) <= set(f.categories):
                    raise ConfigError("synthetic %r needs categories %s" % (f.name, _TOKENS))


def _resolve_non_actionable(spec):
    if spec is None:
        return ()
    if isinstance(spec, str):
        if spec.startswith("preset:"):
            key = spec.split(":", 1)[1]
            if key not in PRESET_NON_ACTIONABLE:
                raise ConfigError(
                    "unknown non-actionable preset %r (have: %s)"
                    % (key, ", ".join(sorted(PRESET_NON_ACTIONABLE)))
                )
            return PRESET_NON_ACTIONABLE[key]
        raise ConfigError("non_actionable must be a list or 'preset:<name>'")
    return _scalar_list(spec, "non_actionable")


def read_text(path, error, newline=None):
    """The text of a UTF-8 file; bytes that do not decode raise error naming
    the file. A file that cannot be opened raises OSError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error("%s is not UTF-8 text: %s" % (path, exc.reason)) from None


def read_yaml_mapping(path, what):
    """Top-level mapping of a YAML config file; syntax and decode errors
    become a one-line ConfigError naming the file."""
    try:
        raw = yaml.safe_load(read_text(path, ConfigError))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        if mark is not None:
            problem = "line %d, column %d: %s" % (mark.line + 1, mark.column + 1, problem)
        raise ConfigError("%s %s is not valid YAML: %s" % (what, path, problem)) from None
    if not isinstance(raw, dict):
        raise ConfigError("%s %s is not a mapping" % (what, path))
    return raw


def reject_unknown_keys(raw, known, where):
    """A one-line ConfigError naming every key of raw that is not in known."""
    unknown = sorted(str(key) for key in raw if key not in known)
    if unknown:
        raise ConfigError("unknown key(s) in %s: %s" % (where, ", ".join(unknown)))


def _scalar_list(value, what):
    """A YAML list of scalar values as a tuple of text, as CSV cells hold
    it; anything else is a ConfigError naming what."""
    if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
        raise ConfigError("%s must be a list of scalar values, got %r" % (what, value))
    return tuple(str(v) for v in value)


def _text(value):
    """A YAML number or string as text, as a CSV cell holds it; any other
    value passes unchanged, for the type check to refuse."""
    return str(value) if isinstance(value, (str, numbers.Number)) else value


def load_dataset_config(path):
    """Parse a YAML dataset config into a DatasetConfig."""
    raw = read_yaml_mapping(path, "dataset config")
    reject_unknown_keys(raw, _DATASET_CONFIG_KEYS, "dataset config")
    try:
        features = raw["features"]
        class_column = _text(raw["class_column"])
        positive_label = _text(raw["positive_label"])
    except KeyError as exc:
        raise ConfigError("dataset config missing key: %s" % exc) from None
    non_actionable = _resolve_non_actionable(raw.get("non_actionable"))
    if not isinstance(features, list):
        raise ConfigError("features must be a list of feature mappings, got %r" % (features,))
    schema = []
    for entry in features:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise ConfigError("each feature needs a name and a kind, got %r" % (entry,))
        name = _text(entry["name"])
        categories = _scalar_list(
            entry.get("categories", []), "categories of feature %r" % (name,)
        )
        schema.append(
            FeatureSchema(
                name=name,
                kind=entry["kind"],
                actionable=entry.get("actionable", name not in non_actionable),
                categories=categories,
            )
        )
    declared = {f.name for f in schema}
    unknown = set(non_actionable) - declared
    if unknown:
        raise ConfigError("non_actionable names not in schema: %s" % sorted(unknown))
    cfg = DatasetConfig(
        csv_path=raw.get("csv", ""),
        class_column=class_column,
        positive_label=positive_label,
        schema=tuple(schema),
        missing_tokens=_scalar_list(
            raw.get("missing_tokens", list(DEFAULT_MISSING_TOKENS)), "missing_tokens"
        ),
        test_cap=raw.get("test_cap", 500),
        split_seed=raw.get("split_seed", 0),
        name=_text(raw.get("name", os.path.splitext(os.path.basename(path))[0])),
        synthetic=raw.get("synthetic"),
    )
    # the csv path is relative to the config file (join keeps an absolute one)
    if cfg.csv_path:
        cfg.csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), cfg.csv_path)
    return cfg


def load_configured_dataset(cfg):
    """Materialize the dataset a DatasetConfig points at.

    A `synthetic:` block generates data in-process (DatasetConfig checks
    the declared schema against the generator's layout); else the CSV is read.
    """
    if cfg.synthetic is not None:
        syn = cfg.synthetic
        ds = generate_synthetic(syn.n, syn.seed, syn.continuous, syn.integer, syn.categorical)
        return Dataset(cfg.schema, ds.instances)
    if not cfg.csv_path:
        raise ConfigError("dataset config has neither csv nor synthetic source")
    return load_dataset(
        cfg.csv_path,
        cfg.schema,
        cfg.class_column,
        cfg.positive_label,
        missing_tokens=cfg.missing_tokens,
    )
