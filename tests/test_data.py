import numpy as np
import pytest

from lexcf.data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    Dataset,
    FeatureSchema,
    Instance,
    compute_feature_stats,
    generate_synthetic,
    load_configured_dataset,
    load_dataset,
    load_dataset_config,
    parse_value,
    schema_fingerprint,
    split_dataset,
)
from lexcf.errors import ConfigError, DataError, ParseError, SchemaError
from lexcf.model import LearnerConfig, train_model

from conftest import make_dataset, numeric_schema


def test_schema_rejects_bad_kind():
    with pytest.raises(SchemaError):
        FeatureSchema("x", "ordinal")


def test_schema_categorical_needs_categories():
    with pytest.raises(SchemaError):
        FeatureSchema("x", CATEGORICAL)
    with pytest.raises(SchemaError):
        FeatureSchema("x", CONTINUOUS, categories=("a",))


def test_parse_value_kinds():
    cont = FeatureSchema("c", CONTINUOUS)
    intf = FeatureSchema("i", INTEGER)
    catf = FeatureSchema("k", CATEGORICAL, categories=("a", "b"))
    assert parse_value("2.5", cont, "row 0") == 2.5
    assert parse_value("3", intf, "row 0") == 3.0
    assert parse_value("a", catf, "row 0") == "a"
    with pytest.raises(ParseError):
        parse_value("2.5", intf, "row 4")
    with pytest.raises(ParseError):
        parse_value("oops", cont, "row 4")
    with pytest.raises(ParseError):
        parse_value("z", catf, "row 4")


@pytest.mark.parametrize("kind", [CONTINUOUS, INTEGER])
@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_parse_value_rejects_non_finite(raw, kind):
    with pytest.raises(ParseError, match="row 4: non-finite value .* for 'x'"):
        parse_value(raw, FeatureSchema("x", kind), "row 4")


@pytest.mark.parametrize("kind", [CONTINUOUS, INTEGER])
@pytest.mark.parametrize("raw", [True, False])
def test_parse_value_rejects_booleans(raw, kind):
    # a JSON boolean in an inline POI is not a number
    with pytest.raises(ParseError, match="inline poi: boolean .* for 'x'"):
        parse_value(raw, FeatureSchema("x", kind), "inline poi")


def test_dataset_rejects_nonbinary_labels():
    schema = numeric_schema(1)
    with pytest.raises(DataError):
        Dataset(schema, [Instance((1.0,), 2)])


def test_dataset_rejects_wrong_width():
    schema = numeric_schema(2)
    with pytest.raises(SchemaError):
        Dataset(schema, [Instance((1.0,), 0)])


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC_SCHEMA = (
    FeatureSchema("age", INTEGER),
    FeatureSchema("income", CONTINUOUS),
    FeatureSchema("job", CATEGORICAL, categories=("clerk", "coder")),
)


def test_load_dataset_roundtrip(tmp_path):
    path = _write_csv(
        tmp_path / "d.csv",
        "age,income,job,outcome\n30,50.5,clerk,good\n41,61.0,coder,bad\n",
    )
    ds = load_dataset(path, BASIC_SCHEMA, "outcome", "good")
    assert len(ds) == 2
    assert ds.instances[0].values == (30.0, 50.5, "clerk")
    assert ds.instances[0].label == 1
    assert ds.instances[1].label == 0


def test_load_dataset_header_order_free(tmp_path):
    path = _write_csv(
        tmp_path / "d.csv",
        "outcome,job,income,age\ngood,coder,10.0,25\n",
    )
    ds = load_dataset(path, BASIC_SCHEMA, "outcome", "good")
    # values come back in schema order regardless of column order
    assert ds.instances[0].values == (25.0, 10.0, "coder")


def test_load_dataset_header_mismatch(tmp_path):
    path = _write_csv(tmp_path / "d.csv", "age,income,outcome\n30,5.0,good\n")
    with pytest.raises(SchemaError):
        load_dataset(path, BASIC_SCHEMA, "outcome", "good")
    path2 = _write_csv(
        tmp_path / "e.csv",
        "age,income,job,extra,outcome\n30,5.0,clerk,x,good\n",
    )
    with pytest.raises(SchemaError):
        load_dataset(path2, BASIC_SCHEMA, "outcome", "good")
    # a repeated column name is refused, not read from its first column
    path3 = _write_csv(
        tmp_path / "f.csv",
        "age,income,job,age,outcome\n30,5.0,clerk,31,good\n",
    )
    with pytest.raises(SchemaError, match=r"repeated: \['age'\]"):
        load_dataset(path3, BASIC_SCHEMA, "outcome", "good")


def test_load_dataset_drops_missing_rows(tmp_path):
    path = _write_csv(
        tmp_path / "d.csv",
        "age,income,job,outcome\n30,?,clerk,good\n40,4.0,coder,bad\n,5.0,clerk,good\n",
    )
    ds = load_dataset(path, BASIC_SCHEMA, "outcome", "good")
    assert len(ds) == 1
    assert ds.instances[0].values == (40.0, 4.0, "coder")


def test_load_dataset_too_many_classes(tmp_path):
    path = _write_csv(
        tmp_path / "d.csv",
        "age,income,job,outcome\n30,1.0,clerk,good\n31,1.0,clerk,bad\n32,1.0,clerk,ugly\n",
    )
    with pytest.raises(DataError):
        load_dataset(path, BASIC_SCHEMA, "outcome", "good")


def _trivial_dataset(n):
    schema = numeric_schema(1)
    return make_dataset(schema, [[float(i)] for i in range(n)], [i % 2 for i in range(n)])


@pytest.mark.parametrize(
    "n,cap,expected_test,expected_train",
    [
        # small datasets are configured with the one-third fraction, large
        # ones with the flat 500-instance cap
        (522, 1.0 / 3.0, 174, 348),
        (392, 1.0 / 3.0, 130, 262),
        (9871, 500, 500, 9371),
        (30162, 500, 500, 29662),
        (1501, 500, 500, 1001),  # the cap binds exactly at the regime edge
    ],
)
def test_split_sizes_match_cap_and_third(n, cap, expected_test, expected_train):
    train, test = split_dataset(_trivial_dataset(n), test_cap=cap, seed=0)
    assert len(test) == expected_test
    assert len(train) == expected_train


def test_split_float_cap_is_fraction():
    train, test = split_dataset(_trivial_dataset(450), test_cap=1.0 / 3.0, seed=0)
    assert len(test) == 150
    assert len(train) == 300


def test_split_partition_and_order():
    ds = _trivial_dataset(40)
    train, test = split_dataset(ds, test_cap=10, seed=3)
    train_vals = [inst.values[0] for inst in train]
    test_vals = [inst.values[0] for inst in test]
    assert sorted(train_vals + test_vals) == [float(i) for i in range(40)]
    assert not set(train_vals) & set(test_vals)
    # both sides preserve the original row order
    assert train_vals == sorted(train_vals)
    assert test_vals == sorted(test_vals)


def test_split_deterministic():
    ds = _trivial_dataset(60)
    a = split_dataset(ds, test_cap=15, seed=9)
    b = split_dataset(ds, test_cap=15, seed=9)
    c = split_dataset(ds, test_cap=15, seed=10)
    assert [i.values for i in a[1]] == [i.values for i in b[1]]
    assert [i.values for i in a[1]] != [i.values for i in c[1]]


def test_split_rejects_bad_caps():
    ds = _trivial_dataset(10)
    with pytest.raises(ConfigError):
        split_dataset(ds, test_cap=10)
    with pytest.raises(ConfigError):
        split_dataset(ds, test_cap=0)
    with pytest.raises(ConfigError):
        split_dataset(ds, test_cap=1.5)


def test_compute_feature_stats():
    schema = (
        FeatureSchema("x", CONTINUOUS),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
    )
    ds = make_dataset(schema, [[1.0, "c"], [4.0, "a"], [2.5, "c"]], [0, 1, 0])
    stats = compute_feature_stats(ds)
    assert stats[0].lower == 1.0 and stats[0].upper == 4.0
    assert stats[0].range == 3.0
    # observed categories only, kept in declared order
    assert stats[1].categories == ("a", "c")


@pytest.mark.parametrize(
    "column",
    [[np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [-np.inf, 1.0, 2.0]],
    ids=["nan_first", "nan_later", "inf", "-inf"],
)
def test_non_finite_training_values_are_refused(column):
    # a Dataset built in code skips parse_value's check; the stats, and
    # the model encoder that reads them, refuse the value in one line
    schema = (
        FeatureSchema("k", CATEGORICAL, categories=("a", "b")),
        FeatureSchema("x", CONTINUOUS),
    )
    ds = make_dataset(schema, [["a", v] for v in column], [0, 1, 0])
    for fit in (compute_feature_stats, lambda d: train_model(d, LearnerConfig("logistic"))):
        with pytest.raises(DataError) as err:
            fit(ds)
        message = str(err.value)
        assert "'x'" in message and "not finite" in message and "\n" not in message


@pytest.mark.parametrize("value", ["abc", "1.5", None], ids=["text", "numeric_text", "none"])
def test_non_numeric_training_values_are_refused(value):
    # a Dataset built in code may hold any object in a numeric column; the
    # stats, and the model encoder that reads them, refuse it in one line
    schema = (FeatureSchema("x", CONTINUOUS), FeatureSchema("n", INTEGER))
    ds = make_dataset(schema, [[1.0, 2], [value, 3], [2.0, 4]], [0, 1, 0])
    for fit in (compute_feature_stats, lambda d: train_model(d, LearnerConfig("random_forest"))):
        with pytest.raises(DataError) as err:
            fit(ds)
        assert str(err.value) == (
            "feature 'x' has a training value that is not a number: %r" % (value,)
        )


def test_generate_synthetic_balanced_and_deterministic():
    ds = generate_synthetic(100, seed=5, n_continuous=3, n_integer=2, n_categorical=1)
    assert len(ds) == 100
    assert len(ds.schema) == 6
    labels = ds.labels()
    assert labels.sum() == 50  # median threshold splits an even n in half
    again = generate_synthetic(100, seed=5, n_continuous=3, n_integer=2, n_categorical=1)
    assert [i.values for i in ds] == [i.values for i in again]
    other = generate_synthetic(100, seed=6, n_continuous=3, n_integer=2, n_categorical=1)
    assert [i.values for i in ds] != [i.values for i in other]


def test_generate_synthetic_integer_values_are_integral():
    ds = generate_synthetic(30, seed=1, n_continuous=0, n_integer=3)
    for inst in ds:
        for v in inst.values:
            assert v == int(v)
            assert 0.0 <= v <= 10.0


def test_schema_fingerprint_sensitivity():
    a = (FeatureSchema("x", CONTINUOUS), FeatureSchema("y", INTEGER))
    b = (FeatureSchema("x", CONTINUOUS), FeatureSchema("y", CONTINUOUS))
    c = (FeatureSchema("x", CONTINUOUS), FeatureSchema("y", INTEGER))
    fa, fb, fc = map(schema_fingerprint, (a, b, c))
    assert fa == fc
    assert fa != fb
    assert len(fa) == 16 and all(ch in "0123456789abcdef" for ch in fa)


def test_fingerprint_ignores_actionability():
    a = (FeatureSchema("x", CONTINUOUS, actionable=True),)
    b = (FeatureSchema("x", CONTINUOUS, actionable=False),)
    assert schema_fingerprint(a) == schema_fingerprint(b)


DATASET_YAML = """
name: toy
csv: toy.csv
class_column: outcome
positive_label: good
non_actionable: [age]
features:
  - {name: age, kind: integer}
  - {name: income, kind: continuous}
  - {name: job, kind: categorical, categories: [clerk, coder]}
test_cap: 2
split_seed: 4
"""


FEATURES_YAML = DATASET_YAML[DATASET_YAML.index("features:") : DATASET_YAML.index("test_cap")]


def test_load_dataset_config(tmp_path):
    cfg_path = tmp_path / "toy.yaml"
    cfg_path.write_text(DATASET_YAML, encoding="utf-8")
    _write_csv(
        tmp_path / "toy.csv",
        "age,income,job,outcome\n30,5.0,clerk,good\n40,6.0,coder,bad\n"
        "50,7.0,clerk,bad\n60,8.0,coder,good\n",
    )
    cfg = load_dataset_config(str(cfg_path))
    assert cfg.name == "toy"
    assert cfg.test_cap == 2
    assert cfg.split_seed == 4
    by_name = {f.name: f for f in cfg.schema}
    assert not by_name["age"].actionable
    assert by_name["income"].actionable
    ds = load_configured_dataset(cfg)
    assert len(ds) == 4
    assert ds.instances[0].values == (30.0, 5.0, "clerk")


@pytest.mark.parametrize(
    "old, new, csv_text, values",
    [
        # a YAML number in missing_tokens matches the CSV cell's text
        (
            "split_seed: 4",
            "split_seed: 4\nmissing_tokens: [-1]",
            "age,income,job,outcome\n30,5.0,clerk,good\n-1,6.0,coder,bad\n",
            [(30.0, 5.0, "clerk")],
        ),
        # so do YAML numbers among the declared categories
        (
            "categories: [clerk, coder]",
            "categories: [1, 2]",
            "age,income,job,outcome\n30,5.0,1,good\n40,6.0,2,bad\n",
            [(30.0, 5.0, "1"), (40.0, 6.0, "2")],
        ),
    ],
    ids=["numeric_missing_token", "numeric_categories"],
)
def test_dataset_config_numbers_are_read_as_text(tmp_path, old, new, csv_text, values):
    cfg_path = tmp_path / "toy.yaml"
    cfg_path.write_text(DATASET_YAML.replace(old, new), encoding="utf-8")
    _write_csv(tmp_path / "toy.csv", csv_text)
    ds = load_configured_dataset(load_dataset_config(str(cfg_path)))
    assert [inst.values for inst in ds] == values


def test_dataset_config_numeric_name_is_text(tmp_path):
    cfg_path = tmp_path / "toy.yaml"
    cfg_path.write_text(DATASET_YAML.replace("name: toy", "name: 2019"), encoding="utf-8")
    assert load_dataset_config(str(cfg_path)).name == "2019"


def test_dataset_config_preset(tmp_path):
    text = DATASET_YAML.replace("non_actionable: [age]", "non_actionable: preset:german_credit")
    text = text.replace("- {name: income, kind: continuous}", "- {name: sex, kind: categorical, categories: [f, m]}")
    cfg_path = tmp_path / "toy.yaml"
    cfg_path.write_text(text, encoding="utf-8")
    cfg = load_dataset_config(str(cfg_path))
    by_name = {f.name: f for f in cfg.schema}
    assert not by_name["age"].actionable
    assert not by_name["sex"].actionable
    assert by_name["job"].actionable


def test_dataset_config_unknown_preset(tmp_path):
    text = DATASET_YAML.replace("preset:german_credit", "preset:nonesuch").replace(
        "non_actionable: [age]", "non_actionable: preset:nonesuch"
    )
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_dataset_config(str(cfg_path))


def test_dataset_config_unknown_non_actionable_name(tmp_path):
    text = DATASET_YAML.replace("non_actionable: [age]", "non_actionable: [height]")
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_dataset_config(str(cfg_path))


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("non_actionable: [age]", "non_actionable: [age", "bad.yaml"),
        ("split_seed: 4", "split_seed: four", "split_seed"),
        ("split_seed: 4", "split_seed: 4\nsynthetic: {n: x}", "n must be an integer"),
        ("split_seed: 4", "split_seed: 4\nsynthetic: 5", "synthetic"),
        (FEATURES_YAML, "features: 5\n", "features"),
        ("- {name: income, kind: continuous}", "- income", "income"),
        ("- {name: income, kind: continuous}", "- {name: income}", "kind"),
        ("categories: [clerk, coder]", "categories: [clerk, [coder]]", "job"),
        ("categories: [clerk, coder]", "categories: [clerk, {coder: 1}]", "job"),
        ("categories: [clerk, coder]", "categories: clerk", "job"),
        ("test_cap: 2", "test_cap: x", "test_cap"),
        ("test_cap: 2", "test_cap: true", "test_cap"),
        ("split_seed: 4", "split_seed: 4\nmissing_tokens: 5", "missing_tokens"),
        ("split_seed: 4", "split_seed: 4\nmissing_tokens: NA", "missing_tokens"),
        ("split_seed: 4", "split_seed: 4\nmissing_tokens: [NA, [x]]", "missing_tokens"),
        ("test_cap: 2", "test_caps: 2", "test_caps"),
        ("split_seed: 4", "split_seed: 4\nsynthetic: {rows: 50}", "rows"),
        ("csv: toy.csv", "csv: 5", "csv"),
        ("class_column: outcome", "class_column: [y]", "class_column"),
        ("name: toy", "name: [1]", "name"),
        ("non_actionable: [age]", "non_actionable: 5", "non_actionable"),
        ("positive_label: good", "positive_label: [good]", "positive_label"),
        ("split_seed: 4", "split_seed: 4.5", "split_seed must be an integer"),
        ("{name: income, kind: continuous}", "{name: [income], kind: continuous}", "name"),
        (
            "{name: income, kind: continuous}",
            "{name: income, kind: continuous, actionable: maybe}",
            "actionable",
        ),
        ("split_seed: 4", "split_seed: -1", "split_seed"),
        ("split_seed: 4", "split_seed: 4\nsynthetic: {seed: -1}", "synthetic seed"),
        ("split_seed: 4", "split_seed: 4\nsynthetic: {continuous: -1, integer: 2}", "counts"),
        (
            "non_actionable: [age]\n" + FEATURES_YAML,
            "synthetic: {n: 60, seed: 1, continuous: 1, categorical: 1}\nfeatures:\n"
            "  - {name: num0, kind: continuous}\n"
            "  - {name: cat0, kind: categorical, categories: [x, y, z]}\n",
            "'cat0' needs categories",
        ),
    ],
    ids=[
        "yaml_syntax",
        "split_seed_text",
        "synthetic_n_text",
        "synthetic_scalar",
        "features_scalar",
        "feature_name_only",
        "feature_without_kind",
        "category_list",
        "category_mapping",
        "categories_scalar",
        "test_cap_text",
        "test_cap_bool",
        "missing_tokens_int",
        "missing_tokens_scalar",
        "missing_tokens_nested",
        "unknown_key",
        "synthetic_unknown_key",
        "csv_int",
        "class_column_list",
        "name_list",
        "non_actionable_int",
        "positive_label_list",
        "split_seed_float",
        "feature_name_list",
        "feature_actionable_text",
        "split_seed_negative",
        "synthetic_seed_negative",
        "synthetic_count_negative",
        "synthetic_categories_undeclared",
    ],
)
def test_dataset_config_malformed_values_name_the_problem(tmp_path, old, new, named):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(DATASET_YAML.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=named) as info:
        load_dataset_config(str(cfg_path))
    assert "\n" not in str(info.value)


SYNTH_YAML = """
name: synth
class_column: label
positive_label: "1"
synthetic: {n: 40, seed: 3, continuous: 2, integer: 1}
features:
  - {name: num0, kind: continuous}
  - {name: num1, kind: continuous}
  - {name: int0, kind: integer, actionable: false}
"""


def test_configured_synthetic_dataset(tmp_path):
    cfg_path = tmp_path / "synth.yaml"
    cfg_path.write_text(SYNTH_YAML, encoding="utf-8")
    cfg = load_dataset_config(str(cfg_path))
    ds = load_configured_dataset(cfg)
    assert len(ds) == 40
    # actionability comes from the declared schema, not the generator
    assert not ds.schema[2].actionable


def test_configured_synthetic_schema_mismatch(tmp_path):
    text = SYNTH_YAML.replace("{n: 40, seed: 3, continuous: 2, integer: 1}",
                              "{n: 40, seed: 3, continuous: 3, integer: 0}")
    cfg_path = tmp_path / "synth.yaml"
    cfg_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_configured_dataset(load_dataset_config(str(cfg_path)))
