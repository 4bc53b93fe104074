import contextlib
import io
import json
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcf import bench, cli
from lexcf.cli import main
from lexcf.data import NEGATIVE, load_configured_dataset, load_dataset_config, split_dataset
from lexcf.ea import Candidate, EAResult
from lexcf.errors import ModelFormatError, TrainingError
from lexcf.model import LearnerConfig, load_model, save_model, train_model
from lexcf.objectives import ObjectiveVector

DATASET_YAML = """
name: clisynth
class_column: label
positive_label: "1"
synthetic: {n: 90, seed: 4, continuous: 3}
features:
  - {name: num0, kind: continuous}
  - {name: num1, kind: continuous}
  - {name: num2, kind: continuous}
test_cap: 0.3
split_seed: 1
"""

OTHER_DATASET_YAML = DATASET_YAML.replace("continuous: 3", "continuous: 2").replace(
    "  - {name: num2, kind: continuous}\n", ""
)

EXPERIMENT_YAML = """
dataset: ds.yaml
learner: logistic
learner_params: {epochs: 60}
max_pois: 2
master_seed: 3
variants: [base, resilient]
ea: {population_size: 6, max_generations: 3}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "ds.yaml").write_text(DATASET_YAML, encoding="utf-8")
    (root / "other.yaml").write_text(OTHER_DATASET_YAML, encoding="utf-8")
    (root / "exp.yaml").write_text(EXPERIMENT_YAML, encoding="utf-8")
    model_path = root / "model.json"
    rc = main(
        ["train", "--data", str(root / "ds.yaml"), "--learner", "rf",
         "--seed", "2", "--out", str(model_path)]
    )
    assert rc == 0

    # locate a test row the model predicts negative, for explain calls
    ds_cfg = load_dataset_config(str(root / "ds.yaml"))
    dataset = load_configured_dataset(ds_cfg)
    train, test = split_dataset(dataset, ds_cfg.test_cap, ds_cfg.split_seed)
    model = load_model(str(model_path))
    poi_index = next(
        i for i, inst in enumerate(test.instances)
        if model.predict_class(inst.values) == NEGATIVE
    )
    return {
        "root": root,
        "model": str(model_path),
        "data": str(root / "ds.yaml"),
        "poi_index": poi_index,
        "poi_values": test.instances[poi_index].values,
    }


def test_train_writes_model(workspace, capsys):
    payload = json.loads(Path(workspace["model"]).read_text(encoding="utf-8"))
    assert payload["format"] == "lexcf-model"
    assert payload["learner"] == "random_forest"  # the rf alias expands


def test_train_with_tuning(workspace, capsys):
    out = str(workspace["root"] / "tuned.json")
    rc = main(
        ["train", "--data", workspace["data"], "--learner", "logistic",
         "--tune", "2", "--seed", "1", "--out", out]
    )
    assert rc == 0
    assert "trained logistic" in capsys.readouterr().out
    assert os.path.exists(out)


@pytest.mark.parametrize("out", ["nodir/model.json", "."], ids=["missing_dir", "directory"])
def test_train_checks_out_before_tuning(workspace, tmp_path, capsys, monkeypatch, out):
    calls = []
    monkeypatch.setattr(bench, "tune_random_search", lambda *a, **k: calls.append("tune"))
    monkeypatch.setattr(bench, "train_model", lambda *a, **k: calls.append("train"))
    rc = main(
        ["train", "--data", workspace["data"], "--learner", "logistic",
         "--tune", "2", "--out", str(tmp_path / out)]
    )
    assert rc == 3
    assert calls == []
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_train_failure_leaves_out_as_it_was(workspace, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise TrainingError("cannot fit")

    monkeypatch.setattr(bench, "train_model", fail)
    old = tmp_path / "old.json"
    old.write_text("previous model", encoding="utf-8")
    for path in (old, tmp_path / "new.json"):
        assert main(["train", "--data", workspace["data"], "--out", str(path)]) == 3
    assert old.read_text(encoding="utf-8") == "previous model"
    assert not (tmp_path / "new.json").exists()


def test_explain_by_index(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", str(workspace["poi_index"]), "--strategy", "lex1", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "strategy lex1" in out
    assert "1 solution(s)" in out
    assert "o1=" in out and "o4=" in out
    assert "->" in out  # at least one feature diff is printed


def test_explain_prints_distinct_values_distinctly(tmp_path, capsys, monkeypatch):
    # %g would print both continuous values alike, and the integer in
    # exponent form
    data = str(tmp_path / "ds.yaml")
    with open(data, "w", encoding="utf-8") as handle:
        handle.write(
            DATASET_YAML.replace("continuous: 3}", "continuous: 2, integer: 1}").replace(
                "{name: num2, kind: continuous}", "{name: int0, kind: integer}"
            )
        )
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--learner", "logistic", "--out", model]) == 0
    ds_cfg = load_dataset_config(data)
    _, test = split_dataset(load_configured_dataset(ds_cfg), ds_cfg.test_cap, ds_cfg.split_seed)
    index, poi = next(
        (i, inst.values) for i, inst in enumerate(test.instances)
        if load_model(model).predict_class(inst.values) == NEGATIVE
    )
    values = (poi[0] + 1e-9, poi[1], 1234567.0)
    cand = Candidate(values, ObjectiveVector(0.0, 0.1, 2, 0.1), 1)
    result = EAResult(solutions=(cand,), generations_executed=1, population=(cand,))
    monkeypatch.setattr(cli, "run_ea", lambda ctx, cfg: result)
    capsys.readouterr()
    assert main(["explain", "--model", model, "--data", data, "--poi", str(index)]) == 0
    out = capsys.readouterr().out
    assert "num0: %r -> %r\n" % (poi[0], values[0]) in out
    assert "int0: %d -> 1234567\n" % poi[2] in out and "num1" not in out


def test_explain_inline_json_list(workspace, capsys):
    poi = json.dumps(list(workspace["poi_values"]))
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", poi, "--strategy", "par", "--seed", "3"]
    )
    assert rc == 0
    assert "strategy par" in capsys.readouterr().out


def test_explain_inline_json_dict(workspace, capsys):
    names = ["num0", "num1", "num2"]
    poi = json.dumps(dict(zip(names, workspace["poi_values"])))
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", poi, "--strategy", "lex2", "--seed", "3"]
    )
    assert rc == 0
    assert "strategy lex2" in capsys.readouterr().out


def test_explain_with_resilience(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", str(workspace["poi_index"]), "--resilience", "on", "--seed", "3"]
    )
    assert rc == 0
    assert "valid" in capsys.readouterr().out


def test_explain_rejects_positive_poi(workspace, capsys):
    model = load_model(workspace["model"])
    ds_cfg = load_dataset_config(workspace["data"])
    dataset = load_configured_dataset(ds_cfg)
    train, test = split_dataset(dataset, ds_cfg.test_cap, ds_cfg.split_seed)
    pos_index = next(
        i for i, inst in enumerate(test.instances)
        if model.predict_class(inst.values) != NEGATIVE
    )
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", str(pos_index)]
    )
    assert rc == 2
    assert "already predicts the positive class" in capsys.readouterr().err


def test_explain_schema_mismatch(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"],
         "--data", str(workspace["root"] / "other.yaml"), "--poi", "0"]
    )
    assert rc == 2
    assert "different schema" in capsys.readouterr().err


def test_explain_poi_out_of_range(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", "9999"]
    )
    assert rc == 2
    assert "outside test set" in capsys.readouterr().err


def test_explain_poi_bad_json(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", "[1.0, 2.0"]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "poi",
    ['["abc", 1, 2]', "[[1], 1, 2]", "[NaN, 1, 2]", "[true, false, 0]"],
    ids=["text", "list", "nan", "bool"],
)
def test_explain_poi_bad_value_exits_with_one_line(workspace, capsys, poi):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"], "--poi", poi]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "inline poi" in err and "'num0'" in err


def test_explain_poi_wrong_width(workspace, capsys):
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"],
         "--poi", "[1.0, 2.0]"]
    )
    assert rc == 2
    assert "3 feature values" in capsys.readouterr().err


def test_explain_poi_unknown_feature_name(workspace, capsys):
    names = ["num0", "num1", "num2", "nmu0"]
    poi = json.dumps(dict(zip(names, list(workspace["poi_values"]) + [9])))
    rc = main(
        ["explain", "--model", workspace["model"], "--data", workspace["data"], "--poi", poi]
    )
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "inline poi" in err[0] and "nmu0" in err[0]


@pytest.fixture(scope="module")
def bench_out(workspace):
    out = str(workspace["root"] / "bench")
    rc = main(["bench", "--config", str(workspace["root"] / "exp.yaml"), "--out", out])
    assert rc == 0
    return out


def test_bench_outputs(bench_out, capsys):
    names = os.listdir(bench_out)
    assert "records.ndjson" in names
    assert "meta.json" in names
    for stem in ("validity", "objectives", "pareto_wlt", "lex_wlt"):
        assert "%s.csv" % stem in names
        assert "%s.md" % stem in names


def test_bench_requires_output_dir(workspace, capsys):
    rc = main(["bench", "--config", str(workspace["root"] / "exp.yaml")])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_compare_pareto_mode(bench_out, capsys):
    rc = main(["compare", "--runs", bench_out, "--mode", "pareto"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| variant | lex1 | lex2 |")
    assert "| base |" in out and "| resilient |" in out


def test_compare_lex_mode(bench_out, capsys):
    rc = main(["compare", "--runs", bench_out, "--mode", "lex"])
    assert rc == 0
    assert "| base |" in capsys.readouterr().out


def test_compare_missing_run_dir(tmp_path, capsys):
    rc = main(["compare", "--runs", str(tmp_path)])
    assert rc == 3
    assert "records.ndjson" in capsys.readouterr().err


def test_compare_detects_budget_mismatch(bench_out, tmp_path, capsys):
    # tamper with one record's generation count; the parity invariant trips
    tampered = tmp_path / "tampered"
    shutil.copytree(bench_out, tampered)
    path = tampered / "records.ndjson"
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    rec = json.loads(lines[1])
    rec["generations"] += 1
    lines[1] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["compare", "--runs", str(tampered)])
    assert rc == 4
    assert "generation budgets differ" in capsys.readouterr().err


CSV_DATASET_YAML = """
name: csvdata
csv: data.csv
class_column: label
positive_label: "1"
features:
  - {name: num0, kind: continuous}
  - {name: count, kind: integer}
test_cap: 2
"""

# enough rows to split and train, so malformed learner params are reached
CSV_ROWS = "num0,count,label\n0.5,1,0\n1.5,2,1\n2.5,3,0\n3.5,4,1\n4.5,5,0\n5.5,6,1\n"


@pytest.mark.parametrize(
    "extra, middle_row, code, named",
    [
        ("strategies: [lex1]\n", "1.5,2,1", 2, "strategies"),
        ("ea: {bogus: 1}\n", "1.5,2,1", 2, "bogus"),
        ("", "1.5,nan,1", 3, "count"),
        ("", "inf,2,1", 3, "num0"),
        ("max_pois: x\n", "1.5,2,1", 2, "max_pois"),
        ("tune_trials: x\n", "1.5,2,1", 2, "tune_trials"),
        ("master_seed: [1]\n", "1.5,2,1", 2, "master_seed"),
        ("ea: {population_size: a}\n", "1.5,2,1", 2, "population_size"),
        ("ea: {theta: low}\n", "1.5,2,1", 2, "theta"),
        ("variants: [base\n", "1.5,2,1", 2, "exp.yaml"),
        ("learner_params: [1]\n", "1.5,2,1", 2, "learner_params"),
        ("learner_params: {ntree: x}\n", "1.5,2,1", 2, "ntree"),
        ("learner: logistic\nlearner_params: {epochs: many}\n", "1.5,2,1", 2, "epochs"),
        ("learner_params: {ntree: 3, bogus: 1}\n", "1.5,2,1", 2, "bogus"),
        ("learner: logistic\nlearner_params: {lr: 0.1}\n", "1.5,2,1", 2, "lr"),
        ("learner_params: false\n", "1.5,2,1", 2, "learner_params"),
        ("tune_trials: 3\nlearner_params: {bogus: 1}\n", "1.5,2,1", 2, "bogus"),
        ("ea: {convergence_window: 10}\n", "1.5,2,1", 2, "convergence_window"),
        ("ea: {convergence_tol: 0.001}\n", "1.5,2,1", 2, "convergence_tol"),
        ("debug: true\n", "1.5,2,1", 2, "debug"),
        ("max_pois: 2.9\n", "1.5,2,1", 2, "max_pois"),
        ("max_pois: true\n", "1.5,2,1", 2, "max_pois"),
        ("master_seed: 7.9\n", "1.5,2,1", 2, "master_seed"),
        ("learner_params: {ntree: 2.5}\n", "1.5,2,1", 2, "ntree"),
        ("learner_params: {mtry: 1.9}\n", "1.5,2,1", 2, "mtry"),
        ("learner: logistic\nlearner_params: {epochs: true}\n", "1.5,2,1", 2, "epochs"),
        ("tune_trials: 3\nlearner_params: {ntree: 2.5}\n", "1.5,2,1", 2, "ntree"),
        ("dataset: 5\n", "1.5,2,1", 2, "dataset"),
        ("tune_trials: 3\nlearner_params: {ntree: 0}\n", "1.5,2,1", 2, "ntree"),
        (
            "tune_trials: 3\nlearner: logistic\nlearner_params: {epochs: 0}\n",
            "1.5,2,1",
            2,
            "logistic",
        ),
        ("tune_trials: 3\nlearner_params: {mtry: 99}\n", "1.5,2,1", 2, "mtry"),
        ("learner_params: {min_leaf: 0}\n", "1.5,2,1", 2, "min_leaf"),
        ("learner_params: {max_depth: -3}\n", "1.5,2,1", 2, "max_depth"),
        ("tune_trials: 3\nea: {population_size: 4, k: 5}\n", "1.5,2,1", 2, "population_size"),
        ("variants: []\n", "1.5,2,1", 2, "variants"),
        ("tune_trials: -4\n", "1.5,2,1", 2, "tune_trials"),
        ("ea: {seed: 99}\n", "1.5,2,1", 2, "master_seed"),
        ("ea: {strategy: par}\n", "1.5,2,1", 2, "strategy"),
        ("ea: {resilience: true}\n", "1.5,2,1", 2, "variants"),
    ],
    ids=[
        "top_level_key",
        "ea_key",
        "nan_integer",
        "inf_continuous",
        "max_pois_text",
        "tune_trials_text",
        "master_seed_list",
        "ea_population_text",
        "ea_theta_text",
        "yaml_syntax",
        "learner_params_list",
        "ntree_text",
        "epochs_text",
        "forest_unknown_param",
        "logistic_unknown_param",
        "learner_params_false",
        "unknown_param_before_tuning",
        "ea_convergence_window",
        "ea_convergence_tol",
        "top_level_debug",
        "max_pois_float",
        "max_pois_bool",
        "master_seed_float",
        "ntree_float",
        "mtry_float",
        "epochs_bool",
        "float_param_before_tuning",
        "dataset_int",
        "ntree_zero_before_tuning",
        "epochs_zero_before_tuning",
        "mtry_above_width_before_tuning",
        "min_leaf_zero",
        "max_depth_negative",
        "k_above_population_before_tuning",
        "variants_empty",
        "tune_trials_negative",
        "ea_seed",
        "ea_strategy",
        "ea_resilience",
    ],
)
def test_bench_malformed_input_exits_with_one_line(
    tmp_path, capsys, monkeypatch, extra, middle_row, code, named
):
    # malformed input is rejected before any tuning trial runs
    tuned = []
    monkeypatch.setattr(bench, "tune_random_search", lambda *a, **k: tuned.append(a))
    csv_text = CSV_ROWS.replace("1.5,2,1", middle_row)
    (tmp_path / "data.csv").write_text(csv_text, encoding="utf-8")
    (tmp_path / "ds.yaml").write_text(CSV_DATASET_YAML, encoding="utf-8")
    exp = tmp_path / "exp.yaml"
    exp.write_text("dataset: ds.yaml\nmax_pois: 1\n" + extra, encoding="utf-8")
    rc = main(["bench", "--config", str(exp), "--out", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert named in err
    assert tuned == []


TINY_EXPERIMENT_YAML = """
dataset: ds.yaml
learner: logistic
learner_params: {epochs: 20}
max_pois: 1
ea: {population_size: 4, max_generations: 2}
"""

BENCH_ARGV = ["bench", "--config", "exp.yaml", "--out", "out"]
COMPARE_ARGV = ["compare", "--runs", "runs"]
RECORD_LINE = json.dumps(
    {"poi": 0, "variant": "base", "strategy": "par", "generations": 2,
     "solutions": [{"values": [1.0, 2.0], "objectives": [0.0, 0.1, 1, 0.2]}]}
)


@pytest.mark.parametrize(
    "files, argv, code",
    [
        ({}, ["bench", "--config", "nope.yaml", "--out", "out"], 3),
        ({}, ["bench", "--config", ".", "--out", "out"], 3),
        ({"exp.yaml": "dataset: nope.yaml\n"}, BENCH_ARGV, 3),
        ({"ds.yaml": CSV_DATASET_YAML.replace("data.csv", "nope.csv")}, BENCH_ARGV, 3),
        ({}, ["explain", "--model", "nope.json", "--data", "ds.yaml", "--poi", "0"], 3),
        ({}, ["train", "--data", "nope.yaml", "--out", "model.json"], 3),
        ({"data.csv": CSV_ROWS.encode().replace(b"1.5", b"1.5\xff")}, BENCH_ARGV, 3),
        ({"exp.yaml": TINY_EXPERIMENT_YAML.encode() + b"# \xff\n"}, BENCH_ARGV, 2),
        ({"runs/records.ndjson": "{poi: 0}\n", "runs/meta.json": '{"variants": [], "theta": 0}'},
         COMPARE_ARGV, 3),
        ({"runs/records.ndjson": "[1]\n", "runs/meta.json": '{"variants": [], "theta": 0}'},
         COMPARE_ARGV, 3),
        ({"runs/records.ndjson": RECORD_LINE, "runs/meta.json": '{"variants": ["base"]}'},
         COMPARE_ARGV, 3),
        ({"taken": ""}, ["bench", "--config", "exp.yaml", "--out", "taken"], 3),
    ],
    ids=[
        "config_missing",
        "config_is_directory",
        "dataset_missing",
        "csv_missing",
        "model_missing",
        "train_data_missing",
        "csv_not_utf8",
        "experiment_not_utf8",
        "record_not_json",
        "record_not_mapping",
        "meta_without_theta",
        "out_is_a_file",
    ],
)
def test_unreadable_input_exits_with_one_line(tmp_path, capsys, monkeypatch, files, argv, code):
    inputs = {"ds.yaml": CSV_DATASET_YAML, "data.csv": CSV_ROWS, "exp.yaml": TINY_EXPERIMENT_YAML}
    for name, content in {**inputs, **files}.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "meta",
    [
        '{"variants": ["base"], "theta": NaN}',
        '{"variants": ["base"], "theta": -1}',
        '{"variants": ["base"], "theta": Infinity}',
        '{"variants": ["base", "bogus"], "theta": 0.01}',
        '{"variants": [["base"]], "theta": 0.01}',
    ],
    ids=["theta_nan", "theta_negative", "theta_infinite", "unknown_variant", "variant_not_a_name"],
)
def test_compare_refuses_meta_it_cannot_use(tmp_path, capsys, meta):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "records.ndjson").write_text(RECORD_LINE + "\n", encoding="utf-8")
    (runs / "meta.json").write_text(meta, encoding="utf-8")
    assert main(["compare", "--runs", str(runs)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "meta.json" in err[0]
    # the same records compare with a usable meta.json
    (runs / "meta.json").write_text('{"variants": ["base"], "theta": 0.01}', encoding="utf-8")
    assert main(["compare", "--runs", str(runs)]) == 0


@pytest.mark.parametrize(
    "change, says",
    [
        ({"strategy": "lex3"}, "unknown strategy 'lex3'"),
        ({"variant": "basic"}, "unknown variant 'basic'"),
        ({"solutions": []}, "repeats the base par run at poi 0"),
    ],
    ids=["unknown_strategy", "unknown_variant", "repeated_run"],
)
def test_compare_refuses_records_it_cannot_use(tmp_path, capsys, change, says):
    # a second record with one field changed
    second = json.dumps({**json.loads(RECORD_LINE), **change})
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "records.ndjson").write_text(RECORD_LINE + "\n" + second + "\n", encoding="utf-8")
    (runs / "meta.json").write_text('{"variants": ["base"], "theta": 0.01}', encoding="utf-8")
    assert main(["compare", "--runs", str(runs)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "records.ndjson line 2" in err[0] and says in err[0]


def test_output_dir_is_relative_to_the_config(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "ds.yaml").write_text(CSV_DATASET_YAML, encoding="utf-8")
    (sub / "data.csv").write_text(CSV_ROWS, encoding="utf-8")
    (sub / "exp.yaml").write_text(TINY_EXPERIMENT_YAML + "output_dir: rel_out\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--config", os.path.join("sub", "exp.yaml")]) == 0
    assert (sub / "rel_out" / "records.ndjson").exists()
    assert not (tmp_path / "rel_out").exists()


def test_bench_checks_the_learner_before_reading_data(tmp_path, capsys):
    # reading this CSV would fail on its nan cell with exit 3
    (tmp_path / "data.csv").write_text(
        "num0,count,label\n0.5,1,0\n1.5,nan,1\n2.5,3,0\n3.5,4,1\n", encoding="utf-8"
    )
    (tmp_path / "ds.yaml").write_text(CSV_DATASET_YAML, encoding="utf-8")
    exp = tmp_path / "exp.yaml"
    exp.write_text("dataset: ds.yaml\nlearner: gradient_boost\n", encoding="utf-8")
    assert main(["bench", "--config", str(exp), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "gradient_boost" in err


def test_config_learner_alias_names_the_learner(tmp_path):
    (tmp_path / "ds.yaml").write_text(CSV_DATASET_YAML, encoding="utf-8")
    (tmp_path / "data.csv").write_text(CSV_ROWS, encoding="utf-8")
    exp = TINY_EXPERIMENT_YAML.replace("learner: logistic", "learner: rf").replace(
        "{epochs: 20}", "{ntree: 3}"
    )
    (tmp_path / "exp.yaml").write_text(exp, encoding="utf-8")
    assert bench.load_experiment_config(str(tmp_path / "exp.yaml")).learner == "random_forest"
    out = tmp_path / "out"
    assert main(["bench", "--config", str(tmp_path / "exp.yaml"), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    assert meta["model"]["learner"] == "random_forest"


# a tiny bench run, each scalar a {slot} that the fuzz test below replaces
FUZZ_FILES = {
    "exp.yaml": (
        "dataset: {dataset}\nlearner: {learner}\n"
        "learner_params: {{ntree: {ntree}, max_depth: {max_depth}, min_leaf: {min_leaf}}}\n"
        "tune_trials: {tune_trials}\nmax_pois: {max_pois}\nmaster_seed: {master_seed}\n"
        "variants: [{variant}]\n"
        "ea: {{population_size: {population_size}, max_generations: {max_generations}, "
        "theta: {theta}}}\n"
    ),
    "ds.yaml": (
        "name: {name}\ncsv: {csv}\nclass_column: {class_column}\n"
        "positive_label: {positive_label}\ntest_cap: {test_cap}\nsplit_seed: {split_seed}\n"
        "missing_tokens: [{missing_token}]\nnon_actionable: [{non_actionable}]\n"
        "features:\n  - {{name: {feature}, kind: {kind}}}\n  - {{name: count, kind: integer}}\n"
        "  - {{name: color, kind: categorical, categories: [{category}, blue]}}\n"
    ),
}
FUZZ_SLOTS = {
    "dataset": "ds.yaml", "learner": "random_forest", "ntree": "3", "max_depth": "3",
    "min_leaf": "1", "tune_trials": "0", "max_pois": "1", "master_seed": "3",
    "variant": "resilient", "population_size": "4", "max_generations": "2", "theta": "0.01",
    "name": "fuzz", "csv": "data.csv", "class_column": "label", "positive_label": "1",
    "test_cap": "4", "split_seed": "2", "missing_token": "NA", "non_actionable": "count",
    "feature": "num0", "kind": "continuous", "category": "red",
}
FUZZ_CSV = [["num0", "count", "color", "label"]] + [
    ["%.1f" % (0.5 * i), str(i % 4), ("red", "blue")[i % 2], str(int(i >= 6))] for i in range(12)
]
# replacements: no large numbers, so every run stays small
FUZZ_ALPHABET = [
    '""', "x", "-1", "0", "2.5", ".nan", ".inf", "true", "null", "[1]", "{a: 1}", "nope.yaml"
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    target=st.one_of(
        st.sampled_from(sorted(FUZZ_SLOTS)),
        st.tuples(st.integers(0, len(FUZZ_CSV) - 1), st.integers(0, len(FUZZ_CSV[0]) - 1)),
    ),
    value=st.sampled_from(FUZZ_ALPHABET),
)
@example(target="dataset", value="nope.yaml")
@example(target="csv", value="nope.yaml")
@example(target="split_seed", value="-1")
@example(target="theta", value=".nan")
@example(target="theta", value=".inf")
def test_bench_survives_one_replaced_scalar(target, value):
    slots = {**FUZZ_SLOTS, target: value} if isinstance(target, str) else FUZZ_SLOTS
    rows = [list(row) for row in FUZZ_CSV]
    if not isinstance(target, str):
        rows[target[0]][target[1]] = value
    with tempfile.TemporaryDirectory() as root:
        for name, template in FUZZ_FILES.items():
            with open(os.path.join(root, name), "w", encoding="utf-8") as handle:
                handle.write(template.format(**slots))
        with open(os.path.join(root, "data.csv"), "w", encoding="utf-8") as handle:
            handle.write("\n".join(",".join(row) for row in rows) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["bench", "--config", os.path.join(root, "exp.yaml"),
                       "--out", os.path.join(root, "out")])
            # what bench writes, compare reads
            compared = [
                main(["compare", "--runs", os.path.join(root, "out"), "--mode", mode])
                for mode in ("pareto", "lex") if rc == 0
            ]
    assert rc in (0, 2, 3, 4)
    assert len(err.getvalue().splitlines()) == (0 if rc == 0 else 1)
    assert compared == ([0, 0] if rc == 0 else [])


def _scalar_paths(node, path=()):
    """The path (keys and list indices) to every scalar inside a JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, child in items for p in _scalar_paths(child, path + (key,))]
    return [path]


@pytest.fixture(scope="module")
def small_model_files(workspace):
    """A saved logistic file and a saved three-tree forest file, each with a
    test row index its model predicts negative."""
    ds_cfg = load_dataset_config(workspace["data"])
    dataset = load_configured_dataset(ds_cfg)
    train, test = split_dataset(dataset, ds_cfg.test_cap, ds_cfg.split_seed)
    files = {}
    for learner, params in (("logistic", {}), ("random_forest", {"ntree": 3, "max_depth": 3})):
        model = train_model(train, LearnerConfig(learner, params, seed=2))
        path = str(workspace["root"] / ("small_%s.json" % learner))
        save_model(model, path)
        poi = next(
            i for i, inst in enumerate(test.instances)
            if model.predict_class(inst.values) == NEGATIVE
        )
        files[learner] = (json.loads(Path(path).read_text(encoding="utf-8")), poi)
    return files


# JSON values a scalar of a model file is replaced with
MODEL_FUZZ_VALUES = [
    None, True, "x", "", -1, 0, 1, 2.5, -1e300, float("nan"), float("inf"), [1], {}
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    learner=st.sampled_from(["logistic", "random_forest"]),
    pick=st.integers(0, 10**6),
    value=st.sampled_from(MODEL_FUZZ_VALUES),
)
# path 2 is the learner name; in the logistic file 14 is an encoder
# bound, 22 a weight and 25 the bias
@example(learner="random_forest", pick=2, value=[1])
@example(learner="logistic", pick=2, value="fixed_linear")
@example(learner="logistic", pick=14, value=float("inf"))
@example(learner="logistic", pick=22, value=None)
@example(learner="logistic", pick=25, value=float("nan"))
def test_explain_survives_one_replaced_model_scalar(
    workspace, small_model_files, learner, pick, value
):
    payload, poi = small_model_files[learner]
    payload = json.loads(json.dumps(payload))
    paths = _scalar_paths(payload)
    *parents, last = paths[pick % len(paths)]
    node = payload
    for key in parents:
        node = node[key]
    node[last] = value
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["explain", "--model", path, "--data", workspace["data"],
                       "--poi", str(poi)])
    assert rc in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == (0 if rc == 0 else 1)


def _first_node(tree, internal):
    return next(i for i, f in enumerate(tree["feature"]) if (f >= 0) == internal)


def _set(tree, key, internal, value):
    tree[key][_first_node(tree, internal)] = value


def _add_orphan_subtree(tree):
    """Append a split and its two leaves that no node points to."""
    n = len(tree["feature"])
    for key, values in (
        ("feature", [0, -1, -1]),
        ("threshold", [0.5, 0.0, 0.0]),
        ("left", [n + 1, -1, -1]),
        ("right", [n + 2, -1, -1]),
        ("value", [0, 0, 1]),
    ):
        tree[key].extend(values)


# each corrupts tree 0 of a saved forest, given the encoder width
FOREST_CORRUPTIONS = {
    "ragged_arrays": lambda tree, width: tree["threshold"].pop(),
    "child_out_of_range": lambda tree, width: _set(tree, "left", True, len(tree["feature"])),
    "child_not_after_parent": lambda tree, width: _set(
        tree, "right", True, _first_node(tree, True)
    ),
    "children_the_same": lambda tree, width: _set(
        tree, "right", True, tree["left"][_first_node(tree, True)]
    ),
    "orphan_subtree": lambda tree, width: _add_orphan_subtree(tree),
    "feature_at_width": lambda tree, width: _set(tree, "feature", True, width),
    "leaf_value_2": lambda tree, width: _set(tree, "value", False, 2),
    "leaf_value_half": lambda tree, width: _set(tree, "value", False, 0.5),
    "threshold_nan": lambda tree, width: _set(tree, "threshold", True, float("nan")),
    "threshold_infinite": lambda tree, width: _set(tree, "threshold", True, float("inf")),
}


@pytest.mark.parametrize("corruption", sorted(FOREST_CORRUPTIONS))
def test_corrupt_forest_file_exits_with_one_line(workspace, tmp_path, capsys, corruption):
    payload = json.loads(Path(workspace["model"]).read_text(encoding="utf-8"))
    width = load_model(workspace["model"]).encoder.width
    FOREST_CORRUPTIONS[corruption](payload["params"]["trees"][0], width)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(str(path))
    rc = main(
        ["explain", "--model", str(path), "--data", workspace["data"],
         "--poi", str(workspace["poi_index"])]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "corrupt model file" in err and "tree 0" in err


def test_logistic_file_with_wrong_weight_count_exits_with_one_line(workspace, tmp_path, capsys):
    good = str(tmp_path / "logistic.json")
    rc = main(["train", "--data", workspace["data"], "--learner", "logistic", "--out", good])
    assert rc == 0
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    payload["params"]["weights"].pop()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(str(path))
    rc = main(
        ["explain", "--model", str(path), "--data", workspace["data"],
         "--poi", str(workspace["poi_index"])]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "corrupt model file" in err and "weights" in err


# each replaces the encoder of a saved model, whose features are all continuous
ENCODER_CORRUPTIONS = {
    "num_without_high": lambda enc: enc.__setitem__(0, ["num", 0]),
    "num_without_bounds": lambda enc: enc.__setitem__(0, ["num"]),
    "cat_for_continuous": lambda enc: enc.__setitem__(0, ["cat", ["a", "b"]]),
    "column_missing": lambda enc: enc.pop(),
    "column_extra": lambda enc: enc.append(["num", 0.0, 1.0]),
    "num_bounds_reversed": lambda enc: enc.__setitem__(0, ["num", 5.0, 1.0]),
    "num_bound_boolean": lambda enc: enc.__setitem__(0, ["num", True, 2.0]),
}


@pytest.mark.parametrize("corruption", sorted(ENCODER_CORRUPTIONS))
@pytest.mark.parametrize("learner", ["random_forest", "logistic"])
def test_model_file_with_wrong_encoder_exits_with_one_line(
    workspace, tmp_path, capsys, learner, corruption
):
    good = workspace["model"]
    if learner == "logistic":
        good = str(tmp_path / "logistic.json")
        rc = main(["train", "--data", workspace["data"], "--learner", learner, "--out", good])
        assert rc == 0
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    ENCODER_CORRUPTIONS[corruption](payload["params"]["encoder"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(str(path))
    capsys.readouterr()
    rc = main(
        ["explain", "--model", str(path), "--data", workspace["data"],
         "--poi", str(workspace["poi_index"])]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "corrupt model file" in err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--data", "ds.yaml", "--out", "model.json", "--seed", "-1"])
    assert info.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_negative_tune_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--data", "ds.yaml", "--out", "model.json", "--tune", "-3"])
    assert info.value.code == 2
    assert "tune must be a non-negative integer" in capsys.readouterr().err


def test_console_script_installed():
    exe = shutil.which("lexcf")
    assert exe, "console script should be on PATH after editable install"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "bench" in proc.stdout
