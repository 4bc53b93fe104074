import csv
import hashlib
import json
import os
import platform
from functools import partial

import numpy as np
import pytest

import lexcf.ea
from lexcf import bench
from lexcf.bench import (
    BASE,
    RESILIENT,
    VARIANTS,
    ExperimentConfig,
    ExperimentReport,
    aggregate_records,
    emit_report,
    load_experiment_config,
    read_meta,
    read_records,
    run_experiment,
    sample_points_of_interest,
    stable_seed,
    valid_fraction,
    win_loss_tie,
    write_meta,
    write_records,
)
from lexcf.data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    DatasetConfig,
    FeatureSchema,
    compute_feature_stats,
    generate_synthetic,
    load_configured_dataset,
    split_dataset,
)
from lexcf.ea import EAConfig, STRATEGIES, run_paired
from lexcf.errors import ConfigError, InvariantViolation
from lexcf.model import LearnerConfig, train_model
from lexcf.objectives import EvalContext
from lexcf.selection import (
    DISTANCE_BEFORE_SPARSITY,
    SPARSITY_BEFORE_DISTANCE,
    lex_compare,
    pareto_compare,
)

from conftest import ThresholdModel, make_dataset, numeric_schema


def test_stable_seed_is_deterministic_and_bounded():
    a = stable_seed(3, "adult", 7)
    assert a == stable_seed(3, "adult", 7)
    assert 0 <= a < 2**63
    assert a != stable_seed(3, "adult", 8)
    assert stable_seed("x", "y") != stable_seed("y", "x")


def test_sample_points_of_interest_filters_negatives(rng):
    schema = numeric_schema(1)
    rows = [[float(i)] for i in range(20)]
    test = make_dataset(schema, rows, [0] * 20)
    model = ThresholdModel(schema, 0, 10.0, positive_below=True)  # positive for x <= 10
    pois = sample_points_of_interest(model, test, 5, rng)
    assert len(pois) == 5
    for poi in pois:
        assert poi.values[0] > 10.0
    assert len({poi.values for poi in pois}) == 5  # without replacement

    few = sample_points_of_interest(model, test, 50, np.random.default_rng(0))
    assert len(few) == 9  # only 9 rows are predicted negative

    empty = make_dataset(schema, [], [])
    assert sample_points_of_interest(model, empty, 5, rng) == []


def test_sample_points_of_interest_deterministic():
    schema = numeric_schema(1)
    test = make_dataset(schema, [[float(i)] for i in range(30)], [0] * 30)
    model = ThresholdModel(schema, 0, 5.0, positive_below=True)
    a = sample_points_of_interest(model, test, 4, np.random.default_rng(8))
    b = sample_points_of_interest(model, test, 4, np.random.default_rng(8))
    assert [p.values for p in a] == [p.values for p in b]


def test_valid_fraction_boundary():
    assert valid_fraction([]) is None
    assert valid_fraction([(0.0, 0, 0, 0)]) == 1.0
    assert valid_fraction([(-0.4, 0, 0, 0)]) == 1.0  # resilient scores count
    assert valid_fraction([(0.01, 0, 0, 0)]) == 0.0
    assert valid_fraction([(0.0, 0, 0, 0), (0.2, 0, 0, 0)]) == 0.5


def test_compare_pareto_counts():
    lex = [(0.0, 0.1, 1, 0.1)]
    par = [(0.0, 0.2, 2, 0.2), (0.0, 0.05, 0, 0.05), (1.0, 0.0, 0, 0.0)]
    # dominates the first, dominated by the second, incomparable with third
    assert win_loss_tie(lex, par, pareto_compare) == (1, 1, 1)
    assert win_loss_tie([], par, pareto_compare) is None
    assert win_loss_tie(lex, [], pareto_compare) is None


def test_compare_lex_counts():
    lex = [(0.0, 0.1, 1, 0.1)]
    par = [(0.0, 0.3, 0, 0.0), (0.0, 0.1, 1, 0.1), (0.0, 0.05, 0, 0.0)]
    distance_first = partial(lex_compare, ordering=DISTANCE_BEFORE_SPARSITY, theta=0.01)
    got = win_loss_tie(lex, par, distance_first)
    # wins on distance vs first, exact tie vs second, loses vs third
    assert got == (1, 1, 1)
    sparsity_first = partial(lex_compare, ordering=SPARSITY_BEFORE_DISTANCE, theta=0.01)
    got2 = win_loss_tie(lex, par, sparsity_first)
    # under sparsity-first the first and third both win on o3
    assert got2 == (0, 2, 1)
    assert win_loss_tie([], par, distance_first) is None


def _rec(poi, variant, strategy, gens, sols):
    return {
        "poi": poi,
        "variant": variant,
        "strategy": strategy,
        "generations": gens,
        "solutions": [{"values": [0.0], "objectives": list(o)} for o in sols],
    }


def _two_poi_records():
    return [
        _rec(0, BASE, "par", 5, [(0.0, 0.2, 1, 0.1), (0.1, 0.1, 1, 0.1)]),
        _rec(0, BASE, "lex1", 5, [(0.0, 0.3, 2, 0.2)]),
        _rec(0, BASE, "lex2", 5, [(0.0, 0.1, 3, 0.0)]),
        _rec(1, BASE, "par", 7, [(0.0, 0.5, 2, 0.3)]),
        _rec(1, BASE, "lex1", 7, [(0.2, 0.4, 1, 0.1)]),
        _rec(1, BASE, "lex2", 7, []),
    ]


def test_aggregate_micro_and_macro_validity():
    agg = aggregate_records(_two_poi_records(), STRATEGIES, (BASE,), 0.01)
    par = agg["validity"][BASE]["par"]
    assert par["returned"] == 3 and par["pois"] == 2 and par["valid"] == 2
    assert par["micro"] == 2 / 3
    assert par["macro"] == pytest.approx(0.75)  # mean of 0.5 and 1.0
    lex1 = agg["validity"][BASE]["lex1"]
    assert lex1["micro"] == 0.5 and lex1["macro"] == 0.5
    lex2 = agg["validity"][BASE]["lex2"]
    assert lex2["returned"] == 1
    assert lex2["micro"] == 1.0 and lex2["macro"] == 1.0


def test_aggregate_objective_means():
    agg = aggregate_records(_two_poi_records(), STRATEGIES, (BASE,), 0.01)
    means = agg["objective_means"][BASE]["par"]
    assert means[0] == pytest.approx((0.0 + 0.1 + 0.0) / 3)
    assert means[1] == pytest.approx((0.2 + 0.1 + 0.5) / 3)
    assert means[2] == pytest.approx(4 / 3)
    assert agg["objective_means"][BASE]["lex2"] == pytest.approx(
        [0.0, 0.1, 3.0, 0.0]
    )


def test_aggregate_wlt_and_skips():
    agg = aggregate_records(_two_poi_records(), STRATEGIES, (BASE,), 0.01)
    # the second point lacks lex2 solutions, so cross comparisons skip it
    assert agg["skipped"][BASE] == 1
    assert agg["pairs"][BASE] == {"lex1": 2, "lex2": 2}
    assert agg["wlt_pareto"][BASE]["lex1"] == (0, 1, 1)
    assert agg["wlt_lex"][BASE]["lex1"] == (1, 1, 0)
    assert agg["wlt_pareto"][BASE]["lex2"] == (0, 0, 2)
    assert agg["wlt_lex"][BASE]["lex2"] == (1, 1, 0)


def test_aggregate_generation_parity_enforced():
    records = _two_poi_records()
    records[1]["generations"] = 6  # lex1 at poi 0 now disagrees with par
    with pytest.raises(InvariantViolation):
        aggregate_records(records, STRATEGIES, (BASE,), 0.01)


def test_aggregate_handles_missing_par():
    records = [r for r in _two_poi_records() if r["strategy"] != "par"]
    agg = aggregate_records(records, ("lex1", "lex2"), (BASE,), 0.01)
    assert "lex1" not in agg["wlt_pareto"][BASE]
    assert agg["validity"][BASE]["lex1"]["returned"] == 2


def test_records_roundtrip_preserves_aggregates(tmp_path):
    records = _two_poi_records()
    path = str(tmp_path / "records.ndjson")
    write_records(records, path)
    back = read_records(path)
    assert back == records
    assert aggregate_records(back, STRATEGIES, (BASE,), 0.01) == aggregate_records(
        records, STRATEGIES, (BASE,), 0.01
    )


def test_experiment_config_validation():
    ds = DatasetConfig("", "y", "1", numeric_schema(2))
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=ds, max_pois=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=ds, variants=("weird",))


def _experiment_config(tmp_path=None, **overrides):
    schema = numeric_schema(4)
    ds_cfg = DatasetConfig(
        csv_path="",
        class_column="label",
        positive_label="1",
        schema=schema,
        test_cap=1.0 / 3.0,
        split_seed=3,
        name="synth4",
        synthetic={"n": 120, "seed": 3, "continuous": 4},
    )
    kwargs = dict(
        dataset=ds_cfg,
        learner="random_forest",
        learner_params={"ntree": 15, "mtry": 2},
        max_pois=3,
        master_seed=5,
        ea=EAConfig(population_size=8, max_generations=4, seed=0),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench_out"))
    cfg = _experiment_config(output_dir=out)
    report = run_experiment(cfg)
    return report, out


def test_run_experiment_shape(small_report):
    report, _ = small_report
    assert report.poi_count == 3
    assert len(report.records) == 3 * len(VARIANTS) * len(STRATEGIES)
    assert report.dataset_id == "synth4"
    assert set(report.aggregates["validity"]) == set(VARIANTS)
    assert report.model_info["train_rows"] == 80
    assert report.model_info["test_rows"] == 40
    assert 0.0 <= report.model_info["train_accuracy"] <= 1.0


def test_run_experiment_budget_parity(small_report):
    report, _ = small_report
    for variant in VARIANTS:
        by_poi = {}
        for rec in report.records:
            if rec["variant"] == variant:
                by_poi.setdefault(rec["poi"], set()).add(rec["generations"])
        for poi, gens in by_poi.items():
            assert len(gens) == 1


def test_run_experiment_persists_records(small_report):
    report, out = small_report
    path = os.path.join(out, "records.ndjson")
    assert os.path.exists(path)
    back = read_records(path)
    assert back == [json.loads(json.dumps(r)) for r in report.records]
    rebuilt = aggregate_records(back, STRATEGIES, report.variants, report.theta)
    assert rebuilt == report.aggregates


def test_run_experiment_deterministic():
    a = run_experiment(_experiment_config())
    b = run_experiment(_experiment_config())
    assert a.records == b.records
    assert a.aggregates == b.aggregates


# sha256 of the golden run's records, one canonical JSON line each; a
# deliberate change to the search's draw order updates it with a note.
# Re-pinned when init_population became one array draw over the Genome's
# columns, which changed the initial population's draws
GOLDEN_RECORDS_SHA256 = "ad39c4ac99e1b163c6290089984bd414defd19488c9b23b4abd3f7cb4c252fe2"


def test_run_experiment_golden_records():
    schema = (
        FeatureSchema("num0", CONTINUOUS),
        FeatureSchema("num1", CONTINUOUS),
        FeatureSchema("int0", INTEGER),
        FeatureSchema("cat0", CATEGORICAL, categories=("a", "b", "c")),
    )
    ds_cfg = DatasetConfig(
        csv_path="",
        class_column="label",
        positive_label="1",
        schema=schema,
        test_cap=1.0 / 3.0,
        split_seed=1,
        name="golden",
        synthetic={"n": 90, "seed": 11, "continuous": 2, "integer": 1, "categorical": 1},
    )
    cfg = ExperimentConfig(
        dataset=ds_cfg,
        learner="random_forest",
        learner_params={"ntree": 12, "max_depth": 6},
        max_pois=3,
        variants=VARIANTS,
        master_seed=17,
        ea=EAConfig(population_size=6, max_generations=3, seed=0),
    )
    report = run_experiment(cfg)
    assert report.poi_count == 3
    blob = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in report.records)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_RECORDS_SHA256


# sha256 of a logistic run's records on mixed features, whose one "z" row
# falls in the test split: its point of interest carries a category that
# training never saw. Pinned before the search evaluated coded rows; batch-
# invariant logistic scores would move it deliberately, with a note.
# Re-pinned when init_population became one array draw over the Genome's
# columns, which changed the initial population's draws
GOLDEN_LOGISTIC_RECORDS_SHA256 = "1ab433951775fbb930ece5199378d87ae71b4344d52b225663a614563248e7d2"


def test_run_experiment_golden_logistic_records(tmp_path):
    rng = np.random.default_rng(23)
    lines = ["x,n,k,label", "0.500,1,z,0"]
    for _ in range(47):
        x, n, k = rng.uniform(0, 10), int(rng.integers(0, 11)), "abc"[rng.integers(3)]
        lines.append("%.3f,%d,%s,%d" % (x, n, k, x + 0.5 * n + 2 * (k == "c") > 9))
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = (
        FeatureSchema("x", CONTINUOUS),
        FeatureSchema("n", INTEGER),
        FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c", "z")),
    )
    ds_cfg = DatasetConfig(
        csv_path=str(tmp_path / "data.csv"),
        class_column="label",
        positive_label="1",
        schema=schema,
        test_cap=1.0 / 3.0,
        split_seed=1,
        name="golden_logistic",
    )
    cfg = ExperimentConfig(
        dataset=ds_cfg,
        learner="logistic",
        max_pois=3,
        variants=VARIANTS,
        master_seed=0,
        ea=EAConfig(population_size=6, max_generations=4, seed=0),
    )
    report = run_experiment(cfg)
    assert report.poi_count == 3
    assert any("z" in sol["values"] for rec in report.records for sol in rec["solutions"])
    train, _ = split_dataset(load_configured_dataset(ds_cfg), 1.0 / 3.0, 1)
    assert "z" not in compute_feature_stats(train)[2].categories
    blob = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in report.records)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_LOGISTIC_RECORDS_SHA256


def test_resilience_raises_the_validity_of_returned_solutions():
    """Claim (b) on a logistic model, seeded as the acceptance benchmark:
    resilient validity is at least base validity for lex, and par's share
    of valid solutions rises. 8 points measured lex1 62.5% -> 100%, lex2
    75% -> 100% and par 16.25% -> 48.125%."""
    dataset = generate_synthetic(450, 7, n_continuous=6, n_integer=2)
    train, test = split_dataset(dataset, test_cap=1.0 / 3.0, seed=7)
    stats = compute_feature_stats(train)
    model = train_model(train, LearnerConfig("logistic"))
    rng = np.random.default_rng(stable_seed(7, "acceptance", "poi"))
    pois = sample_points_of_interest(model, test, 8, rng)
    records = []
    for index, poi in enumerate(pois):
        seed = stable_seed(7, "acceptance", index)
        for variant in VARIANTS:
            resilient = variant == RESILIENT
            ctx = EvalContext(poi, model, train, stats, resilience=resilient)
            results = run_paired(ctx, EAConfig(resilience=resilient, seed=seed))
            records += map(partial(bench._record, index, variant), STRATEGIES, results)
    validity = aggregate_records(records, STRATEGIES, VARIANTS, 0.01)["validity"]
    share = {(v, s): validity[v][s]["micro"] for v in VARIANTS for s in STRATEGIES}
    assert share[RESILIENT, "lex1"] >= share[BASE, "lex1"]
    assert share[RESILIENT, "lex2"] >= share[BASE, "lex2"]
    assert share[RESILIENT, "par"] >= share[BASE, "par"] + 0.15


def test_emit_report_formats_agree(small_report, tmp_path):
    report, _ = small_report
    paths = emit_report(report, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "validity.csv", "validity.md", "objectives.csv", "objectives.md",
        "pareto_wlt.csv", "pareto_wlt.md", "lex_wlt.csv", "lex_wlt.md",
    ]
    for cpath, mpath in zip(paths[::2], paths[1::2]):
        with open(cpath, newline="", encoding="utf-8") as handle:
            csv_rows = [row for row in csv.reader(handle)]
        md_lines = open(mpath, encoding="utf-8").read().strip().splitlines()
        md_rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in md_lines
            if not set(line) <= {"|", "-", " "}
        ]
        assert md_rows == csv_rows  # identical cell strings in both formats


def test_emit_report_empty_run(tmp_path):
    empty = ExperimentReport(
        dataset_id="none",
        master_seed=0,
        variants=VARIANTS,
        theta=0.01,
        poi_count=0,
        records=(),
        aggregates=aggregate_records([], STRATEGIES, VARIANTS, 0.01),
        model_info={},
    )
    paths = emit_report(empty, str(tmp_path))
    assert len(paths) == 8
    for path in paths[::2]:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1  # header only
    meta_path = write_meta(empty, str(tmp_path))
    meta = json.loads(open(meta_path, encoding="utf-8").read())
    assert meta["empty"] is True
    assert meta["poi_count"] == 0


def test_write_meta_contents(small_report, tmp_path):
    report, _ = small_report
    path = write_meta(report, str(tmp_path))
    meta = json.loads(open(path, encoding="utf-8").read())
    assert meta["dataset"] == "synth4"
    assert meta["poi_count"] == 3
    assert meta["empty"] is False
    assert set(meta["skipped"]) == set(VARIANTS)
    assert meta["model"]["learner"] == "random_forest"


def test_write_meta_records_versions_and_split(small_report, tmp_path, monkeypatch):
    # the environment goes into meta.json, never into the records
    report, _ = small_report
    for cpus in (1, 2):
        monkeypatch.setattr(lexcf.ea, "_usable_cpus", lambda: cpus)
        with open(write_meta(report, str(tmp_path)), encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == np.__version__
        assert meta["split_runs"] is (cpus == 2)
    # a meta.json written before these keys existed still reads
    for key in ("python", "numpy", "split_runs"):
        del meta[key]
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    assert read_meta(str(tmp_path / "meta.json")) == meta


DATASET_YAML = """
name: cfgsynth
class_column: label
positive_label: "1"
synthetic: {n: 60, seed: 2, continuous: 3}
features:
  - {name: num0, kind: continuous}
  - {name: num1, kind: continuous}
  - {name: num2, kind: continuous}
test_cap: 0.25
"""

EXPERIMENT_YAML = """
dataset: ds.yaml
learner: logistic
learner_params: {epochs: 50}
max_pois: 4
master_seed: 9
variants: [off, on, off]
ea: {population_size: 6, max_generations: 3, theta: 0.02}
"""


def test_load_experiment_config(tmp_path):
    (tmp_path / "ds.yaml").write_text(DATASET_YAML, encoding="utf-8")
    path = tmp_path / "exp.yaml"
    path.write_text(EXPERIMENT_YAML, encoding="utf-8")
    cfg = load_experiment_config(str(path))
    assert cfg.dataset.name == "cfgsynth"
    assert cfg.learner == "logistic"
    assert cfg.learner_params == {"epochs": 50}
    assert cfg.max_pois == 4
    assert cfg.master_seed == 9
    assert cfg.variants == (BASE, RESILIENT)  # tokens mapped and deduplicated
    assert cfg.ea.population_size == 6
    assert cfg.ea.theta == 0.02


def test_load_experiment_config_errors(tmp_path):
    (tmp_path / "ds.yaml").write_text(DATASET_YAML, encoding="utf-8")
    bad = EXPERIMENT_YAML.replace("variants: [off, on, off]", "variants: [sometimes]")
    path = tmp_path / "exp.yaml"
    path.write_text(bad, encoding="utf-8")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))

    path.write_text("learner: logistic\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))

    path.write_text("dataset: ds.yaml\nea: [1, 2]\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_experiment_config(str(path))


def test_loaded_config_runs_end_to_end(tmp_path):
    (tmp_path / "ds.yaml").write_text(DATASET_YAML, encoding="utf-8")
    exp = EXPERIMENT_YAML.replace("max_pois: 4", "max_pois: 2")
    path = tmp_path / "exp.yaml"
    path.write_text(exp, encoding="utf-8")
    cfg = load_experiment_config(str(path))
    report = run_experiment(cfg)
    assert report.poi_count <= 2
    assert report.dataset_id == "cfgsynth"


def test_ea_debug_key_reaches_every_run(tmp_path, monkeypatch):
    (tmp_path / "ds.yaml").write_text(DATASET_YAML, encoding="utf-8")
    exp = EXPERIMENT_YAML.replace("max_pois: 4", "max_pois: 1").replace(
        "theta: 0.02}", "theta: 0.02, debug: true}"
    )
    path = tmp_path / "exp.yaml"
    path.write_text(exp, encoding="utf-8")
    seen = []
    real_run_paired = bench.run_paired

    def spy(ctx, cfg):
        seen.append(cfg.debug)
        return real_run_paired(ctx, cfg)

    monkeypatch.setattr(bench, "run_paired", spy)
    run_experiment(load_experiment_config(str(path)))
    assert seen and all(debug is True for debug in seen)
