"""Experimental protocol: point-of-interest sampling, paired runs across
strategies and validity variants, aggregation, and report files.

Raw per-point records are persisted line-delimited before any
aggregation; every table can be recomputed from them alone.
"""

import csv
import hashlib
import json
import os
import platform
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import (
    NEGATIVE,
    DatasetConfig,
    check_fields,
    check_type,
    compute_feature_stats,
    config_from,
    load_configured_dataset,
    load_dataset_config,
    read_text,
    read_yaml_mapping,
    split_dataset,
)
from .ea import STRATEGIES, STRATEGY_ORDERINGS, EAConfig, run_paired, split_runs
from .errors import ConfigError, DataError, InvariantViolation
from .model import LearnerConfig, learner_key, learner_params, train_model, tune_random_search
from .objectives import EvalContext
from .selection import FIRST_BETTER, SECOND_BETTER, TIE, lex_compare, pareto_compare

BASE = "base"
RESILIENT = "resilient"
VARIANTS = (BASE, RESILIENT)

OBJECTIVE_NAMES = ("o1_validity", "o2_distance", "o3_sparsity", "o4_plausibility")

LEX_STRATEGIES = ("lex1", "lex2")

# the names a config may give each validity variant
_VARIANT_NAMES = {
    **dict.fromkeys(("base", "without", "off", "false"), BASE),
    **dict.fromkeys(("resilient", "with", "on", "true"), RESILIENT),
}


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    learner: str = "random_forest"
    learner_params: dict | None = None
    tune_trials: int = 0
    max_pois: int = 50
    variants: list | tuple = VARIANTS
    master_seed: int = 0
    output_dir: str = ""
    ea: EAConfig | None = None

    def __post_init__(self):
        if isinstance(self.ea, dict):
            # run_experiment and run_paired set these per run
            fixed = sorted(self.ea.keys() & {"seed", "strategy", "resilience"})
            if fixed:
                raise ConfigError(
                    "ea section cannot set %s: runs take their seeds from master_seed, "
                    "resilience from variants, and every strategy runs" % fixed[0]
                )
            self.ea = config_from(EAConfig, self.ea, "ea section")
        check_fields(self)
        if self.max_pois < 1:
            raise ConfigError("max_pois must be >= 1")
        if self.tune_trials < 0:
            raise ConfigError("tune_trials must be >= 0")
        self.learner = learner_key(self.learner)
        if not self.variants:
            raise ConfigError("variants must name at least one validity variant")
        if self.learner_params is None:
            self.learner_params = {}
        if self.ea is None:
            self.ea = EAConfig()
        bad = [v for v in self.variants if str(v).lower() not in _VARIANT_NAMES]
        if bad:
            raise ConfigError("unknown validity variants: %s" % bad)
        self.variants = tuple(dict.fromkeys(_VARIANT_NAMES[str(v).lower()] for v in self.variants))


@dataclass
class ExperimentReport:
    dataset_id: str
    master_seed: int
    variants: tuple
    theta: float
    poi_count: int
    records: tuple
    aggregates: dict
    model_info: dict


def stable_seed(*parts):
    """63-bit seed from a stable hash of the joined parts."""
    blob = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") & ((1 << 63) - 1)


def sample_points_of_interest(model, test, max_n, rng):
    """Draw test instances without replacement, keeping those the model
    predicts negative, until max_n keepers or the pool runs dry."""
    if len(test) == 0:
        return []
    preds = model.predict_class_batch([inst.values for inst in test.instances])
    pois = []
    for idx in rng.permutation(len(test)):
        if preds[idx] == NEGATIVE:
            pois.append(test.instances[idx])
            if len(pois) == max_n:
                break
    return pois


def valid_fraction(solutions):
    """Fraction of solutions whose validity objective is at or below zero;
    None for an empty list."""
    if not solutions:
        return None
    vectors = [getattr(s, "objectives", s) for s in solutions]
    return sum(1 for v in vectors if v[0] <= 0) / len(vectors)


def win_loss_tie(lex_solutions, par_solutions, compare):
    """Win-loss-tie of each lex solution against each Pareto solution, where
    compare(a, b) returns FIRST_BETTER, TIE or SECOND_BETTER (pareto_compare,
    or lex_compare with a fixed ordering and theta); None when either list
    is empty."""
    if not lex_solutions or not par_solutions:
        return None
    counts = {FIRST_BETTER: 0, SECOND_BETTER: 0, TIE: 0}
    for a in lex_solutions:
        for b in par_solutions:
            counts[compare(a, b)] += 1
    return (counts[FIRST_BETTER], counts[SECOND_BETTER], counts[TIE])


def _record(poi_index, variant, strategy, result):
    return {
        "poi": poi_index,
        "variant": variant,
        "strategy": strategy,
        "generations": result.generations_executed,
        "solutions": [
            {"values": list(c.values), "objectives": list(c.objectives)}
            for c in result.solutions
        ],
    }


def aggregate_records(records, strategies, variants, theta):
    """Pure fold from raw records to every table cell.

    Each record is keyed once by (variant, strategy, poi). Validity cells
    carry pooled (micro) fractions plus the mean of per-point fractions
    (macro). Cross-strategy cells are computed per point only when all three
    strategies returned solutions there; skipped points are counted. The
    strategies must share one generation budget at every point.
    """
    runs = {
        (rec["variant"], rec["strategy"], rec["poi"]): (
            rec.get("generations"), [tuple(sol["objectives"]) for sol in rec["solutions"]]
        )
        for rec in records
    }
    names = ("validity", "objective_means", "wlt_pareto", "wlt_lex", "pairs")
    aggregates = {name: {variant: {} for variant in variants} for name in names}
    aggregates["skipped"] = {}
    for variant in variants:
        gens = {(s, poi): run[0] for (v, s, poi), run in runs.items() if v == variant}
        sols = {(s, poi): run[1] for (v, s, poi), run in runs.items() if v == variant}
        pois = sorted({poi for _, poi in sols})
        for poi in pois:
            budgets = {s: gens[s, poi] for s in STRATEGIES if (s, poi) in gens}
            if len(set(budgets.values())) > 1:
                raise InvariantViolation("generation budgets differ at poi %d: %r" % (poi, budgets))
        for strategy in strategies:
            per_poi = [sols.get((strategy, poi), []) for poi in pois]
            pooled = [v for vectors in per_poi for v in vectors]
            fractions = [valid_fraction(vectors) for vectors in per_poi if vectors]
            aggregates["validity"][variant][strategy] = {
                "returned": len(pooled),
                "pois": len(pois),
                "valid": sum(1 for v in pooled if v[0] <= 0),
                "micro": valid_fraction(pooled),
                "macro": float(np.mean(fractions)) if fractions else None,
            }
            aggregates["objective_means"][variant][strategy] = (
                [float(np.mean([v[j] for v in pooled])) for j in range(4)] if pooled else None
            )

        usable = [poi for poi in pois if all(sols.get((s, poi)) for s in STRATEGIES)]
        aggregates["skipped"][variant] = len(pois) - len(usable)
        for lex in LEX_STRATEGIES:
            if lex not in strategies or "par" not in strategies:
                continue
            sides = [(sols[lex, poi], sols["par", poi]) for poi in usable]
            aggregates["pairs"][variant][lex] = sum(len(a) * len(b) for a, b in sides)
            lex_order = partial(lex_compare, ordering=STRATEGY_ORDERINGS[lex], theta=theta)
            for key, compare in (("wlt_pareto", pareto_compare), ("wlt_lex", lex_order)):
                wlts = [win_loss_tie(a, b, compare) for a, b in sides]
                aggregates[key][variant][lex] = tuple(map(sum, zip(*wlts))) if wlts else None
    return aggregates


def build_model(train, cfg, tune_trials, tune_seed):
    """Train cfg's learner on train; returns the model and the config it was
    trained with. cfg.params is checked before anything runs. With
    tune_trials above 0, a random search seeded with tune_seed supplies the
    params that cfg.params leaves unset."""
    learner_params(cfg, train.schema)
    if tune_trials > 0:
        tuned = tune_random_search(cfg.learner, train, n_trials=tune_trials, seed=tune_seed)
        cfg = replace(cfg, params={**tuned.params, **cfg.params})
    return train_model(train, cfg), cfg


def run_experiment(cfg):
    """Train the model, sample points of interest, run every strategy and
    variant on each, and fold the raw records into report aggregates."""
    dataset = load_configured_dataset(cfg.dataset)
    train, test = split_dataset(dataset, cfg.dataset.test_cap, cfg.dataset.split_seed)
    stats = compute_feature_stats(train)
    model, learner_cfg = build_model(
        train,
        LearnerConfig(cfg.learner, cfg.learner_params, stable_seed(cfg.master_seed, "train")),
        cfg.tune_trials,
        stable_seed(cfg.master_seed, "tune"),
    )
    dataset_id = cfg.dataset.name

    rng = np.random.default_rng(stable_seed(cfg.master_seed, dataset_id, "poi-sample"))
    pois = sample_points_of_interest(model, test, cfg.max_pois, rng)

    records = []
    for index, poi in enumerate(pois):
        seed = stable_seed(cfg.master_seed, dataset_id, index)
        for variant in cfg.variants:
            resilient = variant == RESILIENT
            ctx = EvalContext(poi, model, train, stats, resilience=resilient)
            base = replace(cfg.ea, resilience=resilient, seed=seed)
            for strategy, result in zip(STRATEGIES, run_paired(ctx, base)):
                records.append(_record(index, variant, strategy, result))

    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_records(records, os.path.join(cfg.output_dir, "records.ndjson"))

    aggregates = aggregate_records(records, STRATEGIES, cfg.variants, cfg.ea.theta)
    return ExperimentReport(
        dataset_id=dataset_id,
        master_seed=cfg.master_seed,
        variants=tuple(cfg.variants),
        theta=cfg.ea.theta,
        poi_count=len(pois),
        records=tuple(records),
        aggregates=aggregates,
        model_info={
            "learner": learner_cfg.learner,
            "params": learner_cfg.params,
            "train_rows": len(train),
            "test_rows": len(test),
            "train_accuracy": model.accuracy(train),
        },
    )


def write_records(records, path):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec, sort_keys=True))
            handle.write("\n")


# the type of each field _record writes, as JSON reads it back
_RECORD_FIELDS = {"poi": int, "variant": str, "strategy": str, "generations": int, "solutions": list}


def _is_record(rec):
    """Whether rec has the fields _record writes, each solution with four
    numeric objectives."""
    return (
        isinstance(rec, dict)
        and all(type(rec.get(key)) is kind for key, kind in _RECORD_FIELDS.items())
        and all(
            isinstance(sol, dict)
            and isinstance(sol.get("objectives"), list)
            and len(sol["objectives"]) == 4
            and all(type(o) in (int, float) for o in sol["objectives"])
            for sol in rec["solutions"]
        )
    )


def read_records(path):
    """The records of a records.ndjson file, one JSON object a line. A line
    that holds no run record, names an unknown strategy or variant, or
    repeats the (variant, strategy, poi) of an earlier line is a DataError
    naming it."""
    records = {}
    for number, line in enumerate(read_text(path, DataError).split("\n"), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not _is_record(rec):
            raise DataError("%s line %d is not a run record" % (path, number))
        for key, known in (("strategy", STRATEGIES), ("variant", VARIANTS)):
            if rec[key] not in known:
                raise DataError("%s line %d: unknown %s %r" % (path, number, key, rec[key]))
        run = (rec["variant"], rec["strategy"], rec["poi"])
        if run in records:
            raise DataError("%s line %d repeats the %s %s run at poi %d" % ((path, number) + run))
        records[run] = rec
    return list(records.values())


def markdown_lines(header, rows):
    """A markdown table, one string per line."""
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _write_table(path_base, header, rows):
    """Write one table as path_base.csv and path_base.md; returns both paths."""
    with open(path_base + ".csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    with open(path_base + ".md", "w", encoding="utf-8") as handle:
        handle.write("\n".join(markdown_lines(header, rows)) + "\n")
    return [path_base + ".csv", path_base + ".md"]


def _fmt_pct(fraction):
    return "" if fraction is None else "%.1f%%" % (100.0 * fraction)


def _validity_rows(report):
    rows = []
    agg = report.aggregates["validity"]
    for variant in report.variants:
        row = [variant]
        for strategy in STRATEGIES:
            cell = agg[variant][strategy]
            if cell["returned"] == 0:
                row.append("")
            else:
                mean_count = cell["returned"] / cell["pois"]
                row.append("%.2f (%s)" % (mean_count, _fmt_pct(cell["micro"])))
        for strategy in STRATEGIES:
            row.append(_fmt_pct(agg[variant][strategy]["macro"]))
        rows.append(row)
    return rows


def _objective_rows(report):
    rows = []
    agg = report.aggregates["objective_means"]
    for variant in report.variants:
        for j, name in enumerate(OBJECTIVE_NAMES):
            row = [variant, name]
            for strategy in STRATEGIES:
                means = agg[variant][strategy]
                row.append("" if means is None else "%.6f" % means[j])
            rows.append(row)
    return rows


def wlt_table(aggregates, variants, key):
    """Header and rows of one win-loss-tie table (key "wlt_pareto" or
    "wlt_lex"): a row per variant, a column per lex strategy."""
    rows = []
    for variant in variants:
        row = [variant]
        for strategy in LEX_STRATEGIES:
            wlt = aggregates[key][variant].get(strategy)
            row.append("" if wlt is None else "%d; %d; %d" % tuple(wlt))
        rows.append(row)
    return ["variant"] + list(LEX_STRATEGIES), rows


def emit_report(report, out_dir):
    """Write the four tables, each as .csv and .md; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "validity": (
            ["variant"] + list(STRATEGIES) + ["%s_macro" % s for s in STRATEGIES],
            _validity_rows(report),
        ),
        "objectives": (["variant", "objective"] + list(STRATEGIES), _objective_rows(report)),
        "pareto_wlt": wlt_table(report.aggregates, report.variants, "wlt_pareto"),
        "lex_wlt": wlt_table(report.aggregates, report.variants, "wlt_lex"),
    }
    paths = []
    for stem, (header, rows) in tables.items():
        rows = rows if report.poi_count else []
        paths += _write_table(os.path.join(out_dir, stem), header, rows)
    return paths


def write_meta(report, out_dir):
    """Write meta.json: the report's seeds, variants and model, and the
    Python and numpy versions and whether run_paired ran lex2 in a forked
    child (split_runs), none of which goes into records.ndjson."""
    os.makedirs(out_dir, exist_ok=True)
    meta = {
        "dataset": report.dataset_id,
        "master_seed": report.master_seed,
        "strategies": list(STRATEGIES),
        "variants": list(report.variants),
        "theta": report.theta,
        "poi_count": report.poi_count,
        "empty": report.poi_count == 0,
        "pairs": report.aggregates["pairs"],
        "skipped": report.aggregates["skipped"],
        "model": report.model_info,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "split_runs": split_runs(),
    }
    path = os.path.join(out_dir, "meta.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    return path


def read_meta(path):
    """The meta.json that write_meta wrote; one without a list of variants
    from VARIANTS and a finite theta >= 0 is a DataError."""
    try:
        meta = json.loads(read_text(path, DataError))
    except json.JSONDecodeError:
        meta = None
    meta = meta if isinstance(meta, dict) else {}
    variants, theta = meta.get("variants"), meta.get("theta")
    if not (
        isinstance(variants, list)
        and all(v in VARIANTS for v in variants)
        and type(theta) in (int, float)
        and 0 <= theta < float("inf")
    ):
        raise DataError("%s holds no variants among %s and finite theta >= 0" % (path, VARIANTS))
    return meta


def load_experiment_config(path):
    """Parse a YAML experiment config; the dataset reference and the output
    directory are resolved relative to the config file."""
    raw = read_yaml_mapping(path, "experiment config")
    if "dataset" not in raw:
        raise ConfigError("experiment config needs a dataset reference")
    ds_ref = check_type("dataset", raw["dataset"], str)
    here = os.path.dirname(os.path.abspath(path))
    dataset = load_dataset_config(os.path.join(here, ds_ref))
    cfg = config_from(ExperimentConfig, {**raw, "dataset": dataset}, "experiment config")
    if cfg.output_dir:
        cfg.output_dir = os.path.join(here, cfg.output_dir)
    return cfg
