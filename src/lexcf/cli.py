"""Command-line front end: train models, explain single predictions,
run the benchmark protocol, and recompute comparisons from raw records.

Exit codes: 0 success, 2 configuration error, 3 data error (an unreadable
or unwritable file too), 4 violated invariant.
"""

import argparse
import json
import os
import sys

from .bench import (
    aggregate_records,
    build_model,
    emit_report,
    load_experiment_config,
    markdown_lines,
    read_meta,
    read_records,
    run_experiment,
    wlt_table,
    write_meta,
)
from .data import (
    CATEGORICAL,
    INTEGER,
    NEGATIVE,
    compute_feature_stats,
    load_configured_dataset,
    load_dataset_config,
    parse_value,
    reject_unknown_keys,
    schema_fingerprint,
    split_dataset,
)
from .ea import STRATEGIES, EAConfig, run_ea
from .errors import ConfigError, DataError, InvariantViolation
from .model import LEARNER_ALIASES, LEARNERS, LearnerConfig, learner_key, load_model, save_model
from .objectives import EvalContext


def _cmd_train(args):
    # fail an unusable --out before any work, leaving what is there as it is
    existed = os.path.exists(args.out)
    open(args.out, "a", encoding="utf-8").close()
    if not existed:
        os.remove(args.out)
    learner = learner_key(args.learner)
    ds_cfg = load_dataset_config(args.data)
    dataset = load_configured_dataset(ds_cfg)
    train, test = split_dataset(dataset, ds_cfg.test_cap, ds_cfg.split_seed)
    model, _ = build_model(train, LearnerConfig(learner, {}, seed=args.seed), args.tune, args.seed)
    save_model(model, args.out)
    print(
        "trained %s on %d rows (held out %d); training accuracy %.3f"
        % (learner, len(train), len(test), model.accuracy(train))
    )
    print("model written to %s" % args.out)
    return 0


def _parse_poi(spec, test, schema):
    try:
        index = int(spec)
    except ValueError:
        index = None
    if index is not None:
        if not 0 <= index < len(test):
            raise ConfigError("poi index %d outside test set of %d rows" % (index, len(test)))
        return test.instances[index].values
    try:
        raw = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ConfigError("--poi must be a test row index or inline JSON: %s" % exc) from None
    if isinstance(raw, dict):
        reject_unknown_keys(raw, {f.name for f in schema}, "inline poi")
        missing = [f.name for f in schema if f.name not in raw]
        if missing:
            raise ConfigError("inline poi is missing features: %s" % missing)
        raw = [raw[f.name] for f in schema]
    if not isinstance(raw, list) or len(raw) != len(schema):
        raise ConfigError("inline poi must list all %d feature values" % len(schema))
    return tuple(parse_value(v, feat, "inline poi") for v, feat in zip(raw, schema))


def _cmd_explain(args):
    model = load_model(args.model)
    ds_cfg = load_dataset_config(args.data)
    if schema_fingerprint(model.schema) != schema_fingerprint(ds_cfg.schema):
        raise ConfigError("model was trained on a different schema than %s" % args.data)
    dataset = load_configured_dataset(ds_cfg)
    train, test = split_dataset(dataset, ds_cfg.test_cap, ds_cfg.split_seed)
    stats = compute_feature_stats(train)
    poi = _parse_poi(args.poi, test, ds_cfg.schema)
    if model.predict_class(poi) != NEGATIVE:
        raise ConfigError(
            "the model already predicts the positive class for this point "
            "(probability %.3f); nothing to explain" % model.predict_proba(poi)
        )
    resilient = args.resilience == "on"
    ctx = EvalContext(poi, model, train, stats, resilience=resilient)
    cfg = EAConfig(
        strategy=args.strategy, theta=args.theta, resilience=resilient, seed=args.seed
    )
    result = run_ea(ctx, cfg)
    print(
        "strategy %s, %d generations, %d solution(s)"
        % (args.strategy, result.generations_executed, len(result.solutions))
    )
    for rank, cand in enumerate(result.solutions):
        o1, o2, o3, o4 = cand.objectives
        verdict = "valid" if o1 <= 0 else "invalid"
        print("[%d] o1=%.4f o2=%.4f o3=%d o4=%.4f  (%s)" % (rank, o1, o2, o3, o4, verdict))
        for feat, old, new in zip(ds_cfg.schema, poi, cand.values):
            if new != old:
                print("    %s: %s -> %s" % (feat.name, _shown(old, feat), _shown(new, feat)))
    return 0


def _shown(value, feat):
    """A feature value as explain prints it: a category as it is, an
    integral integer-feature value as an integer, and any other number as
    its shortest round-trip repr, so distinct values print distinctly."""
    if feat.kind == CATEGORICAL:
        return value
    if feat.kind == INTEGER and float(value).is_integer():
        return int(value)
    return repr(float(value))


def _cmd_bench(args):
    cfg = load_experiment_config(args.config)
    if args.out:
        cfg.output_dir = args.out
    if not cfg.output_dir:
        raise ConfigError("no output directory: pass --out or set output_dir")
    # an unusable output directory fails here, not after the search
    os.makedirs(cfg.output_dir, exist_ok=True)
    report = run_experiment(cfg)
    emit_report(report, cfg.output_dir)
    write_meta(report, cfg.output_dir)
    print("%d points of interest; reports in %s" % (report.poi_count, cfg.output_dir))
    for variant in report.variants:
        micro = [report.aggregates["validity"][variant][s]["micro"] for s in STRATEGIES]
        summary = ", ".join(
            "%s %s" % (s, "n/a" if m is None else "%.1f%% valid" % (100 * m))
            for s, m in zip(STRATEGIES, micro)
        )
        print("  %s: %s" % (variant, summary))
    return 0


def _cmd_compare(args):
    records = read_records(os.path.join(args.runs, "records.ndjson"))
    meta = read_meta(os.path.join(args.runs, "meta.json"))
    aggregates = aggregate_records(records, STRATEGIES, meta["variants"], meta["theta"])
    key = "wlt_pareto" if args.mode == "pareto" else "wlt_lex"
    header, rows = wlt_table(aggregates, meta["variants"], key)
    print("\n".join(markdown_lines(header, rows)))
    return 0


def _non_negative(name):
    """The argparse type of an option that takes a non-negative integer, as
    numpy seeds and trial counts need; name is what its error calls it."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = -1
        if value < 0:
            raise argparse.ArgumentTypeError(
                "%s must be a non-negative integer, got %r" % (name, text)
            )
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lexcf",
        description="Counterfactual explanations for tabular classifiers "
        "via lexicographic and Pareto multi-objective search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train and save a classifier")
    p.add_argument("--data", required=True, help="dataset config file")
    p.add_argument("--learner", default="random_forest", choices=[*LEARNERS, *LEARNER_ALIASES])
    p.add_argument(
        "--tune", type=_non_negative("tune"), default=0, help="random-search trials (0 = defaults)"
    )
    p.add_argument("--seed", type=_non_negative("seed"), default=0)
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("explain", help="generate counterfactuals for one point")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset config file")
    p.add_argument("--poi", required=True, help="test row index or inline JSON values")
    p.add_argument("--strategy", default="lex1", choices=list(STRATEGIES))
    p.add_argument("--resilience", default="off", choices=["on", "off"])
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--seed", type=_non_negative("seed"), default=0)

    p = sub.add_parser("bench", help="run the full benchmark protocol")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default="", help="output directory (overrides config)")

    p = sub.add_parser("compare", help="recompute win-loss-tie tables from raw records")
    p.add_argument("--runs", required=True, help="directory written by bench")
    p.add_argument("--mode", default="pareto", choices=["pareto", "lex"])
    return parser


_COMMANDS = {
    "train": _cmd_train,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print("invariant violated: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
