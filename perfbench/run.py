"""Run one workload of the lexcf benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload forest_resilient --seed 1 --seconds 40 --trace 0

The run repeats the workload's fixed round of work until --seconds have
passed (at least twice), checks every output, and prints a table of all
metrics followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}. --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics instead. Result files go to perfbench/results/.
The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _metric_names(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_table(report, trace):
    print(
        "workload %s  seed %d  rounds %d  triples %d  failed %d"
        % (report["workload"], report["seed"], report["rounds"], report["attempted"], report["failed"])
    )
    section = report["per_layer"] if trace else report["end_to_end"]
    raw = {} if trace else report["raw_timings"]
    for name, (value, unit) in section.items():
        extra = ""
        if name in raw:
            extra = "  (as measured %.6g)" % raw[name][0]
        if name == "triple_tail_s":
            extra += "  (p%.1f of %d triples)" % (report["tail_percentile"], report["tail_samples"])
        print("  %-32s %14.6g %-6s%s" % (name, value, unit, extra))
    env = report["environment"]
    steal = env["steal_share"]
    print(
        "records sha256 %s\nnproc %s, python %s, numpy %s, %s, commit %s\n"
        "load %.2f -> %.2f, steal %s"
        % (
            report["records_sha256"],
            env["nproc"],
            env["python"],
            env["numpy"],
            env["platform"],
            env["commit"],
            env["loadavg_start"][0],
            env["loadavg_end"][0],
            "n/a" if steal is None else "%.2f%%" % (100 * steal),
        )
    )
    for problem in report["problems"][:20]:
        print("CHECK FAILED: %s" % problem)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one process, one thread of computation: no BLAS thread pool, no
    # lexcf POI thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.pop("LEXCF_THREADS", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "lexcf")):
        print("no lexcf sources under %s; run from a checkout of the repository" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from lexbench import runner
    from lexbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))
    report, problems = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace), os.path.join(HERE, "results"), ROOT
    )
    _print_table(report, args.trace)
    section = report["per_layer"] if args.trace else report["end_to_end"]
    names = _metric_names(args.trace) or list(section)
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": section[n][0], "unit": section[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
