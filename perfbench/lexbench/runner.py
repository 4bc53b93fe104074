"""One benchmark run: rounds of a workload until the time budget is spent,
output checks after each round, then the metrics and the result files."""

import gzip
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time

from lexcf import bench, ea
from lexcf.errors import InvariantViolation

from . import checks, metrics
from .tracing import COUNT, END, NAME, PARENT, START, TRIPLE
from .workloads import WORKLOADS, model_inputs, prepare_inputs, run_round

# Every run sets up at least this often (setup_s is their median); the
# quality shares cover the POIs of this many samples. A traced run
# alternates an untraced and a traced round on the same sample.
MIN_ROUNDS = 3


def _check_round(w, rnd):
    """Run the output checks on one round; sets rnd.failed and returns the
    problems found."""
    if rnd.error is not None:
        rnd.failed = rnd.expected_triples
        return ["round failed: %s" % rnd.error]
    problems = []
    bad = 0
    for triple in rnd.triples:
        found = checks.check_triple(triple)
        if found:
            bad += 1
            problems.extend(found)
    whole_round = []
    if rnd.aggregates is None:
        try:
            rnd.aggregates = bench.aggregate_records(
                rnd.records, ea.STRATEGIES, w.variants, w.ea_config().theta
            )
        except InvariantViolation as exc:  # e.g. unequal generation budgets
            whole_round.append("aggregating the records failed: %s" % exc)
    if w.via_cli and rnd.aggregates is not None:
        whole_round += checks.check_records_match(rnd)
        whole_round += checks.check_compare_tables(rnd, rnd.aggregates, w.variants)
    if len(rnd.triples) != rnd.expected_triples:
        whole_round.append(
            "%d triples ran, %d expected" % (len(rnd.triples), rnd.expected_triples)
        )
    if whole_round:
        bad = rnd.expected_triples
    rnd.failed = bad
    return problems + whole_round


def _source_fingerprint(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "lexcf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _check_registry(path, keyed):
    """Compare each round's records hash with the one an earlier run of the
    same workload, seed, sample and program source recorded at path."""
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    problems = []
    for key, (sha, rnd) in keyed.items():
        if known.setdefault(key, sha) != sha:
            problems.append("records of %s differ from an earlier run's" % key)
            rnd.failed = rnd.expected_triples
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    return problems


def _quality(w, rounds):
    """Quality shares over the first MIN_ROUNDS untraced samples, from the
    program's aggregation of their pooled records."""
    pooled = [
        {**rec, "poi": r.sample * 1000 + rec["poi"]}
        for r in rounds
        if not r.traced and r.sample < MIN_ROUNDS and r.error is None
        for rec in r.records
    ]
    try:
        aggregates = bench.aggregate_records(
            pooled, ea.STRATEGIES, w.variants, w.ea_config().theta
        )
    except InvariantViolation:  # already reported by the round's checks
        aggregates = None
    return checks.quality(aggregates, w.variants)


def _write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for i, s in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": i,
                        "name": s[NAME],
                        "start": s[START],
                        "end": s[END],
                        "parent": s[PARENT],
                        "triple": s[TRIPLE],
                        "count": s[COUNT],
                    }
                )
            )
            handle.write("\n")


def run(workload, seed, seconds, trace, out_dir, root, smoke=False):
    """Run one workload; returns (report dict, problems list).

    The report holds the end-to-end metrics (untraced rounds) and, with
    trace, the per-layer ones, plus the environment and records hashes.
    """
    w = WORKLOADS[workload]
    if smoke:
        w = w.smoke()
    os.makedirs(out_dir, exist_ok=True)
    env = metrics.environment(root)
    env["loadavg_start"] = os.getloadavg()
    cpu_start = metrics.cpu_times()

    work_dir = tempfile.mkdtemp(prefix="%s-" % workload, dir=out_dir)
    try:
        inputs = prepare_inputs(w, seed, work_dir)
        rounds, problems = [], []
        start = time.perf_counter()
        while True:
            i = len(rounds)
            sample, traced = (i // 2, i % 2 == 1) if trace else (i, False)
            rnd = run_round(w, seed, sample, inputs, traced)
            problems += _check_round(w, rnd)
            if rnd.error is None:
                rnd.sha = checks.canonical_sha(rnd.records)
            if rounds:
                rounds[-1].release()
            if traced and sample > 0:
                rnd.spans = []  # only the first traced round's spans are kept
            rounds.append(rnd)
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        probe = model_inputs(w, rounds[-1], inputs) if trace else None
        rounds[-1].release()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # the records of a sample do not depend on tracing, nor on the run
    keyed = {}
    for rnd in rounds:
        if rnd.sha is None:
            continue
        key = "%s:%d:%d:%s:%s" % (
            workload, seed, rnd.sample, "smoke" if smoke else "full", _source_fingerprint(root)
        )
        if key in keyed and keyed[key][0] != rnd.sha:
            problems.append("records of %s differ between its traced and untraced round" % key)
            rnd.failed = rnd.expected_triples
        keyed.setdefault(key, (rnd.sha, rnd))
    problems += _check_registry(os.path.join(out_dir, "records_sha256.json"), keyed)

    untraced = [r for r in rounds if not r.traced]
    e2e, tail_info = metrics.end_to_end(untraced, _quality(w, rounds))
    raw, _ = metrics.end_to_end(untraced, _quality(w, rounds), scaled=False)
    attempted = sum(r.expected_triples for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e["failed_frac"] = (failed / attempted if attempted else 1.0, "ratio")
    detail = []
    for r in rounds:
        setup, search, wall, latencies = r.timings()
        raw_setup, raw_search, raw_wall, raw_latencies = r.timings(scaled=False)
        detail.append(
            {
                "sample": r.sample,
                "traced": r.traced,
                "records_sha256": r.sha,
                "setup_s": setup,
                "search_s": search,
                "wall_s": wall,
                "triple_s": latencies,
                "triple_resilient": r.resilient,
                "raw_setup_s": raw_setup,
                "raw_search_s": raw_search,
                "raw_wall_s": raw_wall,
                "raw_triple_s": raw_latencies,
                "probes_s": [m[2] for m in r.probes.marks],
                "failed": r.failed,
            }
        )
    report = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "smoke": smoke,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "records_sha256": rounds[0].sha,
        "end_to_end": e2e,
        "raw_timings": {k: raw[k] for k in metrics.TIMINGS},
        **tail_info,
        "rounds_detail": detail,
    }
    stem = os.path.join(out_dir, "%s-seed%d%s" % (workload, seed, "-smoke" if smoke else ""))
    if trace:
        # per-layer metrics from the first traced round, whose sample is
        # the same in every run of this seed, so its counts repeat exactly
        first = next(r for r in rounds if r.traced)
        layers = metrics.layer_metrics(first.spans)
        pairs = [(u, t) for u, t in zip(rounds[0::2], rounds[1::2]) if u.error is None and t.error is None]
        layers["trace.overhead_frac"] = (
            statistics.median(t.timings()[1] / u.timings()[1] - 1.0 for u, t in pairs)
            if pairs
            else 0.0,
            "ratio",
        )
        if probe is not None:
            layers.update(
                metrics.model_rows_per_s(*probe, seed=seed, min_s=0.01 if smoke else 0.1)
            )
        report["per_layer"] = layers
        _write_spans(stem + "-spans.ndjson.gz", first.spans)
    env["loadavg_end"] = os.getloadavg()
    env["steal_share"] = metrics.steal_share(cpu_start, metrics.cpu_times())
    report["environment"] = env
    report["problems"] = problems
    with open(stem + ("-trace" if trace else "") + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report, problems
