"""End-to-end metrics from untraced rounds, per-layer metrics from traced
ones, the model microbenchmark and the run's environment."""

import os
import platform
import resource
import statistics
import time

import numpy as np

from lexcf import data

from .tracing import COUNT, END, NAME, PARENT, START, TRIPLE, TRIPLE_SPAN, self_times

TAIL_BEYOND = 10


def tail(latencies, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it:
    (value, percentile, sample count). With too few samples for any such
    percentile, the maximum is returned as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        return (xs[-1] if xs else 0.0), 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


# the end-to-end metrics that are timings, so scaled to the reference
# host speed (see hostspeed.py)
TIMINGS = ("setup_s", "wall_s", "triples_per_s", "triple_p50_s", "triple_tail_s")


def end_to_end(rounds, quality, scaled=True):
    """End-to-end metrics but failed_frac, which counts every round of the
    run. setup_s is the median over rounds; wall_s the mean, so the whole
    run counts; triples_per_s all triples over all search time.
    triple_p50_s is the median latency of each validity variant, averaged
    over the variants: resilient triples take about twice as long as base
    ones, so a pooled median would fall in the gap between the two. The
    tail pools the triples of every round. Scaled, the timings are at the
    reference host speed; otherwise as the clock read them."""
    ok = [r for r in rounds if r.error is None] or rounds
    timed = [r.timings(scaled) for r in ok]
    latencies = [x for t in timed for x in t[3]]
    by_variant = {}
    for r, t in zip(ok, timed):
        for resilient, x in zip(r.resilient, t[3]):
            by_variant.setdefault(resilient, []).append(x)
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(t[0] for t in timed), "s"),
        "wall_s": (statistics.fmean(t[2] for t in timed), "s"),
        "triples_per_s": (len(latencies) / sum(t[1] for t in timed), "1/s"),
        "triple_p50_s": (
            statistics.fmean(statistics.median(xs) for xs in by_variant.values())
            if by_variant
            else 0.0,
            "s",
        ),
        "triple_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "lex_valid_frac": (quality["lex_valid_frac"], "ratio"),
        "par_valid_frac": (quality["par_valid_frac"], "ratio"),
        "lex_wins_frac": (quality["lex_wins_frac"], "ratio"),
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples": n}


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


# layer of each span name, for the shares of search time
LAYER_OF = {
    "model.predict": "model",
    "model.predict_class": "model",
    "objectives.gower_train": "gower_train",
    "objectives.gower_poi": "objectives",
    "objectives.evaluate": "objectives",
    "objectives.scan_build": "objectives",
    "ea.init": "ea",
    "ea.mutate": "ea",
    "ea.crossover": "ea",
    "ea.run": "ea",
    TRIPLE_SPAN: "ea",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced round.

    Search time runs from the first triple's start to the last one's end.
    Self times of the spans that start inside it account for it, apart
    from the untracked remainder: the caller's loop between triples and
    the wrappers' own cost.
    """
    selfs = self_times(spans)
    triples = [s for s in spans if s[NAME] == TRIPLE_SPAN]
    lo = min(s[START] for s in triples) if triples else 0.0
    hi = max(s[END] for s in triples) if triples else 0.0
    search_s = max(hi - lo, 1e-9)

    self_in = {}  # self time of spans inside a triple, by name
    total = {}  # duration of all spans, by name
    calls = {}  # spans inside a triple, by name
    shares = dict.fromkeys(("model", "gower_train", "objectives", "ea", "selection"), 0.0)
    rows_base, rows_walk, batches = 0, 0, []
    candidates = fresh = generations = 0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        if lo <= span[START] <= hi:
            layer = LAYER_OF.get(name) or ("selection" if name.startswith("selection.") else None)
            if layer is not None:
                shares[layer] += own
        if span[TRIPLE] is None:
            continue
        self_in[name] = self_in.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "model.predict":
            batches.append(span[COUNT])
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == "model.predict_class":
                rows_walk += span[COUNT]
            else:
                rows_base += span[COUNT]
        elif name == "objectives.evaluate":
            candidates += span[COUNT][0]
            fresh += span[COUNT][1]
        elif name == "ea.run":
            generations += span[COUNT]

    def own(*names):
        return sum(self_in.get(n, 0.0) for n in names)

    tracked = sum(shares.values())
    out = {
        "model.predict_self_s": (own("model.predict", "model.predict_class"), "s"),
        "model.calls": (calls.get("model.predict", 0), "count"),
        "model.rows_base": (rows_base, "count"),
        "model.rows_walk": (rows_walk, "count"),
        "model.batch_p50": (_percentile(batches, 50), "rows"),
        "model.batch_p90": (_percentile(batches, 90), "rows"),
        "model.train_s": (total.get("model.train", 0.0), "s"),
        "objectives.gower_train_self_s": (own("objectives.gower_train"), "s"),
        "objectives.gower_train_calls": (calls.get("objectives.gower_train", 0), "count"),
        "objectives.gower_poi_self_s": (own("objectives.gower_poi"), "s"),
        "objectives.evaluate_self_s": (own("objectives.evaluate"), "s"),
        "objectives.scan_build_s": (total.get("objectives.scan_build", 0.0), "s"),
        "objectives.candidates": (candidates, "count"),
        "objectives.fresh": (fresh, "count"),
        "objectives.cache_hit_frac": (1.0 - fresh / candidates if candidates else 0.0, "ratio"),
        "ea.init_self_s": (own("ea.init"), "s"),
        "ea.mutate_self_s": (own("ea.mutate"), "s"),
        "ea.crossover_self_s": (own("ea.crossover"), "s"),
        "ea.loop_self_s": (own("ea.run", TRIPLE_SPAN), "s"),
        "ea.generations": (generations, "count"),
        "ea.offspring": (calls.get("ea.mutate", 0), "count"),
        "selection.lex_tournament_s": (own("selection.lex_tournament"), "s"),
        "selection.lex_survival_s": (own("selection.lex_survival"), "s"),
        "selection.crowded_tournament_s": (own("selection.crowded_tournament"), "s"),
        "selection.nsga2_survival_s": (own("selection.nsga2_survival"), "s"),
        "selection.nondominated_sort_s": (own("selection.nondominated_sort"), "s"),
        "selection.final_select_s": (own("selection.final_select"), "s"),
        "data.load_s": (total.get("data.load", 0.0), "s"),
        "data.split_s": (total.get("data.split", 0.0), "s"),
        "data.stats_s": (total.get("data.stats", 0.0), "s"),
        "bench.poi_sample_s": (total.get("bench.poi_sample", 0.0), "s"),
        "bench.aggregate_s": (total.get("bench.aggregate", 0.0), "s"),
        "bench.report_s": (total.get("bench.report", 0.0), "s"),
        "bench.config_s": (total.get("bench.config", 0.0), "s"),
        "cli.self_s": (sum((o for s, o in zip(spans, selfs) if s[NAME] == "cli.main"), 0.0), "s"),
        "trace.search_s": (search_s, "s"),
        "trace.untracked_frac": (1.0 - tracked / search_s, "ratio"),
    }
    for layer, seconds in shares.items():
        out["trace.share.%s" % layer] = (seconds / search_s, "ratio")
    return out


def _perturbed_rows(test, stats, n, rng):
    """n test rows, each numeric feature nudged by a tenth of its training
    range (clipped to it) and each categorical resampled with chance 0.2."""
    schema = test.schema
    rows = []
    for idx in rng.integers(len(test), size=n):
        row = list(test.instances[int(idx)].values)
        for i, feat in enumerate(schema):
            st = stats[i]
            if feat.kind == data.CATEGORICAL:
                if st.categories and rng.random() < 0.2:
                    row[i] = st.categories[int(rng.integers(len(st.categories)))]
                continue
            v = row[i] + rng.normal(0.0, 0.1 * st.range)
            if feat.kind == data.INTEGER:
                v = float(round(v))
            row[i] = float(min(max(v, st.lower), st.upper))
        rows.append(tuple(row))
    return rows


def model_rows_per_s(mdl, test, stats, seed, min_s, sizes=(20, 200, 2000), reps=3):
    """Warmed-up rows/s of predict_proba_batch at each batch size: the
    median of `reps` timed stretches of at least min_s seconds each."""
    rng = np.random.default_rng(seed)
    pool = _perturbed_rows(test, stats, max(sizes), rng)
    out = {}
    for size in sizes:
        batch = pool[:size]
        for _ in range(3):
            mdl.predict_proba_batch(batch)
        rates = []
        for _ in range(reps):
            calls = 0
            start = time.perf_counter()
            while True:
                mdl.predict_proba_batch(batch)
                calls += 1
                elapsed = time.perf_counter() - start
                if elapsed >= min_s:
                    break
            rates.append(calls * size / elapsed)
        out["model.rows_per_s.b%d" % size] = (statistics.median(rates), "1/s")
    return out


def cpu_times():
    """(steal, total) jiffies from the first line of /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice
    values = [int(v) for v in fields[1:9]]
    return values[7] if len(values) > 7 else 0, sum(values)


def steal_share(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def git_commit(root):
    """Commit id from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def environment(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
    }
