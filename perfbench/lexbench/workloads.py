"""The three workloads and one round of each.

A round is one complete, fixed amount of work: set-up (data, split,
stats, training, POI sampling), the search over every POI and validity
variant, and the workload's aggregation or report files. Every round of
a run sets up the same data and model from the workload seed; round
sample j draws its own POIs and search seeds from (seed, j), so a run
covers more POIs than one round holds. Rounds run serially in this
process: a closed loop with one caller.
"""

import contextlib
import csv
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from lexcf import bench, cli, data, ea, model, objectives

from . import hostspeed
from .tracing import Tracer, install_lexcf

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    columns: dict
    learner: str
    learner_params: dict
    variants: tuple
    pois: int
    ea: dict = field(default_factory=dict)  # EAConfig fields that differ from the defaults
    via_cli: bool = False

    def ea_config(self, **overrides):
        return ea.EAConfig(**{**self.ea, **overrides})

    def smoke(self):
        """Minimal-size copy for the benchmark's own tests: same data and
        model, one POI, a tiny population and two generations."""
        return replace(
            self,
            pois=1,
            ea={**self.ea, "population_size": 6, "max_generations": 2},
        )


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="forest_resilient",
            rows=450,
            columns={"n_continuous": 8},
            learner="random_forest",
            learner_params={"ntree": 60, "mtry": 3, "max_depth": 12},
            variants=(bench.BASE, bench.RESILIENT),
            pois=1,
        ),
        Workload(
            name="mixed_gower",
            rows=4500,
            columns={"n_continuous": 4, "n_integer": 4, "n_categorical": 4},
            learner="logistic",
            learner_params={},
            variants=(bench.BASE,),
            pois=2,
        ),
        Workload(
            name="cli_wide_population",
            rows=450,
            columns={"n_continuous": 6, "n_integer": 2},
            learner="logistic",
            learner_params={},
            variants=(bench.BASE, bench.RESILIENT),
            pois=1,
            ea={"population_size": 100},
            via_cli=True,
        ),
    )
}


@dataclass
class Triple:
    """One run_paired call: its timestamps, inputs and results (None if
    it raised). Holds no reference to the evaluation cache."""

    start: float
    end: float
    x_pt: tuple
    resilient: bool
    model: object
    train: object
    stats: tuple
    results: tuple | None


class TripleLog:
    """Timestamps every run_paired call and keeps what the output checks
    need. With a tracer, each call is also a 'triple' span; with probes,
    the host's speed is probed before each call."""

    def __init__(self, tracer=None, probes=None):
        self.tracer = tracer
        self.probes = probes
        self.triples = []
        self._run_paired = ea.run_paired

    def run(self, ctx, cfg):
        if self.probes is not None:
            self.probes.take()
        record = Triple(0.0, 0.0, ctx.x_pt, ctx.resilience, ctx.model, ctx.train, ctx.stats, None)
        span = (
            self.tracer.triple_span(len(self.triples))
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        self.triples.append(record)
        with span:
            record.start = clock()
            try:
                record.results = self._run_paired(ctx, cfg)
            finally:
                record.end = clock()
        return record.results

    @contextlib.contextmanager
    def wrapping_bench(self):
        """Route lexcf.bench.run_paired through this log, then restore it."""
        original = vars(bench)["run_paired"]
        self._run_paired = original
        bench.run_paired = self.run
        try:
            yield
        finally:
            bench.run_paired = original
            if vars(bench)["run_paired"] is not original:
                raise RuntimeError("lexcf.bench.run_paired was not restored")


@dataclass
class Round:
    """Timings and outputs of one round."""

    start: float
    end: float
    triples: list
    expected_triples: int
    records: list
    aggregates: dict | None
    error: str | None = None
    sample: int = 0  # which POI sample the round drew
    traced: bool = False
    sha: str | None = None  # canonical records hash
    failed: int = 0  # triples that raised or failed an output check
    spans: list = field(default_factory=list)
    cli_outputs: dict = field(default_factory=dict)
    model_inputs: tuple | None = None  # (model, test split, stats) for the microbenchmark
    probes: hostspeed.Probes = field(default_factory=hostspeed.Probes)
    windows: list = field(init=False)  # (start, end) of each triple that returned
    resilient: list = field(init=False)  # and whether it ran the resilient variant
    first: float = field(init=False)  # start of the first triple
    last: float = field(init=False)  # end of the last triple

    def __post_init__(self):
        done = [t for t in self.triples if t.results is not None]
        self.windows = [(t.start, t.end) for t in done]
        self.resilient = [t.resilient for t in done]
        self.first = self.triples[0].start if self.triples else self.end
        self.last = self.triples[-1].end if self.triples else self.end

    def timings(self, scaled=True):
        """(setup_s, search_s, wall_s, triple latencies) of the round,
        less probe time; scaled, at the reference host speed. Set-up runs
        to the first triple's start, search from there to the last
        triple's end."""
        seconds = self.probes.seconds
        return (
            seconds(self.start, self.first, scaled),
            max(seconds(self.first, self.last, scaled), 1e-9),
            seconds(self.start, self.end, scaled),
            [seconds(a, b, scaled) for a, b in self.windows],
        )

    def release(self):
        """Drop the data, model and results once checked, so that memory
        does not grow with the number of rounds."""
        self.triples = []
        self.model_inputs = None


def record_of(poi_index, variant, strategy, result):
    """Raw record in the layout lexcf bench writes to records.ndjson."""
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


def run_round(w, seed, sample, inputs, traced):
    """One round of workload w drawing POI sample `sample`; inputs is
    what prepare_inputs returned."""
    probes = hostspeed.Probes()
    probes.take()
    tracer = install_lexcf(Tracer()) if traced else None
    # traced rounds probe only around the round, so that the search
    # window of their spans holds no probe
    log = TripleLog(tracer, None if traced else probes)
    try:
        if w.via_cli:
            experiment = _write_experiment(w, seed, sample, inputs["work_dir"])
            with log.wrapping_bench():
                rnd = _cli_round(w, experiment, inputs["out_dir"], log)
        else:
            rnd = _library_round(w, seed, sample, log)
    finally:
        if tracer is not None:
            tracer.restore()
    probes.take()
    rnd.sample, rnd.traced, rnd.probes = sample, traced, probes
    if tracer is not None:
        rnd.spans = tracer.spans
    return rnd


def _failed_round(w, start, log, exc):
    traceback.print_exception(exc, file=sys.stderr)
    return Round(
        start=start,
        end=clock(),
        triples=log.triples,
        expected_triples=w.pois * len(w.variants),
        records=[],
        aggregates=None,
        error="%s: %s" % (type(exc).__name__, exc),
    )


def _library_round(w, seed, sample, log):
    """Set-up and search through lexcf's Python API, as a library user
    would call it, then the program's own aggregation of the records."""
    start = clock()
    try:
        dataset = data.generate_synthetic(w.rows, seed, **w.columns)
        train, test = data.split_dataset(dataset, test_cap=1.0 / 3.0, seed=seed)
        stats = data.compute_feature_stats(train)
        learner = model.LearnerConfig(
            w.learner, dict(w.learner_params), seed=bench.stable_seed(seed, "train")
        )
        mdl = model.train_model(train, learner)
        rng = np.random.default_rng(bench.stable_seed(seed, w.name, sample, "poi-sample"))
        pois = bench.sample_points_of_interest(mdl, test, w.pois, rng)
        records = []
        for index, poi in enumerate(pois):
            triple_seed = bench.stable_seed(seed, w.name, sample, index)
            for variant in w.variants:
                resilient = variant == bench.RESILIENT
                ctx = objectives.EvalContext(poi, mdl, train, stats, resilience=resilient)
                results = log.run(ctx, w.ea_config(resilience=resilient, seed=triple_seed))
                for strategy, result in zip(ea.STRATEGIES, results):
                    records.append(record_of(index, variant, strategy, result))
        aggregates = bench.aggregate_records(
            records, ea.STRATEGIES, w.variants, w.ea_config().theta
        )
    except Exception as exc:  # a failed round is counted, not fatal
        return _failed_round(w, start, log, exc)
    rnd = Round(start, clock(), log.triples, len(pois) * len(w.variants), records, aggregates)
    rnd.model_inputs = (mdl, test, stats)
    return rnd


def _cli_round(w, experiment, out_dir, log):
    """lexcf bench, then lexcf compare in both modes, all in-process."""
    outputs = {}
    start = clock()
    try:
        for key, argv in (
            ("bench", ["bench", "--config", experiment, "--out", out_dir]),
            ("lex", ["compare", "--runs", out_dir, "--mode", "lex"]),
            ("pareto", ["compare", "--runs", out_dir, "--mode", "pareto"]),
        ):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError("lexcf %s exited with %d" % (" ".join(argv), code))
            outputs[key] = buffer.getvalue()
    except Exception as exc:  # a failed round is counted, not fatal
        return _failed_round(w, start, log, exc)
    end = clock()
    records = bench.read_records(os.path.join(out_dir, "records.ndjson"))
    rnd = Round(start, end, log.triples, w.pois * len(w.variants), records, None)
    rnd.cli_outputs = outputs
    return rnd


def model_inputs(w, rnd, inputs):
    """(model, test split, stats) of a finished round, for the model
    microbenchmark; None when the round trained no model."""
    if rnd.model_inputs is not None or not w.via_cli or not rnd.triples:
        return rnd.model_inputs
    # lexcf bench keeps its split to itself; the split is deterministic,
    # so redo it from the same files
    ds_cfg = data.load_dataset_config(inputs["dataset"])
    _, test = data.split_dataset(
        data.load_configured_dataset(ds_cfg), ds_cfg.test_cap, ds_cfg.split_seed
    )
    first = rnd.triples[0]
    return first.model, test, first.stats


def prepare_inputs(w, seed, work_dir):
    """Write the data files a CLI workload reads, derived from the seed:
    a CSV with a few rows carrying a missing token and a dataset YAML
    with one non-actionable feature."""
    if not w.via_cli:
        return {}
    os.makedirs(work_dir, exist_ok=True)
    dataset = data.generate_synthetic(w.rows, seed, **w.columns)
    names = [f.name for f in dataset.schema]
    rng = np.random.default_rng(bench.stable_seed(seed, w.name, "missing"))
    holed = {int(r): int(rng.integers(len(names) + 1)) for r in rng.choice(w.rows, 5, replace=False)}
    with open(os.path.join(work_dir, "data.csv"), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + ["label"])
        for r, inst in enumerate(dataset.instances):
            cells = [repr(v) for v in inst.values] + [str(inst.label)]
            if r in holed:
                cells[holed[r]] = "?"
            writer.writerow(cells)
    dataset_cfg = {
        "name": w.name,
        "csv": "data.csv",
        "class_column": "label",
        "positive_label": "1",
        "test_cap": 150,
        "split_seed": seed,
        "non_actionable": [names[0]],
        "features": [{"name": f.name, "kind": f.kind} for f in dataset.schema],
    }
    paths = {
        "work_dir": work_dir,
        "dataset": os.path.join(work_dir, "dataset.yaml"),
        "out_dir": os.path.join(work_dir, "out"),
    }
    with open(paths["dataset"], "w", encoding="utf-8") as handle:
        yaml.safe_dump(dataset_cfg, handle, sort_keys=False)
    return paths


def _write_experiment(w, seed, sample, work_dir):
    """The experiment YAML of one round; its master seed picks the POIs."""
    path = os.path.join(work_dir, "experiment-%d.yaml" % sample)
    experiment_cfg = {
        "dataset": "dataset.yaml",
        "learner": w.learner,
        "learner_params": dict(w.learner_params),
        "max_pois": w.pois,
        "master_seed": bench.stable_seed(seed, w.name, sample),
        "variants": list(w.variants),
        "ea": dict(w.ea),
    }
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(experiment_cfg, handle, sort_keys=False)
    return path
