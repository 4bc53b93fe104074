"""Outside-in tracing: spans at the program's module boundaries.

The tracer replaces public functions and methods of lexcf's modules with
timing wrappers, from the benchmark's side, and puts the originals back
afterwards. No file of the program changes. Spans stay in memory as
small lists and are written out after the run.
"""

import functools
import time
from contextlib import contextmanager

# fields of one span
NAME, START, END, PARENT, TRIPLE, COUNT = range(6)

TRIPLE_SPAN = "triple"


class Tracer:
    """Records spans [name, start, end, parent index, triple id, count].

    Parent is the index of the enclosing span (-1 at top level); triple
    is the id of the run_paired call the span ran inside (None outside).
    """

    def __init__(self):
        self.spans = []
        self.triple = None
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, measure=None, before=None):
        """Replace owner.attr (a module or class attribute defined on
        owner itself) by a span-recording wrapper.

        before(args) runs ahead of the call; measure(args, result, token)
        after it, with before's return value as token, and its value is
        stored as the span's count.
        """
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.triple, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[COUNT] = measure(args, result, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def triple_span(self, triple_id):
        """Span around one run_paired call; nested spans carry its id."""
        span = [TRIPLE_SPAN, 0.0, 0.0, self._stack[-1] if self._stack else -1, triple_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.triple = triple_id
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self.triple = None
            self._stack.pop()

    def restore(self):
        """Put every original back and check it by identity."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        left = [
            "%s.%s" % (getattr(owner, "__name__", owner), attr)
            for owner, attr, original in patches
            if vars(owner)[attr] is not original
        ]
        if left:
            raise RuntimeError("wrappers left in place: %s" % ", ".join(left))
        return len(patches)


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def _rows(args, result, token):
    return len(args[1])


def _cache_size(args):
    return len(args[1].cache)


def _candidates_fresh(args, result, before):
    return (len(args[0]), len(args[1].cache) - before)


def _generations(args, result, token):
    return result.generations_executed


def install_lexcf(tracer):
    """Wrap the public calls between lexcf's layers.

    ea.py and bench.py import their collaborators into their own
    namespaces, so those bindings are wrapped where they are looked up.
    """
    from lexcf import bench, cli, data, ea, model, objectives

    plain = [
        (data, "generate_synthetic", "data.load"),
        (bench, "load_configured_dataset", "data.load"),
        (data, "split_dataset", "data.split"),
        (bench, "split_dataset", "data.split"),
        (data, "compute_feature_stats", "data.stats"),
        (bench, "compute_feature_stats", "data.stats"),
        (model, "train_model", "model.train"),
        (bench, "train_model", "model.train"),
        (model.Model, "predict_class_batch", "model.predict_class"),
        (objectives.EvalContext, "__init__", "objectives.scan_build"),
        (objectives.EvalContext, "gower_to_poi", "objectives.gower_poi"),
        (objectives.TrainGowerScan, "min_mean_dist", "objectives.gower_train"),
        (ea, "init_population", "ea.init"),
        (ea, "mutate", "ea.mutate"),
        (ea, "crossover", "ea.crossover"),
        (ea, "lex_tournament_select", "selection.lex_tournament"),
        (ea, "lex_survival_select", "selection.lex_survival"),
        (ea, "crowded_tournament_select", "selection.crowded_tournament"),
        (ea, "nsga2_select", "selection.nsga2_survival"),
        (ea, "nondominated_sort", "selection.nondominated_sort"),
        (ea, "final_select_lex", "selection.final_select"),
        (bench, "sample_points_of_interest", "bench.poi_sample"),
        (bench, "aggregate_records", "bench.aggregate"),
        (cli, "aggregate_records", "bench.aggregate"),
        (bench, "write_records", "bench.report"),
        (cli, "emit_report", "bench.report"),
        (cli, "write_meta", "bench.report"),
        (cli, "read_records", "bench.report"),
        (cli, "load_experiment_config", "bench.config"),
        (cli, "run_experiment", "bench.experiment"),
        (cli, "main", "cli.main"),
    ]
    for owner, attr, name in plain:
        tracer.wrap(owner, attr, name)
    for cls in (model.LogisticModel, model.RandomForestModel):
        tracer.wrap(cls, "predict_proba_batch", "model.predict", measure=_rows)
    tracer.wrap(
        ea,
        "evaluate_population",
        "objectives.evaluate",
        measure=_candidates_fresh,
        before=_cache_size,
    )
    tracer.wrap(ea, "run_ea", "ea.run", measure=_generations)
    return tracer
