"""Shared fixtures and tiny oracle models used across the test modules."""

import numpy as np
import pytest

from lexcf.data import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    Dataset,
    FeatureSchema,
    FeatureStats,
    Instance,
)
from lexcf.model import Model

# verdict lines appended by the acceptance gate, replayed after capture
# teardown so each criterion's PASS/FAIL reaches the terminal
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def numeric_schema(n, prefix="num", actionable=True):
    return tuple(FeatureSchema("%s%d" % (prefix, i), CONTINUOUS, actionable) for i in range(n))


def make_stats(bounds):
    """FeatureStats from a list of (lower, upper) or a category tuple."""
    stats = []
    for b in bounds:
        if isinstance(b, tuple) and b and isinstance(b[0], str):
            stats.append(FeatureStats(categories=b))
        else:
            stats.append(FeatureStats(lower=float(b[0]), upper=float(b[1])))
    return tuple(stats)


def make_dataset(schema, rows, labels=None):
    instances = [
        Instance(tuple(row), None if labels is None else int(labels[i]))
        for i, row in enumerate(rows)
    ]
    return Dataset(schema, instances)


class ConstantModel(Model):
    """Always returns the same probability."""

    learner_name = "constant"

    def __init__(self, schema, p):
        self.schema = tuple(schema)
        self.p = float(p)

    def predict_proba_batch(self, rows):
        return np.full(len(rows), self.p)


class ThresholdModel(Model):
    """Positive while one feature stays at or below a cutoff (or above, when
    flipped); a handcrafted step-function oracle."""

    learner_name = "threshold"

    def __init__(self, schema, feature_index, cutoff, positive_below=True):
        self.schema = tuple(schema)
        self.feature_index = feature_index
        self.cutoff = float(cutoff)
        self.positive_below = positive_below

    def predict_proba_batch(self, rows):
        col = np.array([row[self.feature_index] for row in rows], dtype=float)
        hit = col <= self.cutoff if self.positive_below else col >= self.cutoff
        return np.where(hit, 0.9, 0.1)


class CountingModel(Model):
    """Wraps another model and counts batch calls and evaluated rows."""

    def __init__(self, inner):
        self.inner = inner
        self.schema = inner.schema
        self.calls = 0
        self.rows = 0

    def predict_proba_batch(self, rows):
        self.calls += 1
        self.rows += len(rows)
        return self.inner.predict_proba_batch(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
