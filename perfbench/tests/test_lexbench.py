"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
output checks and a minimal-size run of every workload."""

import json
import sys
from dataclasses import replace
from types import SimpleNamespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import lexcf.bench  # noqa: E402
import lexcf.ea  # noqa: E402
from lexbench import checks, hostspeed, metrics, runner  # noqa: E402
from lexbench.tracing import Tracer, install_lexcf, self_times  # noqa: E402
from lexbench.workloads import WORKLOADS, Round, prepare_inputs, run_round  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _wrapped_bindings():
    """Every (owner, attribute) install_lexcf replaces, with its current value."""
    tracer = install_lexcf(Tracer())
    owners = [(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.restore()
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_self_time_subtracts_direct_children_only():
    # name, start, end, parent, triple, count
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["b", 5.0, 9.0, 0, None, None],
        ["b.inner", 6.0, 7.0, 2, None, None],
        ["other", 11.0, 12.5, -1, None, None],
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.5]


def test_tracer_nests_spans_and_survives_exceptions():
    class Owner:
        @staticmethod
        def outer(fail):
            Owner.inner()
            if fail:
                raise ValueError("boom")
            return 7

        @staticmethod
        def inner():
            return None

    tracer = Tracer()
    tracer.wrap(Owner, "outer", "outer", measure=lambda args, result, token: result)
    tracer.wrap(Owner, "inner", "inner")
    with tracer.triple_span(4):
        assert Owner.outer(False) == 7
        with pytest.raises(ValueError):
            Owner.outer(True)
    assert tracer.restore() == 2
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [
        ("triple", -1, 4, None),
        ("outer", 0, 4, 7),
        ("inner", 1, 4, None),
        ("outer", 0, 4, None),
        ("inner", 3, 4, None),
    ]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer.triple is None and not tracer._stack


def test_wrappers_are_removed_after_a_traced_round(tmp_path):
    before = _wrapped_bindings()
    assert len(before) > 30
    w = WORKLOADS["cli_wide_population"].smoke()
    rnd = run_round(w, 2, 0, prepare_inputs(w, 2, str(tmp_path)), traced=True)
    assert rnd.error is None and rnd.spans
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())
    assert lexcf.bench.run_paired is lexcf.ea.run_paired


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(30)]
    assert metrics.tail(xs) == (19.0, pytest.approx(100 * 20 / 30), 30)
    assert metrics.tail(xs[:10]) == (9.0, 100.0, 10)


def test_probes_scale_each_stretch_and_leave_out_probe_time():
    ref = hostspeed.REFERENCE_S
    probes = hostspeed.Probes()
    # probed at full speed before 0, at half speed in [4, 4.5] and after 10
    probes.marks = [(-0.1, 0.0, ref), (4.0, 4.5, 2 * ref), (10.0, 10.1, 2 * ref)]
    assert probes.seconds(0.0, 10.0, scaled=False) == pytest.approx(9.5)
    assert probes.seconds(0.0, 10.0) == pytest.approx(4.0 * 2 / 3 + 5.5 * 0.5)
    assert probes.seconds(5.0, 6.0) == pytest.approx(0.5)
    assert probes.seconds(11.0, 12.0) == pytest.approx(0.5)
    assert hostspeed.Probes().seconds(1.0, 3.0) == 2.0
    assert hostspeed.probe() > 0.0


def test_end_to_end_timings_come_from_the_probed_clock():
    ref = hostspeed.REFERENCE_S
    quality = dict.fromkeys(("lex_valid_frac", "par_valid_frac", "lex_wins_frac"), 0.5)
    rounds = []
    for speed in (1.0, 0.5):  # the same work, the second time on a host half as fast
        triples = [
            SimpleNamespace(start=1.0 / speed, end=2.0 / speed, results=(), resilient=False),
            SimpleNamespace(start=2.0 / speed, end=4.0 / speed, results=(), resilient=True),
        ]
        rnd = Round(0.0, 5.0 / speed, triples, 2, [], None)
        rnd.probes.marks = [(-1.0, 0.0, ref / speed), (20.0, 21.0, ref / speed)]
        rounds.append(rnd)
    scaled, _ = metrics.end_to_end(rounds, quality)
    raw, _ = metrics.end_to_end(rounds, quality, scaled=False)
    assert scaled["setup_s"][0] == pytest.approx(1.0)
    assert scaled["wall_s"][0] == pytest.approx(5.0)
    assert scaled["triples_per_s"][0] == pytest.approx(4 / 6.0)
    assert scaled["triple_p50_s"][0] == pytest.approx(1.5)
    assert raw["wall_s"][0] == pytest.approx(7.5)
    assert raw["triples_per_s"][0] == pytest.approx(4 / 9.0)
    # per variant: base 1.0 and 2.0, resilient 2.0 and 4.0
    assert raw["triple_p50_s"][0] == pytest.approx((1.5 + 3.0) / 2)


def test_checks_catch_a_tampered_objective():
    w = WORKLOADS["forest_resilient"].smoke()
    rnd = run_round(w, 4, 0, {}, traced=False)
    triple = rnd.triples[0]
    assert checks.check_triple(triple) == []
    par, lex1, lex2 = triple.results
    cand = lex1.solutions[0]
    o1, o2, o3, o4 = cand.objectives
    bad = replace(cand, objectives=(o1, o2 + 1e-12, o3, o4))
    triple.results = (par, replace(lex1, solutions=(bad,)), lex2)
    assert any("oracles give" in p for p in checks.check_triple(triple))
    triple.results = (par, replace(lex1, generations_executed=lex1.generations_executed + 1), lex2)
    assert any("budgets differ" in p for p in checks.check_triple(triple))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_listed_metric(workload, tmp_path):
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    before = _wrapped_bindings()
    # the traced run also checks its records against the untraced run's
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report, problems = runner.run(
            workload, 3, 0.0, trace, str(tmp_path), str(ROOT), smoke=True
        )
        assert problems == []
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert report["records_sha256"]
        missing = [m["name"] for m in spec[section] if m["name"] not in report[section]]
        assert missing == []
    assert all(vars(o)[a] is f for (o, a), f in before.items())
