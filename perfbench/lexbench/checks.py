"""Output checks, run after each round and outside its timed section.

Every returned solution must pass the program's constraint check and
carry exactly the objectives the scalar oracles recompute; the three
strategies of a triple must have spent the same generation budget; and
the records of every round of a run must hash to the same sha256.
"""

import hashlib
import json

import numpy as np

from lexcf import bench, ea, objectives
from lexcf.errors import InvariantViolation

STRATEGY_RANK = {s: i for i, s in enumerate(ea.STRATEGIES)}

# Logistic prediction is a matrix product whose rounding depends on the
# batch it is computed in, so a probability recomputed for one row can
# differ from the batched one in the last bits. Validity of such models is
# compared within this many machine epsilons; every other objective, and
# validity of tree models (integer votes over a fixed tree count), must
# match exactly.
BATCH_ROUNDING_EPS = 16


def canonical_sha(records):
    """sha256 of the records in a fixed order and a fixed JSON form."""
    rows = sorted(
        records, key=lambda r: (r["variant"], r["poi"], STRATEGY_RANK[r["strategy"]])
    )
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def oracle_objectives(values, triple):
    """The four objectives of one solution from the scalar oracles."""
    schema = triple.train.schema
    p_hat = triple.model.predict_proba(values)
    if triple.resilient and p_hat >= 0.5:
        report = objectives.resilience_scores(
            values, triple.x_pt, triple.model, schema, triple.stats
        )
        o1 = objectives.obj_validity_resilient(p_hat, report)
    else:
        o1 = objectives.obj_validity(p_hat)
    return (
        o1,
        objectives.obj_distance(values, triple.x_pt, schema, triple.stats),
        objectives.obj_sparsity(values, triple.x_pt, schema),
        objectives.obj_plausibility(values, triple.train, schema, triple.stats),
    )


def _validity_matches(got, want, triple):
    if got == want:
        return True
    if triple.model.learner_name == "random_forest":
        return False
    return abs(got - want) <= BATCH_ROUNDING_EPS * np.finfo(float).eps


def check_triple(triple):
    """Problems found in one triple, as messages (empty when it passed)."""
    problems = []
    budgets = [r.generations_executed for r in triple.results]
    if len(set(budgets)) != 1:
        problems.append("generation budgets differ: %s" % budgets)
    schema = triple.train.schema
    for strategy, result in zip(ea.STRATEGIES, triple.results):
        if not result.solutions:
            problems.append("%s returned no solution" % strategy)
        for cand in result.solutions:
            try:
                ea.check_candidate(cand.values, triple.x_pt, schema, triple.stats)
            except InvariantViolation as exc:
                problems.append("%s: %s" % (strategy, exc))
            want = oracle_objectives(cand.values, triple)
            got = tuple(cand.objectives)
            if got[1:] != want[1:] or not _validity_matches(got[0], want[0], triple):
                problems.append("%s: objectives %r, oracles give %r" % (strategy, got, want))
    return problems


def check_records_match(rnd):
    """The CLI's records.ndjson holds exactly what run_paired returned, in
    the order it was called."""
    expected = [
        (sol.values, tuple(sol.objectives), r.generations_executed)
        for t in rnd.triples
        for r in t.results or ()
        for sol in r.solutions
    ]
    found = [
        (tuple(s["values"]), tuple(s["objectives"]), rec["generations"])
        for rec in rnd.records
        for s in rec["solutions"]
    ]
    return [] if found == expected else ["records.ndjson differs from the returned solutions"]


def check_compare_tables(rnd, aggregates, variants):
    """lexcf compare printed the win-loss-tie cells of the records."""
    problems = []
    for mode, key in (("lex", "wlt_lex"), ("pareto", "wlt_pareto")):
        printed = rnd.cli_outputs.get(mode, "")
        for variant in variants:
            cells = [
                "" if aggregates[key][variant].get(s) is None
                else "%d; %d; %d" % tuple(aggregates[key][variant][s])
                for s in bench.LEX_STRATEGIES
            ]
            row = "| %s | %s |" % (variant, " | ".join(cells))
            if row not in printed.splitlines():
                problems.append("compare --mode %s lacks row %r" % (mode, row))
    return problems


def quality(aggregates, variants):
    """Validity shares and the lexicographic win share (paper criteria 5
    and 6) from the program's own aggregation of the records; zeros when
    no round produced one."""
    valid = {"lex": [0, 0], "par": [0, 0]}
    if aggregates is None:
        aggregates = {"validity": {v: {} for v in variants}, "wlt_lex": {}}
    for variant in variants:
        for strategy, cell in aggregates["validity"][variant].items():
            group = valid["par" if strategy == "par" else "lex"]
            group[0] += cell["valid"]
            group[1] += cell["returned"]
    wins = pairs = 0
    for wlt in aggregates["wlt_lex"].get(bench.BASE, {}).values():
        if wlt is not None:
            wins += wlt[0]
            pairs += sum(wlt)
    return {
        "lex_valid_frac": valid["lex"][0] / valid["lex"][1] if valid["lex"][1] else 0.0,
        "par_valid_frac": valid["par"][0] / valid["par"][1] if valid["par"][1] else 0.0,
        "lex_wins_frac": wins / pairs if pairs else 0.0,
    }
