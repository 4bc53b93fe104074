import numpy as np
import pytest

from lexcf.data import CATEGORICAL, CONTINUOUS, INTEGER, FeatureSchema
from lexcf.errors import ConfigError, InvariantViolation
from lexcf.objectives import EvalContext
from lexcf.ea import (
    Candidate,
    EAConfig,
    GenerationTrace,
    LEX_DISTANCE_FIRST,
    LEX_SPARSITY_FIRST,
    PARETO,
    STRATEGIES,
    check_candidate,
    crossover,
    init_population,
    mutate,
    run_ea,
    run_paired,
)
from lexcf.ea import _child_seed, _dedup_pad, _mutable_indices, _sample_value
from lexcf.selection import nondominated_sort, pareto_dominates

from conftest import ThresholdModel, make_dataset, make_stats, numeric_schema

SCHEMA = (
    FeatureSchema("x", CONTINUOUS),
    FeatureSchema("n", INTEGER),
    FeatureSchema("k", CATEGORICAL, categories=("a", "b", "c")),
    FeatureSchema("fixed", CONTINUOUS, actionable=False),
)
STATS = make_stats([(0.0, 100.0), (0, 5), ("a", "b", "c"), (0.0, 1.0)])
X_PT = (10.0, 2.0, "a", 0.5)


def _train(rng, n=40):
    rows = [
        [rng.uniform(0, 100), float(rng.integers(0, 6)), ("a", "b", "c")[rng.integers(3)],
         rng.uniform(0, 1)]
        for _ in range(n)
    ]
    return make_dataset(SCHEMA, rows, [0] * n)


def _context(rng, resilience=False):
    # positive once x climbs to 30; the point of interest sits below it
    model = ThresholdModel(SCHEMA, 0, 30.0, positive_below=False)
    return EvalContext(X_PT, model, _train(rng), STATS, resilience=resilience)


def test_ea_config_validation():
    with pytest.raises(ConfigError):
        EAConfig(population_size=1)
    with pytest.raises(ConfigError):
        EAConfig(max_generations=0)
    with pytest.raises(ConfigError):
        EAConfig(crossover_prob=1.5)
    with pytest.raises(ConfigError):
        EAConfig(strategy="random_walk")
    with pytest.raises(ConfigError):
        EAConfig(theta=-0.1)
    with pytest.raises(ConfigError, match="population_size"):
        EAConfig(population_size=4, k=5)
    assert EAConfig(population_size=4, k=4).k == 4
    for wrong in ({"population_size": "a"}, {"k": True}, {"theta": "low"}, {"resilience": 1}):
        with pytest.raises(ConfigError, match=next(iter(wrong))):
            EAConfig(**wrong)
    assert EAConfig().strategy == LEX_DISTANCE_FIRST
    # numpy scalars are numbers too
    assert EAConfig(seed=np.int64(3), theta=np.float64(0.5)).seed == 3


def test_mutable_indices_skip_degenerate_features():
    schema = (
        FeatureSchema("a", CONTINUOUS),
        FeatureSchema("b", CONTINUOUS, actionable=False),
        FeatureSchema("c", CONTINUOUS),                      # zero range
        FeatureSchema("d", CATEGORICAL, categories=("x", "y")),
        FeatureSchema("e", CATEGORICAL, categories=("x", "y")),  # one observed
    )
    stats = make_stats([(0, 1), (0, 1), (3, 3), ("x", "y"), ("x",)])
    assert _mutable_indices(schema, stats) == [0, 3]


def test_sample_value_bounds_and_exclusion(rng):
    feat = FeatureSchema("n", INTEGER)
    st = make_stats([(0, 5)])[0]
    for _ in range(50):
        v = _sample_value(feat, st, rng)
        assert 0.0 <= v <= 5.0 and v == int(v)
    cat = FeatureSchema("k", CATEGORICAL, categories=("a", "b"))
    cst = make_stats([("a", "b")])[0]
    for _ in range(20):
        assert _sample_value(cat, cst, rng, exclude="a") == "b"
    # exclusion is best-effort: a single category falls back to itself
    one = make_stats([("a",)])[0]
    assert _sample_value(cat, one, rng, exclude="a") == "a"


def test_init_population_differs_and_respects_constraints(rng):
    cfg = EAConfig(population_size=30)
    pop = init_population(X_PT, SCHEMA, STATS, cfg, rng)
    assert len(pop) == 30
    for values in pop:
        assert values != X_PT
        assert values[3] == X_PT[3]  # non-actionable untouched
        check_candidate(values, X_PT, SCHEMA, STATS)


def test_init_population_requires_mutable_feature(rng):
    cfg = EAConfig()
    frozen = tuple(
        FeatureSchema(f.name, f.kind, False, f.categories) for f in SCHEMA
    )
    with pytest.raises(ConfigError):
        init_population(X_PT, frozen, STATS, cfg, rng)
    degenerate = (FeatureSchema("x", CONTINUOUS),)
    with pytest.raises(ConfigError):
        init_population((1.0,), degenerate, make_stats([(1, 1)]), cfg, rng)


def test_init_population_deterministic():
    cfg = EAConfig()
    a = init_population(X_PT, SCHEMA, STATS, cfg, np.random.default_rng(4))
    b = init_population(X_PT, SCHEMA, STATS, cfg, np.random.default_rng(4))
    assert a == b


def test_crossover_gate():
    cfg = EAConfig(crossover_prob=0.0)
    a = (1.0, 2.0, "a", 0.5)
    b = (9.0, 4.0, "c", 0.5)
    for seed in range(10):
        assert crossover(a, b, SCHEMA, cfg, np.random.default_rng(seed)) == (a, b)


def test_crossover_conserves_genes_per_position(rng):
    cfg = EAConfig(crossover_prob=1.0)
    a = (1.0, 2.0, "a", 0.5)
    b = (9.0, 4.0, "c", 0.5)
    swapped_somewhere = False
    for _ in range(30):
        c1, c2 = crossover(a, b, SCHEMA, cfg, rng)
        for i in range(len(SCHEMA)):
            assert {c1[i], c2[i]} == {a[i], b[i]}
        if c1 != a:
            swapped_somewhere = True
    assert swapped_somewhere


def test_crossover_never_touches_non_actionable(rng):
    cfg = EAConfig(crossover_prob=1.0)
    a = (1.0, 2.0, "a", 0.1)
    b = (9.0, 4.0, "c", 0.9)
    for _ in range(40):
        c1, c2 = crossover(a, b, SCHEMA, cfg, rng)
        assert c1[3] == 0.1 and c2[3] == 0.9


def test_mutate_identity_when_disabled(rng):
    cfg = EAConfig(mutation_prob=0.0, reset_prob=0.0)
    values = (42.0, 3.0, "b", 0.5)
    for _ in range(10):
        assert mutate(values, X_PT, SCHEMA, STATS, cfg, rng) == values


def test_mutate_respects_bounds_and_kinds(rng):
    cfg = EAConfig(mutation_prob=1.0, reset_prob=0.0)
    values = (42.0, 3.0, "b", 0.5)
    for _ in range(60):
        out = mutate(values, X_PT, SCHEMA, STATS, cfg, rng)
        assert 0.0 <= out[0] <= 100.0
        assert out[1] == int(out[1]) and 0 <= out[1] <= 5
        assert out[2] in ("a", "b", "c")
        assert out[3] == 0.5  # non-actionable never mutated


def test_mutate_reset_pass_restores_poi_genes(rng):
    cfg = EAConfig(mutation_prob=0.0, reset_prob=1.0)
    values = (42.0, 3.0, "b", X_PT[3])
    assert mutate(values, X_PT, SCHEMA, STATS, cfg, rng) == X_PT


def test_check_candidate_contract():
    check_candidate(X_PT, X_PT, SCHEMA, STATS)
    with pytest.raises(InvariantViolation):
        check_candidate((10.0, 2.0, "a", 0.9), X_PT, SCHEMA, STATS)  # non-actionable moved
    with pytest.raises(InvariantViolation):
        check_candidate((150.0, 2.0, "a", 0.5), X_PT, SCHEMA, STATS)  # out of bounds
    # an out-of-range value inherited from the point of interest is tolerated
    poi = (120.0, 2.0, "a", 0.5)
    check_candidate((120.0, 4.0, "a", 0.5), poi, SCHEMA, STATS)


def _cand(values, o1=0.0):
    return Candidate(tuple(values), (o1, 0.0, 0, 0.0), 0)


def test_dedup_pad_keeps_first_and_pads():
    a, b, c = _cand((1.0,)), _cand((2.0,)), _cand((1.0,), o1=0.9)
    pool = [a, b, c, a]
    # two distinct values; padding refills back up to the requested size
    got = _dedup_pad(pool, 3)
    assert got == [a, b, c]
    assert _dedup_pad(pool, 2) == [a, b]
    assert _dedup_pad([a, a, a], 2) == [a, a]


def test_run_ea_rejects_resilience_mismatch(rng):
    ctx = _context(rng, resilience=False)
    with pytest.raises(ConfigError):
        run_ea(ctx, EAConfig(resilience=True))


def test_run_ea_result_shape(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=12, max_generations=8, seed=3)
    result = run_ea(ctx, cfg)
    assert result.generations_executed == 8
    assert len(result.trace) == 9
    assert len(result.population) == 12
    assert isinstance(result.trace[0], GenerationTrace)
    assert result.genealogy is None
    # lex strategies return exactly one solution drawn from the population
    assert len(result.solutions) == 1
    assert result.solutions[0] in result.population


def test_run_ea_pareto_returns_front_zero(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=12, max_generations=8, strategy=PARETO, seed=3)
    result = run_ea(ctx, cfg)
    front = nondominated_sort(result.population)[0]
    assert list(result.solutions) == [result.population[i] for i in front]
    for s in result.solutions:
        assert not any(pareto_dominates(o.objectives, s.objectives) for o in result.population)


def test_run_ea_finds_valid_solution(rng):
    ctx = _context(rng)
    cfg = EAConfig(seed=5)
    result = run_ea(ctx, cfg)
    assert result.solutions[0].objectives[0] == 0.0
    x = result.solutions[0].values
    assert x[0] >= 30.0  # the only way to be classified positive


def test_run_ea_deterministic_per_seed(rng):
    ctx_a = _context(np.random.default_rng(12345))
    ctx_b = _context(np.random.default_rng(12345))
    cfg = EAConfig(population_size=10, max_generations=6, seed=9)
    ra = run_ea(ctx_a, cfg)
    rb = run_ea(ctx_b, cfg)
    assert ra.solutions == rb.solutions
    assert ra.trace == rb.trace
    rc = run_ea(ctx_a, EAConfig(population_size=10, max_generations=6, seed=10))
    assert rc.trace != ra.trace


def test_run_ea_trace_reflects_population(rng):
    ctx = _context(rng)
    result = run_ea(ctx, EAConfig(population_size=10, max_generations=5, seed=1))
    last = result.trace[-1]
    assert last.best_o1 == min(c.objectives[0] for c in result.population)
    assert last.mean_o2 == pytest.approx(
        np.mean([c.objectives[1] for c in result.population])
    )
    assert last.front_size == len(nondominated_sort(result.population)[0])


def test_run_ea_debug_genealogy(rng):
    ctx = _context(rng)
    cfg = EAConfig(population_size=10, max_generations=4, seed=6, debug=True)
    result = run_ea(ctx, cfg)
    assert result.genealogy is not None
    # initial population plus one batch of offspring per generation
    assert len(result.genealogy) == 10 * (4 + 1)
    for cand in result.genealogy:
        check_candidate(cand.values, ctx.x_pt, ctx.schema, ctx.stats)
    assert {c.generation for c in result.genealogy} == set(range(5))


def test_run_ea_resilient_solution_scores_negative(rng):
    ctx = _context(rng, resilience=True)
    cfg = EAConfig(seed=5, resilience=True)
    result = run_ea(ctx, cfg)
    # the model is monotone in x, so every valid solution is fully resilient
    assert result.solutions[0].objectives[0] == -1.0


def test_child_seeds_are_distinct_and_stable():
    seeds = {_child_seed(7, i) for i in range(3)}
    assert len(seeds) == 3
    assert _child_seed(7, 1) == _child_seed(7, 1)
    assert _child_seed(8, 1) != _child_seed(7, 1)


def test_run_paired_shares_generation_budget(rng):
    ctx = _context(rng)
    par, lex1, lex2 = run_paired(ctx, EAConfig(population_size=10, max_generations=12, seed=4))
    assert par.generations_executed == lex1.generations_executed == lex2.generations_executed == 12
    assert len(lex1.solutions) == 1 and len(lex2.solutions) == 1
    assert par.solutions  # front zero is never empty


def test_run_paired_strategies_use_distinct_seeds(rng):
    ctx = _context(rng)
    par, lex1, lex2 = run_paired(ctx, EAConfig(population_size=10, max_generations=6, seed=4))
    # same strategy config rerun reproduces identically
    par2, lex1_2, lex2_2 = run_paired(ctx, EAConfig(population_size=10, max_generations=6, seed=4))
    assert par.solutions == par2.solutions
    assert lex1.solutions == lex1_2.solutions
    assert lex2.solutions == lex2_2.solutions


def test_strategy_constants():
    assert STRATEGIES == (PARETO, LEX_DISTANCE_FIRST, LEX_SPARSITY_FIRST)
    assert PARETO == "par" and LEX_DISTANCE_FIRST == "lex1" and LEX_SPARSITY_FIRST == "lex2"
