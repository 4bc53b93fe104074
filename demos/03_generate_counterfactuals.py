"""
Generating counterfactuals, three ways
======================================

One point of interest, one trained model, and the paired run that pits
Pareto survival against the two lexicographic priority orderings on an
identical generation budget.
"""

import numpy as np

from lexcf import (
    EAConfig,
    EvalContext,
    LearnerConfig,
    compute_feature_stats,
    generate_synthetic,
    run_paired,
    split_dataset,
    train_model,
)
from lexcf.bench import sample_points_of_interest, stable_seed

ds = generate_synthetic(450, seed=7)
train, test = split_dataset(ds, test_cap=1.0 / 3.0, seed=7)
stats = compute_feature_stats(train)
model = train_model(train, LearnerConfig("random_forest", {"ntree": 40, "mtry": 3}, seed=3))
print("model accuracy on test:", round(model.accuracy(test), 3))

# a point of interest is a test instance the model predicts negative
rng = np.random.default_rng(stable_seed(7, "demo"))
poi = sample_points_of_interest(model, test, 1, rng)[0]
print("POI prediction:", model.predict_class(poi.values))

ctx = EvalContext(poi, model, train, stats)
cfg = EAConfig(population_size=20, max_generations=50, seed=11)

# run_paired runs all three strategies for max_generations generations
# each, so comparisons between them are fair
par, lex1, lex2 = run_paired(ctx, cfg)
print("\ngenerations executed:", par.generations_executed)

# the Pareto run returns its whole nondominated front; each lexicographic
# run returns the single tournament-best solution
print("par:  %d solutions on the front" % len(par.solutions))
for name, result in (("lex1", lex1), ("lex2", lex2)):
    sol = result.solutions[0]
    o = sol.objectives
    changed = [
        "%s: %.2f -> %.2f" % (feat.name, a, b)
        for feat, a, b in zip(train.schema, poi.values, sol.values)
        if a != b
    ]
    print(
        "%s: validity %.3f  distance %.3f  changes %d  plausibility %.3f"
        % (name, o[0], o[1], o[2], o[3])
    )
    for line in changed:
        print("      " + line)

# the front trades validity against the other objectives; count how many
# of its members actually cross the decision boundary
valid = sum(1 for s in par.solutions if s.objectives[0] <= 0.0)
print("\nvalid members of the Pareto front: %d/%d" % (valid, len(par.solutions)))
print("(the lexicographic orderings put validity first, so their single")
print(" answer is valid whenever any valid candidate was found)")
