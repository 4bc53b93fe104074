"""
Datasets, splits, and black-box training
========================================

Generate a mixed synthetic dataset, split it, train both built-in
learners, and round-trip a model through its JSON container.
"""

import os
import tempfile

from lexcf import (
    LearnerConfig,
    compute_feature_stats,
    generate_synthetic,
    load_model,
    save_model,
    split_dataset,
    train_model,
    tune_random_search,
)

# a small mixed table: 6 continuous, 2 integer, 2 categorical features
ds = generate_synthetic(600, seed=42, n_continuous=6, n_integer=2, n_categorical=2)
print("dataset: %d rows, %d features" % (len(ds), len(ds.schema)))
print("features:", ", ".join("%s(%s)" % (f.name, f.kind) for f in ds.schema))

# datasets at or under 1500 rows use a one-third test split
train, test = split_dataset(ds, test_cap=1.0 / 3.0, seed=42)
print("split: %d train / %d test" % (len(train), len(test)))

# feature statistics come from the training split only; they drive both
# Gower normalization and the bounds of the counterfactual search
stats = compute_feature_stats(train)
for feat, st in list(zip(train.schema, stats))[:3]:
    print("  %-6s lower=%.2f upper=%.2f" % (feat.name, st.lower, st.upper))

# train the two built-in learners with fixed hyperparameters
for learner, params in (
    ("logistic", {"learning_rate": 0.1, "epochs": 300}),
    ("random_forest", {"ntree": 40, "mtry": 3}),
):
    model = train_model(train, LearnerConfig(learner, params, seed=7))
    print("%-14s test accuracy %.3f" % (learner, model.accuracy(test)))

# or let random search pick hyperparameters by cross-validation
best_cfg = tune_random_search("random_forest", train, n_trials=5, seed=7)
print("tuned forest:", best_cfg.params)

# models serialize to a JSON container carrying a schema fingerprint,
# so a model can refuse data it was not trained for
model = train_model(train, best_cfg)
path = os.path.join(tempfile.mkdtemp(prefix="lexcf_demo_"), "model.json")
save_model(model, path)
reloaded = load_model(path)
print("reloaded %s, accuracy %.3f" % (reloaded.learner_name, reloaded.accuracy(test)))
