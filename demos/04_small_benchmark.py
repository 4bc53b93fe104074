"""
A desk-scale benchmark run
==========================

Ten points of interest, both validity variants, all three strategies;
aggregates printed and the full report emitted to disk.
"""

import os
import tempfile

from lexcf import STRATEGIES, ExperimentConfig, run_experiment, emit_report
from lexcf.bench import write_meta, write_records
from lexcf.data import DatasetConfig, FeatureSchema
from lexcf.ea import EAConfig

schema = tuple(FeatureSchema("num%d" % i, "continuous") for i in range(6))
cfg = ExperimentConfig(
    dataset=DatasetConfig(
        csv_path="",
        class_column="label",
        positive_label="1",
        schema=schema,
        test_cap=1.0 / 3.0,
        split_seed=5,
        name="synth6",
        synthetic={"n": 360, "seed": 5, "continuous": 6},
    ),
    learner="random_forest",
    learner_params={"ntree": 30, "mtry": 3},
    max_pois=10,
    master_seed=5,
    ea=EAConfig(population_size=20, max_generations=30, seed=0),
)

report = run_experiment(cfg)
print("dataset %s, %d POIs" % (report.dataset_id, report.poi_count))
print("model: %s" % report.model_info)

# validity per strategy, pooled over solutions (micro) and averaged
# per POI (macro)
for variant in report.variants:
    cells = report.aggregates["validity"][variant]
    row = "  ".join(
        "%s %5.1f%%/%5.1f%%" % (s, 100 * cells[s]["micro"], 100 * cells[s]["macro"])
        for s in STRATEGIES
    )
    print("%-9s validity (micro/macro):  %s" % (variant, row))

# win/loss/tie of each lexicographic strategy against the Pareto front,
# judged under the lexicographic comparison itself
for variant in report.variants:
    for strat in ("lex1", "lex2"):
        w, l, t = report.aggregates["wlt_lex"][variant][strat]
        print("%-9s %s vs par (lex order): W%d L%d T%d" % (variant, strat, w, l, t))

out_dir = tempfile.mkdtemp(prefix="lexcf_bench_")
write_records(report.records, os.path.join(out_dir, "records.ndjson"))
emit_report(report, out_dir)
write_meta(report, out_dir)
print("\nreport written to", out_dir)
print(sorted(os.listdir(out_dir)))
