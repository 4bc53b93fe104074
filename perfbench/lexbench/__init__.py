"""The lexcf performance benchmark: workloads, output checks and an
outside-in span tracer. The entry point is perfbench/run.py."""
