"""Benchmark harness regenerating every table and figure of the paper's
evaluation (one ``bench_<figure or table>.py`` per experiment; README.md
"Tests and benchmarks" has the commands)."""
