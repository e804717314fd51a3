"""The repo's two sets of books.

*Simulated cycles* (the paper's metric): ``bench_paper`` regenerates
every figure and table of the paper's evaluation into
``results/BENCH_paper.json``; ``bench_fpu_util`` and ``bench_tuning``
write the profiler's and the autotuner's view of the same kernels.
All three are deterministic, committed, and compared exactly by
``tests/test_results_ledger.py`` (run one with
``PYTHONPATH=src python -m benchmarks.bench_paper``).

*Host wall-clock* (what the Python system costs): ``benchmarks/e2e``,
declared by ``BENCHMARK.json`` — see its README.
"""
