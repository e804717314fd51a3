"""The repo's performance ledger: one end-to-end, per-layer benchmark.

Five workloads drive the compiler, the simulator, the tuner and the
compile service through their public API only; every run verifies what
it produced against the numpy oracle.  See ``README.md`` in this
directory for the metric tables and the measurement protocol, and the
root ``BENCHMARK.json`` for the machine-readable contract.
"""
