"""The repository's one benchmark: eight workloads over the whole Debuglet stack.

Run from the repository root::

    python3 -m bench --workload market_batched --seed 0 --seconds 10 --trace 0

``bench/README.md`` documents the workloads, metrics and the layer trace.
Nothing in here is imported by ``src/``; the benchmark drives the program
through its public API only.
"""
