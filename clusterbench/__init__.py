"""End-to-end benchmark of the private 1-cluster release.

Run one workload with::

    python3 clusterbench/run.py --workload service_mixed --seed 1 \
        --seconds 30 --trace 0

from the repository root.  ``BENCHMARK.json`` lists the workloads and the
metrics; :mod:`clusterbench.catalog` holds the same names plus the table of
which per-layer metric should move which end-to-end metric.
"""
