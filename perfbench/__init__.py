"""Repository benchmark: four serve workloads timed on two clocks.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
``perfbench/README.md`` explains the workloads, metrics and layers.
"""
