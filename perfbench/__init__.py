"""End-to-end and per-layer benchmark of the ``repro`` package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload, each in its own process.  See ``perfbench/README.md``.
"""
