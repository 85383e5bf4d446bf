"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

``bench/run.py`` runs one workload and prints its result; ``python -m
bench run|compare`` runs sets of them and compares two sets.  See
``bench/README.md``.
"""

from pathlib import Path

#: the checkout the benchmark measures (``src/`` holds the program).
ROOT = Path(__file__).resolve().parent.parent

#: the seed every claim is made on, and the one held out for checking it.
DEFAULT_SEED = 42
HELD_OUT_SEED = 1337
