"""Set-up probe: import entroplex and finish one warm-up item, then exit.

The benchmark times this script from outside as a fresh process, so its wall
time is what a user pays before the first answer:

    python3 bench/setup_probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import entroplex  # noqa: E402,F401  (the import is what is measured)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warmup()
