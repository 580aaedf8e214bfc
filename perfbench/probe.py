"""One fresh set-up, for ``setup_s``: imports, inputs, construction.

``python3 perfbench/probe.py <workload> <seed>`` prints ``ready`` once the
workload's repetition is set up; the caller times spawn to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print("ready", flush=True)
