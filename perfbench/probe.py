"""Set-up probe: import halfscatter and make the workload's first calls, then exit.

run.py times this script in a fresh interpreter to measure ``setup_s``.

    python3 perfbench/probe.py --workload verify --seed 1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402 - needs the source tree on sys.path

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    WORKLOADS[args.workload](args.seed).warmup()
