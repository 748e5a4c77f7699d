"""One set-up probe: a fresh interpreter runs a workload's set-up and
prints ``ready``; the caller times spawn to that line.

Usage (started by ``workloads.probe_setup``)::

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(workload: str, seed: int) -> None:
    common.prepare_env()
    import workloads
    workloads.setup_workload(workload, common.source_slot(seed))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
