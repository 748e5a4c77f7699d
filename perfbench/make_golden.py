"""Regenerate ``perfbench/golden.json`` with the golden ``reference`` engine.

Every benchmark run compares its outputs against this file: the
``SimStats.to_dict()`` of each sweep and serve job, for both source
slots, and the bytes of every report section table.  The reference
engine is the repository's golden model, so the file pins what any
faster engine must reproduce.  It only needs regenerating when the
benchmark's inputs change, never for a change that claims a speed-up.

Usage (from the repository root; takes several minutes)::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Worker processes the reference-engine sweeps run on.
WORKERS = 2


def _sweep(jobs) -> dict:
    from repro.api import LocalSession
    with LocalSession(num_workers=WORKERS, engine="reference") as session:
        outcome = session.sweep(jobs)
    return {common.job_key(job): stats.to_dict()
            for job, stats in zip(outcome.jobs, outcome.stats)}


def _report() -> dict:
    from repro.api import LocalSession
    from repro.bench.report import REPORT_SECTIONS
    scratch = Path(tempfile.mkdtemp(dir=common.work_dir()))
    os.environ["REPRO_ENGINE"] = "reference"
    try:
        with common.scale_env(common.SMALL_SCALE), LocalSession(
                cache_dir=scratch / "cache", num_workers=WORKERS) as session:
            session.report(scratch / "results")
        return {key: (scratch / "results" / f"{key}.txt").read_text()
                for key, _ in REPORT_SECTIONS}
    finally:
        os.environ.pop("REPRO_ENGINE", None)
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    common.prepare_env()
    from repro.sweep.cache import code_version

    jobs: dict = {}
    for slot in range(common.SOURCE_SLOTS):
        print(f"frontier + serve jobs, slot {slot}", flush=True)
        jobs.update(_sweep(common.frontier_jobs(common.sources(
            common.load_graphs(None), slot))))
        jobs.update(_sweep(common.serve_jobs(common.sources(
            common.load_graphs(common.SMALL_SCALE), slot))))
    print("pagerank jobs", flush=True)
    jobs.update(_sweep(common.pagerank_jobs()))
    print("report sections", flush=True)
    golden = {"engine": "reference", "code_version": code_version(),
              "jobs": jobs, "report": _report()}
    common.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True)
                                  + "\n")
    print(f"wrote {common.GOLDEN_PATH}: {len(jobs)} jobs, "
          f"{len(golden['report'])} report sections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
