"""``repro serve`` with the daemon's cache layer traced per ticket.

Runs the package's own CLI entry point after wrapping, from outside,
the calls a request's daemon time splits into: cache keys, cache reads
and cache writes.  Each ticket's spans carry its id, so the benchmark
can attribute them to the client request that ticket answered.  When
the daemon stops, the per-ticket totals are written to the first
argument as JSON.

Usage (started by ``workloads.Daemon``)::

    python3 perfbench/traced_daemon.py OUT.json serve --socket S ...
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def per_ticket(spans, hits: dict) -> dict:
    """Seconds, call counts and cache hits per ticket id."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, ticket in spans:
        if ticket is None:
            continue
        out[ticket][name] += end - start
        out[ticket][name + ".calls"] += 1
    for ticket, amount in hits.items():
        out[ticket]["sweep.cache_hits"] += amount
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = Path(argv[0]), argv[1:]
    from repro.cli import main as cli_main
    from repro.serve.scheduler import Scheduler
    from repro.sweep.cache import ResultCache
    from repro.sweep.jobs import SweepJob

    tracer = Tracer()
    hits: dict = defaultdict(float)

    def hit_probe(*args, **kwargs):
        def on_exit(index, result):
            hits[tracer.spans[index][4]] += result is not None
        return on_exit

    tracer.patch_method(SweepJob, "cache_key", "sweep.cache_key")
    tracer.patch_method(ResultCache, "get", "sweep.cache_get", hit_probe)
    tracer.patch_method(ResultCache, "put", "sweep.cache_put")

    run_jobs = Scheduler.run_jobs

    @functools.wraps(run_jobs)
    async def traced_run_jobs(self, jobs, ticket=None):
        with tracer.request(None if ticket is None else ticket.id):
            return await run_jobs(self, jobs, ticket=ticket)

    Scheduler.run_jobs = traced_run_jobs
    try:
        return cli_main(cli_args)
    finally:
        Scheduler.run_jobs = run_jobs
        tracer.uninstall()
        out_path.write_text(json.dumps(per_ticket(tracer.spans, hits)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
