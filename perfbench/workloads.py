"""The four benchmark workloads and the layer shims of traced runs.

Each workload function takes a :class:`Run` and returns its metrics.
End-to-end metrics are measured on untraced passes only, and each
timed unit of them is followed by calibration slices that scale it to
the reference host's speed (``calibrate.py``); a traced run alternates
untraced and traced passes of the same work, takes the layer numbers
from the traced ones (unscaled) and reports the wall-time difference as
``trace.overhead_frac``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import common
from calibrate import Calibrator, normalise
from measure import Failures, best_total, bests, median, percentile
from spans import Tracer

#: Setup is measured in this many fresh processes per run (median).
SETUP_PROBES = 5
#: Fewest cold passes (serve: cycles) per run, whatever the time
#: budget: enough repeats for each job or request to have a burst-free one.
MIN_COLD_PASSES = {"frontier_sweep": 3, "pagerank_sweep": 3,
                   "serve_mixed": 5}
#: Fewest traced (and as many untraced) passes in a traced run.
TRACED_MIN_PASSES = 2
#: Cold regenerations per report run (each is seconds long).
MIN_COLD_REGENS = 2
#: Fewest warm regenerations (milliseconds each) in a report run, and
#: the fewest seconds they run for after the cold ones.
MIN_WARM_REGENS = 40
MIN_WARM_SECONDS = 2.0
DAEMON_SETUP_SAMPLES = 3
PHASE_SPANS = ("accel.scatter", "accel.march", "accel.replay")


class Run:
    """One benchmark run: budget, golden outputs, failure count, tracer."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, golden: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.slot = common.source_slot(seed)
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.golden = golden
        self.failures = Failures()
        self.calibrator = Calibrator()
        self.walls: dict[tuple[str, bool], list[float]] = defaultdict(list)
        #: whether the compiled march kernel loaded (None: not used)
        self.kernel_loaded = None
        self._budget_start = time.perf_counter()
        self._scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                              dir=common.work_dir()))

    # ------------------------------------------------------------------
    def scratch(self, name: str) -> Path:
        """A fresh directory for this run (removed by :meth:`close`)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self._scratch))

    def close(self) -> None:
        shutil.rmtree(self._scratch, ignore_errors=True)

    def calibrate(self, seconds: float) -> float:
        """Speed factor of a unit that took ``seconds``, from slices run
        right after it.  A traced run reports no end-to-end times, so it
        runs no slices (they would lengthen its untraced passes and skew
        ``trace.overhead_frac``) and returns 1."""
        return 1.0 if self.tracer else self.calibrator.after(seconds)

    def normalised(self, seconds: float) -> float:
        """Calibrate after a unit that took ``seconds``; its time on the
        reference host."""
        return normalise(seconds, self.calibrate(seconds))

    def unit_progress(self):
        """``(factors, on_progress)`` for a serial sweep: after each job
        it reports, ``on_progress`` calibrates and appends the job's
        speed factor, in job order."""
        factors: list[float] = []
        mark = time.perf_counter()

        def on_progress(done, total, description) -> None:
            nonlocal mark
            factors.append(self.calibrate(time.perf_counter() - mark))
            mark = time.perf_counter()
        return factors, on_progress

    def start_budget(self) -> None:
        self._budget_start = time.perf_counter()

    def plan(self, minimum: int, min_seconds: float = 0.0):
        """Pass schedule: ``(index, traced)`` until the budget is spent,
        with at least ``minimum`` passes over at least ``min_seconds``.

        Untraced runs measure every pass; traced runs alternate
        untraced and traced passes so both see the same machine state.
        """
        needed = 2 * TRACED_MIN_PASSES if self.tracer else minimum
        start = time.perf_counter()
        index = 0
        while (index < needed
               or time.perf_counter() - self._budget_start < self.seconds
               or time.perf_counter() - start < min_seconds):
            yield index, bool(self.tracer) and index % 2 == 1
            index += 1

    @contextlib.contextmanager
    def setup(self):
        """In-process set-up, traced as the ``setup`` root in traced runs."""
        if self.tracer is None:
            yield
            return
        install_layers(self.tracer)
        try:
            with self.tracer.root("setup"):
                yield
        finally:
            self.tracer.uninstall()

    @contextlib.contextmanager
    def measure(self, kind: str, traced: bool, pass_id=None,
                shims: bool = True):
        """Time one pass.  A traced pass installs the layer shims and
        records spans under a ``kind`` root, unless ``shims`` is False
        (the serve client threads open their own roots).

        After the pass, untimed, the cyclic garbage it left is collected,
        so every pass starts from the same heap: otherwise peak RSS grows
        with the number of passes that fit in the budget (a cold sweep
        leaves tens of MB of cycles) and a pass pays for its
        predecessors' collections.
        """
        try:
            if not traced:
                t0 = time.perf_counter()
                yield
                self.walls[(kind, False)].append(time.perf_counter() - t0)
                return
            if shims:
                install_layers(self.tracer)
            try:
                t0 = time.perf_counter()
                with (self.tracer.root(kind, request=pass_id) if shims
                      else contextlib.nullcontext()):
                    yield
                self.walls[(kind, True)].append(time.perf_counter() - t0)
            finally:
                self.tracer.uninstall()
        finally:
            gc.collect()

    def overhead_frac(self) -> float:
        """Traced over plain pass time, summed over pass kinds, minus 1."""
        kinds = [k for k, _ in self.walls
                 if self.walls[(k, True)] and self.walls[(k, False)]]
        traced = sum(median(self.walls[(k, True)]) for k in set(kinds))
        plain = sum(median(self.walls[(k, False)]) for k in set(kinds))
        return traced / plain - 1.0 if plain else 0.0

    def check_jobs(self, jobs, stats_list) -> None:
        for job, stats in zip(jobs, stats_list):
            key = common.job_key(job)
            self.failures.check_stats(self.golden["jobs"], key,
                                      stats.to_dict())


# ----------------------------------------------------------------------
# Layer shims (traced runs only)
# ----------------------------------------------------------------------

def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls each per-layer metric is timed at."""
    from repro.accel.engine import batched, registry, soa, soakernel
    from repro.algorithms.base import Algorithm
    from repro.bench import regen, report
    from repro.graph import datasets
    from repro.sweep import cache, executor, jobs

    tracer.patch_function(datasets.load, "graph.load")
    tracer.patch_function(soakernel.load_kernel, "accel.kernel_load")
    tracer.patch_function(soakernel._build, "accel.kernel_compile")
    tracer.patch_function(registry.make_engine, "accel.engine_init")
    tracer.patch_function(executor.execute_job, "accel.run")
    for cls in (batched.BatchedEngine, soa.SoaEngine):
        tracer.patch_method(cls, "scatter_phase", "accel.scatter",
                            _phase_probe(tracer))
    for cls in _algorithm_classes(Algorithm):
        if "apply" in vars(cls):
            tracer.patch_method(cls, "apply", "algorithms.apply")
    tracer.patch_function(executor.run_sweep, "sweep.run")
    tracer.patch_method(jobs.SweepJob, "cache_key", "sweep.cache_key")
    tracer.patch_method(cache.ResultCache, "get", "sweep.cache_get",
                        _hit_probe(tracer))
    tracer.patch_method(cache.ResultCache, "put", "sweep.cache_put")
    tracer.patch_function(regen.regenerate, "bench.regen")
    tracer.patch_function(report.build_report, "bench.build_report")


def _algorithm_classes(base) -> list[type]:
    """``base`` and every subclass, each once."""
    seen: list[type] = []
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return seen


def _hit_probe(tracer: Tracer):
    def probe(*args, **kwargs):
        def on_exit(index, result):
            tracer.count("sweep.cache_hits", result is not None)
        return on_exit
    return probe


def _phase_probe(tracer: Tracer):
    """Classify each scatter phase as marched or replayed.

    The batched window memo bumps ``FFWD_TELEMETRY`` ``windows`` (and
    ``partial_windows``) exactly when it replays a phase, so the change
    across the call tells the two apart from outside the engine.
    """
    from repro.accel.engine import FFWD_TELEMETRY

    def probe(engine, active, sprop_all, identity, stats):
        windows = FFWD_TELEMETRY["windows"]
        partial = FFWD_TELEMETRY["partial_windows"]
        cycles = stats.scatter_cycles
        edges = stats.edges_processed

        def on_exit(index, result):
            span = tracer.spans[index]
            replayed = FFWD_TELEMETRY["windows"] > windows
            span[0] = "accel.replay" if replayed else "accel.march"
            parent = span[3]
            if parent is not None and tracer.spans[parent][0] in PHASE_SPANS:
                return          # an engine delegating to its base class
            if getattr(engine, "phase_memo", None) is not None:
                tracer.count("accel.memo_phases")
            if replayed:
                tracer.count("accel.replayed_phases")
                tracer.count("accel.partial_replays",
                             FFWD_TELEMETRY["partial_windows"] > partial)
            else:
                tracer.count("accel.marched_phases")
                tracer.count("accel.march_cycles",
                             stats.scatter_cycles - cycles)
                tracer.count("accel.march_edges",
                             stats.edges_processed - edges)
        return on_exit
    return probe


# ----------------------------------------------------------------------
# Set-up (shared by the in-process run and the set-up probes)
# ----------------------------------------------------------------------

SRC_KERNEL = common.SRC / "repro" / "accel" / "engine" / "_soa_march.c"


def kernel_digest() -> str:
    """Digest of the march kernel source, as its compiled-cache name uses."""
    import hashlib
    return hashlib.sha256(SRC_KERNEL.read_bytes()).hexdigest()[:16]


def setup_workload(workload: str, slot: int):
    """Everything between interpreter start and the first measured pass.

    Returns the workload's job list (None for ``report_regen``) and
    whether the compiled march kernel loaded (None for the workloads on
    the default engine, which do not use it).
    """
    from repro.accel.engine.soakernel import load_kernel
    from repro.sweep.cache import code_version
    code_version()
    if workload == "report_regen":
        return None, None
    if workload == "serve_mixed":
        graphs = common.load_graphs(common.SMALL_SCALE)
        return common.serve_jobs(common.sources(graphs, slot)), None
    loaded = load_kernel() is not None
    graphs = common.load_graphs(None)
    if workload == "frontier_sweep":
        return common.frontier_jobs(common.sources(graphs, slot)), loaded
    return common.pagerank_jobs(), loaded


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(common.BENCH_DIR / "setup_probe.py"),
           workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=common.ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed ({code})")
    return elapsed


def setup_seconds(run: Run) -> float:
    """Median set-up time of fresh interpreters, on the reference host."""
    return median([run.normalised(probe_setup(run.workload, run.seed))
                   for _ in range(SETUP_PROBES)])


# ----------------------------------------------------------------------
# Model metrics (simulated and exact: a speed-up change must not move them)
# ----------------------------------------------------------------------

def model_metrics(items) -> dict[str, float]:
    """``items``: (group, config label, SimStats) per distinct job."""
    by_group: dict = defaultdict(dict)
    cycles = edges = conflicts = 0
    for group, config, stats in items:
        by_group[group][config] = stats
        cycles += stats.total_cycles
        edges += stats.edges_processed
        conflicts += (stats.offset_deferrals + stats.edge_conflicts
                      + stats.propagation_conflicts)
    speedups = [g["HiGraph"].speedup_over(g["GraphDynS"])
                for g in by_group.values()
                if "HiGraph" in g and "GraphDynS" in g]
    return {"model.sim_cycles": cycles, "model.edges": edges,
            "model.conflicts": conflicts,
            "model.higraph_speedup_mean":
                sum(speedups) / len(speedups) if speedups else 0.0,
            "model.higraph_speedup_max": max(speedups, default=0.0)}


def job_items(jobs, stats_list):
    from repro.sweep.jobs import graph_fingerprint
    for job, stats in zip(jobs, stats_list):
        group = (graph_fingerprint(job.graph), job.algorithm,
                 json.dumps(job.algorithm_kwargs, sort_keys=True), job.source)
        yield group, job.tags.get("config"), stats


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def sweep_workload(run: Run) -> dict:
    """``frontier_sweep`` / ``pagerank_sweep``: cold in-process soa sweeps
    (no result cache), repeated for the run's budget; a job is the unit."""
    from repro.api import LocalSession

    setup_s = setup_seconds(run)
    with run.setup():
        jobs, loaded = setup_workload(run.workload, run.slot)
    run.kernel_loaded = loaded
    if not loaded:
        raise SystemExit("perfbench: the compiled march kernel did not load "
                         "(load_kernel() is None); soa would run as batched")

    run.start_budget()
    per_job, outcome = defaultdict(list), None
    with LocalSession(engine="soa") as session:
        for index, traced in run.plan(MIN_COLD_PASSES[run.workload]):
            factors, on_progress = run.unit_progress()
            try:
                with run.measure("cold", traced, index):
                    outcome = session.sweep(
                        jobs, on_progress=None if traced else on_progress)
            except Exception as exc:    # counted; the next pass goes on
                run.failures.error(f"sweep pass {index}", exc)
                continue
            run.check_jobs(jobs, outcome.stats)
            if not traced:
                # serial and uncached: jobs finish in job order
                for i, seconds in enumerate(outcome.job_seconds):
                    per_job[i].append(normalise(seconds, factors[i]))
    if not per_job:
        raise SystemExit("perfbench: no sweep pass completed")
    cold_s = best_total(per_job)
    latencies = [1e3 * s for s in bests(per_job)]
    edges = sum(s.edges_processed for s in outcome.stats)
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "sim_medges_per_s": edges / cold_s / 1e6,
        "peak_rss_mb": _self_peak_rss_mb(),
        "_samples": len(latencies),
        "_model": model_metrics(job_items(jobs, outcome.stats)),
    }


def report_workload(run: Run) -> dict:
    """``report_regen``: cold regenerations of every section, each into an
    empty cache and an empty graph memo, then warm regenerations that
    only read the last cache, for the rest of the run's budget.  A
    section (plus the rendering after the last section) is the unit."""
    from repro.api import LocalSession
    from repro.bench.report import REPORT_SECTIONS
    from repro.sweep.executor import _GRAPH_MEMO

    setup_s = setup_seconds(run)
    with run.setup():
        setup_workload(run.workload, run.slot)
    sections = [key for key, _ in REPORT_SECTIONS]

    def regenerate(session, results, kind, traced, index):
        """One regeneration, checked against the goldens.

        Returns None if it raised; else, for an untraced pass, its times
        on the reference host.  A cold regeneration is timed per section
        (plus the rendering after the last one), calibrating as each
        section ends; a warm one is timed whole and calibrates once, at
        its end: its sections take about a millisecond each, too short
        to time one by one."""
        timed: list[tuple[str, float]] = []
        per_section = kind == "cold" and not traced
        start = 0.0

        def finished(record) -> None:
            # the next section starts after this one's calibration
            nonlocal start
            timed.append((record["section"],
                          run.normalised(time.perf_counter() - start)))
            start = time.perf_counter()

        try:
            with run.measure(kind, traced, index):
                begin = start = time.perf_counter()
                session.report(results, on_progress=finished if per_section
                               else None)
                end = time.perf_counter()
        except Exception as exc:        # counted; the next pass goes on
            run.failures.error(f"{kind} regeneration {index}", exc)
            return None
        for key in sections:
            try:
                text = (results / f"{key}.txt").read_text()
            except OSError as exc:
                run.failures.error(key, exc)
                continue
            run.failures.check(text == run.golden["report"].get(key),
                               f"report section {key} differs")
        if traced:
            return []
        if per_section:
            return timed + [("render", run.normalised(end - start))]
        return [("regeneration", run.normalised(end - begin))]

    run.start_budget()
    cold: dict = defaultdict(list)
    warm: list[float] = []
    runs: dict = {}
    session = None
    # traced runs regenerate cold once plain, once traced
    cold_plan = [False, True] if run.tracer else [False] * MIN_COLD_REGENS
    with common.scale_env(common.SMALL_SCALE):
        for index, traced in enumerate(cold_plan):
            if session is not None:
                session.close()
            cache_dir, results = run.scratch("cache"), run.scratch("results")
            # a fresh `repro report` process builds every graph it sweeps
            _GRAPH_MEMO.clear()
            session = LocalSession(cache_dir=cache_dir)
            timed = regenerate(session, results, "cold", traced, index)
            if timed is not None and not traced:
                runs = _cached_runs(cache_dir)
                for key, seconds in timed:
                    cold[key].append(seconds)
        for index, traced in run.plan(MIN_WARM_REGENS, MIN_WARM_SECONDS):
            timed = regenerate(session, results, "warm", traced, index)
            warm += [seconds for _, seconds in timed or []]
        session.close()

    if not cold or not warm:
        raise SystemExit("perfbench: no cold or no warm regeneration "
                         "completed")
    sections_ms = [1e3 * s for s in bests(cold)]
    cold_s = best_total(cold)
    edges = sum(stats.edges_processed for stats in runs.values())
    return {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "p50_ms": 1e3 * median(warm),
        "p95_ms": percentile(sections_ms, 95),
        "sim_medges_per_s": edges / cold_s / 1e6,
        "peak_rss_mb": _self_peak_rss_mb(),
        "_samples": len(sections_ms),
        "_warm_regens": len(warm),
        "_model": model_metrics(_report_items(runs.values())),
    }


def _cached_runs(cache_dir: Path) -> dict:
    """Stats of every job a cold regeneration simulated, by cache key."""
    from repro.sweep.cache import ResultCache
    cache = ResultCache(cache_dir)
    return {entry.key: cache.get(entry.key) for entry in cache.entries()}


def _report_items(runs):
    """Model items of a regeneration's jobs, grouped by algorithm and
    graph: a group holding exactly one GraphDynS and one HiGraph run (the
    Fig. 8 matrix) yields a HiGraph speed-up; ablation sweeps that vary a
    design under the same name leave ambiguous labels, which are dropped.
    """
    runs = list(runs)
    names = defaultdict(int)
    for s in runs:
        names[(s.algorithm, s.graph_name, s.config_name)] += 1
    return [((s.algorithm, s.graph_name),
             s.config_name if names[(s.algorithm, s.graph_name,
                                     s.config_name)] == 1 else None, s)
            for s in runs]


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

class Daemon:
    """A ``repro serve`` subprocess on a fresh cache, stopped by ``shutdown``."""

    def __init__(self, run: Run, traced: bool, tag: str) -> None:
        self.cache_dir = run.scratch("serve-cache")
        self.socket = os.path.relpath(self.cache_dir / "s.sock", common.ROOT)
        self.spans_path = self.cache_dir / "spans.json" if traced else None
        serve = ["serve", "--socket", self.socket,
                 "--jobs", str(common.SERVE_WORKERS),
                 "--cache-dir", str(self.cache_dir / "cache")]
        if traced:
            cmd = [sys.executable, str(common.BENCH_DIR / "traced_daemon.py"),
                   str(self.spans_path), *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        self.log = open(self.cache_dir / f"daemon-{tag}.log", "w")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, cwd=common.ROOT, text=True,
                                         stdout=subprocess.PIPE,
                                         stderr=self.log)
        except OSError:
            self.log.close()
            raise
        try:
            for line in self.proc.stdout:
                if line.strip() == "ready":
                    break
            else:
                raise RuntimeError(f"serve daemon exited: {self.proc.wait()}")
            from repro.api import RemoteSession
            self.session = RemoteSession(self.socket, timeout=120)
            self.session.ping()
        except BaseException:
            self.kill()
            raise
        self.spawn_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and its worker processes."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        try:
            self.session.client.shutdown()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def ticket_layers(self) -> dict:
        """Per-ticket cache-layer seconds and counts the traced daemon
        wrote when it stopped."""
        if self.spans_path is None or not self.spans_path.is_file():
            return {}
        return json.loads(self.spans_path.read_text())


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _vm_hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def serve_stream(run: Run, daemon: Daemon, pool: list, stream: list[int],
                 traced: bool, pass_id: int) -> list[dict]:
    """Closed loop: each client thread keeps one single-job request out.

    Every response is checked against the golden stats; an exception
    counts as a failed request and the client moves on.
    """
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    records: list[dict] = []
    tracer = run.tracer if traced else None

    def client() -> None:
        with (tracer.root("cold", request=pass_id) if tracer
              else contextlib.nullcontext()):
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                job = pool[stream[i]]
                try:
                    record = _request(daemon, job, tracer, i)
                except Exception as exc:   # counted; the stream goes on
                    with lock:
                        run.failures.error(f"request {i}", exc)
                    continue
                with lock:
                    run.failures.check_stats(run.golden["jobs"],
                                             common.job_key(job),
                                             record["stats"].to_dict())
                    records.append(record)

    threads = [threading.Thread(target=client)
               for _ in range(common.SERVE_CLIENTS)]
    with run.measure("cold", traced, shims=False):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records


def _request(daemon: Daemon, job, tracer, request_id: int) -> dict:
    span = None
    if tracer is None:
        t0 = time.perf_counter()
        outcome = daemon.session.sweep([job])
        rtt = time.perf_counter() - t0
    else:
        with tracer.request(request_id), \
                tracer.span("serve.transport") as span:
            outcome = daemon.session.sweep([job])
        rtt = tracer.spans[span][2] - tracer.spans[span][1]
    return {"index": request_id, "job": job, "stats": outcome.stats[0],
            "rtt": rtt, "wall": outcome.wall_seconds,
            "exec": sum(outcome.job_seconds),
            "executed": outcome.executed, "hits": outcome.cache_hits,
            "deduped": outcome.extra.get("deduped", 0),
            "ticket": outcome.extra.get("ticket"), "span": span}


#: Daemon-side layers, traced per ticket by ``traced_daemon.py``.
DAEMON_LAYERS = ("sweep.cache_key", "sweep.cache_get", "sweep.cache_put")


def attribute_daemon_time(tracer: Tracer, records, by_ticket: dict) -> None:
    """Split each traced request's round trip into layer spans.

    The daemon reports its wall time and the worker's execution time per
    ticket, and the traced daemon its cache calls per ticket.  They
    become synthetic child spans of the request span, whose remaining
    self time is transport: socket, codec and client.
    """
    for record in records:
        parent = record["span"]
        start = tracer.spans[parent][1]
        daemon = by_ticket.get(record["ticket"], {})
        cache_s = 0.0
        for name in DAEMON_LAYERS:
            seconds = daemon.get(name, 0.0)
            _child(tracer, parent, name, start, seconds)
            cache_s += seconds
        _child(tracer, parent, "serve.exec", start, record["exec"])
        _child(tracer, parent, "serve.daemon_overhead", start,
               max(record["wall"] - record["exec"] - cache_s, 0.0))
        root = tracer.root_of(parent)
        for name, amount in (
                ("sweep.cache_gets", daemon.get("sweep.cache_get.calls", 0)),
                ("sweep.cache_puts", daemon.get("sweep.cache_put.calls", 0)),
                ("sweep.cache_hits", daemon.get("sweep.cache_hits", 0)),
                ("serve.requests", 1),
                ("serve.executed", record["executed"]),
                ("serve.cache_hits", record["hits"]),
                ("serve.deduped", record["deduped"])):
            tracer.counts[(root, name)] += amount


def _child(tracer: Tracer, parent: int, name: str, start: float,
           duration: float) -> None:
    tracer.spans.append([name, start, start + duration, parent,
                         tracer.spans[parent][4]])


def serve_workload(run: Run) -> dict:
    """``serve_mixed``: a seeded request stream over the fig8 jobs against
    a fresh ``repro serve`` daemon and cache, once per cycle, for the
    run's budget.  ``cold_s`` is the median cycle.  A request of the
    stream (its index) is the unit of the percentiles: every cycle sends
    request ``i`` into the same state, an empty cache filled by the same
    stream, and its best round trip is its fastest over the cycles.

    The daemon and its workers run while no slices can (they would
    compete for the same cores), so a cycle is calibrated by the slices
    on either side of it: its speed factor is the mean of the factors
    before its spawn and after its stop, and its wall time and round
    trips are scaled by it."""
    probes = [run.normalised(probe_setup(run.workload, run.seed))
              for _ in range(SETUP_PROBES)]
    with run.setup():
        pool, _ = setup_workload(run.workload, run.slot)
    stream = common.request_stream(run.seed, len(pool))

    run.start_budget()
    spawns, rss, cycles, by_index = [], [], [], defaultdict(list)
    before = run.calibrator.run_factor()    # the probes' slices
    traced_records, by_ticket = [], {}
    distinct: dict = {}
    for index, traced in run.plan(MIN_COLD_PASSES[run.workload]):
        daemon = Daemon(run, traced, str(index))
        try:
            spawns.append(normalise(daemon.spawn_s, before))
            records = serve_stream(run, daemon, pool, stream, traced, index)
            rss.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()
        for record in records:
            distinct.setdefault(common.job_key(record["job"]), record)
        if traced:
            tickets = daemon.ticket_layers()
            attribute_daemon_time(run.tracer, records, tickets)
            traced_records += records
            by_ticket.update(tickets)
        else:
            wall = run.walls[("cold", False)][-1]
            after = run.calibrate(wall)
            factor, before = (before + after) / 2, after
            cycles.append(normalise(wall, factor))
            for record in records:
                by_index[record["index"]].append(
                    normalise(record["rtt"], factor))
    while len(spawns) < DAEMON_SETUP_SAMPLES:
        daemon = Daemon(run, False, f"setup{len(spawns)}")
        daemon.stop()
        spawns.append(run.normalised(daemon.spawn_s))

    if not by_index:
        raise SystemExit("perfbench: no serve request completed")
    answered = list(distinct.values())
    latencies = [1e3 * s for s in bests(by_index)]
    # a cycle simulates every job of the pool once
    cold_s = median(cycles)
    edges = sum(r["stats"].edges_processed for r in answered)
    return {
        "setup_s": median(probes) + median(spawns),
        "cold_s": cold_s,
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "sim_medges_per_s": edges / cold_s / 1e6,
        "peak_rss_mb": max(rss),
        "_samples": len(latencies),
        "_model": model_metrics(job_items([r["job"] for r in answered],
                                          [r["stats"] for r in answered])),
        "_serve_ms": (_serve_split_ms(traced_records, by_ticket)
                      if traced_records else {}),
    }


def _serve_split_ms(records, by_ticket: dict) -> dict:
    """Mean per-request transport / daemon overhead / execution, in ms."""
    n = len(records)
    transport = sum(r["rtt"] - r["wall"] for r in records)
    execute = sum(r["exec"] for r in records)
    cache = sum(by_ticket.get(r["ticket"], {}).get(name, 0.0)
                for r in records for name in DAEMON_LAYERS)
    overhead = sum(r["wall"] for r in records) - execute - cache
    return {"serve.transport_ms": 1e3 * transport / n,
            "serve.daemon_overhead_ms": 1e3 * overhead / n,
            "serve.exec_ms": 1e3 * execute / n}


WORKLOADS = {
    "frontier_sweep": sweep_workload,
    "pagerank_sweep": sweep_workload,
    "report_regen": report_workload,
    "serve_mixed": serve_workload,
}
