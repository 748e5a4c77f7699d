"""The daemon's resident execution pool.

The whole point of ``repro serve`` is that workers survive across
jobs: each worker process resolves a :class:`~repro.sweep.jobs.GraphSpec`
once (the executor's per-process ``_GRAPH_MEMO``) and then reuses the
loaded CSR for every later job naming the same spec — R-MAT generation
is the dominant cold-start cost of small sweeps.

Two modes behind one interface:

* ``workers >= 1`` — a :class:`concurrent.futures.ProcessPoolExecutor`
  of N long-lived processes (fork context when available), each primed
  at spawn with the code-version digest and the compiled march kernel,
  so no worker hashes the source tree or opens (or compiles) the
  kernel on the job path.  A worker that dies mid-job (a crash in the
  kernel, an OOM kill) breaks the whole executor: the pool is
  respawned, and every job that was in it reruns alone in a fresh
  process, so only the job that kills its process fails, with a
  :class:`~repro.errors.ServeError`.
* ``workers == 0`` (or pool creation fails — no ``/dev/shm``, fork
  denied) — inline mode: jobs run on a single daemon-side thread.  The
  graph memo is process-global, so warmth is preserved; this is also
  the mode tests use to intercept execution deterministically.

``run(job)`` returns an :class:`asyncio.Future` resolving to
``(SimStats, wall_seconds)``; the pool never touches the cache — claim
handling and write-back belong to the scheduler.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import time
from concurrent.futures.process import BrokenProcessPool

from repro.accel.engine import soakernel
from repro.errors import ServeError
from repro.sweep.cache import code_version
from repro.sweep.jobs import SweepJob


def _prime_worker() -> None:
    """Worker-process initializer: pay one-time costs off the job path."""
    code_version()
    soakernel.load_kernel()


def _timed_execute(job: SweepJob):
    # late import through the module (not `from ... import execute_job`)
    # so monkeypatched executors are honoured in inline/thread mode
    from repro.sweep import executor
    t0 = time.perf_counter()
    stats = executor.execute_job(job)
    return stats, time.perf_counter() - t0


class WorkerPool:
    """N resident worker processes (or one inline thread) running jobs."""

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        self.requested = workers
        self._pool: concurrent.futures.Executor | None = None
        self.size = 1
        self.mode = "inline"
        #: executors replaced after a worker died in them
        self.respawns = 0
        # reruns after a worker death are bounded like the pool itself:
        # a broken pool may have held many queued jobs, and each rerun
        # is one more process
        self._isolated = asyncio.Semaphore(max(workers, 1))
        self._start()

    @staticmethod
    def _process_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_prime_worker)

    def _start(self) -> None:
        if self.requested >= 1:
            try:
                self._pool = self._process_pool(self.requested)
                self.size = self.requested
                self.mode = "process"
                return
            except (OSError, ImportError):
                pass                      # fall through to inline mode
        # inline: one thread keeps the daemon loop responsive while a
        # job simulates; the graph memo lives in this process
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-worker")
        self.size = 1
        self.mode = "inline"

    async def run(self, job: SweepJob, loop: asyncio.AbstractEventLoop):
        """Run one job; returns ``(SimStats, wall_seconds)``."""
        pool = self._pool
        if pool is None:
            raise ServeError("worker pool is closed")
        try:
            return await loop.run_in_executor(pool, _timed_execute, job)
        except BrokenProcessPool:
            # a worker died under this job or under one beside it; the
            # executor cannot say which, so later jobs get a fresh pool
            # and this one reruns where a crash can only be its own
            self._respawn(pool)
        return await self._run_isolated(job, loop)

    def _respawn(self, broken: concurrent.futures.Executor) -> None:
        if self._pool is not broken:
            return                        # another job already did it
        broken.shutdown(wait=False, cancel_futures=True)
        self.respawns += 1
        self._start()

    async def _run_isolated(self, job: SweepJob,
                            loop: asyncio.AbstractEventLoop):
        async with self._isolated:
            solo = self._process_pool(1)
            try:
                return await loop.run_in_executor(solo, _timed_execute, job)
            except BrokenProcessPool:
                raise ServeError(
                    f"worker process died while running {job.describe()} "
                    "(crashed or was killed; rerun alone, it died again)"
                    ) from None
            finally:
                solo.shutdown(wait=False)

    def recycle(self) -> None:
        """Tear down and respawn the workers (the ``reload`` request).

        Resident graph memos and any state spawned under the previous
        code generation die with the old processes; inline mode clears
        the in-process memo explicitly for the same effect.
        """
        self.close()
        if self.mode == "inline":
            from repro.sweep import executor
            executor._GRAPH_MEMO.clear()
        self._start()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
