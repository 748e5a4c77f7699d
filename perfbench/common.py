"""Paths, environment and workload inputs shared by every benchmark script.

The benchmark runs from the root of a source checkout and touches
nothing outside it: scratch files (result caches, report directories,
the compiled-kernel cache, serve sockets) live under the build
directory, ``$CARGO_TARGET_DIR`` when set, else ``.bench_build``.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Environment variables that change what the package does; scrubbed so
#: a caller's shell cannot silently change the measured configuration.
REPRO_ENV = ("REPRO_ENGINE", "REPRO_SCALE", "REPRO_JOBS", "REPRO_CACHE_DIR",
             "REPRO_SOA_KERNEL", "REPRO_SOA_RECORD", "REPRO_SOA_CACHE")

#: Seeds map onto this many golden input sets: slot 0 holds the default
#: seed's inputs, slot 1 a held-out set no tuning looked at.
SOURCE_SLOTS = 2

FRONTIER_ALGORITHMS = ("BFS", "SSSP", "SSWP")
PR_ITERATIONS = 10
#: Dataset scale of the report and serve workloads (the sweeps use the
#: package's per-dataset bench scales).
SMALL_SCALE = "0.01"
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_REQUESTS = 300
#: High-out-degree vertices a source is drawn from: every one of them
#: sits in the giant component, so seeds change the source, not the
#: amount of work.
SOURCE_CANDIDATES = 64


def work_dir() -> Path:
    path = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare_env() -> None:
    """Pin the package environment and make ``src`` importable.

    Exits with status 2 when the checkout holds no package source, so a
    directory with only the benchmark files fails instead of reporting.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for name in REPRO_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_SOA_CACHE"] = str(work_dir() / "soa")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def scale_env(value: str | None):
    """Set ``$REPRO_SCALE`` (None: unset) for the duration."""
    previous = os.environ.pop("REPRO_SCALE", None)
    if value is not None:
        os.environ["REPRO_SCALE"] = value
    try:
        yield
    finally:
        os.environ.pop("REPRO_SCALE", None)
        if previous is not None:
            os.environ["REPRO_SCALE"] = previous


def source_slot(seed: int) -> int:
    return seed % SOURCE_SLOTS


def pick_source(graph, dataset_index: int, slot: int) -> int:
    """Deterministic traversal source for one dataset and input slot."""
    import numpy as np
    degree = graph.out_degree()
    order = np.lexsort((np.arange(degree.size), -degree))
    candidates = order[:SOURCE_CANDIDATES]
    rng = np.random.default_rng([slot, dataset_index])
    return int(candidates[rng.integers(candidates.size)])


def load_graphs(scale: str | None) -> dict:
    """Load each Table 2 dataset once at ``scale`` (None: bench scales)
    and leave it in the sweep executor's per-process graph memo, which a
    sweep would otherwise fill during its first pass."""
    from repro.bench.harness import bench_graph_spec
    from repro.graph import DATASET_ORDER
    from repro.sweep.executor import _GRAPH_MEMO
    from repro.sweep.jobs import graph_fingerprint
    graphs = {}
    with scale_env(scale):
        for key in DATASET_ORDER:
            spec = bench_graph_spec(key)
            graphs[key] = _GRAPH_MEMO[graph_fingerprint(spec)] = spec.load()
    return graphs


def sources(graphs: dict, slot: int) -> dict[str, int]:
    """Source vertex per dataset for one input slot."""
    return {key: pick_source(graph, i, slot)
            for i, (key, graph) in enumerate(graphs.items())}


def traversal_jobs(algorithms, source_of: dict[str, int], scale: str | None):
    """The evaluation matrix with one source per dataset, in matrix order."""
    from repro.bench.harness import matrix_jobs
    with scale_env(scale):
        return [job for key, source in source_of.items()
                for job in matrix_jobs(algorithms=algorithms, datasets=[key],
                                       source=source)]


def frontier_jobs(source_of: dict[str, int]):
    return traversal_jobs(FRONTIER_ALGORITHMS, source_of, None)


def pagerank_jobs():
    from repro.bench.harness import matrix_jobs
    with scale_env(None):
        return matrix_jobs(algorithms=[("PR", {"iterations": PR_ITERATIONS})])


def serve_jobs(source_of: dict[str, int]):
    """The 72 fig8 jobs at the small scale, the pool serve requests draw from."""
    from repro.algorithms import PAPER_ALGORITHMS
    from repro.bench.harness import bench_algorithm_entry
    return traversal_jobs([bench_algorithm_entry(a) for a in PAPER_ALGORITHMS],
                          source_of, SMALL_SCALE)


def request_stream(seed: int, pool_size: int,
                   requests: int = SERVE_REQUESTS) -> list[int]:
    """Pool indices of the serve requests, in order: every job once, so
    every seed simulates the same jobs, and the rest drawn with
    replacement; shuffled by ``seed``."""
    import random
    rng = random.Random(seed)
    stream = list(range(pool_size)) + [rng.randrange(pool_size)
                                       for _ in range(requests - pool_size)]
    rng.shuffle(stream)
    return stream


def job_key(job) -> str:
    """Golden-file identity of one job: what it runs, on what, from where."""
    from repro.sweep.jobs import graph_fingerprint
    kwargs = ",".join(f"{k}={v}" for k, v in sorted(job.algorithm_kwargs.items()))
    return (f"{job.describe()}|{kwargs}|{graph_fingerprint(job.graph)}"
            f"|src={job.source}")
