"""Repository benchmark: one workload, one seed, one JSON result line.

Runs one of the four workloads in ``BENCHMARK.json`` through the
package's public entry points (``repro.api`` sessions, ``repro serve``
and ``Session.report``), checks every output against
``perfbench/golden.json`` and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` they are the per-layer ones, from passes
traced by shims wrapped around the package from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload frontier_sweep --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

See ``perfbench/NOTES.md`` for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from calibrate import REFERENCE_SLICE_S  # noqa: E402
from measure import (  # noqa: E402
    MIN_TAIL_SAMPLES, median, samples_beyond, tail_supported)

SPEC_PATH = common.ROOT / "BENCHMARK.json"


def build_parser(workloads: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def per_layer_metrics(run, result: dict) -> dict[str, float]:
    """The traced run's layer numbers, named as in ``BENCHMARK.json``."""
    from spans import layer_metrics
    lm = layer_metrics(run.tracer.spans, run.tracer.counts)
    layers = sum(v for k, v in lm.items() if k.endswith("_s") and k != "wall_s")
    print(f"trace: layer self times + other_s = {layers:.6f} s, "
          f"traced wall = {lm.get('wall_s', 0.0):.6f} s")

    def get(name):
        return lm.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    march_s = get("accel.march_s")
    gets = get("sweep.cache_gets") or get("sweep.cache_get.calls")
    puts = get("sweep.cache_puts") or get("sweep.cache_put.calls")
    executed, deduped = get("serve.executed"), get("serve.deduped")
    metrics = {
        "graph.load_s": get("graph.load_s"),
        "graph.loads": get("graph.load.calls"),
        "accel.kernel_load_s": get("accel.kernel_load_s"),
        "accel.kernel_compile_s": get("accel.kernel_compile_s"),
        "accel.kernel_used": float(bool(run.kernel_loaded)),
        "accel.engine_init_s": get("accel.engine_init_s"),
        "accel.engine_inits": get("accel.engine_init.calls"),
        "accel.run_self_s": get("accel.run_s"),
        "accel.march_s": march_s,
        "accel.marched_phases": get("accel.marched_phases"),
        "accel.ns_per_sim_cycle": ratio(1e9 * march_s,
                                        get("accel.march_cycles")),
        "accel.ns_per_edge": ratio(1e9 * march_s, get("accel.march_edges")),
        "accel.replay_s": get("accel.replay_s"),
        "accel.replayed_phases": get("accel.replayed_phases"),
        "accel.partial_replays": get("accel.partial_replays"),
        "accel.memo_useful_ratio": ratio(get("accel.replayed_phases"),
                                         get("accel.memo_phases")),
        "algorithms.apply_s": get("algorithms.apply_s"),
        "sweep.overhead_s": get("sweep.run_s"),
        "sweep.cache_key_s": get("sweep.cache_key_s"),
        "sweep.cache_get_s": get("sweep.cache_get_s"),
        "sweep.cache_gets": gets,
        "sweep.cache_put_s": get("sweep.cache_put_s"),
        "sweep.cache_puts": puts,
        "sweep.hit_ratio": ratio(get("sweep.cache_hits"), gets),
        "bench.regen_self_s": get("bench.regen_s"),
        "bench.build_report_s": get("bench.build_report_s"),
        "serve.transport_ms": 0.0,
        "serve.daemon_overhead_ms": 0.0,
        "serve.exec_ms": 0.0,
        "serve.executed": executed,
        "serve.cache_hits": get("serve.cache_hits"),
        "serve.deduped": deduped,
        "serve.dedup_ratio": ratio(deduped, executed + deduped),
        "other_s": get("other_s"),
        "trace.wall_s": get("wall_s"),
        "trace.overhead_frac": run.overhead_frac(),
        "fail_frac": run.failures.fraction,
    }
    metrics.update(result.get("_serve_ms", {}))
    model = result["_model"]
    metrics.update({k: model[k] for k in (
        "model.sim_cycles", "model.edges", "model.conflicts",
        "model.higraph_speedup_mean")})
    return metrics


def environment(run) -> dict:
    from repro.accel.engine import resolve_engine
    from repro.sweep.cache import code_version
    import workloads
    return {"workload": run.workload, "seed": run.seed, "slot": run.slot,
            "default_engine": resolve_engine(None),
            "code_version": code_version(),
            "kernel_digest": workloads.kernel_digest(),
            "kernel_loaded": run.kernel_loaded,
            "nproc": os.cpu_count(), "python": platform.python_version()}


def run_one(spec: dict, args) -> int:
    import workloads
    golden = json.loads(common.GOLDEN_PATH.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run = workloads.Run(args.workload, args.seed, seconds, bool(args.trace),
                        golden)
    try:
        result = workloads.WORKLOADS[args.workload](run)
    finally:
        run.close()
    print("env " + json.dumps(environment(run), sort_keys=True))
    for message in run.failures.messages:
        print(f"FAILED {message}")
    model = result["_model"]
    print(f"model: HiGraph over GraphDynS {model['model.higraph_speedup_mean']:.2f}x "
          f"mean, {model['model.higraph_speedup_max']:.2f}x max "
          "(paper: 1.5x mean, 2.2x max); simulated, not validated against "
          "hardware")
    samples = result["_samples"]
    print(f"latency samples: {samples}; p95 has {samples_beyond(samples, 95)} "
          f"beyond it ({'' if tail_supported(samples, 95) else 'fewer than '}"
          f"{MIN_TAIL_SAMPLES} needed)")
    if "_warm_regens" in result:
        print(f"warm regenerations: {result['_warm_regens']}; p50_ms is "
              "their median, p95_ms is over the cold sections")
    calibrator = run.calibrator
    if calibrator.slices:
        print(f"calibration: {len(calibrator.slices)} slices, host speed "
              f"factor {calibrator.run_factor():.4f} (mean slice over "
              f"{REFERENCE_SLICE_S} s); end-to-end times are scaled to the "
              "reference host, pass walls below are as measured")
    else:
        print("calibration: none; end-to-end times are as measured")
    for (kind, traced), walls in sorted(run.walls.items()):
        print(f"{'traced' if traced else 'untraced'} {kind} passes: "
              f"{len(walls)}, median {median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")

    if args.trace:
        names = spec["per_layer"]
        values = per_layer_metrics(run, result)
        spans_path = common.work_dir() / f"spans-{run.workload}-{run.seed}.json"
        spans_path.write_text(json.dumps({
            "spans": run.tracer.spans,
            "counts": [[root, name, amount] for (root, name), amount
                       in run.tracer.counts.items()]}))
        print(f"spans written to {os.path.relpath(spans_path)}")
    else:
        names = spec["end_to_end"]
        values = result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    failures = run.failures
    print(json.dumps({"correct": failures.failed == 0,
                      "attempted": failures.attempted,
                      "failed": failures.failed, "metrics": metrics}))
    return 0


def run_all(spec: dict, args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows = []
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload["name"], "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        rows.append((workload["name"],
                     json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    args = build_parser([w["name"] for w in spec["workloads"]]).parse_args(argv)
    if not args.all and args.workload is None:
        print("perfbench: pass --workload NAME or --all", file=sys.stderr)
        return 2
    common.prepare_env()
    os.chdir(common.ROOT)
    return run_all(spec, args) if args.all else run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
