"""Fast tests of the benchmark's pure helpers (no workload runs)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import common  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# percentiles and spreads
# ----------------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 100) == 5.0
    assert measure.percentile(values, 90) == pytest.approx(4.6)
    assert measure.percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_p95_of_the_serve_stream_has_ten_samples_beyond_it():
    n = common.SERVE_REQUESTS
    values = list(range(n))
    p95 = measure.percentile(values, 95)
    assert sum(v > p95 for v in values) == measure.samples_beyond(n, 95)
    assert measure.samples_beyond(n, 95) >= measure.MIN_TAIL_SAMPLES
    assert measure.tail_supported(n, 95)


def test_tail_support_needs_ten_samples_beyond():
    assert measure.samples_beyond(200, 95) == 10
    assert measure.tail_supported(200, 95)
    assert measure.tail_supported(190, 95)
    assert not measure.tail_supported(180, 95)
    assert not measure.tail_supported(54, 95)


def test_best_total_sums_each_units_fastest_repeat():
    repeats = {"a": [3.0, 1.0, 2.0], "b": [5.0, 7.0], "c": [0.5]}
    assert measure.bests(repeats) == [1.0, 5.0, 0.5]
    assert measure.best_total(repeats) == pytest.approx(6.5)


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------

def test_speed_factor_scales_units_to_the_reference_host():
    ref = calibrate.REFERENCE_SLICE_S
    factor = calibrate.speed_factor([1.5 * ref, 2.5 * ref])
    assert factor == pytest.approx(2.0)
    # a unit measured at half speed reads as its reference-host time
    assert calibrate.normalise(0.8, factor) == pytest.approx(0.4)
    assert calibrate.speed_factor([ref]) == pytest.approx(1.0)


def _fake_slices(monkeypatch, calibrator, times):
    feed = iter(times)
    monkeypatch.setattr(calibrator, "_slice", lambda: next(feed))


def test_calibration_runs_a_share_of_the_unit_and_at_least_one_slice(
        monkeypatch):
    cal = calibrate.Calibrator()
    _fake_slices(monkeypatch, cal, [0.02] * 10)
    # a tenth of a 0.5 s unit is 0.05 s: three 0.02 s slices
    assert calibrate.SHARE == 0.1
    assert cal.after(0.5) == pytest.approx(0.02 / calibrate.REFERENCE_SLICE_S)
    assert len(cal.slices) == 3
    # a unit shorter than one slice still gets one
    cal.after(0.001)
    assert len(cal.slices) == 4


def test_unit_factor_comes_from_its_own_slices(monkeypatch):
    cal = calibrate.Calibrator()
    _fake_slices(monkeypatch, cal, [0.01, 0.03])
    assert cal.after(0.01) == pytest.approx(1.0)
    assert cal.after(0.01) == pytest.approx(3.0)
    assert cal.run_factor() == pytest.approx(2.0)


def test_a_real_slice_takes_time():
    cal = calibrate.Calibrator()
    assert cal.after(0.0) > 0
    assert len(cal.slices) == 1


# ----------------------------------------------------------------------
# golden comparison and failure counting
# ----------------------------------------------------------------------

GOLDEN = {"a": {"scatter_cycles": 10, "edges_processed": 5, "extra": {}}}


def test_stats_diff_names_changed_missing_and_extra_fields():
    actual = {"scatter_cycles": 11, "extra": {}, "slices": 0}
    assert measure.stats_diff(GOLDEN["a"], actual) == [
        "edges_processed", "scatter_cycles", "slices"]
    assert measure.stats_diff(GOLDEN["a"], dict(GOLDEN["a"])) == []


def test_failures_count_wrong_outputs_missing_goldens_and_exceptions():
    failures = measure.Failures()
    assert failures.check_stats(GOLDEN, "a", dict(GOLDEN["a"]))
    assert not failures.check_stats(GOLDEN, "a",
                                    {**GOLDEN["a"], "edges_processed": 6})
    assert not failures.check_stats(GOLDEN, "b", dict(GOLDEN["a"]))
    failures.error("request 3", RuntimeError("daemon went away"))
    assert (failures.attempted, failures.failed) == (4, 3)
    assert failures.fraction == pytest.approx(0.75)
    assert "edges_processed" in failures.messages[0]
    assert "no golden" in failures.messages[1]
    assert "RuntimeError" in failures.messages[2]


def test_corrupted_golden_makes_fail_frac_nonzero():
    corrupted = {"a": {**GOLDEN["a"], "scatter_cycles": 9}}
    failures = measure.Failures()
    failures.check_stats(corrupted, "a", dict(GOLDEN["a"]))
    assert failures.fraction == 1.0


def test_failure_messages_are_capped():
    failures = measure.Failures()
    for i in range(20):
        failures.check(False, f"op {i}")
    assert failures.failed == 20
    assert len(failures.messages) == measure.Failures.KEEP


# ----------------------------------------------------------------------
# self times and layer aggregation
# ----------------------------------------------------------------------

def _span(name, start, end, parent=None, request=None):
    return [name, start, end, parent, request]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("cold", 0.0, 10.0),
        _span("sweep.run", 1.0, 9.0, 0),
        _span("accel.run", 2.0, 6.0, 1),
        _span("accel.march", 3.0, 5.0, 2),
    ]
    assert spans.self_times(recorded) == [2.0, 4.0, 2.0, 2.0]


def test_layers_plus_other_add_up_to_the_traced_wall():
    recorded = [
        _span("setup", 0.0, 2.0),
        _span("graph.load", 0.5, 1.5, 0),
        _span("cold", 10.0, 20.0, None, 0),
        _span("accel.march", 11.0, 17.0, 2),
        _span("cold", 30.0, 42.0, None, 1),
        _span("accel.march", 31.0, 39.0, 4),
    ]
    lm = spans.layer_metrics(recorded, {(2, "accel.marched_phases"): 3,
                                        (4, "accel.marched_phases"): 3})
    # setup once, plus the mean of the two cold passes
    assert lm["wall_s"] == pytest.approx(2.0 + 11.0)
    assert lm["graph.load_s"] == pytest.approx(1.0)
    assert lm["accel.march_s"] == pytest.approx(7.0)
    assert lm["accel.marched_phases"] == pytest.approx(3.0)
    layers = sum(v for k, v in lm.items()
                 if k.endswith("_s") and k != "wall_s")
    assert layers == pytest.approx(lm["wall_s"])


def test_client_thread_roots_of_one_pass_count_once():
    recorded = [
        _span("setup", 0.0, 1.0),
        _span("cold", 1.0, 4.0, None, 7),
        _span("cold", 1.0, 5.0, None, 7),
        _span("warm", 6.0, 7.0, None, 7),
        _span("warm", 8.0, 9.0, None, 8),
    ]
    assert spans.pass_counts(recorded) == {"setup": 1, "cold": 1, "warm": 2}
    # two client threads' seconds in the one cold pass, one warm pass
    assert spans.layer_metrics(recorded)["wall_s"] == pytest.approx(
        1.0 + 7.0 + 1.0)


def test_tracer_nests_spans_and_restores_patched_methods():
    class Engine:
        def step(self, x):
            return x + 1

        def run(self, x):
            return self.step(x) * 2

    run, step = Engine.run, Engine.step
    tracer = spans.Tracer()
    tracer.patch_method(Engine, "run", "outer")
    tracer.patch_method(Engine, "step", "inner")
    with tracer.root("cold", request=0):
        assert Engine().run(1) == 4
    assert [s[0] for s in tracer.spans] == ["cold", "outer", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    tracer.uninstall()
    assert (Engine.run, Engine.step) == (run, step)


def test_attributed_serve_request_splits_into_layers_and_transport():
    tracer = spans.Tracer()
    with tracer.root("cold", request=0):
        with tracer.span("serve.transport") as index:
            pass
    tracer.spans[0][1:3] = [0.0, 0.010]
    tracer.spans[index][1:3] = [0.001, 0.009]
    record = {"span": index, "ticket": "t1", "wall": 0.006, "exec": 0.004,
              "executed": 1, "hits": 0, "deduped": 0}
    daemon = {"t1": {"sweep.cache_get": 0.0005, "sweep.cache_get.calls": 2,
                     "sweep.cache_put": 0.001, "sweep.cache_put.calls": 1}}
    workloads.attribute_daemon_time(tracer, [record], daemon)
    lm = spans.layer_metrics(tracer.spans, tracer.counts)
    assert lm["serve.exec_s"] == pytest.approx(0.004)
    assert lm["serve.daemon_overhead_s"] == pytest.approx(0.0005)
    assert lm["serve.transport_s"] == pytest.approx(0.002)
    assert lm["sweep.cache_gets"] == 2
    layers = sum(v for k, v in lm.items()
                 if k.endswith("_s") and k != "wall_s")
    assert layers == pytest.approx(lm["wall_s"]) == pytest.approx(0.010)


def test_model_metrics_pair_higraph_with_graphdyns():
    from types import SimpleNamespace as NS

    def stats(cycles):
        return NS(total_cycles=cycles, edges_processed=100,
                  offset_deferrals=1, edge_conflicts=2,
                  propagation_conflicts=3,
                  speedup_over=lambda base, c=cycles: base.total_cycles / c)

    items = [("g1", "GraphDynS", stats(300)), ("g1", "HiGraph", stats(100)),
             ("g2", "GraphDynS", stats(200)), ("g2", "HiGraph", stats(200)),
             ("g3", "HiGraph-mini", stats(50))]
    model = workloads.model_metrics(items)
    assert model["model.higraph_speedup_mean"] == pytest.approx(2.0)
    assert model["model.higraph_speedup_max"] == pytest.approx(3.0)
    assert model["model.sim_cycles"] == 850
    assert model["model.conflicts"] == 30


def test_request_stream_holds_every_job_and_depends_only_on_the_seed():
    stream = common.request_stream(3, 72)
    assert len(stream) == common.SERVE_REQUESTS
    assert set(stream) == set(range(72))
    assert stream == common.request_stream(3, 72)
    assert stream != common.request_stream(4, 72)


def test_seeds_map_onto_the_golden_source_slots():
    assert {common.source_slot(seed) for seed in range(10)} == set(
        range(common.SOURCE_SLOTS))
    assert common.source_slot(0) == 0
