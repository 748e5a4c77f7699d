"""Differential suite: every non-reference engine must be cycle-exact.

The equivalence contract (see ``repro.accel.engine``) is that the
``batched`` and ``soa`` engines produce **identical** ``SimStats`` —
every counter, not just totals — and identical result properties to the
``reference`` engine, for every configuration, graph and algorithm.
``assert_engines_agree`` runs *all* registered engines, so a fourth
engine joins the matrix by registering itself; failures report the
first diverging stats key plus a one-line reproducer.  This suite
enforces the contract over

* the tier-1 matrix: the three Table 1 designs x all five algorithms x
  structured + skewed graphs (every conflict-site implementation pair
  is exercised: mdp/crossbar offset, mdp/central edge, mdp/crossbar
  propagation, with and without vertex combining);
* randomized rmat / Erdos-Renyi / star / grid graphs;
* the sliced (large-graph) execution mode, including per-slice phase
  replay (each slice engine owns its own window memo);
* partially-repeating phases: frontend arbiter flips that either verify
  against the recorded emission stream (partial replay fires) or
  diverge (the phase falls back to full simulation) — byte-identical
  either way;
* engine-selection plumbing: defaults, the ``REPRO_ENGINE`` override,
  cache-token sharing, and the tracer's reference-only restriction.
"""

import json
import warnings

import numpy as np
import pytest

from repro.accel import (
    AcceleratorSim,
    PipelineTracer,
    SlicedAcceleratorSim,
    ablation,
    engine_cache_token,
    graphdyns,
    higraph,
    higraph_mini,
    resolve_engine,
    simulate,
)
from repro.accel.engine import DEFAULT_ENGINE, ENGINE_ENV_VAR, ENGINES
from repro.algorithms import make_algorithm, run_reference
from repro.errors import ConfigError, SimulationError
from repro.graph.generators import erdos_renyi, grid_2d, rmat, star
from repro.graph.partition import partition_by_destination

ALL_ALGORITHMS = ("BFS", "SSSP", "SSWP", "PR", "CC")


def _make_algorithm(name):
    if name == "PR":
        return make_algorithm("PR", iterations=2)
    return make_algorithm(name)


def first_divergence(expected, actual):
    """First ``SimStats.to_dict()`` key the two runs disagree on.

    Returns ``(key, expected_value, actual_value)`` or ``None`` when the
    dicts are identical.  Keys missing on either side count as diverging
    (value reported as the string ``"<absent>"``).
    """
    for key in list(expected) + [k for k in actual if k not in expected]:
        lhs = expected.get(key, "<absent>")
        rhs = actual.get(key, "<absent>")
        if lhs != rhs:
            return key, lhs, rhs
    return None


def divergence_message(engine, algorithm_name, graph, config, source,
                       ref_stats, other_stats, repro=None):
    """One-line failure report: first diverging key + a reproducer.

    ``repro`` overrides the reproducer line (the fuzzer passes its seed
    replay command); the default points at the closest CLI invocation.
    """
    div = first_divergence(ref_stats, other_stats)
    key, exp, got = div if div else ("<none>", "?", "?")
    if repro is None:
        repro = (f"PYTHONPATH=src python -m repro simulate "
                 f"--algorithm {algorithm_name} --engine {engine} "
                 f"--source {source}  # graph={graph.name} "
                 f"config={config.name}")
    return (f"SimStats diverge: reference vs {engine} for "
            f"{algorithm_name} on {graph.name} / {config.name}: "
            f"first diverging key {key!r}: reference={exp!r} "
            f"{engine}={got!r}\n  reproduce: {repro}")


def assert_engines_agree(config, graph, algorithm_name, source=0):
    """Run every registered engine; stats + properties must match the
    reference byte-for-byte.  Returns ``{engine: result}``."""
    results = {}
    for engine in ENGINES:
        results[engine] = simulate(config, graph,
                                   _make_algorithm(algorithm_name),
                                   source=source, engine=engine)
    ref = results["reference"]
    for engine, res in results.items():
        if engine == "reference":
            continue
        if res.stats.to_dict() != ref.stats.to_dict():
            pytest.fail(divergence_message(
                engine, algorithm_name, graph, config, source,
                ref.stats.to_dict(), res.stats.to_dict()))
        assert np.array_equal(ref.properties, res.properties), (
            f"properties diverge: reference vs {engine} for "
            f"{algorithm_name} on {graph.name} / {config.name}")
    return results


class TestTier1Matrix:
    """Three Table 1 designs x five algorithms on a skewed graph."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return rmat(9, 8.0, seed=11, name="rmat9")

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("maker", [higraph, higraph_mini, graphdyns],
                             ids=["HiGraph", "HiGraph-mini", "GraphDynS"])
    def test_matrix_cell(self, maker, algorithm, skewed):
        assert_engines_agree(maker(), skewed, algorithm)


class TestSiteAblations:
    """Every conflict-site implementation pair, one site at a time."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(8, 6.0, seed=5, name="rmat8")

    @pytest.mark.parametrize("opts", [
        dict(),
        dict(opt_o=True),
        dict(opt_e=True),
        dict(opt_d=True),
        dict(opt_o=True, opt_e=True, opt_d=True),
    ], ids=["baseline", "opt-o", "opt-e", "opt-d", "opt-oed"])
    def test_ablation_steps(self, opts, graph):
        assert_engines_agree(ablation(**opts), graph, "PR")

    def test_no_vertex_combining(self, graph):
        assert_engines_agree(higraph(vertex_combining=False), graph, "PR")
        assert_engines_agree(graphdyns(vertex_combining=False), graph, "SSSP")

    def test_odd_geometry(self, graph):
        """Radix 4, uneven dispatcher grouping, shallow queues."""
        cfg = higraph(front_channels=16, back_channels=16, radix=4,
                      fifo_depth=12, dispatcher_group=2, epe_queue_depth=2)
        assert_engines_agree(cfg, graph, "SSSP")

    def test_single_dispatcher(self, graph):
        """num_dispatchers == 1: the range network degenerates away."""
        cfg = higraph(back_channels=8, front_channels=8,
                      dispatcher_group=8)
        assert_engines_agree(cfg, graph, "BFS")


class TestRandomizedGraphs:
    """Random graph families x algorithms x both site stacks."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_rmat(self, algorithm, seed):
        graph = rmat(8, 5.0, seed=seed, name=f"rmat8-{seed}")
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "PR"))
    def test_erdos_renyi(self, algorithm, seed):
        graph = erdos_renyi(300, 2400, seed=seed, name=f"er-{seed}")
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("algorithm", ("BFS", "SSWP", "CC"))
    def test_star(self, algorithm):
        """One hub fanning out: the propagation hotspot worst case."""
        graph = star(200)
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(higraph_mini(), graph, algorithm)

    @pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "CC"))
    def test_grid(self, algorithm):
        """Long-diameter grid: many sparse-frontier iterations."""
        graph = grid_2d(12, 12)
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("seed", [3])
    def test_matches_golden_model(self, seed):
        """Both engines also equal the functional golden model.

        Min/max-reduce algorithms are order-insensitive, so they match
        bit-exactly; PR sums in hardware delivery order, which differs
        from the golden model's vectorized summation at ULP level only.
        """
        graph = rmat(8, 5.0, seed=seed, name=f"rmat8-{seed}")
        for algorithm in ALL_ALGORITHMS:
            bat = simulate(higraph(), graph, _make_algorithm(algorithm),
                           engine="batched")
            golden = run_reference(graph, _make_algorithm(algorithm), source=0)
            if algorithm == "PR":
                np.testing.assert_allclose(bat.properties, golden.properties,
                                           rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(bat.properties, golden.properties)

    def test_nonzero_source(self):
        graph = rmat(8, 5.0, seed=9, name="rmat8-9")
        assert_engines_agree(higraph(), graph, "BFS", source=37)
        assert_engines_agree(graphdyns(), graph, "SSSP", source=101)


class TestSlicedMode:
    def test_sliced_equivalence(self):
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        slices = partition_by_destination(graph, 3)
        results = {}
        for engine in ENGINES:
            sim = SlicedAcceleratorSim(higraph(), graph,
                                       _make_algorithm("SSSP"),
                                       slices=slices, engine=engine)
            results[engine] = sim.run(source=0)
        for engine in ENGINES:
            assert (results[engine].stats.to_dict()
                    == results["reference"].stats.to_dict()), engine
            assert np.array_equal(results[engine].properties,
                                  results["reference"].properties), engine


class TestEngineSelection:
    def test_registry_and_default(self):
        assert set(ENGINES) == {"reference", "batched", "soa"}
        assert DEFAULT_ENGINE in ENGINES
        assert resolve_engine("Reference") == "reference"
        assert resolve_engine(None) in ENGINES

    def test_default_is_soa(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine() == "soa"
        assert AcceleratorSim(higraph(), star(8),
                              _make_algorithm("BFS")).engine_name == "soa"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("warp-10")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine(None) == "reference"
        graph = star(8)
        assert AcceleratorSim(higraph(), graph,
                              _make_algorithm("BFS")).engine_name == "reference"
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        assert resolve_engine(None) == "batched"

    def test_engines_share_cache_token(self):
        """Verified-equivalent engines must alias their cache entries."""
        assert engine_cache_token("reference") == engine_cache_token("batched")
        assert engine_cache_token("soa") == engine_cache_token("batched")

    def test_engine_choice_does_not_change_cache_key(self):
        from repro.sweep import SweepJob
        graph = star(8)
        keys = {SweepJob(graph=graph, algorithm="BFS", config=higraph(),
                         engine=engine).cache_key("v0")
                for engine in (None, "reference", "batched", "soa")}
        assert len(keys) == 1

    def test_tracer_forces_reference(self):
        graph = star(16)
        sim = AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                             tracer=PipelineTracer())
        assert sim.engine_name == "reference"
        with pytest.raises(SimulationError):
            AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                           tracer=PipelineTracer(), engine="batched")

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        graph = star(8)
        sim = AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                             engine="batched")
        assert sim.engine_name == "batched"


class TestWindowBoundaries:
    """Adversarial cases for the event-driven fast-forward layer.

    The batched engine picks a probe-free no-backpressure variant per
    cycle (total in flight under the FIFO block line), bulk
    fast-forwards contention-free drains, and replays whole recorded
    phases for all-active algorithms (``repro.accel.engine.windows``).
    These configurations force every boundary: windows that open and
    close mid-drain, combining on the last pre-window cycle, minimum
    depths where backpressure never clears, and arbiter states that
    invalidate a recorded phase.
    """

    @pytest.fixture(scope="class")
    def hub(self):
        # one hot destination: maximum combining + deep hot queues
        return star(150)

    @pytest.fixture(scope="class")
    def skewed(self):
        return rmat(8, 6.0, seed=23, name="rmat8-23")

    def test_minimum_depth_never_leaves_backpressure(self, skewed):
        """fifo_depth == radix: the block line is zero, every nonempty
        FIFO rejects, and the checked path runs end to end."""
        cfg = higraph(fifo_depth=2, radix=2)
        assert_engines_agree(cfg, skewed, "SSSP")
        assert_engines_agree(cfg, skewed, "PR")

    @pytest.mark.parametrize("depth", [3, 5, 11])
    def test_window_opens_and_closes_mid_phase(self, depth, skewed):
        """Shallow FIFOs keep the in-flight total crossing the block
        line, flipping between the no-backpressure and checked variants
        many times per phase (including mid-drain)."""
        cfg = higraph(fifo_depth=depth, epe_queue_depth=2, fe_out_depth=2)
        assert_engines_agree(cfg, skewed, "BFS")
        assert_engines_agree(cfg, skewed, "SSWP")

    def test_combining_on_the_last_prewindow_cycle(self, hub):
        """A hot-vertex drain merges records right up to the cycle the
        no-backpressure window opens; counters must not skew."""
        for depth in (4, 8, 160):
            assert_engines_agree(higraph(fifo_depth=depth), hub, "PR")
            assert_engines_agree(higraph_mini(fifo_depth=depth), hub, "CC")

    def test_combining_disabled_at_small_depth(self, hub):
        cfg = higraph(vertex_combining=False, fifo_depth=4)
        assert_engines_agree(cfg, hub, "PR")

    def test_central_and_crossbar_sites_at_small_depth(self, skewed):
        """GraphDynS-style sites under constant backpressure."""
        cfg = graphdyns(fifo_depth=3, epe_queue_depth=2)
        assert_engines_agree(cfg, skewed, "SSSP")
        assert_engines_agree(cfg, skewed, "PR")

    def test_phase_replay_fires_and_stays_exact(self, skewed):
        """All-active phases replay from the recorded window (the memo
        genuinely fires) and the result stays byte-identical."""
        alg = make_algorithm("PR", iterations=6)
        sim = AcceleratorSim(higraph_mini(), skewed, alg, engine="batched")
        result = sim.run(source=0)
        assert sim.engine.ffwd_windows > 0, (
            "phase memo never replayed — the structural window "
            "analyzer regressed")
        ref = simulate(higraph_mini(), skewed,
                       make_algorithm("PR", iterations=6),
                       source=0, engine="reference")
        assert result.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(result.properties, ref.properties)

    def test_phase_replay_respects_arbiter_state(self, skewed):
        """Configs whose arbiter state does not return to its start
        must simply miss the memo — never replay a stale window."""
        for maker in (higraph, graphdyns):
            assert_engines_agree(maker(), skewed, "PR")

    def test_sliced_mode_with_shallow_fifos(self):
        graph = rmat(8, 6.0, seed=29, name="rmat8-29")
        slices = partition_by_destination(graph, 3)
        cfg = higraph(fifo_depth=5, epe_queue_depth=2)
        results = {}
        for engine in ENGINES:
            sim = SlicedAcceleratorSim(cfg, graph, _make_algorithm("PR"),
                                       slices=slices, engine=engine)
            results[engine] = sim.run(source=0)
        for engine in ENGINES:
            assert (results[engine].stats.to_dict()
                    == results["reference"].stats.to_dict()), engine
            assert np.array_equal(results[engine].properties,
                                  results["reference"].properties), engine

    @pytest.mark.parametrize("seed", [41, 42])
    def test_randomized_graphs_at_window_boundary_depths(self, seed):
        graph = rmat(7, 7.0, seed=seed, name=f"rmat7-{seed}")
        for depth in (2, 6):
            cfg = higraph(front_channels=8, back_channels=8,
                          fifo_depth=depth, dispatcher_group=2)
            for algorithm in ("BFS", "SSSP", "PR"):
                assert_engines_agree(cfg, graph, algorithm)


class TestDegenerateGeometries:
    """Minimal and lopsided networks every engine must survive.

    The smallest legal MDP geometry is two channels at radix 2 (one
    stage, one switch; a single-channel MDP network is a ConfigError),
    and the smallest legal FIFO is ``fifo_depth == radix`` — both
    boundary the SoA kernel's ring indexing at occupancy == capacity.
    """

    @pytest.fixture(scope="class")
    def small(self):
        return rmat(7, 5.0, seed=17, name="rmat7-17")

    def test_two_channel_minimum_network(self, small):
        cfg = higraph().with_(front_channels=2, back_channels=2, radix=2,
                              fifo_depth=2, dispatcher_group=1)
        assert_engines_agree(cfg, small, "BFS")
        assert_engines_agree(cfg, small, "PR")

    def test_single_channel_mdp_rejected_for_every_engine(self):
        graph = star(16)
        with pytest.raises(ConfigError):
            cfg = higraph(front_channels=1, back_channels=1)
            for engine in ENGINES:
                simulate(cfg, graph, _make_algorithm("BFS"), engine=engine)

    def test_single_part_frontends(self):
        """A frontier smaller than the channel count: most channels get
        zero parts, the rest exactly one (the part-stream degenerate
        case — each channel's lazy piece iterator yields at most once)."""
        graph = grid_2d(5, 5)
        cfg = higraph(front_channels=16, back_channels=16)
        assert_engines_agree(cfg, graph, "BFS")
        assert_engines_agree(cfg, graph, "SSSP", source=24)

    def test_depth_one_issue_and_output_queues(self, small):
        cfg = higraph(issue_queue_depth=1, fe_out_depth=1,
                      epe_queue_depth=1)
        assert_engines_agree(cfg, small, "SSSP")


class TestEngineAlternation:
    """Engines must coexist in one process without leaking state."""

    def test_ffwd_telemetry_does_not_leak_across_engines(self):
        """FFWD_TELEMETRY is zeroed at engine construction, so each
        run's numbers stand alone even when engines alternate."""
        from repro.accel.engine import FFWD_TELEMETRY
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")

        def run(engine):
            simulate(higraph(), graph, _make_algorithm("PR"),
                     engine=engine)
            return dict(FFWD_TELEMETRY)

        first_soa = run("soa")
        assert first_soa["cycles_simulated"] > 0
        run("batched")
        run("reference")  # must not disturb the shared dict shape
        again_soa = run("soa")
        assert again_soa == first_soa, (
            "FFWD_TELEMETRY leaked across engine alternation")

    def test_soa_without_kernel_degrades_to_batched(self, monkeypatch):
        """No compiled kernel (``REPRO_SOA_KERNEL=off`` or no compiler)
        makes the soa engine the batched engine, window memo included,
        byte-identical to the reference."""
        import repro.accel.engine.soa as soa_module
        monkeypatch.setattr(soa_module, "load_kernel", lambda: None)
        monkeypatch.setattr(soa_module, "warn_kernel_unavailable",
                            lambda: None)
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        for algorithm, kwargs in (("SSSP", {}), ("PR", {"iterations": 6})):
            sim = AcceleratorSim(higraph(), graph,
                                 make_algorithm(algorithm, **kwargs),
                                 engine="soa")
            bare = sim.run(source=0)
            ref = simulate(higraph(), graph,
                           make_algorithm(algorithm, **kwargs),
                           engine="reference")
            assert bare.stats.to_dict() == ref.stats.to_dict()
            assert np.array_equal(bare.properties, ref.properties)
        # the PR run still recorded and replayed phase windows
        assert sim.engine.phase_memo is not None
        assert sim.engine.ffwd_windows > 0

    def test_soa_with_kernel_marches_every_phase(self):
        """With the kernel bound, the soa engine never consults the
        window memo: every phase is one C march."""
        from repro.accel.engine import FFWD_TELEMETRY
        from repro.accel.engine.soakernel import load_kernel
        if load_kernel() is None:
            pytest.skip("compiled kernel unavailable on this host")
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        for maker in (higraph, graphdyns, higraph_mini):
            sim = AcceleratorSim(maker(), graph,
                                 make_algorithm("PR", iterations=6),
                                 engine="soa")
            res = sim.run(source=0)
            assert sim.engine.phase_memo is None
            assert FFWD_TELEMETRY["windows"] == 0
            assert FFWD_TELEMETRY["cycles_simulated"] > 0
            ref = simulate(maker(), graph, make_algorithm("PR", iterations=6),
                           engine="reference")
            assert res.stats.to_dict() == ref.stats.to_dict()
            assert np.array_equal(res.properties, ref.properties)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_finished_sim_frees_its_engine_without_gc(self, engine):
        """No engine is part of a reference cycle: deleting a finished
        simulator frees its engine (and the soa engine's SoA rings and
        resident buffers) by reference counting alone."""
        import gc
        import weakref
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for maker in (higraph, graphdyns, higraph_mini):
                for algorithm, kwargs in (("BFS", {}),
                                          ("PR", {"iterations": 3})):
                    sim = AcceleratorSim(maker(), graph,
                                         make_algorithm(algorithm, **kwargs),
                                         engine=engine)
                    sim.run(source=0)
                    alive = weakref.ref(sim.engine)
                    del sim
                    assert alive() is None, (
                        f"{engine} engine outlived its simulator "
                        f"({algorithm} on {maker().name})")
        finally:
            if was_enabled:
                gc.enable()

    def test_reachability_fuzzes_through_soa(self):
        """REACH declares max-reduce with an identity process kernel —
        the sixth algorithm exercises the proc=0 kernel path."""
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        ref = simulate(higraph(), graph, make_algorithm("REACH"),
                       engine="reference")
        for engine in ("batched", "soa"):
            res = simulate(higraph(), graph, make_algorithm("REACH"),
                           engine=engine)
            assert res.stats.to_dict() == ref.stats.to_dict(), engine
            assert np.array_equal(ref.properties, res.properties)


class TestKernelLoading:
    """Fault injection on the compiled kernel's build/load path: every
    failure ends in a correct result, and a lost kernel is reported."""

    @staticmethod
    def _assert_soa_matches_reference():
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        sim = AcceleratorSim(higraph(), graph,
                             make_algorithm("PR", iterations=3),
                             engine="soa")
        res = sim.run(source=0)
        ref = simulate(higraph(), graph, make_algorithm("PR", iterations=3),
                       engine="reference")
        assert res.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(res.properties, ref.properties)
        return sim.engine

    def test_truncated_cached_kernel_is_quarantined_and_rebuilt(
            self, tmp_path, monkeypatch):
        from repro.accel.engine import soakernel
        if soakernel._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setenv(soakernel.CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.delenv(soakernel.KERNEL_ENV_VAR, raising=False)
        so_path = soakernel._cached_path(soakernel._SOURCE.read_text())
        assert soakernel._build(soakernel._SOURCE, so_path) is None
        so_path.write_bytes(so_path.read_bytes()[:100])   # torn write
        monkeypatch.setattr(soakernel, "_LIB", False)
        monkeypatch.setattr(soakernel, "_FAILURE", soakernel._FAILURE)
        assert soakernel.load_kernel() is not None
        assert so_path.stat().st_size > 100
        assert self._assert_soa_matches_reference()._st is not None

    def test_compile_failure_warns_once_with_the_compiler_output(
            self, tmp_path, monkeypatch):
        from repro.accel.engine import soakernel
        cc = tmp_path / "failing-cc"
        cc.write_text("#!/bin/sh\n"
                      "echo 'kernel.c:1: error: injected failure' >&2\n"
                      "exit 3\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv(soakernel.CACHE_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.delenv(soakernel.KERNEL_ENV_VAR, raising=False)
        monkeypatch.setattr(soakernel, "_LIB", False)
        monkeypatch.setattr(soakernel, "_FAILURE", soakernel._FAILURE)
        monkeypatch.setattr(soakernel, "_WARNED", False)
        with pytest.warns(RuntimeWarning,
                          match="exited 3: kernel.c:1: error: injected"):
            engine = self._assert_soa_matches_reference()
        assert engine._st is None and engine.phase_memo is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # once per process
            self._assert_soa_matches_reference()

    def test_default_engine_without_kernel_warns_once_and_matches(
            self, monkeypatch):
        """The default engine on a host without its kernel: one warning,
        then the same bytes as the reference engine."""
        from repro.accel.engine import soakernel
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        monkeypatch.setenv(soakernel.KERNEL_ENV_VAR, "off")
        monkeypatch.setattr(soakernel, "_LIB", False)
        monkeypatch.setattr(soakernel, "_FAILURE", soakernel._FAILURE)
        monkeypatch.setattr(soakernel, "_WARNED", False)
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        cases = (("BFS", {}), ("PR", {"iterations": 3}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = [simulate(higraph(), graph, make_algorithm(alg, **kw))
                    for alg, kw in cases]
        assert [w.category for w in caught] == [RuntimeWarning]
        for res, (alg, kw) in zip(runs, cases):
            ref = simulate(higraph(), graph, make_algorithm(alg, **kw),
                           engine="reference")
            assert (json.dumps(res.stats.to_dict(), sort_keys=True)
                    == json.dumps(ref.stats.to_dict(), sort_keys=True))
            assert np.array_equal(res.properties, ref.properties)

    def test_kill_switch_is_named_in_the_warning(self, monkeypatch):
        from repro.accel.engine import soakernel
        monkeypatch.setenv(soakernel.KERNEL_ENV_VAR, "off")
        monkeypatch.setattr(soakernel, "_LIB", False)
        monkeypatch.setattr(soakernel, "_FAILURE", soakernel._FAILURE)
        monkeypatch.setattr(soakernel, "_WARNED", False)
        with pytest.warns(RuntimeWarning, match="REPRO_SOA_KERNEL"):
            self._assert_soa_matches_reference()


class TestPartialRepeat:
    """Partially-repeating phases: per-subnetwork window keys.

    A phase whose edge+propagation arbiter segments match a recorded
    program but whose frontend segment does not is replayed by
    re-simulating *only* the frontend against the recorded pull
    schedule.  A verified emission match commits the recorded
    downstream segments; a divergence falls back to full simulation.
    Either way the result must be byte-identical to the reference
    engine — these cases pin both paths and the telemetry.
    """

    def test_frontend_flip_partial_replay_fires(self):
        """Rotating-scan frontend drift over a stable MDP propagation
        site, lockstep (uniform-degree) channels: the shadow-frontend
        replay must fire and stay byte-identical."""
        graph = grid_2d(12, 12)
        cfg = ablation(opt_d=True)
        alg = make_algorithm("PR", iterations=6)
        sim = AcceleratorSim(cfg, graph, alg, engine="batched")
        result = sim.run(source=0)
        assert sim.engine.ffwd_partial_windows > 0, (
            "frontend-flip phase never partial-replayed — the "
            "per-subnetwork key machinery regressed")
        ref = simulate(cfg, graph, make_algorithm("PR", iterations=6),
                       source=0, engine="reference")
        assert result.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(result.properties, ref.properties)

    def test_ablation_sites_replay_and_stay_identical(self):
        """Mixed-site ablation configs (the Fig. 10 steps) replay too
        once their arbiter states prove periodic."""
        graph = grid_2d(12, 12)
        cfg = ablation(opt_e=True, opt_d=True, front_channels=16,
                       back_channels=16)
        alg = make_algorithm("PR", iterations=6)
        sim = AcceleratorSim(cfg, graph, alg, engine="batched")
        result = sim.run(source=0)
        assert sim.engine.ffwd_windows > 0
        ref = simulate(cfg, graph, make_algorithm("PR", iterations=6),
                       source=0, engine="reference")
        assert result.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(result.properties, ref.properties)

    def test_divergent_frontend_falls_back_to_full_simulation(self):
        """A parity flip that genuinely changes the emission stream must
        be *rejected* by the shadow verification, never spliced."""
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        alg = make_algorithm("PR", iterations=8)
        sim = AcceleratorSim(higraph(), graph, alg, engine="batched")
        result = sim.run(source=0)
        memo = sim.engine.phase_memo
        assert memo is not None
        # skewed degrees stagger the channels, so the flipped phase
        # diverges and is remembered as a failed pair
        assert memo.partial_failures > 0
        ref = simulate(higraph(), graph, make_algorithm("PR", iterations=8),
                       source=0, engine="reference")
        assert result.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(result.properties, ref.properties)

    def test_multi_state_memo_replays_periodic_arbiter_states(self):
        """Odd-length phases flip the odd-even parity every phase; the
        memo must record both states once they prove periodic and
        replay afterwards instead of missing forever (the old
        single-program behavior)."""
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        alg = make_algorithm("PR", iterations=8)
        sim = AcceleratorSim(higraph(), graph, alg, engine="batched")
        sim.run(source=0)
        assert sim.engine.ffwd_windows > 0, (
            "multi-state memo never replayed a periodic arbiter state")

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_long_pr_runs_stay_identical(self, maker):
        """Many iterations exercise record → partial → derived-program
        chains; every counter must still match the reference."""
        graph = erdos_renyi(300, 2400, seed=7, name="er-7")
        ref = simulate(maker(), graph, make_algorithm("PR", iterations=8),
                       engine="reference")
        bat = simulate(maker(), graph, make_algorithm("PR", iterations=8),
                       engine="batched")
        assert bat.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(ref.properties, bat.properties)


class TestSlicedReplay:
    """Per-slice phase programs: each slice engine owns its own memo and
    re-presents the same frontier every iteration, so sliced all-active
    runs must hit replay from iteration 2 onward — per slice — while
    staying byte-identical to the reference engine."""

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_replay_fires_on_every_slice(self, maker):
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        slices = partition_by_destination(graph, 3)
        results = {}
        sims = {}
        for engine in ENGINES:
            sim = SlicedAcceleratorSim(maker(), graph,
                                       make_algorithm("PR", iterations=6),
                                       slices=slices, engine=engine)
            sims[engine] = sim
            results[engine] = sim.run(source=0)
        assert (results["batched"].stats.to_dict()
                == results["reference"].stats.to_dict())
        assert np.array_equal(results["batched"].properties,
                              results["reference"].properties)
        for index, slice_sim in enumerate(sims["batched"].slice_sims):
            assert slice_sim.engine.ffwd_windows > 0, (
                f"slice {index} never replayed a phase — per-slice "
                "window keying regressed")

    def test_sliced_partial_replay_fires(self):
        """The rotating-scan frontend drifts per slice too; the shadow
        replay must fire inside sliced mode."""
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        slices = partition_by_destination(graph, 3)
        sim = SlicedAcceleratorSim(graphdyns(), graph,
                                   make_algorithm("PR", iterations=6),
                                   slices=slices, engine="batched")
        sim.run(source=0)
        assert any(s.engine.ffwd_partial_windows > 0
                   for s in sim.slice_sims)


class TestFastForwardTelemetry:
    def test_probe_telemetry_counts_windows_and_cycles(self):
        from repro.accel.engine import FFWD_TELEMETRY, reset_ffwd_telemetry
        telemetry = reset_ffwd_telemetry()
        assert telemetry == {"windows": 0, "cycles_fast_forwarded": 0,
                             "cycles_simulated": 0, "events": 0,
                             "partial_windows": 0,
                             "front_cycles_resimulated": 0,
                             "prologue_reuse": 0}
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        simulate(higraph_mini(), graph, make_algorithm("PR", iterations=6),
                 engine="batched")
        assert FFWD_TELEMETRY["cycles_simulated"] > 0
        assert FFWD_TELEMETRY["windows"] > 0
        assert FFWD_TELEMETRY["cycles_fast_forwarded"] > 0
        assert FFWD_TELEMETRY["events"] > 0
        reset_ffwd_telemetry()

    def test_two_back_to_back_runs_do_not_leak_counters(self):
        """FFWD_TELEMETRY is zeroed at the start of every batched-engine
        run, so a run's numbers never include a previous run's."""
        from repro.accel.engine import FFWD_TELEMETRY
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        simulate(higraph_mini(), graph, make_algorithm("PR", iterations=6),
                 engine="batched")
        first = dict(FFWD_TELEMETRY)
        simulate(higraph_mini(), graph, make_algorithm("PR", iterations=6),
                 engine="batched")
        assert dict(FFWD_TELEMETRY) == first, (
            "telemetry leaked across runs — identical back-to-back runs "
            "must report identical (not accumulated) counters")
        assert first["windows"] > 0      # and the run genuinely replayed

    def test_reference_engine_does_not_touch_telemetry(self):
        from repro.accel.engine import FFWD_TELEMETRY, reset_ffwd_telemetry
        reset_ffwd_telemetry()
        graph = star(32)
        simulate(higraph(), graph, _make_algorithm("BFS"),
                 engine="reference")
        assert FFWD_TELEMETRY["cycles_simulated"] == 0


class TestBackendStateIsolation:
    """Regression: site-③ sink vectors must be per-instance.

    ``backend.py`` used to hand ``MdpNetworkSim.deliver`` and
    ``ArbitratedCrossbar.tick`` module-level shared *mutable* lists; a
    consumer mutation corrupted every other live simulator of the same
    width.  They are per-instance immutable tuples now.
    """

    def test_no_shared_module_state(self):
        import repro.accel.backend as backend
        assert not hasattr(backend, "_ALL_READY")
        assert not hasattr(backend, "_UNIT_BUDGET")

    def test_mdp_sink_vector_is_private_and_immutable(self):
        from repro.accel.backend import MdpPropagation
        a = MdpPropagation(higraph())
        b = MdpPropagation(higraph())
        assert a.sink_ready is not b.sink_ready
        with pytest.raises(TypeError):
            a.sink_ready[0] = False

    def test_crossbar_budget_is_private_and_immutable(self):
        from repro.accel.backend import CrossbarPropagation
        a = CrossbarPropagation(graphdyns())
        b = CrossbarPropagation(graphdyns())
        assert a.unit_budget is not b.unit_budget
        with pytest.raises(TypeError):
            a.unit_budget[0] = 0

    def test_two_interleaved_sims_do_not_alias(self):
        """Interleaving two live simulators must equal running each
        alone — the historical failure mode of the shared vectors."""
        graph = rmat(7, 5.0, seed=21, name="rmat7-21")
        solo = [simulate(higraph(), graph, _make_algorithm("BFS"),
                         engine="reference").stats.to_dict(),
                simulate(graphdyns(), graph, _make_algorithm("BFS"),
                         engine="reference").stats.to_dict()]
        sims = [AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                               engine="reference"),
                AcceleratorSim(graphdyns(), graph, _make_algorithm("BFS"),
                               engine="reference")]
        # poke one sim's sink vector usage by running them turn-about
        results = [sim.run(source=0).stats.to_dict() for sim in sims]
        assert results == solo
