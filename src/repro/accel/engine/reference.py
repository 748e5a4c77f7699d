"""The golden scatter engine: the original component-model cycle loop."""

from __future__ import annotations

import weakref
from collections import deque

import numpy as np

from repro.accel.backend import make_propagation, make_vertex_combiner
from repro.accel.edge_access import make_edge_stage
from repro.accel.frontend import make_frontend
from repro.errors import SimulationError
from repro.hw.fifo import Fifo


class ReferenceEngine:
    """The original component-model cycle loop (golden engine).

    Owns nothing itself: it instantiates the conflict-site components on
    the simulator (``sim.frontend`` / ``sim.edge_stage`` /
    ``sim.propagation`` / the shared queues), where the pipeline tracer
    expects to find them.
    """

    name = "reference"

    def __init__(self, sim) -> None:
        # the simulator owns its engine; a strong back-reference would
        # make every finished simulation garbage that only a full GC
        # pass can free
        self.sim = weakref.proxy(sim)
        config = sim.config
        n, m = config.front_channels, config.back_channels
        sim.frontend = make_frontend(config, sim.graph.offsets)
        sim.edge_stage = make_edge_stage(config, sim._dst, sim._weights)
        combine_fn = (make_vertex_combiner(sim.algorithm.reduce)
                      if config.vertex_combining else None)
        sim.propagation = make_propagation(config, combine_fn)
        sim.active_parts = [deque() for _ in range(n)]
        sim.fe_out = [Fifo(config.fe_out_depth) for _ in range(n)]
        sim.epe_in = [deque() for _ in range(m)]

    # ------------------------------------------------------------------
    def scatter(self, active, sprop_all, tprop: list, stats) -> None:
        """Simulate one scatter phase cycle by cycle."""
        sim = self.sim
        cfg = sim.config
        n, m = cfg.front_channels, cfg.back_channels
        parts, fe_out, epe_in = sim.active_parts, sim.fe_out, sim.epe_in
        frontend, edge_stage, propagation = (sim.frontend, sim.edge_stage,
                                             sim.propagation)
        reduce_fn = sim.algorithm.reduce
        process_fn = sim.algorithm.process_edge

        sprops = sprop_all[active].tolist()
        actives = active.tolist()
        for i, (u, sp) in enumerate(zip(actives, sprops)):
            parts[i % n].append((u, sp))

        expected = int(sim.out_degree[active].sum())
        fe_pending = len(actives)
        reduces = 0
        cycles = 0
        starved = 0
        limit = 4 * expected + 8 * fe_pending + 10_000

        while fe_pending > 0 or reduces < expected:
            cycles += 1
            if cycles > limit:
                raise SimulationError(
                    f"scatter did not converge within {limit} cycles "
                    f"({reduces}/{expected} reduces, {fe_pending} vertices "
                    f"pending) — queue sizing bug?")
            # 1. propagation delivers; vPEs reduce into tProperty banks.
            #    A record is (v, imm, count): `count` edges may have been
            #    coalesced into it on the way here.
            delivered = propagation.tick_deliver()
            for _, (dv, imm, cnt) in delivered:
                tprop[dv] = reduce_fn(tprop[dv], imm)
                reduces += cnt
            got = len(delivered)
            starved += m - got
            stats.vpe_busy_cycles += got
            # 2. ePEs: Process_Edge, one record per channel per cycle
            for k in range(m):
                q = epe_in[k]
                if q:
                    dstv, w, sp = q[0]
                    if propagation.offer(k, dstv % m,
                                         (dstv, process_fn(sp, w), 1)):
                        q.popleft()
            # 3. Edge Array access (site ②)
            edge_stage.tick(fe_out, epe_in)
            # 4. Offset Array access + ActiveVertex fetch (site ①)
            fe_pending -= frontend.tick(parts, fe_out)
            if sim.tracer is not None:
                sim.tracer.sample(sim, cycles, got)

        stats.scatter_cycles += cycles
        stats.vpe_starvation_cycles += starved
        stats.edges_processed += reduces

    # ------------------------------------------------------------------
    def scatter_phase(self, active, sprop_all, identity: float,
                      stats) -> np.ndarray:
        """One whole scatter phase with a fresh identity-seeded tProperty;
        returns the reduced array (the engine-level seam the ``soa``
        engine overrides to keep the buffer resident across phases)."""
        tprop = [identity] * self.sim.graph.num_vertices
        self.scatter(active, sprop_all, tprop, stats)
        return np.asarray(tprop, dtype=np.float64)

    # ------------------------------------------------------------------
    def harvest(self, stats) -> None:
        sim = self.sim
        stats.offset_deferrals = sim.frontend.deferrals
        stats.edge_conflicts = sim.edge_stage.conflicts
        stats.propagation_conflicts = sim.propagation.conflicts
