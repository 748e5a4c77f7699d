"""The batched scatter engine: cycle-exact orchestration, built for speed.

This module holds only the engine *control flow* — per-cycle
orchestration (propagation deliver → ePE offers → edge tick → frontend
tick, identical to the reference loop), the bulk fast-forward of
contention-free drains, and the whole-phase record/replay glue.  The
subnetwork implementations live in their own layers:

* :mod:`repro.accel.engine.fastnets` — the fast network models and
  site-③ propagation adapters;
* :mod:`repro.accel.engine.frontends` — site ① (and the shadow replay
  used for partially-repeating phases);
* :mod:`repro.accel.engine.edgestage` — site ②;
* :mod:`repro.accel.engine.windows` — phase programs and the
  per-subnetwork-keyed memo.

See the package docstring (``repro.accel.engine``) for the equivalence
contract and ``docs/performance.md`` for the invariants each
fast-forward rests on.
"""

from __future__ import annotations

import numpy as np

from repro.accel.engine.edgestage import make_batched_edge_stage
from repro.accel.engine.frontends import make_batched_frontend, replay_frontend
from repro.accel.engine.propagation import (
    _BatchedMdpPropagation,
    _BatchedXbarPropagation,
)
from repro.accel.engine.registry import FFWD_TELEMETRY, reset_ffwd_telemetry
from repro.accel.engine.windows import PhaseMemo, PhaseProgram, PhaseRecorder
from repro.errors import SimulationError


class BatchedEngine:
    """Cycle-exact batched scatter engine (see the package docstring).

    The orchestration per cycle is identical to the reference loop —
    propagation deliver, ePE offers, edge-stage tick, frontend tick —
    with occupancy counts gating each step and bulk fast-forwards for
    the contention-free drain regions.
    """

    name = "batched"

    def __init__(self, sim) -> None:
        # one run == one engine: zeroing here keeps the process-wide
        # telemetry per-run without relying on callers to reset it
        reset_ffwd_telemetry()
        config = sim.config
        self.config = config
        self.n = config.front_channels
        self.m = config.back_channels
        alg = sim.algorithm
        self.reduce_fn = alg.scalar_reduce_fn()
        self.process_fn = alg.process_edge
        #: per-edge kernel shape: 0 identity, 1 weight-independent
        #: (hoistable per request), 2 ``payload + w``, 3 ``min``, 4 call
        if alg.process_is_identity:
            self._proc = 0
        elif not alg.uses_weights:
            self._proc = 1
        elif alg.process_op == "add":
            self._proc = 2
        elif alg.process_op == "min":
            self._proc = 3
        else:
            self._proc = 4
        self.out_degree = sim.out_degree
        n, m = self.n, self.m
        # per-edge destination channel (dst % m), hoisted out of the
        # dispatcher hot loop; one vectorized pass per engine, reused
        # every iteration
        dst_mod = (sim.graph.dst % m).tolist()

        if config.propagation_site == "mdp":
            self.prop = _BatchedMdpPropagation(config, self.reduce_fn)
        else:
            self.prop = _BatchedXbarPropagation(config, self.reduce_fn)
        self.frontend = make_batched_frontend(config,
                                              sim.graph.offsets.tolist())
        self.edge = make_batched_edge_stage(config, self.frontend, sim._dst,
                                            dst_mod, sim._weights,
                                            self._proc, self.process_fn)

        #: event-driven fast-forward telemetry (not part of SimStats)
        self.ffwd_windows = 0
        self.ffwd_cycles = 0
        self.ffwd_events = 0
        self.ffwd_partial_windows = 0
        self.ffwd_front_cycles = 0
        #: whole-phase structural windows (see repro.accel.engine.windows):
        #: only all-active algorithms re-present identical frontiers
        self.phase_memo = PhaseMemo() if alg.all_active else None
        self.algorithm = alg
        self._true_reduce = self.reduce_fn
        self._offsets_np = sim.graph.offsets
        self._dst_np = sim.graph.dst
        self._weights_np = sim.graph.weights
        self.num_vertices = sim.graph.num_vertices

        # counter locations the record/replay pass touches, grouped by
        # subnetwork (the grouping is what makes partial replay possible)
        self._front_sites = self.frontend.counter_sites()
        self._edge_sites = self.edge.counter_sites()
        self._prop_sites = self.prop.counter_sites()
        self._counter_sites = (self._front_sites + self._edge_sites
                               + self._prop_sites)
        self._n_front_sites = len(self._front_sites)
        # propagation-side reduce slots the recorder swaps; the engine's
        # own ``reduce_fn`` is swapped explicitly next to them, because a
        # ``(self, "reduce_fn")`` entry here would make every engine a
        # reference cycle that only a full GC pass can free
        self._reduce_sites = self.prop.reduce_sites()

    # ------------------------------------------------------------------
    # Whole-phase structural windows (see repro.accel.engine.windows)
    # ------------------------------------------------------------------
    def _arb_state(self) -> tuple:
        """Persistent control state a phase's cycle evolution depends on,
        one segment per subnetwork.

        Everything else (queues, parts, per-phase counters) is empty or
        fresh at phase boundaries; parked-offer masks are provably zero
        once a phase drains, but they join the key anyway so a bug here
        could only ever *miss* a window, never corrupt one.
        """
        return (self.frontend.arb_key(), self.edge.arb_key(),
                self.prop.arb_key())

    def _restore_arb_state(self, state: tuple) -> None:
        self.frontend.restore_arb(state[0])
        self.edge.restore_arb(state[1])
        self.prop.restore_arb(state[2])

    def _replay_phase(self, prog, sprop_all, tprop: list, stats) -> None:
        """Fast-forward one proven-identical phase in closed form."""
        d = prog.stat_deltas
        stats.scatter_cycles += d["scatter_cycles"]
        stats.vpe_starvation_cycles += d["vpe_starvation_cycles"]
        stats.vpe_busy_cycles += d["vpe_busy_cycles"]
        stats.edges_processed += d["edges_processed"]
        for (obj, attr), delta in zip(self._counter_sites,
                                      prog.counter_deltas):
            if delta:
                setattr(obj, attr, getattr(obj, attr) + delta)
        self._restore_arb_state(prog.end_state)
        prog.value_pass(self.algorithm, sprop_all, self._weights_np, tprop)
        events = (len(prog.news_e) + len(prog.merge_a)
                  + len(prog.deliver_slots))
        self.ffwd_windows += 1
        self.ffwd_cycles += prog.cycles
        self.ffwd_events += events
        FFWD_TELEMETRY["windows"] += 1
        FFWD_TELEMETRY["cycles_fast_forwarded"] += prog.cycles
        FFWD_TELEMETRY["events"] += events

    def _partial_replay(self, key: tuple, prog, active, sprop_all,
                        tprop: list, stats) -> bool:
        """Replay a phase whose edge+propagation segments match ``prog``
        by re-simulating only the frontend (see windows.py).

        Returns True when the shadow frontend's emission stream matched
        the recording and the phase was committed in closed form.
        """
        shadow = make_batched_frontend(self.config, self.frontend.offsets)
        shadow.restore_arb(key[0])
        pu, psp = self._build_parts(active, sprop_all, int(active.size))
        shadow.load_parts(pu, psp)
        resim = replay_frontend(shadow, prog.front_trace)
        if resim is None:
            self.phase_memo.partial_failed(key)
            return False
        d = prog.stat_deltas
        stats.scatter_cycles += d["scatter_cycles"]
        stats.vpe_starvation_cycles += d["vpe_starvation_cycles"]
        stats.vpe_busy_cycles += d["vpe_busy_cycles"]
        stats.edges_processed += d["edges_processed"]
        # frontend counters come from the shadow (it started from zero)…
        front_deltas = tuple(getattr(obj, attr)
                             for obj, attr in shadow.counter_sites())
        for (obj, attr), delta in zip(self._front_sites, front_deltas):
            if delta:
                setattr(obj, attr, getattr(obj, attr) + delta)
        # …downstream counters and end state from the recorded program
        nf = self._n_front_sites
        for (obj, attr), delta in zip(self._counter_sites[nf:],
                                      prog.counter_deltas[nf:]):
            if delta:
                setattr(obj, attr, getattr(obj, attr) + delta)
        front_end = shadow.arb_key()
        self.frontend.restore_arb(front_end)
        self.edge.restore_arb(prog.end_state[1])
        self.prop.restore_arb(prog.end_state[2])
        prog.value_pass(self.algorithm, sprop_all, self._weights_np, tprop)
        # the verified composite state now replays in closed form
        self.phase_memo.store_derived(key, prog.derive(front_deltas,
                                                       front_end, nf))
        events = (len(prog.news_e) + len(prog.merge_a)
                  + len(prog.deliver_slots))
        self.ffwd_windows += 1
        self.ffwd_partial_windows += 1
        self.ffwd_cycles += prog.cycles
        self.ffwd_front_cycles += resim
        self.ffwd_events += events
        FFWD_TELEMETRY["windows"] += 1
        FFWD_TELEMETRY["partial_windows"] += 1
        FFWD_TELEMETRY["cycles_fast_forwarded"] += prog.cycles
        FFWD_TELEMETRY["front_cycles_resimulated"] += resim
        FFWD_TELEMETRY["events"] += events
        return True

    def _finish_recording(self, key: tuple, prog, counters0: list,
                          cycles: int, starved: int, busy: int,
                          reduces: int, sprop_all, tprop: list) -> None:
        self.reduce_fn = self._true_reduce
        for obj, attr in self._reduce_sites:
            setattr(obj, attr, self._true_reduce)
        self.edge.rec_news = None
        self.frontend.trace = None
        prog.front_trace.finish()
        prog.stat_deltas = {"scatter_cycles": cycles,
                            "vpe_starvation_cycles": starved,
                            "vpe_busy_cycles": busy,
                            "edges_processed": reduces}
        prog.counter_deltas = tuple(
            getattr(obj, attr) - before
            for (obj, attr), before in zip(self._counter_sites, counters0))
        prog.end_state = self._arb_state()
        prog.cycles = cycles
        prog.finalize(self._offsets_np, self._dst_np)
        prog.value_pass(self.algorithm, sprop_all, self._weights_np, tprop)
        self.phase_memo.store(key, prog)

    # ------------------------------------------------------------------
    def _build_parts(self, active, sprop_all, size: int):
        """ActiveVertex parts: per-channel flat lists, round-robin order."""
        n = self.n
        if size < 4 * n:
            # tiny frontier: a python loop beats 2n numpy slices
            us = active.tolist()
            sps = sprop_all[active].tolist()
            pu: list[list] = [[] for _ in range(n)]
            psp: list[list] = [[] for _ in range(n)]
            for i, u in enumerate(us):
                pu[i % n].append(u)
                psp[i % n].append(sps[i])
        else:
            sel = sprop_all[active]
            pu = [active[ch::n].tolist() for ch in range(n)]
            psp = [sel[ch::n].tolist() for ch in range(n)]
        return pu, psp

    # ------------------------------------------------------------------
    # Scatter phase
    # ------------------------------------------------------------------
    def scatter(self, active, sprop_all, tprop: list, stats) -> None:
        """Memo prologue (replay / partial replay / record decision), then
        the cycle march.  The march itself is a separate method so a
        subclassing engine (``soa``) can swap the marcher; with
        ``phase_memo`` set to None every phase goes straight to it."""
        memo = self.phase_memo
        record_key = None
        if memo is not None:
            key = self._arb_state()
            memo.phase_starting(key)
            prog = memo.lookup(key, active)
            if prog is not None:
                self._replay_phase(prog, sprop_all, tprop, stats)
                return
            prog = memo.partial_candidate(key, active)
            if prog is not None and self._partial_replay(
                    key, prog, active, sprop_all, tprop, stats):
                return
            if memo.can_record(key):
                record_key = key
        self._march(active, sprop_all, tprop, stats, record_key)

    def scatter_phase(self, active, sprop_all, identity: float,
                      stats) -> np.ndarray:
        """One whole scatter phase with a fresh identity-seeded tProperty;
        returns the reduced array.  This is the engine-level seam the
        ``soa`` engine overrides to keep the buffer resident across
        phases (the per-phase marshalling prologue)."""
        tprop = [identity] * self.num_vertices
        self.scatter(active, sprop_all, tprop, stats)
        return np.asarray(tprop, dtype=np.float64)

    def _march(self, active, sprop_all, tprop: list, stats,
               record_key: tuple | None) -> None:
        """Simulate one scatter phase cycle by cycle (recording it when
        ``record_key`` is set)."""
        recorder = None
        rec_trace = None
        fe = self.frontend
        edge = self.edge
        if record_key is not None:
            prog = PhaseProgram(active.copy())
            recorder = PhaseRecorder(prog)
            rec_trace = prog.front_trace
            fe.trace = rec_trace
            caller_tprop = tprop
            tprop = [None] * self.num_vertices
            edge.rec_news = recorder.news_e
            self.reduce_fn = recorder.reduce
            for obj, attr in self._reduce_sites:
                setattr(obj, attr, recorder.reduce)
            counters0 = [getattr(obj, attr)
                         for obj, attr in self._counter_sites]
        n, m = self.n, self.m
        size = int(active.size)
        if size:
            pu, psp = self._build_parts(active, sprop_all, size)
            fe.load_parts(pu, psp)

        expected = int(self.out_degree[active].sum())
        fe_pending = size
        reduces = 0
        cycles = 0
        starved = 0
        busy = 0
        limit = 4 * expected + 8 * fe_pending + 10_000

        prop = self.prop
        frontend_tick = fe.tick
        edge_tick = edge.tick
        edge_active = edge.active
        deliver_reduce = prop.deliver_reduce
        epe_q = edge.epe_q
        prop_is_mdp = prop.kind == "mdp"
        if prop_is_mdp:
            pnet = prop.net
            table0 = pnet.table[0]
            queues0 = pnet.queues[0]
            combining = pnet.combining
            p_block = pnet.block_len
            reduce_fn = self.reduce_fn
            pnet_deliver = pnet.deliver_reduce
            pnet_advance = pnet.advance
        else:
            xbar_offer = prop.xbar.offer

        while fe_pending > 0 or reduces < expected:
            # -- bulk fast-forward: the front end has retired everything
            #    and the edge pipeline + ePE queues are empty, so the
            #    records still in flight can only drain from the
            #    propagation site — no new offers, no contention ahead.
            if (fe_pending == 0 and not edge.epe_count and prop.count
                    and not edge_active()):
                cyc, got_total, red = prop.drain_reduce(tprop)
                cycles += cyc
                if cycles > limit:
                    break               # converges to the error below
                starved += cyc * m - got_total
                busy += got_total
                reduces += red
                fe.skip(cyc)
                if rec_trace is not None:
                    rec_trace.record_skip(cyc)
                continue                # loop condition now decides
            cycles += 1
            if cycles > limit:
                raise SimulationError(
                    f"scatter did not converge within {limit} cycles "
                    f"({reduces}/{expected} reduces, {fe_pending} vertices "
                    f"pending) — queue sizing bug?")
            if rec_trace is not None:
                rec_trace.begin_cycle()
            # 1. propagation delivers; vPEs reduce into tProperty banks
            if prop_is_mdp:
                got, red = pnet_deliver(tprop)
                if pnet.count:
                    pnet_advance()
            else:
                got, red = deliver_reduce(tprop)
            starved += m - got
            busy += got
            reduces += red
            # 2. ePEs: Process_Edge, one record per channel per cycle
            total = edge.epe_count
            if total and prop_is_mdp:
                # inlined _FastMdpNet.offer, minus the per-record call
                consumed = 0
                added = 0
                seen = 0
                for k, q in enumerate(epe_q):
                    if q:
                        seen += 1
                        item = q[0]
                        tq = queues0[table0[k][item[0]]]
                        if tq:
                            if combining and tq[-1][1] == item[1]:
                                tail = tq[-1]
                                tq[-1] = (tail[0], tail[1],
                                          reduce_fn(tail[2], item[2]),
                                          tail[3] + item[3])
                                q.popleft()
                                consumed += 1
                            elif len(tq) > p_block:
                                pnet.rejected_offers += 1
                            else:
                                tq.append(item)
                                added += 1
                                q.popleft()
                                consumed += 1
                        else:
                            tq.append(item)
                            added += 1
                            q.popleft()
                            consumed += 1
                        if seen == total:
                            break
                edge.epe_count -= consumed
                pnet.counts[0] += added
                pnet.count += added
            elif total:
                consumed = 0
                seen = 0
                for k, q in enumerate(epe_q):
                    if q:
                        seen += 1
                        if xbar_offer(k, q[0]):
                            q.popleft()
                            consumed += 1
                        if seen == total:
                            break
                edge.epe_count -= consumed
            # 3. Edge Array access (site ②)
            edge_tick()
            # 4. Offset Array access + ActiveVertex fetch (site ①)
            fe_pending -= frontend_tick()
        else:
            stats.scatter_cycles += cycles
            stats.vpe_starvation_cycles += starved
            stats.vpe_busy_cycles += busy
            stats.edges_processed += reduces
            FFWD_TELEMETRY["cycles_simulated"] += cycles
            if recorder is not None:
                self._finish_recording(record_key, recorder.prog, counters0,
                                       cycles, starved, busy, reduces,
                                       sprop_all, caller_tprop)
            return
        raise SimulationError(
            f"scatter did not converge within {limit} cycles "
            f"({reduces}/{expected} reduces, {fe_pending} vertices "
            f"pending) — queue sizing bug?")

    # ------------------------------------------------------------------
    def harvest(self, stats) -> None:
        stats.offset_deferrals = self.frontend.deferrals
        stats.edge_conflicts = self.edge.edge_conflicts()
        stats.propagation_conflicts = self.prop.conflicts
