"""Whole-workload offload simulation (paper §VI, Figs. 9 and 10).

The simulator reasons at *path granularity*: the profiled path trace is the
exact sequence of region-sized execution units.  For every unit it charges
either the host OOO cost of that path, or — when the invocation predictor
fires and the unit matches the offloaded region — the CGRA frame cost plus
live-value transfer.  Mispredicted invocations charge the full frame (guard
failure is detected at frame end, the paper's conservative assumption), the
undo-log rollback, and the host re-execution of the actual path.

Host path costs come from the OOO model with loop-carried pipelining
captured by amortising over repeated executions; memory latencies for both
sides come from profiling the recorded address stream through the cache
hierarchy (host port vs. uncore accelerator port) in one dual-port pass.

Two performance layers keep whole-suite sweeps cheap without changing a
single simulated number:

* **run-length trace kernels** — the trace accounting folds an integer
  :class:`~repro.sim.trace_kernels.ChargeCensus` from the O(#runs) RLE
  kernel instead of walking the event stream;
  :class:`EventOracleSimulator` computes the same census event by event
  (the reference tests compare against), so the shared
  census→cycles/energy fold is bitwise-identical by construction;
* **simulation memo** — each sub-simulation is kept on the trace,
  profile or frame it is computed from, keyed by the config fields it
  reads (:mod:`repro.sim.memo`), so the three strategies of an
  evaluation, and every configuration evaluated over the same in-memory
  profile, share what their slices keep.  Nothing is persisted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..frames.frame import Frame
from ..obs import (
    counter as _obs_counter,
    enabled as _obs_enabled,
    gauge as _obs_gauge,
    span as _obs_span,
)
from ..obs.ledger import (
    CHARGE_ABORT_FRAME,
    CHARGE_ABORT_REEXEC,
    CHARGE_ABORT_ROLLBACK,
    CHARGE_FRAME_COMPUTE,
    CHARGE_FRAME_GUARD,
    CHARGE_FRAME_MEM,
    CHARGE_FRAME_PSI,
    CHARGE_HOST_COMPUTE,
    CHARGE_HOST_FALLBACK,
    CHARGE_HOST_MEM_DRAM,
    CHARGE_HOST_MEM_L1,
    CHARGE_HOST_MEM_L2,
    CHARGE_RECONFIG,
    CHARGE_TRANSFER,
    fold_attribution,
)
from ..obs.timeline import TimelineEvent
from ..profiling.ranking import count_ops
from ..interp.events import FunctionTrace
from ..profiling.path_profile import PathProfile
from .cache import profile_stream_dual
from .config import DEFAULT_CONFIG, SystemConfig
from .core_ooo import OOOModel, OOOResult
from .energy import EnergyModel
from .memo import Calibration, SimulationMemo
from .trace_kernels import (
    ChargeCensus,
    census_from_events,
    census_from_segments,
    iter_segment_charges,
    run_length_encode,
)

logger = logging.getLogger(__name__)


#: back-to-back executions a repeating path's host cost is averaged over,
#: so the OOO window can overlap iterations (loop pipelining)
AMORTISE_REPS = 4


@dataclass
class OffloadOutcome:
    """Result of simulating one offload strategy on one workload."""

    workload: str
    strategy: str  # "host" | "bl-path-oracle" | "bl-path-predictor" | "braid"
    baseline_cycles: float
    needle_cycles: float
    baseline_energy_pj: float
    needle_energy_pj: float
    coverage: float = 0.0
    invocations: int = 0
    failures: int = 0
    predictor_precision: float = 1.0
    frame_ops: int = 0
    schedule_cycles: int = 0
    #: accesses served per hierarchy level ("l1"/"l2"/"dram") when the
    #: recorded address stream replays through each port — carried on the
    #: record so the obs layer reports identical simulated-cache counters
    #: for cold, parallel and cache-served evaluations
    host_mem_levels: Dict[str, int] = field(default_factory=dict)
    accel_mem_levels: Dict[str, int] = field(default_factory=dict)
    #: charge class -> (cycles, energy_pj) decomposition of the needle
    #: totals; ``fold_attribution(attribution)`` reproduces
    #: (needle_cycles, needle_energy_pj) bit for bit — the attribution
    #: ledger's conservation contract
    attribution: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: same decomposition for the host-only baseline totals
    baseline_attribution: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def performance_improvement(self) -> float:
        """Fractional cycle reduction (Fig. 9's y-axis)."""
        if self.baseline_cycles == 0:
            return 0.0
        return 1.0 - self.needle_cycles / self.baseline_cycles

    @property
    def energy_reduction(self) -> float:
        """Fractional net energy reduction (Fig. 10's y-axis)."""
        if self.baseline_energy_pj == 0:
            return 0.0
        return 1.0 - self.needle_energy_pj / self.baseline_energy_pj


def _charge(attr: Dict[str, List[float]], cls: str,
            cycles: float = 0.0, energy: float = 0.0) -> None:
    """Accumulate one (cycles, energy) charge into an attribution dict."""
    slot = attr.get(cls)
    if slot is None:
        attr[cls] = [float(cycles), float(energy)]
    else:
        slot[0] += cycles
        slot[1] += energy


def _freeze(attr: Dict[str, List[float]]) -> Dict[str, Tuple[float, float]]:
    return {cls: (v[0], v[1]) for cls, v in attr.items()}


def _predictor(kind: str, targets: Set[int]):
    """A fresh invocation predictor: ``"oracle"`` or the history table."""
    from ..accel.invocation import HistoryPredictor, OraclePredictor

    return OraclePredictor(targets) if kind == "oracle" else HistoryPredictor()


@dataclass(frozen=True)
class _SummaryFailure:
    """A braid constituent whose recurrence summary could not be built;
    cached like a summary so every evaluation that meets it counts it."""

    error: str  # exception type name
    message: str


@dataclass
class _FrameCostModel:
    """Per-(workload, frame) cost constants shared by the attribution
    fold and the simulated-cycle timeline — one derivation, two
    consumers, so the timeline never drifts from the accounting."""

    sched: object  # CGRA ScheduleSummary
    pipeline_ii: float
    run_start_cycles: float  # makespan + live-value transfer (run fill)
    transfer_cycles: float
    transfer_energy_pj: float
    rollback_cycles: float
    failure_exec_cycles: float
    reconfig_cycles: float
    frame_total_pj: float  # whole-frame invocation energy
    compute_pj: float  # frame energy minus guard/ψ FU shares, minus memory
    guard_fu_pj: float
    psi_fu_pj: float
    frame_mem_pj: float
    guard_frac: float  # guard-op share of the scheduled ops
    psi_frac: float  # ψ-op share of the scheduled ops
    exec_fraction: Dict[int, float]
    targets: Set[int]


class OffloadSimulator:
    """Simulates host-only and Needle-offloaded execution of one workload.

    ``memo`` (a :class:`~repro.sim.memo.SimulationMemo`) reads and fills
    the inputs' memo tables and counts this simulator's lookups; any
    simulator over the same profile shares the entries.
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or DEFAULT_CONFIG
        self.energy_model = EnergyModel(self.config.energy, self.config.cgra)
        self.memo = SimulationMemo()
        # memo keys name config slices by their reprs; the config is
        # frozen, so each is taken once per simulator
        self._reprs = {name: repr(getattr(self.config, name))
                       for name in ("memory", "host", "cgra", "energy")}

    # -- memory latency calibration ------------------------------------------------

    def calibrate(self, trace: Optional[FunctionTrace]) -> Calibration:
        """Memory calibration of one workload, both ports at once.

        One dual-port profile of the recorded address stream
        (:func:`~repro.sim.cache.profile_stream_dual`) yields average load
        latencies *and* the per-level access censuses (the simulated cache
        hit/miss numbers the obs layer reports); L1/L2 hit latencies when
        there is no stream.  Memoized on the trace per memory config, so
        the three offload strategies and every config that keeps the
        hierarchy share one profile; with no trace at all there is nothing
        to key on, and the trivial record is computed directly.
        """
        hier = self.config.memory

        def compute() -> Calibration:
            host_lat = float(hier.l1.latency)
            accel_lat = float(hier.l2.latency)
            host_levels: Dict[str, int] = {}
            accel_levels: Dict[str, int] = {}
            if trace is not None and trace.memory:
                host_prof, accel_prof = profile_stream_dual(hier, trace.memory)
                host_levels = dict(host_prof.level_counts)
                accel_levels = dict(accel_prof.level_counts)
                if host_prof.loads:
                    host_lat = host_prof.avg_load_latency
                if accel_prof.loads:
                    accel_lat = accel_prof.avg_load_latency
            return Calibration(
                host_load_latency=host_lat,
                accel_load_latency=accel_lat,
                host_levels=host_levels,
                accel_levels=accel_levels,
            )

        if trace is None:
            return compute()
        return self.memo.get(
            "calibration", trace, self._reprs["memory"], compute
        )

    # -- host path costs ---------------------------------------------------------------

    def path_costs(
        self, profile: PathProfile, host_load_latency: float,
    ) -> Dict[int, OOOResult]:
        """Per-execution host cost of each profiled path: its OOO census
        divided by the executions simulated.

        Paths that repeat are simulated :data:`AMORTISE_REPS` times
        back-to-back, then averaged.  Memoized on the profile per
        :meth:`_host_slice` — the OOO model only sees the rounded integer
        latency, so latencies that round alike share one table, and no
        CGRA setting reaches it.
        """
        key = self._host_slice(host_load_latency)

        def compute() -> Dict[int, OOOResult]:
            model = OOOModel(self.config.host, fixed_load_latency=key[1])
            costs: Dict[int, OOOResult] = {}
            # a sweep keeps one table per host slice for the profile's
            # lifetime, and per-execution counts repeat across paths:
            # equal values share one float (never -0.0, as the counts
            # are non-negative)
            shared: Dict[float, float] = {}
            for pid, count in profile.counts.items():
                reps = AMORTISE_REPS if count >= AMORTISE_REPS else 1
                res = model.simulate(list(profile.decode(pid)) * reps)
                per_exec = costs[pid] = OOOResult()
                for name in vars(per_exec):
                    value = getattr(res, name) / reps
                    setattr(per_exec, name, shared.setdefault(value, value))
            return costs

        return self.memo.get("pathcosts", profile, key, compute)

    def _host_slice(self, host_load_latency: float) -> tuple:
        """The config slice host path costs read (memo key part): the
        host core and the load latency rounded as the OOO model sees it."""
        return (self._reprs["host"], max(1, int(round(host_load_latency))))

    # -- baseline --------------------------------------------------------------------------

    def baseline_attributed(
        self, profile: PathProfile, costs: Dict[int, OOOResult]
    ) -> Tuple[float, float, Dict[str, Tuple[float, float]]]:
        """Baseline totals plus their charge-class decomposition.

        All cycles are ``host.compute``; energy splits into the OOO
        front-end/window/FU share (``host.compute``) and the per-level
        memory hierarchy shares (``host.mem.*``).  The returned totals
        are the canonical fold of the attribution, so the ledger's
        ``host`` strategy conserves exactly against ``baseline_cycles``.
        """
        attr: Dict[str, List[float]] = {}
        for pid, count in profile.counts.items():
            self._host_side_charges(attr, CHARGE_HOST_COMPUTE, count, costs[pid])
        cycles, energy = fold_attribution(attr)
        return cycles, energy, _freeze(attr)

    # -- offload ----------------------------------------------------------------------------

    def _scheduler_fingerprint(self, scheduler) -> tuple:
        """The config slice a CGRA schedule depends on (memo key part)."""
        return (
            self._reprs["cgra"],
            scheduler.load_latency,
            scheduler.store_latency,
        )

    def _schedule(self, scheduler, frame: Frame, profile: PathProfile):
        """``(ScheduleSummary, pipelined II)`` of ``frame`` under this
        configuration, memoized on the frame.  Every braid constituent
        whose summary failed is counted on each lookup, so schedule
        regressions stay visible on every evaluation."""

        def compute():
            sched = scheduler.schedule(
                frame, loop_carried=self._loop_carried(frame)
            )
            return (sched,) + self._effective_ii(frame, sched, profile, scheduler)

        sched, pipeline_ii, fallbacks = self.memo.get(
            "schedule", frame, self._scheduler_fingerprint(scheduler), compute
        )
        if fallbacks and _obs_enabled():
            for failure in fallbacks:
                _obs_counter(
                    "sim.effective_ii_fallbacks", 1,
                    help="braid constituent paths that failed to "
                         "re-schedule for the pipelined II",
                    error=failure.error,
                )
        return sched, pipeline_ii

    def _effective_ii(
        self, frame: Frame, sched, profile: PathProfile, scheduler,
    ) -> Tuple[float, Tuple[_SummaryFailure, ...]]:
        """Initiation interval for pipelined invocations, with the
        constituents that fell back to the whole-region II.

        For a braid, the whole-region recurrence is pessimistic: dataflow
        predication gates untaken arms, so an iteration flowing down the hot
        (short-chain) arm does not serialise behind the cold arm's chain.
        We weight each constituent path's recurrence by its frequency.

        No constituent chain outlasts a braid chain: a constituent's frame
        holds the braid's ops on its blocks, and each of its value
        dependences is either the braid's own or one the braid routes
        through a ψ, one cycle longer; the braid and its paths share the
        entry φs and, when the braid's last block is its exit, the
        back-edge defs.  So a braid whose recurrence II is within its
        resource II prices no constituent.

        A constituent's recurrence depends on the configuration only
        through the rounded load/store latencies, so the live
        constituents' latency-symbolic summaries are composed once per
        braid frame and kept in its table; each configuration only
        evaluates them.
        """
        region = frame.region
        if region.kind != "braid" or len(region.source_paths) < 2:
            return float(sched.initiation_interval), ()
        if (sched.recurrence_ii <= sched.resource_ii
                and region.blocks[-1] is region.exit):
            return float(sched.resource_ii), ()

        with _obs_span("effective_ii"):
            live = [
                (pid, profile.counts.get(pid, 0)) for pid in region.source_paths
            ]
            live = [(pid, freq) for pid, freq in live if freq > 0]
            summaries = self.memo.get(
                "constituents", frame, None,
                lambda: self._constituent_summaries(
                    profile, region, [pid for pid, _freq in live]),
            )
            total_freq = 0
            weighted = 0.0
            fallbacks = []
            for pid, freq in live:
                summary = summaries[pid]
                if isinstance(summary, _SummaryFailure):
                    # constituent falls back to the whole-region II
                    fallbacks.append(summary)
                    logger.debug(
                        "effective-II fallback: constituent path %d of %s "
                        "failed to schedule: %s",
                        pid, region.function.name, summary.message,
                    )
                    continue
                weighted += freq * scheduler.recurrence_from_summary(summary)
                total_freq += freq
            if total_freq == 0:
                return float(sched.initiation_interval), tuple(fallbacks)
            avg_recurrence = weighted / total_freq
            return float(max(sched.resource_ii, avg_recurrence)), tuple(fallbacks)

    @staticmethod
    def _constituent_summaries(profile: PathProfile, region, pids) -> Dict[int, object]:
        """Recurrence summaries of the braid constituent paths ``pids``,
        composed from one frame per braid block; a path with a block that
        cannot be lowered, or a φ that cannot be resolved, gets a
        :class:`_SummaryFailure`."""
        # imported at call time, so a wrapper installed on
        # repro.frames.frame.build_frame sees every block build
        from ..accel.cgra import constituent_summaries
        from ..frames.frame import build_frame as _build_frame
        from ..regions.region import Region as _Region

        def lower(block):  # the frame of the block's one-block path
            try:
                return _build_frame(_Region(
                    kind="bl-path", function=region.function, blocks=[block],
                    entry=block, exit=block,
                ))
            except Exception as exc:
                return exc

        paths = {pid: profile.decode(pid) for pid in pids}
        block_frames: Dict[object, object] = {}
        for blocks in paths.values():
            for block in blocks:
                if block not in block_frames:
                    block_frames[block] = lower(block)
        results = constituent_summaries(paths, block_frames)
        return {
            pid: (_SummaryFailure(type(r).__name__, str(r))
                  if isinstance(r, Exception) else r)
            for pid, r in results.items()
        }

    @staticmethod
    def _loop_carried(frame: Frame):
        """(entry φ, back-edge definition) pairs for the recurrence II.

        When the region is a loop iteration, its final block feeds the entry
        block's φs over the back edge; those defs bound the pipelined II.
        """
        pairs = []
        region = frame.region
        if not region.blocks:
            return pairs
        last = region.blocks[-1]
        for phi in region.entry.phis:
            val = phi.incoming_for(last)
            if val is not None:
                pairs.append((phi, val))
        return pairs

    def _rle(self, profile: PathProfile):
        """RLE view of the profile's trace, computed once per profile."""
        return self.memo.get(
            "rle", profile, None, lambda: run_length_encode(profile.trace)
        )

    def _cost_model(
        self,
        profile: PathProfile,
        frame: Frame,
        cal: Calibration,
        CGRAScheduler,
    ) -> _FrameCostModel:
        """Derive the per-frame cost constants every accounting consumer
        (attribution fold, timeline replay) shares."""
        # Frames stream array data through the banked L2: bank pipelining
        # and the memory-port-limited schedule hide most of the raw L2
        # latency, so the per-load critical-path charge is a fraction of it.
        effective_load = max(4.0, cal.accel_load_latency * 0.4)
        scheduler = CGRAScheduler(
            self.config.cgra,
            load_latency=effective_load,
            store_latency=max(1.0, effective_load / 3),
        )
        sched, pipeline_ii = self._schedule(scheduler, frame, profile)
        frame_eb = self.energy_model.frame_energy(
            n_int_ops=sched.int_ops + sched.guard_ops,
            n_fp_ops=sched.fp_ops,
            n_mem_ops=sched.mem_ops,
            n_edges=sched.edges,
            l2_accesses=sched.mem_ops,
        )
        # Guard and ψ shares of one frame invocation.  Guards are integer
        # compare ops the scheduler tracks separately; ψ-merges map to
        # integer selects, bounded by the schedule's int-op budget.  The
        # remainder (plus network/latch) is productive frame compute.
        cgra = self.config.cgra
        psi_ops = min(len(frame.psis), sched.int_ops)
        guard_fu_pj = sched.guard_ops * cgra.int_fu_pj
        psi_fu_pj = psi_ops * cgra.int_fu_pj
        compute_pj = (
            frame_eb.fu_pj - guard_fu_pj - psi_fu_pj
            + frame_eb.network_pj + frame_eb.latch_pj
        )
        total_sched_ops = max(
            1, sched.int_ops + sched.fp_ops + sched.mem_ops + sched.guard_ops
        )
        n_transfer = len(frame.live_ins) + len(frame.live_outs)
        transfer_cycles = (
            n_transfer * self.config.offload.transfer_cycles_per_value
            + self.config.offload.invocation_overhead_cycles
        )
        transfer_energy = self.energy_model.transfer_energy(n_transfer).total_pj
        rollback_cycles = (
            frame.store_count * self.config.offload.rollback_cycles_per_store
        )
        # Conservative (paper) mode detects guard failure only at frame end,
        # wasting the whole schedule; eager mode aborts around the mean guard
        # position (§V's guard-placement trade-off).
        if self.config.offload.detect_failure_at_end or not frame.guards:
            failure_exec_cycles = sched.cycles
        else:
            mean_pos = sum(g.position for g in frame.guards) / len(frame.guards)
            fraction = (mean_pos + 1) / max(1, frame.op_count)
            failure_exec_cycles = max(1.0, sched.cycles * fraction)
        return _FrameCostModel(
            sched=sched,
            pipeline_ii=pipeline_ii,
            run_start_cycles=sched.cycles + transfer_cycles,
            transfer_cycles=transfer_cycles,
            transfer_energy_pj=transfer_energy,
            rollback_cycles=rollback_cycles,
            failure_exec_cycles=failure_exec_cycles,
            reconfig_cycles=float(cgra.reconfig_cycles * sched.n_configs),
            frame_total_pj=frame_eb.total_pj,
            compute_pj=compute_pj,
            guard_fu_pj=guard_fu_pj,
            psi_fu_pj=psi_fu_pj,
            frame_mem_pj=frame_eb.memory_pj,
            guard_frac=sched.guard_ops / total_sched_ops,
            psi_frac=psi_ops / total_sched_ops,
            exec_fraction=self._exec_fraction(profile, frame),
            targets=set(frame.region.source_paths),
        )

    def _exec_fraction(self, profile: PathProfile, frame: Frame) -> Dict[int, float]:
        """Each source path's share of the frame's ops, kept on the frame.

        Dataflow predication gates tokens on untaken braid arms, so an
        invocation burns energy proportional to the ops its actual path
        touches, not the whole fabric mapping.
        """

        def compute() -> Dict[int, float]:
            frame_ops_total = max(1, frame.region.op_count)
            return {
                pid: min(1.0, count_ops(profile.decode(pid)) / frame_ops_total)
                for pid in frame.region.source_paths
            }

        return self.memo.get("exec_fraction", frame, None, compute)

    def _host_side_charges(
        self,
        attr: Dict[str, List[float]],
        compute_class: str,
        n: int,
        cost: OOOResult,
    ) -> None:
        """Charge ``n`` host executions of a path: OOO front-end/window/FU
        cycles+energy to ``compute_class``, memory energy per level."""
        eb = self.energy_model.host_energy(cost)
        levels = self.energy_model.host_memory_energy_levels(cost)
        _charge(attr, compute_class,
                cycles=n * cost.cycles,
                energy=n * (eb.frontend_pj + eb.window_pj + eb.fu_pj))
        _charge(attr, CHARGE_HOST_MEM_L1, energy=n * levels["l1"])
        _charge(attr, CHARGE_HOST_MEM_L2, energy=n * levels["l2"])
        _charge(attr, CHARGE_HOST_MEM_DRAM, energy=n * levels["dram"])

    def _attribute(self, census, cm: _FrameCostModel,
                   costs: Dict[int, OOOResult]) -> Dict[str, Tuple[float, float]]:
        """Fold a :class:`ChargeCensus` into the charge-class attribution.

        This is the *only* place simulated floats accumulate: the
        reported ``needle_cycles``/``needle_energy_pj`` are defined as
        ``fold_attribution`` of the returned dict, so the ledger's
        per-class sums conserve against the totals bit for bit.

        Run-based accounting: the first invocation in a run of
        back-to-back successful invocations pays pipeline fill (full
        makespan) plus the live-value transfer; each further iteration
        initiates after the frame's II (dataflow pipelining).  The
        configuration stays resident on the fabric across the workload
        (only one frame is offloaded), so reconfiguration is a one-time
        cost, charged once.
        """
        attr: Dict[str, List[float]] = {}
        _charge(attr, CHARGE_RECONFIG, cycles=cm.reconfig_cycles)

        def frame_exec(pid: int, frame_cycles: float, n: int) -> None:
            # split one successful frame-execution term into its
            # guard/ψ/compute shares (cycles by op fraction, energy by
            # FU component), scaled by the path's predication fraction
            scale = cm.exec_fraction.get(pid, 1.0)
            guard_c = frame_cycles * cm.guard_frac
            psi_c = frame_cycles * cm.psi_frac
            _charge(attr, CHARGE_FRAME_COMPUTE,
                    cycles=frame_cycles - guard_c - psi_c,
                    energy=n * scale * cm.compute_pj)
            _charge(attr, CHARGE_FRAME_GUARD,
                    cycles=guard_c, energy=n * scale * cm.guard_fu_pj)
            _charge(attr, CHARGE_FRAME_PSI,
                    cycles=psi_c, energy=n * scale * cm.psi_fu_pj)
            _charge(attr, CHARGE_FRAME_MEM,
                    energy=n * scale * cm.frame_mem_pj)

        for pid in sorted(census.run_starts):
            n = census.run_starts[pid]
            frame_exec(pid, n * cm.sched.cycles, n)
            _charge(attr, CHARGE_TRANSFER,
                    cycles=n * cm.transfer_cycles,
                    energy=n * cm.transfer_energy_pj)
        for pid in sorted(census.pipelined):
            n = census.pipelined[pid]
            frame_exec(pid, n * cm.pipeline_ii, n)
        for pid in sorted(census.failures):
            n = census.failures[pid]
            # the whole frame burns (unscaled: predication can't gate a
            # mispredicted path), then the undo log unwinds, then the
            # host re-executes the actual path
            _charge(attr, CHARGE_ABORT_FRAME,
                    cycles=n * cm.failure_exec_cycles,
                    energy=n * cm.frame_total_pj)
            _charge(attr, CHARGE_TRANSFER,
                    cycles=n * cm.transfer_cycles,
                    energy=n * cm.transfer_energy_pj)
            _charge(attr, CHARGE_ABORT_ROLLBACK, cycles=n * cm.rollback_cycles)
            self._host_side_charges(attr, CHARGE_ABORT_REEXEC, n, costs[pid])
        for pid in sorted(census.host):
            n = census.host[pid]
            self._host_side_charges(
                attr, CHARGE_HOST_FALLBACK, n, costs[pid]
            )
        return _freeze(attr)

    def _census(
        self, workload: str, profile: PathProfile, targets: Set[int],
        predictor_kind: str,
    ) -> Tuple[ChargeCensus, float]:
        """Classify every trace event into an integer :class:`ChargeCensus`
        and return it with the precision of a fresh ``predictor_kind``
        predictor.

        The O(#runs) fold: the predictor replays the run-length trace
        into decision segments and each segment collapses in closed form.
        It reads the targets, the predictor kind and whether invocations
        pipeline, and nothing else of the configuration, so it is
        memoized on the profile under exactly those.
        :class:`EventOracleSimulator` overrides this with the O(#events)
        reference, recomputed on every call; both give the same census
        (property-tested), and :meth:`_attribute` is the only place floats
        accumulate — so both yield bitwise-identical outcomes by
        construction.
        """
        from ..accel.invocation import evaluate_predictor_runs

        rle = self._rle(profile)
        if _obs_enabled():
            _obs_gauge(
                "trace.rle_ratio", rle.rle_ratio,
                help="trace runs / trace events (lower = more "
                     "closed-form fold savings)",
                workload=workload,
            )
        pipelined = self.config.offload.pipelined_invocations

        def compute() -> Tuple[ChargeCensus, float]:
            run_eval = evaluate_predictor_runs(
                rle.runs, targets, _predictor(predictor_kind, targets)
            )
            census = census_from_segments(run_eval.segments, targets, pipelined)
            return census, run_eval.precision

        return self.memo.get(
            "census", profile,
            (frozenset(targets), predictor_kind, pipelined), compute,
        )

    def simulate_offload(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind: str = "oracle",
        trace: Optional[FunctionTrace] = None,
    ) -> OffloadOutcome:
        """Simulate offloading ``frame`` with the given invocation predictor.

        ``predictor_kind``: "oracle" or "history".
        """
        with _obs_span("simulate_offload", workload=workload,
                       kind=frame.region.kind, predictor=predictor_kind):
            return self._simulate_offload(
                workload, profile, frame, predictor_kind, trace,
            )

    def _simulate_offload(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind: str,
        trace: Optional[FunctionTrace],
    ) -> OffloadOutcome:
        # local import: repro.accel depends on repro.sim.config, so the
        # accel package cannot be imported at sim module-load time
        from ..accel.cgra import CGRAScheduler

        cal = self.calibrate(trace)
        costs = self.path_costs(profile, cal.host_load_latency)
        # the host-only baseline reads the path costs and the energy
        # prices alone: kept on the profile per that slice
        base_cycles, base_energy, base_attr = self.memo.get(
            "baseline", profile,
            self._host_slice(cal.host_load_latency)
            + (self._reprs["energy"],),
            lambda: self.baseline_attributed(profile, costs),
        )
        cm = self._cost_model(profile, frame, cal, CGRAScheduler)
        census, precision = self._census(
            workload, profile, cm.targets, predictor_kind
        )

        # The reported totals are *defined as* the canonical fold of the
        # attribution — conservation against the ledger by construction.
        attribution = self._attribute(census, cm, costs)
        needle_cycles, needle_energy = fold_attribution(attribution)

        return OffloadOutcome(
            workload=workload,
            strategy=(
                "braid"
                if frame.region.kind == "braid"
                else "bl-path-%s" % predictor_kind
            ),
            baseline_cycles=base_cycles,
            needle_cycles=needle_cycles,
            baseline_energy_pj=base_energy,
            needle_energy_pj=needle_energy,
            coverage=frame.region.coverage,
            invocations=census.invocations,
            failures=census.failed,
            predictor_precision=precision,
            frame_ops=frame.op_count,
            schedule_cycles=cm.sched.cycles,
            host_mem_levels=dict(cal.host_levels),
            accel_mem_levels=dict(cal.accel_levels),
            attribution=attribution,
            baseline_attribution=dict(base_attr),
        )

    # -- simulated timeline -----------------------------------------------------

    def invocation_timeline(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind: str = "oracle",
        trace: Optional[FunctionTrace] = None,
    ) -> List[TimelineEvent]:
        """Replay the trace as duration events on a simulated-cycle clock.

        One event per predictor-decision segment (a maximal run of
        same-path, same-decision trace events): successful invocation
        runs render as "frame" blocks (pipeline fill + II-spaced
        iterations), guard failures as "abort" blocks (wasted frame +
        rollback + host re-execution), declined events as "host" blocks.
        Durations come from the same :class:`_FrameCostModel` the
        attribution fold uses, so the timeline's total extent tracks the
        reported ``needle_cycles``.
        """
        from ..accel.cgra import CGRAScheduler
        from ..accel.invocation import evaluate_predictor_runs

        cal = self.calibrate(trace)
        costs = self.path_costs(profile, cal.host_load_latency)
        cm = self._cost_model(profile, frame, cal, CGRAScheduler)
        targets = cm.targets
        run_eval = evaluate_predictor_runs(
            self._rle(profile).runs, targets,
            _predictor(predictor_kind, targets),
        )

        pipelined_cfg = self.config.offload.pipelined_invocations
        events: List[TimelineEvent] = []
        clock = 0.0
        if cm.reconfig_cycles > 0:
            events.append(TimelineEvent(
                name="reconfig", start_cycle=0.0,
                duration_cycles=cm.reconfig_cycles,
                args={"configs": cm.sched.n_configs},
            ))
            clock = cm.reconfig_cycles
        for sc in iter_segment_charges(
            run_eval.segments, targets, pipelined_cfg
        ):
            if sc.run_starts or sc.pipelined:
                dur = (
                    sc.run_starts * cm.run_start_cycles
                    + sc.pipelined * cm.pipeline_ii
                )
                events.append(TimelineEvent(
                    name="frame", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid,
                          "invocations": sc.run_starts + sc.pipelined,
                          "fill": sc.run_starts},
                ))
            elif sc.failures:
                dur = sc.failures * (
                    cm.failure_exec_cycles + cm.transfer_cycles
                    + cm.rollback_cycles + costs[sc.pid].cycles
                )
                events.append(TimelineEvent(
                    name="abort", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid, "failures": sc.failures},
                ))
            else:
                dur = sc.host * costs[sc.pid].cycles
                events.append(TimelineEvent(
                    name="host", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid, "events": sc.host},
                ))
            clock += dur
        return events


class EventOracleSimulator(OffloadSimulator):
    """Reference twin of :class:`OffloadSimulator` for tests and
    benchmarks: the census comes from replaying the predictor and
    classifying the trace one event at a time."""

    def _census(self, workload, profile, targets, predictor_kind):
        from ..accel.invocation import evaluate_predictor

        evaluation = evaluate_predictor(
            profile.trace, targets, _predictor(predictor_kind, targets)
        )
        census = census_from_events(
            profile.trace, evaluation.decisions, targets,
            self.config.offload.pipelined_invocations,
        )
        return census, evaluation.precision


__all__ = [
    "Calibration",
    "EventOracleSimulator",
    "OffloadOutcome",
    "OffloadSimulator",
]
