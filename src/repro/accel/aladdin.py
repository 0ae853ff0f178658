"""Aladdin-style pre-RTL accelerator estimation (Shao et al., ISCA 2014).

The paper positions Needle's output as *plug-n-play* for existing
accelerator-analysis backends (Fig. 1 cites Aladdin and TDGF next to the
CGRA backend we model in :mod:`repro.accel.cgra`).  This module is that
second backend: a dynamic-dataflow (DDDG) scheduler with *per-class*
functional-unit constraints, swept over resource allocations to produce the
latency/power/area design space Aladdin explores for fixed-function
accelerators.

Differences from the CGRA backend, mirroring the real tools' philosophies:

* resources are provisioned per op class (ALUs, FP units, multipliers,
  memory ports) instead of a homogeneous fabric;
* power = dynamic (activity x per-op energy) + *leakage per provisioned
  unit*, so over-provisioning shows up as a cost;
* the output of interest is the latency/power Pareto over allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..frames.frame import Frame, FrameOp
from .cgra import CGRAScheduler, list_schedule

#: op class -> (dynamic energy pJ, leakage uW per unit, area um^2 per unit)
FU_LIBRARY: Dict[str, Tuple[float, float, float]] = {
    "int_alu": (0.9, 8.0, 280.0),
    "int_mul": (4.2, 30.0, 1_600.0),
    "int_div": (12.0, 60.0, 4_100.0),
    "fp_alu": (7.5, 55.0, 4_900.0),
    "fp_mul": (9.6, 70.0, 6_200.0),
    "fp_div": (22.0, 120.0, 14_000.0),
    "mem_port": (5.6, 40.0, 2_400.0),
}

_CLASS_OF = {
    "mul": "int_mul",
    "sdiv": "int_div",
    "srem": "int_div",
    "fadd": "fp_alu",
    "fsub": "fp_alu",
    "fmin": "fp_alu",
    "fmax": "fp_alu",
    "fcmp": "fp_alu",
    "fneg": "fp_alu",
    "fabs": "fp_alu",
    "sitofp": "fp_alu",
    "fptosi": "fp_alu",
    "fmul": "fp_mul",
    "fdiv": "fp_div",
    "fsqrt": "fp_div",
    "load": "mem_port",
    "store": "mem_port",
}


def op_class(fop: FrameOp) -> str:
    if fop.kind == "undo":
        return "mem_port"
    return _CLASS_OF.get(fop.opcode, "int_alu")


@dataclass(frozen=True)
class AladdinConfig:
    """One resource allocation point."""

    int_alus: int = 4
    int_muls: int = 2
    int_divs: int = 1
    fp_alus: int = 2
    fp_muls: int = 2
    fp_divs: int = 1
    mem_ports: int = 2
    clock_mhz: float = 500.0

    def limit(self, cls: str) -> int:
        return {
            "int_alu": self.int_alus,
            "int_mul": self.int_muls,
            "int_div": self.int_divs,
            "fp_alu": self.fp_alus,
            "fp_mul": self.fp_muls,
            "fp_div": self.fp_divs,
            "mem_port": self.mem_ports,
        }[cls]

    def provisioned(self) -> Dict[str, int]:
        return {cls: self.limit(cls) for cls in FU_LIBRARY}


@dataclass
class AladdinResult:
    """Latency/power/area estimate of one frame at one allocation."""

    config: AladdinConfig
    latency_cycles: int
    dynamic_energy_pj: float
    leakage_uw: float
    area_um2: float
    fu_busy: Dict[str, int] = field(default_factory=dict)

    @property
    def latency_us(self) -> float:
        return self.latency_cycles / self.config.clock_mhz

    @property
    def power_mw(self) -> float:
        """Average power over one invocation at the configured clock."""
        if self.latency_cycles == 0:
            return self.leakage_uw / 1000.0
        seconds = self.latency_cycles / (self.config.clock_mhz * 1e6)
        dynamic_w = self.dynamic_energy_pj * 1e-12 / seconds
        return dynamic_w * 1000.0 + self.leakage_uw / 1000.0

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6


class AladdinEstimator:
    """DDDG scheduling under per-class FU constraints."""

    def __init__(self, load_latency: int = 4, store_latency: int = 2):
        self.load_latency = load_latency
        self.store_latency = store_latency

    def schedule(self, frame: Frame, config: Optional[AladdinConfig] = None) -> AladdinResult:
        """Resource-constrained list scheduling of the frame's DDDG: the
        CGRA's dependence graph, op latencies and placement loop, with one
        cap per FU class."""
        config = config or AladdinConfig()
        cgra = CGRAScheduler(
            load_latency=self.load_latency, store_latency=self.store_latency
        )
        classes = [op_class(fop) for fop in frame.ops]
        latencies = cgra._latencies(frame)
        _start, finish, order = list_schedule(
            cgra._build_deps(frame),
            latencies,
            [(cls,) for cls in classes],
            {cls: max(1, n) for cls, n in config.provisioned().items()},
        )
        busy: Dict[str, int] = {}
        dynamic_pj = 0.0
        for i in order:
            cls = classes[i]
            busy[cls] = busy.get(cls, 0) + latencies[i]
            dynamic_pj += FU_LIBRARY[cls][0]

        leak = sum(
            count * FU_LIBRARY[cls][1] for cls, count in config.provisioned().items()
        )
        area = sum(
            count * FU_LIBRARY[cls][2] for cls, count in config.provisioned().items()
        )
        return AladdinResult(
            config=config,
            latency_cycles=max(finish, default=0),
            dynamic_energy_pj=dynamic_pj,
            leakage_uw=leak,
            area_um2=area,
            fu_busy=busy,
        )

    # -- design space exploration ------------------------------------------------

    def sweep(
        self,
        frame: Frame,
        alu_options: Sequence[int] = (1, 2, 4, 8),
        fp_options: Sequence[int] = (1, 2, 4, 8),
        mem_options: Sequence[int] = (1, 2, 4),
    ) -> List[AladdinResult]:
        """Latency/power results over a grid of resource allocations."""
        results = []
        for alus in alu_options:
            for fps in fp_options:
                for ports in mem_options:
                    cfg = AladdinConfig(
                        int_alus=alus,
                        int_muls=max(1, alus // 2),
                        fp_alus=fps,
                        fp_muls=fps,
                        mem_ports=ports,
                    )
                    results.append(self.schedule(frame, cfg))
        return results

    @staticmethod
    def pareto(results: Sequence[AladdinResult]) -> List[AladdinResult]:
        """Latency/power Pareto frontier (both minimised)."""
        frontier: List[AladdinResult] = []
        for r in sorted(results, key=lambda r: (r.latency_cycles, r.power_mw)):
            if all(
                not (f.latency_cycles <= r.latency_cycles and f.power_mw <= r.power_mw)
                or (f.latency_cycles == r.latency_cycles and f.power_mw == r.power_mw)
                for f in frontier
            ):
                frontier.append(r)
        # keep strictly improving power along increasing latency
        out: List[AladdinResult] = []
        best_power = float("inf")
        for r in sorted(frontier, key=lambda r: r.latency_cycles):
            if r.power_mw < best_power:
                out.append(r)
                best_power = r.power_mw
        return out
