"""Energy accounting (McPAT stand-in + Table V CGRA parameters).

Host energy is dominated by the front-end and OOO-window costs paid on every
instruction — exactly the overhead hardware acceleration elides (Hameed et
al. [19], cited in §III.A).  Accelerator energy is priced from the Table V
CGRA numbers: per-FU op energy, per-DFG-edge network energy, and a latch
charge per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import CGRAConfig, EnergyConfig
from .core_ooo import OOOResult


@dataclass
class EnergyBreakdown:
    """Picojoule totals by component."""

    frontend_pj: float = 0.0
    window_pj: float = 0.0
    fu_pj: float = 0.0
    memory_pj: float = 0.0
    network_pj: float = 0.0
    latch_pj: float = 0.0
    transfer_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return (
            self.frontend_pj
            + self.window_pj
            + self.fu_pj
            + self.memory_pj
            + self.network_pj
            + self.latch_pj
            + self.transfer_pj
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            frontend_pj=self.frontend_pj + other.frontend_pj,
            window_pj=self.window_pj + other.window_pj,
            fu_pj=self.fu_pj + other.fu_pj,
            memory_pj=self.memory_pj + other.memory_pj,
            network_pj=self.network_pj + other.network_pj,
            latch_pj=self.latch_pj + other.latch_pj,
            transfer_pj=self.transfer_pj + other.transfer_pj,
        )


class EnergyModel:
    """Prices host traces and accelerator frames."""

    def __init__(self, energy: EnergyConfig, cgra: CGRAConfig):
        self.energy = energy
        self.cgra = cgra

    # -- host ------------------------------------------------------------------

    def host_energy(self, result: OOOResult) -> EnergyBreakdown:
        """Energy of an OOO trace segment from its event census."""
        e = self.energy
        n = result.instructions
        mem_pj = (
            result.mem_ops * e.l1_access_pj
            + result.l2_hits * e.l2_access_pj
            + result.dram_accesses * e.dram_access_pj
        )
        return EnergyBreakdown(
            frontend_pj=n * e.host_frontend_pj,
            window_pj=n * e.host_window_pj,
            fu_pj=result.int_ops * e.host_int_op_pj
            + result.fp_ops * e.host_fp_op_pj
            + result.branches * e.host_int_op_pj,
            memory_pj=mem_pj,
        )

    def host_memory_energy_levels(self, result: OOOResult) -> "Dict[str, float]":
        """Host memory energy split per hierarchy level (pJ).

        The per-level terms sum to :meth:`host_energy`'s ``memory_pj`` by
        construction — the attribution ledger uses this split to charge
        ``host.mem.l1``/``l2``/``dram`` classes exactly.
        """
        e = self.energy
        return {
            "l1": result.mem_ops * e.l1_access_pj,
            "l2": result.l2_hits * e.l2_access_pj,
            "dram": result.dram_accesses * e.dram_access_pj,
        }

    # -- accelerator -----------------------------------------------------------------

    def frame_energy(
        self,
        n_int_ops: int,
        n_fp_ops: int,
        n_mem_ops: int,
        n_edges: int,
        l2_accesses: int = 0,
    ) -> EnergyBreakdown:
        """Energy of one frame invocation on the CGRA.

        There is no front-end and no OOO window: ops pay their FU energy,
        each dataflow edge pays one switch+link traversal, and every op
        latches its result.  Memory ops additionally pay the L2 cost.
        """
        c = self.cgra
        e = self.energy
        total_ops = n_int_ops + n_fp_ops + n_mem_ops
        return EnergyBreakdown(
            fu_pj=n_int_ops * c.int_fu_pj + n_fp_ops * c.fp_fu_pj,
            network_pj=n_edges * c.network_pj,
            latch_pj=total_ops * c.latch_pj,
            memory_pj=l2_accesses * e.l2_access_pj,
        )

    def transfer_energy(self, n_values: int) -> EnergyBreakdown:
        """Live-in/out movement through the L2."""
        return EnergyBreakdown(
            transfer_pj=n_values * self.energy.transfer_per_value_pj
        )
