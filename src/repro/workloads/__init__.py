"""The 29-workload synthetic suite standing in for SPEC, PARSEC and PERFECT.

Use :func:`get` to fetch a workload by its paper name (e.g. ``"470.lbm"``),
:func:`all_workloads` for the full suite in Table II order, and
:func:`repro.workloads.base.profile_workload` to build+profile one.
"""

from __future__ import annotations

from typing import List

from .base import ProfiledWorkload, Workload, clear_profile_cache, profile_workload
from .builders import (
    Arith,
    ArraySpec,
    BreakIf,
    If,
    LoadVal,
    Loop,
    Reset,
    StoreVal,
    build_loop_kernel,
)
from .spec_int import SPEC_INT_WORKLOADS
from .spec_fp import SPEC_FP_WORKLOADS
from .parsec_perfect import PARSEC_PERFECT_WORKLOADS

#: Table II presentation order: SPEC INT+FP (numerically), then
#: PARSEC/PERFECT alphabetically.
_SPEC_ORDER = [
    "164.gzip",
    "175.vpr",
    "179.art",
    "181.mcf",
    "183.equake",
    "186.crafty",
    "197.parser",
    "401.bzip2",
    "403.gcc",
    "429.mcf",
    "444.namd",
    "450.soplex",
    "453.povray",
    "456.hmmer",
    "458.sjeng",
    "464.h264ref",
    "470.lbm",
    "482.sphinx3",
]
_PARSEC_PERFECT_ORDER = [
    "blackscholes",
    "bodytrack",
    "dwt53",
    "ferret",
    "fft-2d",
    "fluidanimate",
    "freqmine",
    "sar-backprojection",
    "sar-pfa-interp1",
    "streamcluster",
    "swaptions",
]

_ALL = {
    w.name: w
    for w in SPEC_INT_WORKLOADS + SPEC_FP_WORKLOADS + PARSEC_PERFECT_WORKLOADS
}


class UnknownWorkload(KeyError):
    """A workload name not in the suite; the message lists the known ones."""

    def __str__(self) -> str:
        return self.args[0]  # KeyError's own str() quotes the message


def get(name: str) -> Workload:
    """Workload by paper name; raises :class:`UnknownWorkload` with
    suggestions."""
    try:
        return _ALL[name]
    except KeyError:
        raise UnknownWorkload(
            "unknown workload %r; known: %s" % (name, ", ".join(sorted(_ALL)))
        ) from None


def all_names() -> List[str]:
    return _SPEC_ORDER + _PARSEC_PERFECT_ORDER


def all_workloads() -> List[Workload]:
    return [_ALL[n] for n in all_names()]


def suite(name: str) -> List[Workload]:
    """Workloads of one suite: "spec", "parsec" or "perfect"."""
    return [w for w in all_workloads() if w.suite == name]


__all__ = [
    "Arith",
    "ArraySpec",
    "BreakIf",
    "If",
    "LoadVal",
    "Loop",
    "ProfiledWorkload",
    "Reset",
    "StoreVal",
    "UnknownWorkload",
    "Workload",
    "all_names",
    "all_workloads",
    "build_loop_kernel",
    "clear_profile_cache",
    "get",
    "profile_workload",
    "suite",
]
