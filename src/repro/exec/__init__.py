"""Execution backends: the backend-agnostic pool layer.

Separates *what jobs exist* (the fail-safe runner's retry / timeout /
quarantine / blame logic) from *where they run*.  The protocol is
:class:`Pool`; the shipped backends are :class:`SerialPool` (inline)
and :class:`ProcessPool` (warm forked workers).  Pipeline sweeps pick
between them by ``jobs`` alone: ``jobs > 1`` runs on processes, anything
else inline.  :mod:`repro.exec.worker` is the worker-side context shim
that keeps chaos faults (``worker.crash`` / ``worker.hang``) meaningful
on both backends.
"""

from . import worker
from .pools import (
    Completion,
    Pool,
    PoolBroken,
    ProcessPool,
    SerialPool,
    WorkerCrashed,
)

__all__ = [
    "Completion",
    "Pool",
    "PoolBroken",
    "ProcessPool",
    "SerialPool",
    "WorkerCrashed",
    "worker",
]
