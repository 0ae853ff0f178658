"""Worker-side execution context: what kind of pool worker am I?

Task code occasionally needs to know how it is being run — most
importantly the chaos sites: a ``worker.crash`` fault must take a real
process down with ``os._exit`` (so the parent exercises its dead-worker
blame path), but the serial backend shares the caller's interpreter,
where ``os._exit`` would kill the whole test run.  Each pool marks its
workers with :func:`enter` and task code asks this module instead of
guessing:

* :func:`crash` — die the way this worker kind dies: ``os._exit`` in a
  process worker, a raised :class:`WorkerCrashed` (same message, same
  quarantine record) everywhere else.
* :func:`preemptive` — can the parent kill this worker from the
  outside?  ``False`` for the serial backend, where a simulated hang
  would block forever and is therefore skipped.

The context is thread-local, so a serial sweep driven from one thread
never changes what another thread sees.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "WorkerCrashed",
    "crash",
    "enter",
    "kind",
    "leave",
    "preemptive",
]


class WorkerCrashed(RuntimeError):
    """A pool worker died — or simulated dying — under a task.

    Constructed by the process backend when it finds a worker dead
    beneath a running task, and raised inline by :func:`crash` on the
    serial backend, which cannot lose a real process.  Both paths
    produce the same message, which is what keeps quarantine records
    byte-identical across backends.
    """

    def __init__(self, exit_code=None):
        self.exit_code = exit_code
        super().__init__("worker exited with code %s" % (exit_code,))

    def __reduce__(self):
        return (WorkerCrashed, (self.exit_code,))


class _Context(threading.local):
    kind = "none"          # none | serial | process
    preemptive = False


_CTX = _Context()


def enter(worker_kind: str, can_preempt: bool) -> None:
    """Mark the current thread as a pool worker of ``worker_kind``."""
    _CTX.kind = worker_kind
    _CTX.preemptive = can_preempt


def leave() -> None:
    """Clear the worker context for the current thread."""
    _CTX.kind = "none"
    _CTX.preemptive = False


def kind() -> str:
    """The current worker kind (``"none"`` outside any pool worker)."""
    return _CTX.kind


def preemptive() -> bool:
    """Can this worker be killed from the outside?

    ``True`` for process workers; ``False`` for serial execution and
    ordinary non-worker code, where a deliberate stall could never be
    recovered.
    """
    return _CTX.preemptive


def crash(exit_code: int = 13):
    """Die the way this worker kind dies.

    Process workers exit hard — no cleanup, no exception, the parent
    finds the corpse and blames the running task.  Serial workers raise
    :class:`WorkerCrashed` instead, which the runner charges exactly
    like the process backend's crash completion.
    """
    if _CTX.kind == "process":
        os._exit(int(exit_code))
    raise WorkerCrashed(int(exit_code))
