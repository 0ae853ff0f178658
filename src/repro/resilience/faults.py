"""Deterministic fault injection: seeded plans consulted at named sites.

The paper's central correctness claim — frames are *atomic*, a failed
invocation leaves memory byte-for-byte untouched — is only worth stating
if it survives faults nobody scripted.  This module supplies those
faults on demand and, crucially, *reproducibly*: a :class:`FaultPlan` is
a seed plus a list of :class:`FaultSpec` rules, and every decision an
injector makes is a pure function of (plan, site, key, consult index,
attempt), so a chaos run replays identically under the same plan.

Sites follow the same cost discipline as :mod:`repro.obs`: production
code guards every consultation with ``if enabled():`` — one module-level
flag test — so the machinery is free when no plan is installed (the
default, measured by ``benchmarks/bench_obs_overhead.py``).

Typical use::

    from repro.resilience import FaultPlan, FaultSpec, installed
    from repro.resilience.faults import SITE_FRAME_GUARD_FLIP

    plan = FaultPlan(seed=7, specs=(
        FaultSpec(site=SITE_FRAME_GUARD_FLIP, after=2),
    ))
    with installed(plan):
        executor.run(frame, live_ins)   # third guard decision is flipped

Plans are plain frozen dataclasses: picklable (they ride to process-pool
workers next to the workload) and JSON round-trippable (the CLI loads
them with ``--fault-plan plan.json``).
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..obs import counter as _obs_counter, enabled as _obs_enabled

# -- named sites ------------------------------------------------------------

#: raise an exception inside a pool worker before it runs its workload
SITE_WORKER_EXCEPTION = "worker.exception"
#: stall a pool worker (payload ``seconds``, default 3600)
SITE_WORKER_HANG = "worker.hang"
#: hard-kill a pool worker via ``os._exit`` (payload ``exit_code``)
SITE_WORKER_CRASH = "worker.crash"
#: raise mid-frame, between blocks (key: block name)
SITE_FRAME_EXCEPTION = "frame.exception"
#: corrupt the value of a speculative store (payload ``value`` overrides)
SITE_FRAME_STORE_CORRUPT = "frame.store_corrupt"
#: invert one guard/branch decision inside a frame (key: block name)
SITE_FRAME_GUARD_FLIP = "frame.guard_flip"
#: raise at the interpreter run boundary (key: function name)
SITE_INTERP_RUN = "interp.exception"
#: truncate an artifact payload before it reaches disk (key: artifact kind)
SITE_CACHE_TRUNCATE = "cache.truncated_payload"
#: hard-kill the sweep driver as it appends a run-journal record (key:
#: journal event name; payload ``exit_code``, optional ``torn_bytes`` to
#: leave a partial line behind — the kill-mid-write case)
SITE_JOURNAL_CRASH = "journal.crash"

ALL_SITES = (
    SITE_WORKER_EXCEPTION,
    SITE_WORKER_HANG,
    SITE_WORKER_CRASH,
    SITE_FRAME_EXCEPTION,
    SITE_FRAME_STORE_CORRUPT,
    SITE_FRAME_GUARD_FLIP,
    SITE_INTERP_RUN,
    SITE_CACHE_TRUNCATE,
    SITE_JOURNAL_CRASH,
)


class FaultInjected(RuntimeError):
    """An injected fault fired at a consultation site."""


def _unit(seed: int, *parts) -> float:
    """Deterministic draw in [0, 1) from the seed and discriminator parts.

    Hash-based rather than ``random.Random`` so the value depends only on
    its inputs — never on how many draws other sites made first.  That is
    what keeps probabilistic plans identical across serial, ``jobs=N``
    and retried executions.
    """
    h = hashlib.sha256(
        ":".join([str(seed)] + [str(p) for p in parts]).encode()
    ).digest()
    return int.from_bytes(h[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    ``site``         which consultation point fires (``SITE_*`` constants).
    ``key``          exact consult key to match (``None`` = any key).
    ``after``        skip the first ``after`` matching consultations.
    ``times``        fire at most this many times (negative = unlimited).
    ``probability``  when set, each eligible consultation fires with this
                     seeded deterministic probability instead of always.
    ``attempts``     restrict firing to these retry attempts (0-based);
                     lets a plan crash attempt 0 and let the retry succeed.
    ``payload``      site-specific arguments (hang ``seconds``, crash
                     ``exit_code``, corrupt ``value``, truncate ``keep``).
    """

    site: str
    key: Optional[str] = None
    after: int = 0
    times: int = 1
    probability: Optional[float] = None
    attempts: Optional[Tuple[int, ...]] = None
    payload: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.attempts is not None and not isinstance(self.attempts, tuple):
            object.__setattr__(self, "attempts", tuple(self.attempts))


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered list of injection rules."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    # -- JSON bridge (CLI --fault-plan) --------------------------------

    def to_dict(self) -> dict:
        specs = []
        for s in self.specs:
            d = {"site": s.site}
            if s.key is not None:
                d["key"] = s.key
            if s.after:
                d["after"] = s.after
            if s.times != 1:
                d["times"] = s.times
            if s.probability is not None:
                d["probability"] = s.probability
            if s.attempts is not None:
                d["attempts"] = list(s.attempts)
            if s.payload:
                d["payload"] = dict(s.payload)
            specs.append(d)
        return {"seed": self.seed, "specs": specs}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        specs = tuple(
            FaultSpec(
                site=s["site"],
                key=s.get("key"),
                after=int(s.get("after", 0)),
                times=int(s.get("times", 1)),
                probability=s.get("probability"),
                attempts=(
                    tuple(int(a) for a in s["attempts"])
                    if s.get("attempts") is not None
                    else None
                ),
                payload=dict(s.get("payload", {})),
            )
            for s in data.get("specs", ())
        )
        return cls(seed=int(data.get("seed", 0)), specs=specs)

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


class FaultInjector:
    """Stateful consultation engine for one plan.

    Holds per-spec consult/fire counters, so ``after``/``times`` windows
    advance as sites are visited.  One injector is installed per task
    attempt (pool workers build a fresh one, carrying the attempt
    number), which makes the fire pattern a function of the task alone.
    """

    def __init__(self, plan: FaultPlan, attempt: int = 0):
        self.plan = plan
        self.attempt = attempt
        self._consults: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}

    def consult(self, site: str, key: Optional[str] = None) -> Optional[FaultSpec]:
        """The spec that fires at this consultation, or ``None``."""
        for idx, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.key is not None and spec.key != key:
                continue
            if spec.attempts is not None and self.attempt not in spec.attempts:
                continue
            n = self._consults.get(idx, 0)
            self._consults[idx] = n + 1
            if n < spec.after:
                continue
            fired = self._fired.get(idx, 0)
            if spec.times >= 0 and fired >= spec.times:
                continue
            if spec.probability is not None and _unit(
                self.plan.seed, site, key, n, self.attempt
            ) >= spec.probability:
                continue
            self._fired[idx] = fired + 1
            if _obs_enabled():
                _obs_counter("resilience.faults_injected", 1,
                             help="faults fired by the installed plan",
                             site=site)
            return spec
        return None


def corrupt_value(value, spec: FaultSpec):
    """The corrupted replacement for a speculatively stored value."""
    if "value" in spec.payload:
        return spec.payload["value"]
    if isinstance(value, int):
        return value ^ 0x5A5A5A5A
    if isinstance(value, float):
        return -value - 1.0
    return value


# -- ambient installation ----------------------------------------------------
#
# Installation is *per thread*: a task attempt installs its injector
# without clobbering any other thread's (process workers each own a
# whole interpreter, so they get the same behaviour for free).  A
# process-wide count of installed injectors keeps the disabled-path
# cost at one integer test.

_TLS = threading.local()
_INSTALLED_COUNT = 0
_COUNT_LOCK = threading.Lock()


def enabled() -> bool:
    """Is a fault plan installed in *this* thread?

    The production answer is ``False``, and the global count test is the
    entire disabled-path cost: only when some thread has an injector do
    we pay the thread-local lookup.  (The count alone would be wrong —
    another thread's injector is not this thread's.)"""
    return _INSTALLED_COUNT > 0 and getattr(_TLS, "injector", None) is not None


def active() -> Optional[FaultInjector]:
    """The injector installed in the current thread, if any."""
    return getattr(_TLS, "injector", None)


def _set_active(inj: Optional[FaultInjector]) -> Optional[FaultInjector]:
    global _INSTALLED_COUNT
    old = getattr(_TLS, "injector", None)
    _TLS.injector = inj
    delta = (inj is not None) - (old is not None)
    if delta:
        with _COUNT_LOCK:
            _INSTALLED_COUNT += delta
    return inj


def install(plan: Optional[FaultPlan], attempt: int = 0) -> Optional[FaultInjector]:
    """Install a fresh injector for ``plan`` in this thread (``None`` clears)."""
    return _set_active(FaultInjector(plan, attempt) if plan is not None else None)


def uninstall() -> None:
    """Remove the current thread's installed injector."""
    _set_active(None)


def restore(inj: Optional[FaultInjector]) -> None:
    """Reinstate a previously :func:`active` injector (or ``None``).

    The fail-safe runner snapshots the ambient injector on entry and
    restores it on *every* exit path — a ``KeyboardInterrupt`` mid-sweep
    must not leave a task-scoped injector installed in the caller's
    thread."""
    _set_active(inj)


@contextmanager
def installed(plan: Optional[FaultPlan], attempt: int = 0):
    """Scope an injector to a ``with`` block, restoring the previous one."""
    old = active()
    install(plan, attempt)
    try:
        yield active()
    finally:
        _set_active(old)


def consult(site: str, key: Optional[str] = None) -> Optional[FaultSpec]:
    """Consult this thread's injector (``None`` when no plan is installed)."""
    inj = getattr(_TLS, "injector", None)
    if inj is None:
        return None
    return inj.consult(site, key)


__all__ = [
    "ALL_SITES",
    "FaultInjected",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "SITE_CACHE_TRUNCATE",
    "SITE_FRAME_EXCEPTION",
    "SITE_FRAME_GUARD_FLIP",
    "SITE_FRAME_STORE_CORRUPT",
    "SITE_INTERP_RUN",
    "SITE_JOURNAL_CRASH",
    "SITE_WORKER_CRASH",
    "SITE_WORKER_EXCEPTION",
    "SITE_WORKER_HANG",
    "active",
    "consult",
    "corrupt_value",
    "enabled",
    "install",
    "installed",
    "restore",
    "uninstall",
]
