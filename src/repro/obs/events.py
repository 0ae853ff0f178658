"""Typed in-process event bus and its JSONL audit log (`--events-out`).

Every other observability surface in this repo — metric registries, the
attribution ledger, Chrome-trace timelines — is an *end-of-run
snapshot*.  The event bus is the complement: a stream of small, typed
lifecycle events (`run_started`, `task_scheduled`, `task_started`, …)
published while a sweep runs and appended to a JSONL sink on disk, the
run's audit trail.

Design constraints, in order:

* **Must not perturb semantic output.**  Publishing is wall-clock-only
  bookkeeping; nothing downstream of the bus feeds back into
  evaluation records, semantic metrics or the ledger.  The tests
  enforce byte-identity with the bus on and off, on both pool backends.
* **Cheap when off.**  The module-level :func:`publish` helper is the
  instrumentation surface; with no bus installed it is one attribute
  read and one ``None`` test — the same no-op discipline as
  :func:`repro.obs.counter`.
* **Typed.**  :func:`EventBus.publish` rejects unknown kinds loudly —
  the schema below is the log's contract, not a free-form logging
  channel.

Sequence numbers are monotonic and gapless per bus (hence per run):
readers can detect loss, and the JSONL log replays in exact
publication order.  :func:`event_log` is the one-call way to record a
sweep: it installs a bus logging to a file and closes the log with a
``run_finished`` event.
"""

from __future__ import annotations

import io
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

# -- the event vocabulary ----------------------------------------------------

RUN_STARTED = "run_started"
RUN_RESUMED = "run_resumed"
RUN_FINISHED = "run_finished"
TASK_SCHEDULED = "task_scheduled"
TASK_STARTED = "task_started"
TASK_FINISHED = "task_finished"
RETRY = "retry"
QUARANTINED = "quarantined"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
JOURNAL_RECORD = "journal_record"

#: the closed event-kind vocabulary; :meth:`EventBus.publish` rejects
#: anything else (the bus is a typed schema, not a logging channel)
KINDS = frozenset((
    RUN_STARTED,
    RUN_RESUMED,
    RUN_FINISHED,
    TASK_SCHEDULED,
    TASK_STARTED,
    TASK_FINISHED,
    RETRY,
    QUARANTINED,
    CACHE_HIT,
    CACHE_MISS,
    JOURNAL_RECORD,
))


class UnknownEventKind(ValueError):
    """An event was published with a kind outside :data:`KINDS`."""


@dataclass(frozen=True)
class Event:
    """One bus event: who (``key``), what (``kind``), when (``ts``).

    ``seq`` is the bus-local monotonic sequence number (gapless per
    run); ``ts`` is a wall-clock Unix timestamp — events are
    operational data and never feed semantic output, so wall time is
    fine here.  ``data`` carries kind-specific details and must stay
    JSON-serialisable.
    """

    seq: int
    ts: float
    kind: str
    key: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "key": self.key,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        """One deterministic JSONL line (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            key=str(payload.get("key", "")),
            data=dict(payload.get("data") or {}),
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        return cls.from_dict(json.loads(line))


class EventBus:
    """Thread-safe typed event stream with a JSONL sink.

    Publication order is total: the lock serialises ``seq`` assignment
    and the sink write, so the log holds one gapless sequence however
    many threads publish.
    """

    def __init__(self, run_id: str = "",
                 clock: Callable[[], float] = time.time):
        self.run_id = run_id
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._sink: Optional[io.TextIOBase] = None
        self._sink_owned = False

    # -- sink ----------------------------------------------------------------

    def attach_jsonl(self, target) -> None:
        """Stream every event to ``target`` — a path (opened for append)
        or an already-open text file object — one JSON line per event."""
        with self._lock:
            if isinstance(target, str):
                self._sink = open(target, "a", encoding="utf-8")
                self._sink_owned = True
            else:
                self._sink = target
                self._sink_owned = False

    # -- publication ---------------------------------------------------------

    def publish(self, kind: str, key: str = "", /, **data) -> Event:
        """Append one event; returns it (with its assigned ``seq``).

        ``kind`` and ``key`` are positional-only so payload fields may
        themselves be named ``kind`` or ``key`` (retry/quarantine events
        carry the failure kind; cache events may describe cache keys).
        """
        if kind not in KINDS:
            raise UnknownEventKind(
                "unknown event kind %r (known: %s)"
                % (kind, ", ".join(sorted(KINDS))))
        with self._lock:
            event = Event(
                seq=next(self._seq),
                ts=self._clock(),
                kind=kind,
                key=key,
                data=data,
            )
            if self._sink is not None:
                try:
                    self._sink.write(event.to_json() + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    # a dead sink must never take the sweep down; drop
                    # it and keep publishing
                    self._sink = None
        return event

    def close(self) -> None:
        with self._lock:
            sink, self._sink = self._sink, None
            owned, self._sink_owned = self._sink_owned, False
        if sink is not None and owned:
            try:
                sink.close()
            except OSError:
                pass


# -- ambient bus -------------------------------------------------------------

_ACTIVE: Optional[EventBus] = None


def install(bus: EventBus) -> Optional[EventBus]:
    """Make ``bus`` the process-ambient bus; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, bus
    return previous


def uninstall(previous: Optional[EventBus] = None) -> None:
    """Clear (or restore) the ambient bus."""
    global _ACTIVE
    _ACTIVE = previous


def active() -> Optional[EventBus]:
    """The ambient bus, or ``None`` when no event log is being kept."""
    return _ACTIVE


def publish(kind: str, key: str = "", /, **data) -> Optional[Event]:
    """Publish to the ambient bus; a cheap no-op when none is installed.

    This is the helper instrumentation sites call — one global read and
    one ``None`` test on the disabled path, mirroring the
    :func:`repro.obs.counter` cost discipline.
    """
    bus = _ACTIVE
    if bus is None:
        return None
    return bus.publish(kind, key, **data)


@contextmanager
def event_log(target, run_id: str = "") -> Iterator[EventBus]:
    """Record everything published inside the block to ``target``.

    ``target`` is anything :meth:`EventBus.attach_jsonl` accepts.  The
    bus is ambient for the duration of the block.  On exit the log is
    closed with ``run_finished``, whose ``status`` says how the block
    ended: ``finished`` on a clean return, ``drained`` on a graceful
    shutdown (:class:`~repro.resilience.SweepDrained` is a
    ``KeyboardInterrupt``), ``aborted`` on anything else.  Then the
    previous ambient bus is restored and the sink closed.
    """
    bus = EventBus(run_id=run_id)
    bus.attach_jsonl(target)
    previous = install(bus)
    status = "aborted"
    try:
        yield bus
        status = "finished"
    except KeyboardInterrupt:
        status = "drained"
        raise
    finally:
        bus.publish(RUN_FINISHED, run_id, status=status)
        uninstall(previous)
        bus.close()


__all__ = [
    "CACHE_HIT",
    "CACHE_MISS",
    "Event",
    "EventBus",
    "JOURNAL_RECORD",
    "KINDS",
    "QUARANTINED",
    "RETRY",
    "RUN_FINISHED",
    "RUN_RESUMED",
    "RUN_STARTED",
    "TASK_FINISHED",
    "TASK_SCHEDULED",
    "TASK_STARTED",
    "UnknownEventKind",
    "active",
    "event_log",
    "install",
    "publish",
    "uninstall",
]
