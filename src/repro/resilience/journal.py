"""Durable run journal: write-ahead logging that makes sweeps resumable.

A suite sweep is a long batch job; a crashed driver (OOM kill, preempted
VM, Ctrl-C) must not discard the evaluations that already finished.
:class:`RunJournal` gives each sweep a crash-safe record of its own
progress:

* **append-only JSONL**, one file per run id under the journal
  directory (``--journal-dir`` / ``$REPRO_JOURNAL_DIR``), fsynced a
  record at a time so a completed workload is durable the instant its
  ``completed`` record returns;
* a **header** pinning what the run computes — suite manifest,
  :func:`sweep_fingerprint` over (config, manifest, cache + journal
  format versions) — so a resume against a different config or suite is
  a hard :class:`JournalMismatch`, never silently mixed results;
* per-workload lifecycle events (``scheduled`` / ``attempt_started`` /
  ``completed`` / ``quarantined`` / ``aborted``), with each completed
  evaluation's full row — the record itself plus the obs-registry
  snapshot its pool worker shipped — persisted through the
  content-addressed artifact store next to the journal;
* **torn-tail recovery**: a crash mid-append leaves a partial or
  corrupt trailing line; :meth:`RunJournal.replay` detects it, counts
  it (``resilience.journal_torn_records``) and truncates the file back
  to the last durable record instead of refusing to load.

Write-ahead discipline: a workload's payload is stored (atomically,
fsynced) *before* the ``completed`` record that references it is
appended, so a journal never points at a payload that might not exist.
The converse — payload present, record missing — simply re-runs the
workload on resume.

The ``fingerprint`` deliberately excludes the failure policy (retries,
timeouts, jobs, pool backend, fault plan): those decide *how* a sweep
executes, not *what* it computes, and a chaos run crashed by an
injected plan must be resumable without re-installing the plan.

``scheduled`` and ``attempt_started`` records are flushed but not
fsynced — losing one on a crash only makes resume re-run that workload,
which is already the correct behaviour — so the healthy-path fsync cost
is one sync per completed workload plus a handful for the run envelope
(measured explicitly by ``benchmarks/bench_pipeline_scaling.py``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..obs import events as bus_events
from .faults import SITE_JOURNAL_CRASH, FaultInjector, FaultPlan

log = logging.getLogger(__name__)

#: bump when the journal record layout changes incompatibly; part of the
#: sweep fingerprint, so old journals refuse to resume under new code
#: (2: a completed payload is ``(record, obs snapshot)``, no memo delta)
JOURNAL_FORMAT_VERSION = 2

#: environment variable enabling journaling with a default directory
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

# -- record event names ------------------------------------------------------

EVENT_RUN_STARTED = "run_started"
EVENT_RUN_RESUMED = "run_resumed"
EVENT_RUN_FINISHED = "run_finished"
EVENT_SCHEDULED = "scheduled"
EVENT_ATTEMPT_STARTED = "attempt_started"
EVENT_COMPLETED = "completed"
EVENT_QUARANTINED = "quarantined"
EVENT_ABORTED = "aborted"

#: run ids double as file names: keep them path-safe
_RUN_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}\Z")


class JournalError(RuntimeError):
    """A journal could not be created, read or replayed."""


class JournalMismatch(JournalError):
    """Resume attempted against a journal with a different fingerprint."""


def resolve_journal_dir(journal_dir: Optional[str] = None) -> Optional[str]:
    """The effective journal directory: explicit value, else
    ``$REPRO_JOURNAL_DIR``, else ``None`` (journaling off)."""
    return journal_dir or os.environ.get(JOURNAL_DIR_ENV) or None


def new_run_id() -> str:
    """A fresh, human-sortable run id (timestamp + random suffix)."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def sweep_fingerprint(config, manifest) -> str:
    """Hash pinning *what* a sweep computes.

    Covers the :class:`~repro.sim.config.SystemConfig`, the ordered
    suite manifest and the cache/journal format versions — the inputs
    that decide result content.  Execution knobs (jobs, pool, retries,
    fault plan) are excluded on purpose: a run crashed under ``--jobs 8``
    with an injected fault plan resumes fine serial and plan-free.
    """
    from ..artifacts import CACHE_FORMAT_VERSION, config_fingerprint

    h = hashlib.sha256()
    h.update(config_fingerprint(config).encode())
    h.update(b"\x00")
    h.update("\x1f".join(manifest).encode())
    h.update(b"\x00")
    h.update(str(CACHE_FORMAT_VERSION).encode())
    h.update(b"\x00")
    h.update(str(JOURNAL_FORMAT_VERSION).encode())
    return h.hexdigest()


@dataclass
class JournalReplay:
    """Everything a resume needs, reconstructed from one journal file."""

    header: Optional[dict] = None
    #: workload name -> payload key of its durable ``completed`` record
    completed: Dict[str, str] = field(default_factory=dict)
    #: workload name -> its ``quarantined`` record (re-run on resume)
    quarantined: Dict[str, dict] = field(default_factory=dict)
    #: workloads with an ``attempt_started`` but no terminal record —
    #: they were in flight when the run died (re-run on resume)
    in_flight: List[str] = field(default_factory=list)
    scheduled: List[str] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    #: trailing records lost to a mid-write crash (detected + truncated)
    torn_records: int = 0


class RunJournal:
    """One sweep's write-ahead journal (see module docstring).

    Construct via :meth:`create` (new run) or :meth:`resume` (continue
    a crashed/drained one); :meth:`peek` reads a header without opening
    the file for appends.  The journal owns its *own*
    :class:`~repro.resilience.faults.FaultInjector` built from the
    sweep's plan — the driver thread has no ambient injector installed
    while it merges results, so the ``journal.crash`` chaos site is
    consulted here directly, on every append, keyed by event name.
    """

    def __init__(self, journal_dir: str, run_id: str,
                 plan: Optional[FaultPlan] = None):
        if not _RUN_ID_RE.match(run_id or ""):
            raise JournalError(
                "invalid run id %r (letters, digits, '._-' only, "
                "max 128 chars)" % (run_id,))
        self.journal_dir = journal_dir
        self.run_id = run_id
        self.path = os.path.join(journal_dir, run_id + ".jsonl")
        self._fh = None
        self._injector = FaultInjector(plan) if plan is not None else None
        self._store = None
        self.fsync_seconds = 0.0
        self.records_written = 0

    # -- payload store -----------------------------------------------------

    @property
    def store(self):
        """Content-addressed store for completed-evaluation payloads.

        Lives under ``<journal_dir>/artifacts`` and writes with
        ``fsync=True``: the payload must be durable *before* the journal
        record that references it (write-ahead ordering).  Imported
        lazily — :mod:`repro.artifacts` imports this package for its
        fault sites, so a top-level import would be circular.
        """
        if self._store is None:
            from ..artifacts import ArtifactCache

            self._store = ArtifactCache(
                os.path.join(self.journal_dir, "artifacts"), fsync=True)
        return self._store

    def payload_key(self, workload: str) -> str:
        h = hashlib.sha256()
        h.update(("%s\x00%s\x00%d" % (
            self.run_id, workload, JOURNAL_FORMAT_VERSION)).encode())
        return h.hexdigest()

    def store_payload(self, workload: str, row) -> str:
        """Persist a completed workload's ``(result, obs snapshot)`` row;
        returns the key a ``completed`` record carries."""
        from ..artifacts import JOURNAL_KIND

        key = self.payload_key(workload)
        self.store.put(JOURNAL_KIND, key, row)
        return key

    def load_payload(self, key: str):
        from ..artifacts import JOURNAL_KIND

        return self.store.get(JOURNAL_KIND, key)

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, journal_dir: str, run_id: Optional[str] = None, *,
               fingerprint: str, manifest, config_fingerprint: str = "",
               plan: Optional[FaultPlan] = None) -> "RunJournal":
        """Open a fresh journal and append its ``run_started`` header."""
        run_id = run_id or new_run_id()
        journal = cls(journal_dir, run_id, plan=plan)
        os.makedirs(journal_dir, exist_ok=True)
        if os.path.exists(journal.path):
            raise JournalError(
                "run id %r already has a journal under %s; pass a fresh "
                "--run-id, or --resume %s to continue it"
                % (run_id, journal_dir, run_id))
        journal.append(
            EVENT_RUN_STARTED,
            format=JOURNAL_FORMAT_VERSION,
            run_id=run_id,
            fingerprint=fingerprint,
            manifest=list(manifest),
            config=config_fingerprint,
            pid=os.getpid(),
        )
        return journal

    @classmethod
    def resume(cls, journal_dir: str, run_id: str, *, fingerprint: str,
               manifest=None, plan: Optional[FaultPlan] = None):
        """Replay an existing journal and reopen it for appends.

        Returns ``(journal, replay)``.  Torn trailing records are
        truncated; a missing header, unsupported format, changed
        manifest or changed fingerprint is a hard error — resuming must
        never mix results computed under different options.
        """
        journal = cls(journal_dir, run_id, plan=plan)
        replay = journal.replay()
        header = replay.header
        if header is None:
            raise JournalError(
                "journal %s has no run_started header; it cannot be "
                "resumed" % journal.path)
        if int(header.get("format", -1)) != JOURNAL_FORMAT_VERSION:
            raise JournalMismatch(
                "journal %s uses format %s; this build writes format %d — "
                "re-run from scratch" % (journal.path, header.get("format"),
                                         JOURNAL_FORMAT_VERSION))
        if manifest is not None and \
                list(header.get("manifest") or ()) != list(manifest):
            raise JournalMismatch(
                "suite manifest changed since run %r was journaled; "
                "--resume re-runs the journaled manifest, not a new one"
                % run_id)
        if header.get("fingerprint") != fingerprint:
            raise JournalMismatch(
                "options fingerprint mismatch for run %r: the journal was "
                "written under a different SystemConfig/suite/format; "
                "resuming would mix incompatible results" % run_id)
        journal.append(EVENT_RUN_RESUMED, pid=os.getpid(),
                       completed=len(replay.completed),
                       torn_records=replay.torn_records)
        return journal, replay

    @classmethod
    def peek(cls, journal_dir: str, run_id: str) -> dict:
        """Read a journal's header without opening it for appends (and
        without truncating a torn tail — peeking is side-effect free)."""
        replay = cls(journal_dir, run_id).replay(truncate=False)
        if replay.header is None:
            raise JournalError(
                "journal for run id %r under %s has no run_started header"
                % (run_id, journal_dir))
        return replay.header

    # -- appending ---------------------------------------------------------

    def append(self, event: str, sync: bool = True, **data) -> None:
        """Append one record; by default durable (flush + fsync) before
        returning.  Consults the ``journal.crash`` fault site first, so
        a chaos plan kills the driver *instead of* writing the record —
        optionally leaving ``torn_bytes`` of it behind, the torn-tail
        case resume must survive."""
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        record = dict(data)
        record["event"] = event
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if self._injector is not None:
            spec = self._injector.consult(SITE_JOURNAL_CRASH, event)
            if spec is not None:
                torn = int(spec.payload.get("torn_bytes", 0))
                if torn > 0:
                    self._fh.write(line[:torn])
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                # simulate SIGKILL/OOM: no cleanup, no atexit, no flush
                os._exit(int(spec.payload.get("exit_code", 137)))
        t0 = time.perf_counter()
        with obs.span("journal.flush", event=event):
            self._fh.write(line + "\n")
            self._fh.flush()
            if sync:
                os.fsync(self._fh.fileno())
        self.fsync_seconds += time.perf_counter() - t0
        self.records_written += 1
        if obs.enabled():
            obs.counter("resilience.journal_records", 1,
                        help="records appended to the run journal",
                        event=event)
        # event log: surface journal activity on the ambient event bus
        # (no-op without one); key prefers the workload a record is
        # about, falling back to the run itself
        bus_events.publish(
            bus_events.JOURNAL_RECORD,
            key=str(data.get("workload", "") or self.run_id),
            record=event)

    # lifecycle helpers — the vocabulary `evaluate_all`/`run_failsafe` speak

    def scheduled(self, names) -> None:
        """One ``scheduled`` record per workload, one fsync for the lot
        (losing a scheduled record only re-runs that workload)."""
        names = list(names)
        for name in names[:-1]:
            self.append(EVENT_SCHEDULED, sync=False, workload=name)
        if names:
            self.append(EVENT_SCHEDULED, workload=names[-1])

    def completed(self, workload: str, payload_key: str) -> None:
        self.append(EVENT_COMPLETED, workload=workload, payload=payload_key)

    def lifecycle(self, event: str, key: str, **data) -> None:
        """Adapter for :func:`~repro.resilience.runner.run_failsafe`'s
        ``on_event`` hook: journal the runner's lifecycle notifications."""
        if event == EVENT_ATTEMPT_STARTED:
            # flushed, not fsynced: an attempt that never records a
            # terminal event is re-run on resume either way
            self.append(EVENT_ATTEMPT_STARTED, sync=False, workload=key,
                        attempt=int(data.get("attempt", 0)))
        elif event == EVENT_QUARANTINED:
            self.append(EVENT_QUARANTINED, workload=key,
                        kind=str(data.get("kind", "")),
                        attempts=int(data.get("attempts", 0)),
                        error_type=str(data.get("error_type", "")))
        elif event == "circuit_open":
            self.append(EVENT_ABORTED, reason=str(data.get("reason", "")),
                        outstanding=list(data.get("outstanding", ())))

    def aborted(self, reason: str, outstanding) -> None:
        self.append(EVENT_ABORTED, reason=reason,
                    outstanding=list(outstanding))

    def finished(self, completed: int, quarantined: int) -> None:
        """The run's terminal record; carries the journal's own fsync
        cost so benchmarks can report journal overhead from the file."""
        self.append(EVENT_RUN_FINISHED, completed=int(completed),
                    quarantined=int(quarantined),
                    records=self.records_written,
                    fsync_seconds=round(self.fsync_seconds, 6))

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None

    # -- replay ------------------------------------------------------------

    def replay(self, truncate: bool = True) -> JournalReplay:
        """Reconstruct run state from the journal file.

        Parses records in order until the first torn one — a trailing
        fragment without its newline, or any undecodable line — then
        (by default) truncates the file back to the last good record
        and counts the loss in ``resilience.journal_torn_records``.
        Everything before the tear is trusted: records are fsynced in
        append order, so a valid prefix is exactly what was durable.
        """
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            raise JournalError(
                "no journal for run id %r under %s"
                % (self.run_id, self.journal_dir))
        replay = JournalReplay()
        pos = 0
        good = 0
        size = len(data)
        while pos < size:
            newline = data.find(b"\n", pos)
            if newline < 0:
                # bytes past the last newline: an append died mid-write
                # (the fsync covers the newline, so even a fully parseable
                # fragment was never durable)
                replay.torn_records += 1
                break
            raw = data[pos:newline]
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict) or "event" not in record:
                    raise ValueError("not a journal record")
            except (ValueError, UnicodeDecodeError):
                # a corrupt line poisons everything after it — later
                # records may depend on state the lost one described
                tail = data[pos:].split(b"\n")
                replay.torn_records += sum(1 for seg in tail if seg.strip())
                break
            replay.events.append(record)
            pos = newline + 1
            good = pos
        self._fold(replay)
        if replay.torn_records and truncate:
            with open(self.path, "r+b") as fh:
                fh.truncate(good)
            log.warning(
                "journal %s: %d torn trailing record(s) truncated at byte "
                "%d (crash mid-append)", self.path, replay.torn_records, good)
            if obs.enabled():
                obs.counter("resilience.journal_torn_records",
                            replay.torn_records,
                            help="torn trailing journal records detected "
                                 "and truncated during replay")
        return replay

    @staticmethod
    def _fold(replay: JournalReplay) -> None:
        """Fold the parsed event list into per-workload state."""
        for record in replay.events:
            event = record.get("event")
            workload = record.get("workload")
            if event == EVENT_RUN_STARTED and replay.header is None:
                replay.header = record
            elif event == EVENT_SCHEDULED and workload is not None:
                if workload not in replay.scheduled:
                    replay.scheduled.append(workload)
            elif event == EVENT_ATTEMPT_STARTED and workload is not None:
                if workload not in replay.in_flight:
                    replay.in_flight.append(workload)
            elif event == EVENT_COMPLETED and workload is not None:
                replay.completed[workload] = record.get("payload", "")
                if workload in replay.in_flight:
                    replay.in_flight.remove(workload)
                replay.quarantined.pop(workload, None)
            elif event == EVENT_QUARANTINED and workload is not None:
                replay.quarantined[workload] = record
                if workload in replay.in_flight:
                    replay.in_flight.remove(workload)


__all__ = [
    "EVENT_ABORTED",
    "EVENT_ATTEMPT_STARTED",
    "EVENT_COMPLETED",
    "EVENT_QUARANTINED",
    "EVENT_RUN_FINISHED",
    "EVENT_RUN_RESUMED",
    "EVENT_RUN_STARTED",
    "EVENT_SCHEDULED",
    "JOURNAL_DIR_ENV",
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalMismatch",
    "JournalReplay",
    "RunJournal",
    "new_run_id",
    "resolve_journal_dir",
    "sweep_fingerprint",
]
