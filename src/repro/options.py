"""One options surface shared by the CLI and the Python API.

Every knob the pipeline accepts — parallelism, artifact-cache placement,
metrics collection — lives in :class:`PipelineOptions`.  ``cli.py`` builds
its argparse flags *from* this class and parses *back into* it, so the
command line and the programmatic API cannot drift: a new knob added here
shows up in both automatically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Optional

from .artifacts import ArtifactCache
from .sim.config import SystemConfig


def validate_jobs(jobs: Optional[int]) -> Optional[int]:
    """Normalise a ``jobs`` request.

    ``None`` and ``1`` mean serial; values below 1 are invalid — rather
    than sizing a :class:`~repro.exec.ProcessPool` from them we warn
    clearly and fall back to serial execution.
    """
    if jobs is None:
        return None
    jobs = int(jobs)
    if jobs < 1:
        warnings.warn(
            "jobs=%d is invalid (need >= 1); falling back to serial "
            "evaluation" % jobs,
            stacklevel=3,
        )
        return None
    return jobs


@dataclass
class PipelineOptions:
    """Everything configurable about a pipeline run.

    ``config``       Table V system parameters (``None`` = paper default).
    ``jobs``         worker-process count for suite sweeps (``None``/1 =
                     serial, inline).  Results are bitwise-identical
                     either way.
    ``cache_dir``    artifact cache root (``None`` = ``$REPRO_CACHE_DIR`` or
                     ``~/.cache/repro-needle``).
    ``no_cache``     bypass the persistent artifact cache entirely.
    ``metrics``      collect obs metrics/spans during the run.
    ``metrics_out``  write the metrics registry as JSON to this path.
    ``timeline_out`` write a Chrome trace-event JSON file (wall-clock
                     spans + simulated-cycle tracks; open in Perfetto)
                     to this path.
    ``timeout``      per-workload wall-clock budget in seconds for pool
                     sweeps (``None`` = unlimited).
    ``retries``      failed workload attempts retried before quarantine.
    ``fail_fast``    propagate the first workload failure instead of
                     retrying/quarantining.
    ``fault_plan``   a :class:`~repro.resilience.FaultPlan` (or a path to
                     its JSON form) injected into the run — chaos testing.
    ``journal_dir``  write a crash-safe run journal for suite sweeps
                     under this directory (``None`` = ``$REPRO_JOURNAL_DIR``
                     if set, else no journal).  See docs/resilience.md.
    ``run_id``       name the journaled run (``None`` = fresh generated id).
    ``resume``       resume the journaled run with this id: completed
                     workloads are restored from the journal, only
                     in-flight/quarantined ones re-run, and the merged
                     result is byte-identical to an uninterrupted run.
    ``drain_timeout`` bounded wait (seconds) for in-flight workloads
                     after SIGINT/SIGTERM before a journaled sweep exits
                     with its resume command.
    ``max_total_failures``       circuit breaker: abort the sweep after
                     this many failed attempts in total (``None`` = off).
    ``max_consecutive_failures`` circuit breaker: abort after this many
                     consecutive failed attempts (``None`` = off).
    ``events_out``   append every sweep event to this JSONL file
                     (complete, gapless, replayable).  Wall-clock-only:
                     semantic output — evaluation records, semantic
                     metrics, the attribution ledger — is byte-identical
                     with it on or off.
    """

    config: Optional[SystemConfig] = None
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    metrics: bool = False
    metrics_out: Optional[str] = None
    timeline_out: Optional[str] = None
    timeout: Optional[float] = None
    retries: int = 2
    fail_fast: bool = False
    fault_plan: "Optional[object]" = None  # FaultPlan | str path to JSON
    journal_dir: Optional[str] = None
    run_id: Optional[str] = None
    resume: Optional[str] = None
    drain_timeout: float = 10.0
    max_total_failures: Optional[int] = None
    max_consecutive_failures: Optional[int] = None
    events_out: Optional[str] = None

    # -- derived views -----------------------------------------------------

    @property
    def wants_metrics(self) -> bool:
        """Does this run need instrumentation turned on?"""
        return (
            self.metrics
            or self.metrics_out is not None
            or self.timeline_out is not None
        )

    def normalized_jobs(self) -> Optional[int]:
        """``jobs`` validated for pool use (warns + serial on bad input)."""
        return validate_jobs(self.jobs)

    def build_cache(self) -> Optional[ArtifactCache]:
        """The artifact cache this run should use (``None`` when bypassed)."""
        if self.no_cache:
            return None
        return ArtifactCache(self.cache_dir)

    def build_pipeline(self):
        """A :class:`~repro.pipeline.NeedlePipeline` honouring these options."""
        from .pipeline import NeedlePipeline

        return NeedlePipeline(
            self.config, cache=self.build_cache(), options=self
        )

    def resolve_fault_plan(self):
        """The run's :class:`~repro.resilience.FaultPlan`, if any.

        Accepts a plan object or a path to its JSON form (the CLI's
        ``--fault-plan`` hands a path through unchanged).
        """
        if self.fault_plan is None:
            return None
        from .resilience.faults import FaultPlan

        if isinstance(self.fault_plan, FaultPlan):
            return self.fault_plan
        return FaultPlan.from_json_file(str(self.fault_plan))

    def failure_policy(self):
        """The :class:`~repro.resilience.FailurePolicy` for suite sweeps.

        Chaos runs reuse the fault plan's seed for retry jitter, so a
        seeded scenario replays with identical pacing decisions.
        """
        from .resilience.runner import FailurePolicy

        plan = self.resolve_fault_plan()
        return FailurePolicy(
            timeout=self.timeout,
            retries=max(0, int(self.retries)),
            fail_fast=self.fail_fast,
            seed=plan.seed if plan is not None else 0,
            max_total_failures=(
                None if self.max_total_failures is None
                else max(1, int(self.max_total_failures))
            ),
            max_consecutive_failures=(
                None if self.max_consecutive_failures is None
                else max(1, int(self.max_consecutive_failures))
            ),
        )

    # -- argparse bridge ---------------------------------------------------

    @classmethod
    def add_cli_arguments(cls, parser, jobs: bool = True) -> None:
        """Install this class's knobs as flags on an argparse parser."""
        if jobs:
            parser.add_argument(
                "--jobs",
                type=int,
                default=None,
                metavar="N",
                help="shard the suite across N warm worker processes "
                "(default: serial, inline); results are bitwise-identical "
                "either way",
            )
            parser.add_argument(
                "--journal-dir",
                default=None,
                metavar="DIR",
                help="write a crash-safe run journal under DIR; a killed "
                "sweep resumes with --resume (default: $REPRO_JOURNAL_DIR "
                "if set, else no journal)",
            )
            parser.add_argument(
                "--run-id",
                default=None,
                metavar="ID",
                help="name this journaled run (default: a fresh "
                "timestamped id)",
            )
            parser.add_argument(
                "--resume",
                default=None,
                metavar="RUN_ID",
                help="resume a journaled run: completed workloads are "
                "restored from the journal and only in-flight/quarantined "
                "ones re-run; the merged result is byte-identical to an "
                "uninterrupted run",
            )
            parser.add_argument(
                "--drain-timeout",
                type=float,
                default=cls.drain_timeout,
                metavar="SEC",
                help="bounded wait for in-flight workloads after "
                "SIGINT/SIGTERM before a journaled sweep exits with its "
                "resume command (default: %gs)" % cls.drain_timeout,
            )
            parser.add_argument(
                "--max-total-failures",
                type=int,
                default=None,
                metavar="N",
                help="circuit breaker: abort the sweep after N failed "
                "attempts in total instead of grinding through a doomed "
                "suite",
            )
            parser.add_argument(
                "--max-consecutive-failures",
                type=int,
                default=None,
                metavar="N",
                help="circuit breaker: abort after N consecutive failed "
                "attempts with no success in between",
            )
            parser.add_argument(
                "--events-out",
                default=None,
                metavar="PATH",
                help="append every sweep event to PATH as JSONL "
                "(complete and gapless; replayable)",
            )
        parser.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="artifact cache root (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-needle)",
        )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the persistent artifact cache",
        )
        parser.add_argument(
            "--metrics",
            action="store_true",
            help="collect and print observability metrics for this run",
        )
        parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write the metrics registry as JSON to PATH",
        )
        parser.add_argument(
            "--timeline-out",
            default=None,
            metavar="PATH",
            help="write a Chrome trace-event JSON timeline to PATH "
            "(load it at https://ui.perfetto.dev)",
        )
        parser.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SEC",
            help="per-workload wall-clock budget for --jobs sweeps "
            "(default: unlimited)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=cls.retries,
            metavar="N",
            help="failed workload attempts retried before quarantine "
            "(default: %d)" % cls.retries,
        )
        parser.add_argument(
            "--fail-fast",
            action="store_true",
            help="stop at the first workload failure instead of "
            "quarantining it",
        )
        parser.add_argument(
            "--fault-plan",
            default=None,
            metavar="PATH",
            help="inject the deterministic fault plan described by this "
            "JSON file (chaos testing; see docs/resilience.md)",
        )

    @classmethod
    def from_args(cls, args) -> "PipelineOptions":
        """Build options from a parsed argparse namespace (missing flags
        keep their dataclass defaults, so every subcommand can share this)."""
        kwargs = {}
        for f in fields(cls):
            if f.name == "config":
                continue
            if hasattr(args, f.name):
                kwargs[f.name] = getattr(args, f.name)
        return cls(**kwargs)


__all__ = ["PipelineOptions", "validate_jobs"]
