"""Needle (HPCA 2017) reproduction.

A from-scratch Python implementation of the Needle toolchain — Ball–Larus
path profiling, Braid formation, software-frame generation — plus every
substrate the paper's evaluation depends on: a mini SSA IR and interpreter,
Superblock/Hyperblock baselines, a CGRA + OOO-core cycle simulator with
cache-calibrated memory latencies, an energy model, an HLS feasibility
estimator, and a 29-workload synthetic suite shaped after
SPEC/PARSEC/PERFECT.

Public API
----------
The names exported here are the supported surface; deep imports keep
working but may be rearranged between versions.

::

    from repro import NeedlePipeline, load_workload
    pipeline = NeedlePipeline()
    evaluation = pipeline.evaluate(load_workload("470.lbm"))
    print(evaluation.braid.performance_improvement)

    # suite sweep with caching, parallelism and metrics in one call
    from repro import evaluate_suite, obs
    obs.enable()
    rows = evaluate_suite(jobs=4, cache_dir="/tmp/needle-cache")
    print(obs.export.render_metrics(None))

    # the same sweep with a JSONL event log of its lifecycle; jobs > 1
    # fans out over warm worker processes, jobs=1 runs inline, and the
    # results are bitwise-identical either way
    from repro import PipelineOptions
    opts = PipelineOptions(jobs=4, events_out="events.jsonl")
    rows = evaluate_suite(options=opts)
"""

from typing import List, Optional

from . import analysis, frames, interp, ir, obs, profiling, regions
from . import accel, reporting, resilience, sim, transforms, workloads
from . import exec  # noqa: A004 - the execution-pool subsystem
from .artifacts import ArtifactCache
from .exec import Pool, ProcessPool, SerialPool
from .options import PipelineOptions
from .pipeline import (
    NeedlePipeline,
    WorkloadAnalysis,
    WorkloadEvaluation,
    evaluate_suite,
)
from .resilience import (
    EXIT_DRAINED,
    FaultPlan,
    FaultSpec,
    RunJournal,
    SweepDrained,
    WorkloadFailure,
)
from .sim.config import DEFAULT_CONFIG, SystemConfig
from .workloads import Workload
from .workloads import get as load_workload

__version__ = "1.1.0"


def suite(name: Optional[str] = None) -> List[Workload]:
    """The workload suite in Table II order.

    ``suite()`` returns all 29 workloads; ``suite("spec")``,
    ``suite("parsec")`` or ``suite("perfect")`` narrows to one source suite.
    """
    if name is None:
        return workloads.all_workloads()
    return workloads.suite(name)


__all__ = [
    "ArtifactCache",
    "DEFAULT_CONFIG",
    "EXIT_DRAINED",
    "FaultPlan",
    "FaultSpec",
    "NeedlePipeline",
    "PipelineOptions",
    "Pool",
    "ProcessPool",
    "RunJournal",
    "SerialPool",
    "SweepDrained",
    "SystemConfig",
    "Workload",
    "WorkloadAnalysis",
    "WorkloadEvaluation",
    "WorkloadFailure",
    "accel",
    "analysis",
    "evaluate_suite",
    "exec",
    "frames",
    "interp",
    "ir",
    "load_workload",
    "obs",
    "profiling",
    "regions",
    "reporting",
    "resilience",
    "sim",
    "suite",
    "transforms",
    "workloads",
]
