"""Workload abstraction and profiling driver.

A :class:`Workload` names one of the paper's 29 benchmarks and knows how to
build its synthetic hot-function stand-in.  :func:`profile_workload` runs
the interpreter once, recording the hot function's block and memory
streams, and derives the path and edge profiles from that trace; it
returns both profiles, the trace and the hot function.  Profiles are
cached per workload because several tables/figures reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..interp.events import FunctionTrace
from ..interp.interpreter import Interpreter
from ..ir.function import Function
from ..ir.module import Module
from ..obs import counter as _obs_counter, enabled as _obs_enabled, span as _obs_span
from ..profiling.edge_profile import EdgeProfile
from ..profiling.path_profile import PathProfile


@dataclass
class Workload:
    """One benchmark stand-in.

    ``build`` returns (module, hot function, args-for-one-run).  ``expected``
    records the paper's Table II row for the real application, kept as
    machine-checkable documentation of what shape the synthetic kernel aims
    for.
    """

    name: str
    suite: str  # "spec" | "parsec" | "perfect"
    description: str
    build: Callable[[], Tuple[Module, Function, List]]
    expected: Dict[str, object] = field(default_factory=dict)
    #: dominant datatype, for reporting ("int" | "fp")
    flavor: str = "int"

    def __repr__(self) -> str:
        return "<Workload %s (%s)>" % (self.name, self.suite)


@dataclass
class ProfiledWorkload:
    """Everything one recorded run produces."""

    workload: Workload
    module: Module
    function: Function
    paths: PathProfile
    edges: EdgeProfile
    trace: FunctionTrace
    result: object  # the run's return value (useful as a sanity check)
    #: config-independent content hash of (IR text, run args): the key
    #: the profile is stored under in the artifact cache
    artifact_key: "str | None" = None


_PROFILE_CACHE: Dict[str, ProfiledWorkload] = {}


def profile_workload(
    workload: Workload,
    use_cache: bool = True,
    artifact_cache=None,
) -> ProfiledWorkload:
    """Build, run and profile a workload's hot function once.

    ``artifact_cache`` (an :class:`~repro.artifacts.ArtifactCache`) layers a
    persistent on-disk store under the in-memory cache: the profile is keyed
    by the workload's IR text and run arguments, so a warm cache skips the
    interpreter run entirely.  Profiles are config-independent,
    hence the key carries no SystemConfig fingerprint.
    """
    if use_cache and workload.name in _PROFILE_CACHE:
        return _PROFILE_CACHE[workload.name]

    # the content key is computed unconditionally: the build it needs is
    # reused for the profiling run, so with no on-disk cache attached the
    # key costs one hash of the IR text
    from ..artifacts import PROFILE_KIND, workload_key

    key, built = workload_key(workload, config=None)
    if artifact_cache is not None:
        stored = artifact_cache.get(PROFILE_KIND, key)
        if isinstance(stored, ProfiledWorkload):
            # reattach the live registry Workload (its build callable and
            # `expected` row are not part of the cached artifact's identity)
            stored.workload = workload
            stored.artifact_key = key
            if use_cache:
                _PROFILE_CACHE[workload.name] = stored
            if _obs_enabled():
                _obs_counter("profile.cache_outcome", 1,
                             help="where each profile came from",
                             workload=workload.name, outcome="artifact-cache")
            return stored

    # the span holds the run and the derivation, so it times all profiling
    with _obs_span("profile", workload=workload.name):
        module, fn, args = built
        interp = Interpreter(module, record=[fn])
        result = interp.run(fn, args)
        trace = interp.traces[fn]
        profiled = ProfiledWorkload(
            workload=workload,
            module=module,
            function=fn,
            paths=PathProfile.from_trace(trace),
            edges=EdgeProfile.from_trace(trace),
            trace=trace,
            result=result,
            artifact_key=key,
        )
    if _obs_enabled():
        from ..interp.stats import opcode_census

        _obs_counter("profile.cache_outcome", 1,
                     help="where each profile came from",
                     workload=workload.name, outcome="instrumented-run")
        _obs_counter("profile.runtime.path_executions",
                     profiled.paths.total_executions,
                     help="paths flushed by live instrumented runs",
                     workload=workload.name)
        for opcode, n in sorted(opcode_census(profiled.trace).items()):
            _obs_counter("interp.runtime.opcode_executions", n,
                         help="dynamic opcode mix of live profiling runs",
                         workload=workload.name, opcode=opcode)
    if artifact_cache is not None:
        artifact_cache.put(PROFILE_KIND, key, profiled)
    if use_cache:
        _PROFILE_CACHE[workload.name] = profiled
    return profiled


def clear_profile_cache() -> None:
    _PROFILE_CACHE.clear()


__all__ = [
    "ProfiledWorkload",
    "Workload",
    "clear_profile_cache",
    "profile_workload",
]
