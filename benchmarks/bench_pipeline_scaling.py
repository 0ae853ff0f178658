"""Pipeline throughput: cold vs warm-cache vs parallel suite evaluation.

Times three ways of evaluating the full 29-workload suite with real wall
clocks and records them to ``benchmarks/results/pipeline_scaling.txt``
(and, machine-readable, to the ``pipeline_scaling`` section of
``BENCH_sim.json`` at the repo root):

* **cold serial** — fresh pipeline, empty artifact cache: every workload is
  profiled, framed, scheduled and simulated from scratch;
* **warm cache** — a second fresh pipeline against the now-populated cache:
  the suite should come back in well under 2 s because each evaluation is a
  hash plus a pickle load;
* **parallel cold** — fresh pipeline and empty cache again, sharded over
  the :mod:`repro.exec` process pool via ``PipelineOptions(jobs=N)``.
  The pool keeps its workers *warm*: forked once, batch-fed, pipeline
  state reused across tasks — the redesign that fixed the old sub-1x
  ``--jobs 2`` regression (per-task executor churn);
* **journaled cold** — the cold-serial sweep again with the crash-safe
  run journal attached (``PipelineOptions(journal_dir=...)``): every
  completed workload is fsynced to the write-ahead journal as it lands.
  The journal's own fsync cost is read back from its ``run_finished``
  record and the healthy-path overhead is *asserted* within 3% of the
  no-journal baseline (plus a small absolute grace for fsync jitter).

The parallel wall clock is further decomposed so any residual sub-1x
``parallel_speedup`` is diagnosable instead of mysterious:

* **spawn/import overhead** — wall time to bring up a pool of ``N``
  workers and round-trip one trivial probe task through each.  This is
  everything the suite pays *before* any workload computes: process
  creation, worker bootstrap, and (without ``fork``) re-importing the
  package — under ``fork`` the imports are inherited and the number is
  mostly process creation + IPC round-trip.
* **steady state** — the parallel wall clock minus the measured spawn
  overhead: the throughput the pool delivers once workers exist.

On a machine with >= 2 effective cores the end-to-end parallel speedup
is *asserted* >= 1.5x at jobs=2 — the acceptance floor of the pool
redesign.  On a single-core container the pool cannot win by physics
(Amdahl with one lane); the numbers are recorded honestly and the floor
is not asserted, with ``effective_cores`` in the JSON telling the reader
which regime produced them.

The parallel and warm paths are also checked bitwise-identical to the cold
serial rows — a wrong-but-fast pipeline is worthless.
"""

import json
import os
import shutil
import time

from repro import ArtifactCache, NeedlePipeline, PipelineOptions
from repro.cli import evaluation_row
from repro.exec.pools import ProcessPool
from repro.resilience.runner import run_failsafe
from repro.workloads.base import clear_profile_cache

from .conftest import save_result, update_bench_json

#: at least 2 so the pool path genuinely runs even on a single-core
#: container (where it measures pure pool overhead)
_JOBS = max(2, min(4, os.cpu_count() or 1))

#: the acceptance floor for the pool redesign, enforced where the
#: hardware can physically deliver it
_SPEEDUP_FLOOR = 1.5

#: healthy-path journal overhead ceiling: relative share of the cold
#: serial wall clock, plus an absolute grace for per-record fsync
#: jitter on slow or shared disks
_JOURNAL_OVERHEAD_RATIO = 0.03
_JOURNAL_OVERHEAD_GRACE = 0.2


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _rows(evaluations):
    return [evaluation_row(ev.name, ev) for ev in evaluations]


def _probe_worker(i):
    """Trivial pool task: prove the worker is up and the package loaded."""
    import repro.pipeline  # noqa: F401  (cost is the point being measured)

    return os.getpid()


def _pid_task(item, plan, attempt):
    """Picklable fail-safe task: report which process ran it."""
    return os.getpid()


def _measure_spawn_import(jobs: int):
    """(seconds, distinct worker pids) to spawn a pool and round-trip one
    probe task per worker — the fixed cost every parallel sweep pays
    before its first workload starts computing."""
    t0 = time.perf_counter()
    pool = ProcessPool(jobs=jobs)
    pool.start()
    try:
        for i in range(jobs):
            pool.submit(_probe_worker, (i,), key=str(i))
        pids, done = set(), 0
        while done < jobs:
            for c in pool.wait(10.0):
                assert c.ok, c.error
                pids.add(c.result)
                done += 1
    finally:
        pool.close(graceful=True)
    return time.perf_counter() - t0, len(pids)


def test_pool_workers_stay_warm():
    """3x as many tasks as workers never touch more than ``jobs`` pids —
    the warm-worker property the scaling numbers depend on."""
    pids = set(run_failsafe(_pid_task, list(range(3 * _JOBS)), jobs=_JOBS))
    assert len(pids) <= _JOBS
    assert os.getpid() not in pids


def test_pipeline_scaling(tmp_path_factory, suite):
    cache_dir = str(tmp_path_factory.mktemp("scaling-cache"))

    # each timed run starts with an empty in-memory profile cache so only
    # the on-disk artifact cache (or lack of it) separates the three modes
    clear_profile_cache()
    t0 = time.perf_counter()
    cold_evs = NeedlePipeline(cache=ArtifactCache(cache_dir)).evaluate_all(suite)
    cold = time.perf_counter() - t0

    clear_profile_cache()
    t0 = time.perf_counter()
    warm_evs = NeedlePipeline(cache=ArtifactCache(cache_dir)).evaluate_all(suite)
    warm = time.perf_counter() - t0

    shutil.rmtree(cache_dir)
    clear_profile_cache()
    t0 = time.perf_counter()
    par_evs = NeedlePipeline(
        cache=ArtifactCache(cache_dir),
        options=PipelineOptions(jobs=_JOBS),
    ).evaluate_all(suite)
    parallel = time.perf_counter() - t0

    # journaled cold serial: same work as the cold leg, plus the
    # write-ahead journal fsyncing each completed workload as it lands
    jcache_dir = str(tmp_path_factory.mktemp("scaling-cache-journal"))
    journal_dir = str(tmp_path_factory.mktemp("scaling-journal"))
    clear_profile_cache()
    t0 = time.perf_counter()
    journal_evs = NeedlePipeline(
        cache=ArtifactCache(jcache_dir),
        options=PipelineOptions(journal_dir=journal_dir, run_id="bench"),
    ).evaluate_all(suite)
    journaled = time.perf_counter() - t0

    # the journal's terminal record carries its own fsync cost, so the
    # overhead is decomposed explicitly rather than inferred
    with open(os.path.join(journal_dir, "bench.jsonl")) as fh:
        journal_events = [json.loads(line) for line in fh]
    run_finished = journal_events[-1]
    assert run_finished["event"] == "run_finished"
    assert run_finished["completed"] == len(suite)
    journal_fsync = run_finished["fsync_seconds"]
    journal_records = run_finished["records"]

    spawn, workers_seen = _measure_spawn_import(_JOBS)
    steady = max(parallel - spawn, 1e-9)
    cores = _effective_cores()

    assert _rows(warm_evs) == _rows(cold_evs)
    assert _rows(par_evs) == _rows(cold_evs)
    assert _rows(journal_evs) == _rows(cold_evs)

    lines = [
        "pipeline scaling over the %d-workload suite (%d effective cores)"
        % (len(suite), cores),
        "",
        "cold serial      : %7.2f s" % cold,
        "warm cache       : %7.2f s  (%.0fx faster)" % (warm, cold / warm),
        "parallel jobs=%-2d : %7.2f s  (%.2fx vs cold serial, process pool)"
        % (_JOBS, parallel, cold / parallel),
        "journaled cold   : %7.2f s  (%+.1f%% vs cold serial; %d records, "
        "%.3f s in journal fsyncs)"
        % (journaled, 100.0 * (journaled - cold) / cold, journal_records,
           journal_fsync),
        "",
        "parallel decomposition:",
        "  spawn+import   : %7.2f s  (%d workers probed, %.0f%% of parallel"
        " wall)" % (spawn, workers_seen, 100.0 * spawn / parallel),
        "  steady state   : %7.2f s  (%.2fx vs cold serial)"
        % (steady, cold / steady),
        "",
        "warm/parallel rows verified bitwise-identical to cold serial",
    ]
    save_result("pipeline_scaling", "\n".join(lines))
    update_bench_json("pipeline_scaling", {
        "suite_size": len(suite),
        "jobs": _JOBS,
        "pool_backend": "process",
        "effective_cores": cores,
        "cold_serial_seconds": cold,
        "warm_cache_seconds": warm,
        "parallel_seconds": parallel,
        "warm_speedup": cold / warm,
        "parallel_speedup": cold / parallel,
        "spawn_import_seconds": spawn,
        "steady_state_seconds": steady,
        "steady_state_speedup": cold / steady,
        "journaled_cold_seconds": journaled,
        "journal_overhead_ratio": journaled / cold,
        "journal_fsync_seconds": journal_fsync,
        "journal_records": journal_records,
    })

    assert warm < cold
    assert warm < 2.0
    # healthy-path journal overhead stays within the acceptance ceiling
    assert journaled <= cold * (1.0 + _JOURNAL_OVERHEAD_RATIO) \
        + _JOURNAL_OVERHEAD_GRACE, (
        "journaled sweep %.2fs exceeds cold serial %.2fs by more than "
        "%.0f%% + %.1fs (journal fsyncs: %.3fs over %d records)"
        % (journaled, cold, 100 * _JOURNAL_OVERHEAD_RATIO,
           _JOURNAL_OVERHEAD_GRACE, journal_fsync, journal_records))
    # every worker must actually have come up for the probe to mean anything
    assert workers_seen >= 1
    if cores >= 2:
        # the acceptance floor of the pool redesign: with real cores the
        # warm process pool must beat serial by 1.5x end to end
        assert cold / parallel >= _SPEEDUP_FLOOR, (
            "parallel_speedup %.2fx below the %.1fx floor on %d cores"
            % (cold / parallel, _SPEEDUP_FLOOR, cores))
