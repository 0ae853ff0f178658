import pytest

from repro.ir import verify_module
from repro.profiling import (
    branch_blocks,
    count_memory_ops,
    rank_paths,
    top_k_coverage,
)
from repro.workloads import (
    all_names,
    all_workloads,
    get,
    profile_workload,
    suite,
)


def test_suite_has_29_workloads():
    assert len(all_names()) == 29
    assert len(all_workloads()) == 29


def test_registry_lookup():
    w = get("470.lbm")
    assert w.name == "470.lbm"
    with pytest.raises(KeyError, match="unknown workload"):
        get("471.lbm")


def test_suite_partition():
    spec = suite("spec")
    parsec = suite("parsec")
    perfect = suite("perfect")
    assert len(spec) == 18
    assert len(parsec) + len(perfect) == 11
    names = {w.name for w in spec + parsec + perfect}
    assert names == set(all_names())


@pytest.mark.parametrize("name", all_names())
def test_workload_builds_and_verifies(name):
    w = get(name)
    module, fn, args = w.build()
    verify_module(module)
    assert fn.name in module.functions
    assert len(args) == len(fn.args)


@pytest.mark.parametrize("name", all_names())
def test_workload_profiles(name):
    profiled = profile_workload(get(name))
    assert profiled.paths.executed_paths >= 2
    assert profiled.paths.total_executions > 10
    assert profiled.trace.dynamic_instructions > 500
    # every profiled path decodes to a real CFG walk
    top = profiled.paths.top_paths(3)
    for pid, _count in top:
        blocks = profiled.paths.decode(pid)
        for a, b in zip(blocks, blocks[1:]):
            assert b in a.successors


def test_build_is_deterministic():
    w = get("186.crafty")
    p1 = profile_workload(w, use_cache=False)
    p2 = profile_workload(w, use_cache=False)
    c1 = {pid: c for pid, c in p1.paths.counts.items()}
    c2 = {pid: c for pid, c in p2.paths.counts.items()}
    assert c1 == c2
    assert p1.result == p2.result


def test_profile_cache_returns_same_object():
    w = get("164.gzip")
    a = profile_workload(w)
    b = profile_workload(w)
    assert a is b


def test_coverage_shapes_match_paper_ordering():
    """The paper's qualitative split: some workloads are path-dominated
    (top-5 ≈ 100%), others are path-diffuse (top-5 < 30%)."""
    dominated = ["183.equake", "456.hmmer", "470.lbm", "482.sphinx3", "dwt53"]
    diffuse = ["186.crafty", "458.sjeng", "401.bzip2", "sar-backprojection"]
    for name in dominated:
        cov5 = sum(top_k_coverage(profile_workload(get(name)).paths, 5))
        assert cov5 > 0.8, "%s should be path-dominated (got %.2f)" % (name, cov5)
    for name in diffuse:
        cov5 = sum(top_k_coverage(profile_workload(get(name)).paths, 5))
        assert cov5 < 0.35, "%s should be path-diffuse (got %.2f)" % (name, cov5)


def test_blackscholes_path_is_memory_free_and_huge():
    p = profile_workload(get("blackscholes"))
    top = rank_paths(p.paths, limit=1)[0]
    assert top.ops > 200
    assert count_memory_ops(top.blocks) <= 2
    assert len(branch_blocks(top.blocks)) >= 15


def test_swaptions_is_the_biggest_body():
    sizes = {}
    for name in all_names():
        ranked = rank_paths(profile_workload(get(name)).paths, limit=1)
        sizes[name] = ranked[0].ops if ranked else 0
    assert max(sizes, key=sizes.get) == "swaptions"
    assert sizes["swaptions"] > 350


def test_lbm_is_fp_flavoured_and_path_scarce():
    w = get("470.lbm")
    assert w.flavor == "fp"
    p = profile_workload(w)
    assert p.paths.executed_paths <= 8
    top = rank_paths(p.paths, limit=1)[0]
    assert count_memory_ops(top.blocks) >= 25


def _top_path_ilp(name: str) -> float:
    """Frame ops over the longest unit-latency chain of the top path
    frame's dependence graph."""
    from repro.accel.cgra import CGRAScheduler, list_schedule
    from repro.frames import build_frame
    from repro.regions import path_to_region

    p = profile_workload(get(name))
    top = rank_paths(p.paths, limit=1)[0]
    frame = build_frame(path_to_region(p.function, top))
    deps = CGRAScheduler()._build_deps(frame)
    n = len(deps)
    _start, finish, _order = list_schedule(deps, [1] * n, [()] * n, {})
    return n / max(finish)


def test_gcc_has_no_ilp():
    # serial chain: parallelism stays low
    assert _top_path_ilp("403.gcc") < 3.0


def test_equake_has_wide_ilp():
    assert _top_path_ilp("183.equake") > 4.0


def test_expected_metadata_present():
    for w in all_workloads():
        assert "cov5" in w.expected
        assert "ins" in w.expected
        assert w.description
