"""Region-formation baseline comparison: Superblock vs BL-path vs Braid.

The paper's core argument (§II/§III) is that edge-profile-driven region
formation leaves coverage on the table relative to path-precise formation.
We offload each strategy's best region with the Oracle predictor and compare
whole-workload outcomes: the superblock targets exactly the executed paths
that contain its block sequence, so infeasible or mis-ranked superblocks
show up as missing coverage.
"""

import statistics

from repro.frames import build_frame
from repro.regions import build_superblock
from repro.reporting import format_table
from repro.sim import OffloadSimulator

from .conftest import save_result


def _superblock_targets(sb, profile):
    """Executed paths that contain the superblock sequence contiguously."""
    want = [b.name for b in sb.blocks]
    n = len(want)
    targets = set()
    for pid in profile.counts:
        names = [b.name for b in profile.decode(pid)]
        if any(names[i : i + n] == want for i in range(len(names) - n + 1)):
            targets.add(pid)
    return targets


def _compute(analyses, evaluations):
    sim = OffloadSimulator()
    by_name = {e.name: e for e in evaluations}
    rows = []
    for a in analyses:
        profile = a.profiled.paths
        sb = build_superblock(a.profiled.function, a.profiled.edges)
        targets = _superblock_targets(sb, profile)
        sb_improvement = None
        if targets and len(sb.blocks) >= 2:
            sb.source_paths = sorted(targets)
            sb.frequency = sum(profile.counts[t] for t in targets)
            sb.coverage = sum(
                profile.counts[t] for t in targets
            ) / max(1, profile.total_executions)
            try:
                sb_frame = build_frame(sb)
                outcome = sim.simulate_offload(
                    a.name, profile, sb_frame, "oracle", a.profiled.trace
                )
                sb_improvement = outcome.performance_improvement
            except Exception:
                sb_improvement = None
        ev = by_name[a.name]
        rows.append(
            (
                a.name,
                (sb_improvement if sb_improvement is not None else 0.0) * 100,
                "yes" if targets else "NO",
                ev.path_oracle.performance_improvement * 100,
                ev.braid.performance_improvement * 100,
            )
        )
    return rows


def test_baseline_superblock_vs_needle(benchmark, analyses, evaluations):
    rows = benchmark.pedantic(
        _compute, args=(analyses, evaluations), rounds=1, iterations=1
    )
    text = format_table(
        ["workload", "superblock %", "feasible?", "BL-path %", "braid %"],
        rows,
        title="Baseline comparison: superblock vs path vs braid offload",
    )
    mean_sb = statistics.mean(r[1] for r in rows)
    mean_path = statistics.mean(r[3] for r in rows)
    mean_braid = statistics.mean(r[4] for r in rows)
    summary = "means: superblock %.1f%%, BL-path %.1f%%, braid %.1f%%" % (
        mean_sb, mean_path, mean_braid
    )
    save_result("baseline_comparison", text + "\n\n" + summary)

    # the paper's ordering: braids beat paths beat edge-profile superblocks
    assert mean_braid > mean_path > mean_sb
