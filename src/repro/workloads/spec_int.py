"""SPEC INT workload stand-ins (Table II, top block).

Each kernel reproduces the *control-flow shape* of the paper's hot function
for that benchmark: path population, top-5 coverage, path size, branch
count, memory density and ILP character.  The ``expected`` dict on each
:class:`Workload` carries the paper's Table II row (C1..C8) the kernel is
shaped after; absolute path counts are scaled down with the inputs.
"""

from __future__ import annotations

from .base import Workload
from .data import correlated_bits, iid_ints
from .builders import (
    Arith,
    ArraySpec,
    BreakIf,
    If,
    LoadVal,
    Reset,
    StoreVal,
    build_loop_kernel,
)


# -- 164.gzip -----------------------------------------------------------------
# LZ77-style longest-match scan: a byte-compare loop with a few match-length
# classes.  Few paths (80), high top-5 coverage (90), small body (33 ops).


def _build_gzip():
    segments = [
        LoadVal("window", dst="cur"),
        LoadVal("window", dst="ahead", offset=1),
        Arith(4, use="cur"),
        If(
            ("bit", "cur", 0),
            then=[Arith(6, use="ahead"), LoadVal("window", dst="m2", offset=7)],
            els=[Arith(3)],
        ),
        If(
            ("mod", "i", 4, 0),
            then=[Arith(5, use="ahead"), StoreVal("hash", value="acc")],
            els=[Arith(2)],
        ),
        If(("mod", "i", 64, 3), then=[Arith(7)], els=[]),
        If(("gt", "acc", 1 << 28), then=[Arith(2)], els=[Arith(1)]),
    ]
    # compressible input: match/literal decisions come in long runs
    data = correlated_bits(164, 1024, bit=0, p_set=0.9, mean_run=24)
    m, fn = build_loop_kernel(
        "gzip",
        "deflate_longest_match",
        segments,
        arrays=[
            ArraySpec("window", 1024, init=data),
            ArraySpec("hash", 256),
        ],
    )
    return m, fn, [640]


GZIP = Workload(
    name="164.gzip",
    suite="spec",
    description="LZ77 longest-match scan (deflate)",
    build=_build_gzip,
    expected={"paths": 80, "cov5": 90, "ins": 33, "branches": 4, "mem": 4, "overlap": 6},
)


# -- 175.vpr --------------------------------------------------------------------
# Placement cost update: the *hottest* path is a tiny early-out (the paper
# notes the offloaded region is only ~7 ops and gains nothing); colder paths
# do the heavy bounding-box recompute.  Many paths (713), Σ5 = 53.


def _build_vpr():
    segments = [
        LoadVal("nets", dst="net"),
        If(
            ("bit", "net", 0),
            # hot early-out: nothing to update
            then=[Arith(2, use="net")],
            els=[
                LoadVal("coords", dst="x", scale=2),
                LoadVal("coords", dst="y", scale=2, offset=1),
                Arith(9, use="x"),
                If(("bit", "net", 1), then=[Arith(8, use="y")], els=[Arith(5)]),
                If(("bit", "net", 2), then=[Arith(6)], els=[Arith(4)]),
                If(("bit", "net", 3), then=[LoadVal("coords", dst="z"), Arith(5, use="z")], els=[]),
                If(("mod", "i", 16, 5), then=[Arith(12)], els=[]),
                StoreVal("cost", value="acc"),
                LoadVal("cost", dst="c2", offset=3),
                Arith(4, use="c2"),
                If(("bit", "c2", 4), then=[StoreVal("cost", value="acc", offset=1)], els=[]),
                If(("bit", "c2", 2), then=[Arith(3)], els=[Arith(2)]),
                If(("bit", "x", 5), then=[Arith(5)], els=[]),
            ],
        ),
    ]
    # ~72% of nets take the tiny early-out path, and affected nets cluster
    nets = correlated_bits(175, 512, bit=0, p_set=0.72, mean_run=16)
    m, fn = build_loop_kernel(
        "vpr",
        "update_bb_cost",
        segments,
        arrays=[
            ArraySpec("nets", 512, init=nets),
            ArraySpec("coords", 1024, init=iid_ints(176, 1024)),
            ArraySpec("cost", 256),
        ],
    )
    return m, fn, [900]


VPR = Workload(
    name="175.vpr",
    suite="spec",
    description="FPGA placement incremental bounding-box cost",
    build=_build_vpr,
    expected={"paths": 713, "cov5": 53, "ins": 80, "branches": 8, "mem": 21, "overlap": 2},
)


# -- 179.art ---------------------------------------------------------------------
# ART neural-net F1 layer scan: tiny body (24 ops), inherently sequential
# (each step extends one dependence chain), two data branches, 74% top-5.


def _build_art():
    segments = [
        LoadVal("f1", dst="w"),
        Arith(8, use="w", chained=True),  # serial: the paper calls art sequential
        If(
            ("bit", "w", 3),
            then=[Arith(5, chained=True), LoadVal("f1", dst="w2", offset=2), Arith(2, use="w2")],
            els=[Arith(4, chained=True)],
        ),
        If(("mod", "i", 32, 7), then=[StoreVal("y", value="acc"), Arith(3)], els=[]),
    ]
    weights = correlated_bits(179, 2048, bit=3, p_set=0.8, mean_run=16)
    m, fn = build_loop_kernel(
        "art",
        "match_f1_layer",
        segments,
        arrays=[ArraySpec("f1", 2048, init=weights), ArraySpec("y", 256)],
    )
    return m, fn, [1400]


ART = Workload(
    name="179.art",
    suite="spec",
    description="Adaptive resonance theory F1-layer match (sequential)",
    build=_build_art,
    expected={"paths": 1446, "cov5": 74, "ins": 24, "branches": 2, "mem": 7, "overlap": 12},
)


# -- 181.mcf ------------------------------------------------------------------------
# Network-simplex arc scan: pointer-chasing loads feeding the branch
# (Mem=>Branch), small body, 87% top-5 coverage.


def _build_mcf_2000():
    segments = [
        LoadVal("arcs", dst="arc"),
        LoadVal("nodes", dst="pot", index="arc"),  # dependent load chain
        Arith(6, use="pot", chained=True),
        If(
            ("bit", "arc", 2),  # arc status is the correlated stream
            then=[Arith(6, use="pot"), StoreVal("flow", value="acc")],
            els=[Arith(3)],
        ),
        If(("mod", "i", 128, 11), then=[Arith(8), LoadVal("nodes", dst="n2", offset=5)], els=[]),
    ]
    arcs = correlated_bits(181, 1024, bit=2, p_set=0.67, mean_run=12)
    m, fn = build_loop_kernel(
        "mcf2000",
        "primal_bea_mpp",
        segments,
        arrays=[
            ArraySpec("arcs", 1024, init=arcs),
            ArraySpec("nodes", 1024, init=iid_ints(182, 1024)),
            ArraySpec("flow", 512),
        ],
    )
    return m, fn, [800]


MCF_2000 = Workload(
    name="181.mcf",
    suite="spec",
    description="Network simplex arc scan (pointer chasing)",
    build=_build_mcf_2000,
    expected={"paths": 48, "cov5": 87, "ins": 30, "branches": 2, "mem": 7, "overlap": 2},
)


# -- 186.crafty -------------------------------------------------------------------------
# Chess move evaluation: a cascade of near-50/50 data-dependent tests over
# board bits.  Path population explodes (37K in the paper), top-5 coverage
# collapses to 23%, and path blocks overlap heavily (C8 = 31).


def _build_crafty():
    segments = [
        LoadVal("board", dst="sq"),
        Arith(3, use="sq"),
        If(("bit", "sq", 0), then=[Arith(4, chained=False)], els=[Arith(3, chained=False)]),
        If(("bit", "sq", 1), then=[Arith(3, chained=False), LoadVal("attack", dst="a")], els=[Arith(2, chained=False)]),
        If(("bit", "sq", 2), then=[Arith(4, chained=False)], els=[Arith(2, chained=False)]),
        If(("bit", "sq", 3), then=[Arith(2, chained=False)], els=[Arith(4, chained=False)]),
        If(("bit", "sq", 4), then=[Arith(3, chained=False)], els=[Arith(3, chained=False)]),
        If(("bit", "sq", 5), then=[Arith(2, chained=False), StoreVal("scores", value="acc")], els=[Arith(2, chained=False)]),
        If(("mod", "i", 256, 13), then=[Arith(5)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "crafty",
        "evaluate_position",
        segments,
        arrays=[
            ArraySpec("board", 2048, init=iid_ints(186, 2048)),
            ArraySpec("attack", 512, init=iid_ints(187, 512)),
            ArraySpec("scores", 256),
        ],
    )
    return m, fn, [1200]


CRAFTY = Workload(
    name="186.crafty",
    suite="spec",
    description="Chess position evaluation (bit-test cascade)",
    build=_build_crafty,
    expected={"paths": 37000, "cov5": 23, "ins": 49, "branches": 7, "mem": 4, "overlap": 31},
)


# -- 197.parser ---------------------------------------------------------------------------
# Link-grammar dictionary walk: a handful of paths (10), 91% top-5 coverage,
# serial chain character.


def _build_parser():
    segments = [
        LoadVal("dict", dst="w"),
        Arith(9, use="w", chained=True),
        If(
            ("bit", "w", 6),
            then=[Arith(6, chained=True), LoadVal("dict", dst="w2", offset=3), Arith(3, use="w2")],
            els=[Arith(4, chained=True)],
        ),
        If(("mod", "i", 512, 1), then=[StoreVal("links", value="acc"), Arith(4)], els=[]),
        BreakIf(("gt", "acc", 1 << 29)),
    ]
    words = correlated_bits(197, 1024, bit=6, p_set=0.87, mean_run=20)
    m, fn = build_loop_kernel(
        "parser",
        "match_disjuncts",
        segments,
        arrays=[ArraySpec("dict", 1024, init=words), ArraySpec("links", 256)],
    )
    return m, fn, [700]


PARSER = Workload(
    name="197.parser",
    suite="spec",
    description="Link-grammar disjunct matching",
    build=_build_parser,
    expected={"paths": 10, "cov5": 91, "ins": 33, "branches": 3, "mem": 6, "overlap": 2},
)


# -- 401.bzip2 -------------------------------------------------------------------------------
# Burrows-Wheeler sorting inner loop: very large path population (54K) with
# wildly varying path sizes (29..371 ops in the paper's top five) and only
# 18% top-5 coverage.  Asymmetric diamond arms create the size variance.


def _build_bzip2():
    big_arm = [
        LoadVal("block", dst="b1", offset=1),
        LoadVal("block", dst="b2", offset=2),
        Arith(28, use="b1", chained=False),
        Arith(22, use="b2", chained=False),
        StoreVal("quadrant", value="acc"),
        LoadVal("quadrant", dst="q", offset=4),
        Arith(18, use="q", chained=False),
        StoreVal("quadrant", value="acc", offset=1),
    ]
    segments = [
        LoadVal("block", dst="c"),
        Arith(4, use="c"),
        If(("bit", "c", 0), then=[Arith(6)], els=[Arith(3)]),
        If(("bit", "c", 1), then=list(big_arm), els=[Arith(5)]),
        If(("bit", "c", 2), then=[Arith(9, chained=False)], els=[Arith(2)]),
        If(("bit", "c", 3), then=[Arith(7)], els=[]),
        If(("bit", "c", 4), then=[LoadVal("block", dst="c4", offset=9), Arith(8, use="c4")], els=[Arith(3)]),
        If(("bit", "c", 5), then=[Arith(6)], els=[Arith(4)]),
        If(("mod", "i", 64, 17), then=[Arith(11), StoreVal("ptrs", value="acc")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "bzip2",
        "main_sort_inner",
        segments,
        arrays=[
            ArraySpec("block", 2048, init=iid_ints(401, 2048)),
            ArraySpec("quadrant", 512),
            ArraySpec("ptrs", 256),
        ],
    )
    return m, fn, [1000]


BZIP2 = Workload(
    name="401.bzip2",
    suite="spec",
    description="Burrows-Wheeler block-sort inner loop",
    build=_build_bzip2,
    expected={"paths": 54000, "cov5": 18, "ins": 207, "branches": 15, "mem": 29, "overlap": 15},
)


# -- 403.gcc ----------------------------------------------------------------------------------
# RTL liveness update: the paper's no-ILP workload — one long serial
# dependence chain with dependent loads; the oracle gains nothing.


def _build_gcc():
    segments = [
        LoadVal("insn", dst="r"),
        LoadVal("defs", dst="d", index="r"),  # dependent load
        Arith(12, use="d", chained=True),  # pure serial chain: no ILP
        If(
            ("bit", "r", 1),  # the insn stream is the correlated signal
            then=[Arith(9, chained=True), StoreVal("live", value="acc")],
            els=[Arith(6, chained=True)],
        ),
        If(("mod", "i", 128, 9), then=[Arith(8, chained=True), LoadVal("defs", dst="d2", offset=7)], els=[]),
        If(("mod", "i", 512, 33), then=[Arith(5, chained=True)], els=[]),
    ]
    regs = correlated_bits(403, 1024, bit=1, p_set=0.83, mean_run=16)
    m, fn = build_loop_kernel(
        "gcc",
        "propagate_block",
        segments,
        arrays=[
            ArraySpec("insn", 1024, init=regs),
            ArraySpec("defs", 1024, init=iid_ints(404, 1024)),
            ArraySpec("live", 256),
        ],
    )
    return m, fn, [800]


GCC = Workload(
    name="403.gcc",
    suite="spec",
    description="RTL dataflow propagation (serial, no ILP)",
    build=_build_gcc,
    expected={"paths": 21, "cov5": 89, "ins": 43, "branches": 4, "mem": 6, "overlap": 3},
)


# -- 429.mcf ------------------------------------------------------------------------------------
# CPU2006 mcf: same pointer-chasing shape as 181.mcf, smaller body (21 ops).


def _build_mcf_2006():
    segments = [
        LoadVal("tree", dst="node"),
        LoadVal("basket", dst="cost", index="node"),
        Arith(4, use="cost", chained=True),
        If(
            ("bit", "node", 1),  # tree labels are the correlated stream
            then=[Arith(4, use="cost"), StoreVal("perm", value="acc")],
            els=[Arith(2)],
        ),
        If(("mod", "i", 256, 19), then=[Arith(6), LoadVal("basket", dst="c2", offset=2)], els=[]),
    ]
    nodes = correlated_bits(429, 1024, bit=1, p_set=0.67, mean_run=12)
    m, fn = build_loop_kernel(
        "mcf2006",
        "refresh_potential",
        segments,
        arrays=[
            ArraySpec("tree", 1024, init=nodes),
            ArraySpec("basket", 1024, init=iid_ints(430, 1024)),
            ArraySpec("perm", 256),
        ],
    )
    return m, fn, [750]


MCF_2006 = Workload(
    name="429.mcf",
    suite="spec",
    description="Network simplex potential refresh",
    build=_build_mcf_2006,
    expected={"paths": 41, "cov5": 88, "ins": 21, "branches": 2, "mem": 6, "overlap": 2},
)


# -- 458.sjeng --------------------------------------------------------------------------------------
# Chess search: like crafty but with even more unbiased tests (9 branches in
# the hot path, 45K paths, 20% top-5, overlap 43).


def _build_sjeng():
    segments = [
        LoadVal("pieces", dst="p"),
        Arith(2, use="p"),
        If(("bit", "p", 0), then=[Arith(3, chained=False)], els=[Arith(2, chained=False)]),
        If(("bit", "p", 1), then=[Arith(2, chained=False)], els=[Arith(3, chained=False)]),
        If(("bit", "p", 2), then=[Arith(3, chained=False), LoadVal("threat", dst="th")], els=[Arith(2, chained=False)]),
        If(("bit", "p", 3), then=[Arith(2, chained=False)], els=[Arith(2, chained=False)]),
        If(("bit", "p", 4), then=[Arith(3, chained=False)], els=[Arith(1, chained=False)]),
        If(("bit", "p", 5), then=[Arith(2, chained=False)], els=[Arith(3, chained=False)]),
        If(("bit", "p", 6), then=[Arith(1, chained=False), StoreVal("hist", value="acc")], els=[Arith(2, chained=False)]),
        If(("bit", "p", 7), then=[Arith(2, chained=False)], els=[Arith(1, chained=False)]),
        If(("mod", "i", 512, 3), then=[Arith(4)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "sjeng",
        "std_eval",
        segments,
        arrays=[
            ArraySpec("pieces", 2048, init=iid_ints(458, 2048)),
            ArraySpec("threat", 512, init=iid_ints(459, 512)),
            ArraySpec("hist", 256),
        ],
    )
    return m, fn, [1400]


SJENG = Workload(
    name="458.sjeng",
    suite="spec",
    description="Chess search evaluation (many unbiased branches)",
    build=_build_sjeng,
    expected={"paths": 45000, "cov5": 20, "ins": 50, "branches": 9, "mem": 8, "overlap": 43},
)


# -- 464.h264ref ---------------------------------------------------------------------------------------
# Motion-estimation SAD loop: moderate body, biased branches, 80% top-5.


def _build_h264ref():
    segments = [
        Reset("acc"),  # each SAD block is independent
        LoadVal("ref", dst="rp"),
        LoadVal("cur", dst="cp"),
        Arith(10, use="rp", chained=False),
        Arith(6, use="cp", chained=False),
        If(
            ("bit", "rp", 5),
            then=[Arith(8, chained=False), LoadVal("ref", dst="r2", offset=16)],
            els=[Arith(4)],
        ),
        If(("mod", "i", 16, 15), then=[StoreVal("sad", value="acc"), Arith(5)], els=[]),
        If(("gt", "acc", 1 << 27), then=[Arith(3)], els=[Arith(2)]),
        If(("mod", "i", 128, 2), then=[Arith(6), LoadVal("cur", dst="c2", offset=8)], els=[]),
    ]
    ref = correlated_bits(464, 2048, bit=5, p_set=0.86, mean_run=24)
    m, fn = build_loop_kernel(
        "h264ref",
        "setup_fast_full_pel_search",
        segments,
        arrays=[
            ArraySpec("ref", 2048, init=ref),
            ArraySpec("cur", 2048, init=iid_ints(465, 2048)),
            ArraySpec("sad", 256),
        ],
    )
    return m, fn, [900]


H264REF = Workload(
    name="464.h264ref",
    suite="spec",
    description="H.264 motion estimation SAD",
    build=_build_h264ref,
    expected={"paths": 43, "cov5": 80, "ins": 49, "branches": 4, "mem": 9, "overlap": 2},
)


SPEC_INT_WORKLOADS = [
    GZIP,
    VPR,
    ART,
    MCF_2000,
    CRAFTY,
    PARSER,
    BZIP2,
    GCC,
    MCF_2006,
    SJENG,
    H264REF,
]
