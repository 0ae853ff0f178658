"""PARSEC and PERFECT workload stand-ins (Table II, bottom block).

These carry the evaluation's most distinctive behaviours: blackscholes'
enormous branch-laden FP body with *zero* path memory ops, swaptions' 438-op
29-branch body that still pays off because its control is periodic, and the
pathologically unpredictable trio (freqmine, bodytrack, blackscholes) whose
data-dependent branches defeat the invocation history predictor (§VI ③).
"""

from __future__ import annotations

import random

from .base import Workload
from .data import correlated_bits, iid_floats, iid_ints, smooth_floats
from .builders import (
    Arith,
    ArraySpec,
    BreakIf,
    If,
    LoadVal,
    Loop,
    Reset,
    StoreVal,
    build_loop_kernel,
)


def _biased_bits(seed: int, n: int, bit: int, p_set: float):
    """Bytes whose given bit is set with probability ``p_set``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        v = rng.randrange(256)
        v = (v | (1 << bit)) if rng.random() < p_set else (v & ~(1 << bit))
        out.append(v)
    return out


# -- blackscholes ----------------------------------------------------------------
# Option pricing, 4x unrolled: a 380-op FP body crossing 19 branches with no
# memory operations on the path.  The strike/spot comparisons are data
# driven and carry no history correlation, which is what sinks the BL-path
# history predictor in Fig. 9.


def _build_blackscholes():
    def priced_leg(tag: int):
        return [
            Arith(16, fp=True, acc="price", chained=False),
            If(
                ("bit", "opt", tag % 8),
                then=[Arith(14, fp=True, acc="price", chained=False)],
                els=[Arith(10, fp=True, acc="price", chained=False)],
            ),
            If(
                ("fgt", "price", 2.0 + tag),
                then=[Arith(8, fp=True, acc="price", chained=False)],
                els=[Arith(6, fp=True, acc="price", chained=False)],
            ),
            If(
                ("mod", "i", 4, tag % 4),
                then=[Arith(9, fp=True, acc="price", chained=False)],
                els=[Arith(5, fp=True, acc="price", chained=False)],
            ),
            If(
                ("bit", "opt", (tag + 4) % 8),
                then=[Arith(7, fp=True, acc="price", chained=False)],
                els=[Arith(7, fp=True, acc="price", chained=False)],
            ),
        ]

    # one load decides the whole iteration's branch nest; the paper's path
    # itself carries zero memory ops, and ours keeps them minimal (one read)
    segments = [Reset("price", value=1.0), LoadVal("opts", dst="opt")]
    for unroll in range(4):
        segments.extend(priced_leg(unroll))
    segments.append(
        If(("mod", "i", 128, 9), then=[Arith(12, fp=True, acc="price")], els=[])
    )
    # every option flag bit is ~90% biased, but *which* options deviate is
    # pattern-free: path coverage concentrates, successor prediction doesn't
    rng = random.Random(900)
    opts = [
        sum((1 << b) * (rng.random() < 0.9) for b in range(8)) for _ in range(1024)
    ]
    m, fn = build_loop_kernel(
        "blackscholes",
        "bs_thread_unroll4",
        segments,
        arrays=[ArraySpec("opts", 1024, init=opts)],
        fp_accs=("price",),
        return_var="price",
        fp_bits=32,
    )
    return m, fn, [400]


BLACKSCHOLES = Workload(
    name="blackscholes",
    suite="parsec",
    description="Black-Scholes option pricing (4x unrolled, branchy FP)",
    build=_build_blackscholes,
    flavor="fp",
    expected={"paths": 42, "cov5": 37, "ins": 380, "branches": 19, "mem": 0, "overlap": 11},
)


# -- bodytrack -----------------------------------------------------------------------
# Particle-filter likelihood: modest body whose single important branch is a
# data-dependent edge-test with no temporal pattern (pathological ③).


def _build_bodytrack():
    segments = [
        Reset("lik", value=1.0),
        LoadVal("edges", dst="e"),
        Arith(12, fp=True, acc="lik", use=None, chained=False),
        If(
            ("bit", "e", 3),
            then=[Arith(16, fp=True, acc="lik", chained=False), LoadVal("proj", dst="p", fp=True)],
            els=[Arith(8, fp=True, acc="lik", chained=False)],
        ),
        If(("bit", "e", 5), then=[Arith(7, fp=True, acc="lik", chained=False)], els=[Arith(5, fp=True, acc="lik")]),
        If(("bit", "e", 1), then=[Arith(6, fp=True, acc="lik")], els=[Arith(4, fp=True, acc="lik")]),
        If(("mod", "i", 16, 2), then=[StoreVal("weights", value="lik"), Arith(6, fp=True, acc="lik")], els=[]),
        If(("mod", "i", 64, 30), then=[Arith(9, fp=True, acc="lik")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "bodytrack",
        "image_measurement",
        segments,
        arrays=[
            ArraySpec("edges", 1024, init=_biased_bits(901, 1024, 3, 0.6)),
            ArraySpec("proj", 512, fp=True, init=iid_floats(902, 512)),
            ArraySpec("weights", 256, fp=True),
        ],
        fp_accs=("lik",),
        return_var="lik",
        fp_bits=32,
    )
    return m, fn, [700]


BODYTRACK = Workload(
    name="bodytrack",
    suite="parsec",
    description="Particle filter edge-likelihood measurement",
    build=_build_bodytrack,
    flavor="fp",
    expected={"paths": 732, "cov5": 43, "ins": 68, "branches": 4, "mem": 3, "overlap": 24},
)


# -- dwt53 -------------------------------------------------------------------------------
# PERFECT 5/3 wavelet lifting step: one path dominates completely.


def _build_dwt53():
    segments = [
        Reset("acc"),
        LoadVal("row", dst="left", offset=0),
        LoadVal("row", dst="mid", offset=1),
        LoadVal("row", dst="right", offset=2),
        Arith(5, use="mid", chained=True),
        Arith(4, use="left", chained=True),
        Arith(4, use="right", chained=True),
        StoreVal("lo", value="acc"),
        Arith(4, chained=True),
        StoreVal("hi", value="acc"),
        If(("mod", "i", 1024, 2), then=[Arith(5)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "dwt53",
        "dwt53_row_transpose",
        segments,
        arrays=[
            ArraySpec("row", 2048, init=iid_ints(903, 2048)),
            ArraySpec("lo", 1024),
            ArraySpec("hi", 1024),
        ],
    )
    return m, fn, [900]


DWT53 = Workload(
    name="dwt53",
    suite="perfect",
    description="5/3 integer wavelet lifting (row pass)",
    build=_build_dwt53,
    expected={"paths": 12, "cov5": 100, "ins": 28, "branches": 1, "mem": 6, "overlap": 1},
)


# -- ferret --------------------------------------------------------------------------------
# Content-based image search ranking: many phases -> many paths (Σ5 only
# 20%) but each phase is strictly periodic, so the predictor hits 98% and
# the wide int body gives the accelerator real ILP (Fig. 9 ①).


def _build_ferret():
    segments = [
        Reset("acc"),
        LoadVal("feat", dst="f"),
        Arith(14, use="f", chained=False),
        # pipeline phases (segment, extract, index, rank) last 16 queries
        # each: the path repeats within a phase and the phase schedule is
        # deterministic, so the history table tracks it almost perfectly
        # (the paper reports 98% precision for ferret)
        If(("phase", "i", 4, 0, 4), then=[Arith(12, chained=False)], els=[Arith(6, chained=False)]),
        If(("phase", "i", 4, 1, 4), then=[Arith(10, chained=False)], els=[Arith(5, chained=False)]),
        If(("phase", "i", 4, 2, 4), then=[Arith(9, chained=False)], els=[Arith(4, chained=False)]),
        If(("phase", "i", 4, 3, 4), then=[Arith(8, chained=False)], els=[Arith(3, chained=False)]),
        If(("phase", "i", 2, 1, 5), then=[Arith(7, chained=False)], els=[Arith(4, chained=False)]),
        If(("phase", "i", 2, 0, 5), then=[Arith(6, chained=False)], els=[Arith(2, chained=False)]),
        If(("phase", "i", 4, 1, 4), then=[Arith(8, chained=False), StoreVal("rank", value="acc")], els=[Arith(3, chained=False)]),
        If(("phase", "i", 2, 1, 6), then=[Arith(5, chained=False)], els=[Arith(2, chained=False)]),
        If(("mod", "i", 128, 64), then=[Arith(9, chained=False)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "ferret",
        "emd_rank",
        segments,
        arrays=[ArraySpec("feat", 1024, init=iid_ints(904, 1024)), ArraySpec("rank", 256)],
    )
    return m, fn, [1000]


FERRET = Workload(
    name="ferret",
    suite="parsec",
    description="Image-similarity earth-mover ranking (periodic phases)",
    build=_build_ferret,
    expected={"paths": 556, "cov5": 20, "ins": 98, "branches": 9, "mem": 2, "overlap": 10},
)


# -- fft-2d ------------------------------------------------------------------------------------
# PERFECT 2D FFT butterfly with a nested per-row loop (backward branches).


def _build_fft2d():
    # radix-4 butterfly, unrolled: four twiddle stages per outer element
    segments = [
        Reset("sum_r"),
        Reset("sum_i"),
        LoadVal("re", dst="ar", fp=True),
        LoadVal("im", dst="ai", fp=True),
        Arith(6, fp=True, use="ar", acc="sum_r", chained=False),
        Arith(6, fp=True, use="ai", acc="sum_i", chained=False),
        Arith(6, fp=True, use="ar", acc="sum_r", chained=False),
        Arith(6, fp=True, use="ai", acc="sum_i", chained=False),
        If(
            ("phase", "i", 2, 0, 3),  # row passes alternate every 8 elements
            then=[StoreVal("re", value="sum_r"), Arith(4, fp=True, acc="sum_r")],
            els=[StoreVal("im", value="sum_i"), Arith(3, fp=True, acc="sum_i")],
        ),
        If(("mod", "i", 256, 17), then=[Arith(6, fp=True, acc="sum_r")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "fft2d",
        "fft_butterfly_rows",
        segments,
        arrays=[
            ArraySpec("re", 1024, fp=True, init=iid_floats(905, 1024, -1.0, 1.0)),
            ArraySpec("im", 1024, fp=True, init=iid_floats(906, 1024, -1.0, 1.0)),
        ],
        fp_accs=("sum_r", "sum_i"),
        return_var="sum_r",
        fp_bits=32,
    )
    return m, fn, [350]


FFT2D = Workload(
    name="fft-2d",
    suite="perfect",
    description="2D FFT butterfly with nested row loop",
    build=_build_fft2d,
    flavor="fp",
    expected={"paths": 29, "cov5": 87, "ins": 38, "branches": 2, "mem": 4, "overlap": 2},
)


# -- fluidanimate ----------------------------------------------------------------------------------
# SPH neighbour-force kernel: mid-size FP body, mixed-bias branches.


def _build_fluidanimate():
    segments = [
        Reset("force"),
        LoadVal("dens", dst="rho", fp=True),
        LoadVal("vel", dst="v", fp=True),
        Arith(10, fp=True, use="rho", acc="force", chained=False),
        If(
            ("fgt", "rho", 1.2),
            then=[Arith(12, fp=True, use="v", acc="force", chained=False), StoreVal("out", value="force")],
            els=[Arith(5, fp=True, acc="force")],
        ),
        If(("fgt", "v", 2.8), then=[Arith(8, fp=True, acc="force", chained=False), LoadVal("dens", dst="r2", fp=True, offset=1)], els=[Arith(4, fp=True, acc="force")]),
        If(("mod", "i", 27, 13), then=[Arith(7, fp=True, acc="force"), StoreVal("out", value="force", offset=1)], els=[]),
        If(("mod", "i", 64, 5), then=[Arith(6, fp=True, acc="force")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "fluidanimate",
        "compute_forces_cell",
        segments,
        arrays=[
            ArraySpec("dens", 1024, fp=True, init=smooth_floats(907, 1024, 0.9, 1.6)),
            ArraySpec("vel", 1024, fp=True, init=smooth_floats(908, 1024, 0.0, 3.2)),
            ArraySpec("out", 512, fp=True),
        ],
        fp_accs=("force",),
        return_var="force",
        fp_bits=32,
    )
    return m, fn, [800]


FLUIDANIMATE = Workload(
    name="fluidanimate",
    suite="parsec",
    description="SPH per-cell force computation",
    build=_build_fluidanimate,
    flavor="fp",
    expected={"paths": 377, "cov5": 53, "ins": 67, "branches": 4, "mem": 10, "overlap": 5},
)


# -- freqmine ----------------------------------------------------------------------------------------
# FP-growth tree walk: small body with a data-dependent early exit whose
# position is value-driven (pathological ③: loop bounds from data).


def _build_freqmine():
    segments = [
        LoadVal("tree", dst="node"),
        # conditional-pattern-base walk: the inner descent length is decided
        # by the data (bit 7 of the visited count), with no temporal pattern
        Loop(
            6,
            [
                LoadVal("counts", dst="cnt", index="node"),
                Arith(9, use="cnt", chained=True),
                Arith(5, chained=False),
                BreakIf(("bit", "cnt", 7)),
                LoadVal("tree", dst="node", index="cnt"),  # descend a level
                Arith(4, use="node", chained=True),
            ],
            induction="j",
        ),
        If(
            ("bit", "node", 2),
            then=[Arith(6), StoreVal("freq", value="acc")],
            els=[Arith(4)],
        ),
        If(("mod", "i", 32, 8), then=[Arith(5), LoadVal("counts", dst="c2", offset=3)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "freqmine",
        "fp_growth_walk",
        segments,
        arrays=[
            ArraySpec("tree", 1024, init=iid_ints(909, 1024)),
            ArraySpec("counts", 1024, init=_biased_bits(910, 1024, 7, 0.3)),
            ArraySpec("freq", 256),
        ],
    )
    return m, fn, [900]


FREQMINE = Workload(
    name="freqmine",
    suite="parsec",
    description="FP-growth conditional tree walk (data-driven exit)",
    build=_build_freqmine,
    expected={"paths": 22, "cov5": 64, "ins": 31, "branches": 2, "mem": 10, "overlap": 2},
)


# -- sar-backprojection ---------------------------------------------------------------------------------
# PERFECT SAR backprojection: many near-uniform region tests, Σ5 only 14%.


def _build_sar_backprojection():
    segments = [
        Reset("pix"),
        LoadVal("pulse", dst="s", fp=True),
        Arith(8, fp=True, use="s", acc="pix", chained=False),
        If(("bit", "i", 0), then=[Arith(6, fp=True, acc="pix", chained=False)], els=[Arith(4, fp=True, acc="pix")]),
        If(("fgt", "s", 1.0), then=[Arith(7, fp=True, acc="pix", chained=False)], els=[Arith(5, fp=True, acc="pix")]),
        If(("fgt", "s", 2.0), then=[Arith(5, fp=True, acc="pix")], els=[Arith(3, fp=True, acc="pix")]),
        If(("fgt", "s", 3.0), then=[Arith(4, fp=True, acc="pix")], els=[Arith(4, fp=True, acc="pix")]),
        If(("bit", "i", 1), then=[Arith(5, fp=True, acc="pix")], els=[Arith(2, fp=True, acc="pix")]),
        If(("bit", "i", 2), then=[Arith(4, fp=True, acc="pix")], els=[Arith(3, fp=True, acc="pix")]),
        If(("mod", "i", 16, 7), then=[StoreVal("image", value="pix"), Arith(3, fp=True, acc="pix")], els=[]),
        If(("mod", "i", 256, 100), then=[Arith(6, fp=True, acc="pix"), LoadVal("pulse", dst="s2", fp=True, offset=2)], els=[]),
    ]
    m, fn = build_loop_kernel(
        "sar_backprojection",
        "backproject_pixel",
        segments,
        arrays=[
            ArraySpec("pulse", 2048, fp=True, init=iid_floats(911, 2048, 0.0, 4.0)),
            ArraySpec("image", 512, fp=True),
        ],
        fp_accs=("pix",),
        return_var="pix",
        fp_bits=32,
    )
    return m, fn, [900]


SAR_BACKPROJECTION = Workload(
    name="sar-backprojection",
    suite="perfect",
    description="SAR image backprojection per-pixel accumulation",
    build=_build_sar_backprojection,
    flavor="fp",
    expected={"paths": 539, "cov5": 14, "ins": 85, "branches": 9, "mem": 6, "overlap": 3},
)


# -- sar-pfa-interp1 ---------------------------------------------------------------------------------------
# PERFECT polar-format interpolation: big FP body (146 ops) over 14 mostly
# periodic range tests; a Fig. 9 top performer.


def _build_sar_pfa_interp1():
    segments = [
        Reset("interp"),
        LoadVal("range", dst="r", fp=True),
        LoadVal("win", dst="w", fp=True),
    ]
    for k in range(7):
        segments.append(
            If(
                ("mod", "i", 4 + k, k % 3),
                then=[Arith(9, fp=True, acc="interp", chained=False)],
                els=[Arith(5, fp=True, acc="interp", chained=False)],
            )
        )
    for k in range(7):
        segments.append(
            If(
                ("mod", "i", 3 + (k % 4), (k + 1) % 3),
                then=[Arith(7, fp=True, use="r" if k % 2 else "w", acc="interp", chained=False)],
                els=[Arith(4, fp=True, acc="interp", chained=False)],
            )
        )
    segments.append(StoreVal("out", value="interp"))
    segments.append(
        If(("mod", "i", 512, 15), then=[Arith(8, fp=True, acc="interp")], els=[])
    )
    m, fn = build_loop_kernel(
        "sar_pfa_interp1",
        "pfa_interp_range",
        segments,
        arrays=[
            ArraySpec("range", 2048, fp=True, init=iid_floats(912, 2048)),
            ArraySpec("win", 1024, fp=True, init=iid_floats(913, 1024)),
            ArraySpec("out", 1024, fp=True),
        ],
        fp_accs=("interp",),
        return_var="interp",
        fp_bits=32,
    )
    return m, fn, [420]


SAR_PFA_INTERP1 = Workload(
    name="sar-pfa-interp1",
    suite="perfect",
    description="SAR polar-format range interpolation",
    build=_build_sar_pfa_interp1,
    flavor="fp",
    expected={"paths": 53, "cov5": 47, "ins": 146, "branches": 14, "mem": 8, "overlap": 8},
)


# -- streamcluster -------------------------------------------------------------------------------------------
# k-median distance kernel: nested per-dimension loop (many backward
# branches per Table I), near-total coverage (98%).


def _build_streamcluster():
    # the per-dimension loop is fully unrolled (dim = 3), the form the
    # paper's 35-op streamcluster path takes after inlining
    segments = [
        Reset("dist"),
        LoadVal("points", dst="p", fp=True),
        LoadVal("centers", dst="c0", fp=True, scale=0, offset=0),
        LoadVal("centers", dst="c1", fp=True, scale=0, offset=1),
        LoadVal("centers", dst="c2", fp=True, scale=0, offset=2),
        Arith(5, fp=True, use="c0", acc="dist", chained=False),
        Arith(5, fp=True, use="c1", acc="dist", chained=False),
        Arith(5, fp=True, use="c2", acc="dist", chained=False),
        Arith(6, fp=True, use="p", acc="dist", chained=False),
        If(
            ("fgt", "dist", 10.0),
            then=[StoreVal("assign", value="dist"), Arith(4, fp=True, acc="dist")],
            els=[Arith(3, fp=True, acc="dist")],
        ),
        If(("mod", "i", 128, 9), then=[Arith(5, fp=True, acc="dist")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "streamcluster",
        "pgain_dist",
        segments,
        arrays=[
            ArraySpec("points", 1024, fp=True, init=iid_floats(914, 1024)),
            ArraySpec("centers", 64, fp=True, init=iid_floats(915, 64)),
            ArraySpec("assign", 512, fp=True),
        ],
        fp_accs=("dist",),
        return_var="dist",
        fp_bits=32,
    )
    return m, fn, [600]


STREAMCLUSTER = Workload(
    name="streamcluster",
    suite="parsec",
    description="k-median per-point distance accumulation",
    build=_build_streamcluster,
    flavor="fp",
    expected={"paths": 42, "cov5": 98, "ins": 35, "branches": 3, "mem": 6, "overlap": 2},
)


# -- swaptions ---------------------------------------------------------------------------------------------------
# HJM swaption pricing: the suite's largest body (438 ops across 29
# branches, 32 memory ops).  Control is periodic (simulation phases), so
# despite 11K paths the predictor is nearly perfect and the braid merges
# sibling paths into one big offload (Fig. 9 ①, Table IV outlier).


def _build_swaptions():
    segments = [Reset("hjm"), Reset("disc", value=1.0)]
    for k in range(8):
        segments.append(LoadVal("fwd", dst="f%d" % k, fp=True, offset=k))
    for k in range(8):
        segments.append(
            Arith(10, fp=True, use="f%d" % k, acc="hjm", chained=False)
        )
    # 22 simulation-phase tests, all co-periodic on the step counter: a
    # dominant family of paths emerges (Σ5 ≈ 50%) even though the raw path
    # population is large, matching the paper's swaptions row
    for k in range(14):
        segments.append(
            If(
                ("phase", "i", 4, k % 4, 4),
                then=[Arith(8, fp=True, acc="hjm", chained=False)],
                els=[Arith(5, fp=True, acc="hjm", chained=False)],
            )
        )
    for k in range(8):
        segments.append(
            If(
                ("phase", "i", 2, k % 2, 4),
                then=[
                    Arith(6, fp=True, acc="disc", chained=False),
                    StoreVal("out", value="disc", offset=k),
                ],
                els=[Arith(4, fp=True, acc="disc", chained=False)],
            )
        )
    # a handful of data-driven volatility clamps break strict periodicity
    segments.append(LoadVal("steps", dst="ctrl"))
    for k in range(6):
        segments.append(
            If(
                ("bit", "ctrl", k),
                then=[Arith(5, fp=True, acc="hjm", chained=False), LoadVal("vol", dst="v%d" % k, fp=True, offset=k)],
                els=[Arith(3, fp=True, acc="hjm", chained=False)],
            )
        )
    segments.append(If(("mod", "i", 128, 65), then=[Arith(10, fp=True, acc="hjm")], els=[]))
    # control bits are heavily biased and clustered: clamps are rare events
    step_bits = [
        correlated_bits(918 + b, 1024, bit=b, p_set=0.93, mean_run=32)
        for b in range(6)
    ]
    m, fn = build_loop_kernel(
        "swaptions",
        "hjm_simulate_path",
        segments,
        arrays=[
            ArraySpec("fwd", 2048, fp=True, init=iid_floats(916, 2048)),
            ArraySpec("vol", 1024, fp=True, init=iid_floats(917, 1024)),
            ArraySpec("out", 1024, fp=True),
            ArraySpec(
                "steps",
                1024,
                init=[
                    sum(bits[idx] & (1 << b) for b, bits in enumerate(step_bits))
                    for idx in range(1024)
                ],
            ),
        ],
        fp_accs=("hjm", "disc"),
        return_var="hjm",
        fp_bits=32,
    )
    return m, fn, [300]


SWAPTIONS = Workload(
    name="swaptions",
    suite="parsec",
    description="HJM swaption Monte-Carlo path simulation",
    build=_build_swaptions,
    flavor="fp",
    expected={"paths": 11000, "cov5": 50, "ins": 438, "branches": 29, "mem": 32, "overlap": 138},
)


PARSEC_PERFECT_WORKLOADS = [
    BLACKSCHOLES,
    BODYTRACK,
    DWT53,
    FERRET,
    FFT2D,
    FLUIDANIMATE,
    FREQMINE,
    SAR_BACKPROJECTION,
    SAR_PFA_INTERP1,
    STREAMCLUSTER,
    SWAPTIONS,
]
