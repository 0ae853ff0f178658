"""SPEC FP (and hmmer/soplex) workload stand-ins (Table II, SPEC block).

The floating-point workloads carry the characteristic the paper's energy
discussion highlights: wide FP dataflow with simple control, which is where
the CGRA wins most (cheap FP on the spatial fabric + front-end elision).
"""

from __future__ import annotations

import random

from .base import Workload
from .data import correlated_bits, iid_floats, iid_ints
from .builders import (
    Arith,
    ArraySpec,
    If,
    LoadVal,
    Reset,
    StoreVal,
    build_loop_kernel,
)


# -- 183.equake ---------------------------------------------------------------
# Sparse matrix-vector earthquake kernel: 7 paths total, 100% top-5, one
# branch, 32 memory ops, wide FP ILP.


def _build_equake():
    segments = [
        Reset("facc"),  # each sparse row is independent: no carried FP chain
        LoadVal("K", dst="k0", fp=True, scale=4),
        LoadVal("K", dst="k1", fp=True, scale=4, offset=1),
        LoadVal("K", dst="k2", fp=True, scale=4, offset=2),
        LoadVal("K", dst="k3", fp=True, scale=4, offset=3),
        LoadVal("K", dst="k4", fp=True, scale=4, offset=4),
        LoadVal("K", dst="k5", fp=True, scale=4, offset=5),
        LoadVal("K", dst="k6", fp=True, scale=4, offset=6),
        LoadVal("K", dst="k7", fp=True, scale=4, offset=7),
        LoadVal("K", dst="k8", fp=True, scale=4, offset=8),
        LoadVal("disp", dst="d0", fp=True),
        LoadVal("disp", dst="d1", fp=True, offset=1),
        LoadVal("disp", dst="d2", fp=True, offset=2),
        LoadVal("disp", dst="d3", fp=True, offset=3),
        LoadVal("disp", dst="d4", fp=True, offset=4),
        LoadVal("disp", dst="d5", fp=True, offset=5),
        Arith(6, fp=True, use="k0", chained=False, acc="facc"),
        Arith(6, fp=True, use="k1", chained=False, acc="facc"),
        Arith(6, fp=True, use="k2", chained=False, acc="facc"),
        Arith(4, fp=True, use="k4", chained=False, acc="facc"),
        Arith(4, fp=True, use="k7", chained=False, acc="facc"),
        Arith(5, fp=True, use="d0", chained=False, acc="facc"),
        Arith(5, fp=True, use="d1", chained=False, acc="facc"),
        Arith(4, fp=True, use="d3", chained=False, acc="facc"),
        Arith(4, fp=True, use="d5", chained=False, acc="facc"),
        StoreVal("force", value="facc"),
        LoadVal("force", dst="f1", fp=True, offset=1),
        Arith(6, fp=True, use="f1", chained=False, acc="facc"),
        StoreVal("force", value="facc", offset=1),
        StoreVal("force", value="facc", offset=2),
        If(("mod", "i", 512, 44), then=[Arith(8, fp=True, acc="facc")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "equake",
        "smvp",
        segments,
        arrays=[
            ArraySpec("K", 4096, fp=True, init=iid_floats(183, 4096)),
            ArraySpec("disp", 1024, fp=True, init=iid_floats(184, 1024)),
            ArraySpec("force", 1024, fp=True),
        ],
        int_accs=("acc",),
        fp_accs=("facc",),
        return_var="facc",
    )
    return m, fn, [500]


EQUAKE = Workload(
    name="183.equake",
    suite="spec",
    description="Seismic sparse matrix-vector product",
    build=_build_equake,
    flavor="fp",
    expected={"paths": 7, "cov5": 100, "ins": 88, "branches": 1, "mem": 32, "overlap": 1},
)


# -- 444.namd -------------------------------------------------------------------
# Pairwise non-bonded force inner loop: big FP body (90 ops), only 2 paths in
# the top set, many live values (18 in / 10 out in the paper).


def _build_namd():
    segments = [
        Reset("fx"),
        Reset("fy"),
        LoadVal("pos", dst="x", fp=True, scale=2),
        LoadVal("pos", dst="y", fp=True, scale=2, offset=1),
        LoadVal("charge", dst="q", fp=True),
        Arith(14, fp=True, use="x", chained=False, acc="fx"),
        Arith(14, fp=True, use="y", chained=False, acc="fy"),
        Arith(12, fp=True, use="q", chained=False, acc="fe"),
        If(
            ("fgt", "q", 3.6),  # cutoff test: rarely excluded pair
            then=[Arith(10, fp=True, acc="fe", chained=False)],
            els=[
                Arith(12, fp=True, acc="fx", chained=False),
                Arith(12, fp=True, acc="fy", chained=False),
                StoreVal("forces", value="fx"),
                StoreVal("forces", value="fy", offset=1),
            ],
        ),
        If(("mod", "i", 256, 100), then=[Arith(6, fp=True, acc="fe")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "namd",
        "calc_pair_energy_fullelect",
        segments,
        arrays=[
            ArraySpec("pos", 2048, fp=True, init=iid_floats(444, 2048)),
            ArraySpec("charge", 1024, fp=True, init=iid_floats(445, 1024)),
            ArraySpec("forces", 1024, fp=True),
        ],
        fp_accs=("fx", "fy", "fe"),
        return_var="fe",
    )
    return m, fn, [450]


NAMD = Workload(
    name="444.namd",
    suite="spec",
    description="Molecular dynamics pairwise force inner loop",
    build=_build_namd,
    flavor="fp",
    expected={"paths": 57, "cov5": 86, "ins": 90, "branches": 2, "mem": 14, "overlap": 2},
)


# -- 450.soplex ---------------------------------------------------------------------
# Simplex pricing loop: small FP body, 93% top-5 coverage.


def _build_soplex():
    segments = [
        LoadVal("coef", dst="c", fp=True),
        Arith(9, fp=True, use="c", acc="facc", chained=False),
        If(
            ("fgt", "c", 0.4),
            then=[Arith(7, fp=True, acc="facc"), StoreVal("price", value="facc")],
            els=[Arith(3, fp=True, acc="facc")],
        ),
        If(("mod", "i", 256, 9), then=[Arith(5, fp=True, acc="facc"), LoadVal("price", dst="p2", fp=True, offset=1)], els=[]),
    ]
    # ~11% of coefficients fall below the pivot threshold, in clusters
    low = correlated_bits(450, 1024, bit=0, p_set=0.11, mean_run=8)
    rng = random.Random(451)
    coefs = [
        rng.random() * 0.39 if (v & 1) else 0.41 + rng.random() * 1.6
        for v in low
    ]
    m, fn = build_loop_kernel(
        "soplex",
        "maxdelta_pricing",
        segments,
        arrays=[
            ArraySpec("coef", 1024, fp=True, init=coefs),
            ArraySpec("price", 512, fp=True),
        ],
        fp_accs=("facc",),
        return_var="facc",
    )
    return m, fn, [700]


SOPLEX = Workload(
    name="450.soplex",
    suite="spec",
    description="Simplex LP pricing scan",
    build=_build_soplex,
    flavor="fp",
    expected={"paths": 67, "cov5": 93, "ins": 33, "branches": 2, "mem": 7, "overlap": 3},
)


# -- 453.povray ----------------------------------------------------------------------
# Ray-object intersection: large FP body (137 ops) with 8 mostly-biased
# tests, 88% top-5 coverage, strong block overlap (21).


def _build_povray():
    segments = [
        Reset("facc", value=1.0),  # per-ray: no dependence across rays
        LoadVal("ray", dst="dx", fp=True, scale=2),
        LoadVal("ray", dst="dy", fp=True, scale=2, offset=1),
        LoadVal("obj", dst="r2", fp=True),
        Arith(16, fp=True, use="dx", chained=False, acc="facc"),
        Arith(16, fp=True, use="dy", chained=False, acc="facc"),
        If(("fgt", "r2", 0.25), then=[Arith(14, fp=True, use="r2", chained=False, acc="facc")], els=[Arith(4, fp=True, acc="facc")]),
        If(("fgt", "dx", 0.2), then=[Arith(10, fp=True, acc="facc", chained=False)], els=[Arith(5, fp=True, acc="facc")]),
        If(("fgt", "dy", 0.15), then=[Arith(9, fp=True, acc="facc", chained=False)], els=[Arith(4, fp=True, acc="facc")]),
        If(("mod", "i", 32, 3), then=[StoreVal("hits", value="facc"), Arith(6, fp=True, acc="facc")], els=[]),
        If(("fgt", "facc", 1e12), then=[Arith(3, fp=True, acc="facc")], els=[Arith(2, fp=True, acc="facc")]),
        If(("mod", "i", 64, 11), then=[Arith(8, fp=True, acc="facc"), LoadVal("obj", dst="o2", fp=True, offset=5)], els=[]),
        If(("mod", "i", 128, 77), then=[Arith(7, fp=True, acc="facc")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "povray",
        "intersect_sphere",
        segments,
        arrays=[
            ArraySpec("ray", 2048, fp=True, init=iid_floats(453, 2048, 0.21, 1.0)),
            ArraySpec("obj", 1024, fp=True, init=iid_floats(454, 1024, 0.26, 3.0)),
            ArraySpec("hits", 256, fp=True),
        ],
        fp_accs=("facc",),
        return_var="facc",
    )
    return m, fn, [550]


POVRAY = Workload(
    name="453.povray",
    suite="spec",
    description="Ray-sphere intersection batch",
    build=_build_povray,
    flavor="fp",
    expected={"paths": 375, "cov5": 88, "ins": 137, "branches": 8, "mem": 17, "overlap": 21},
)


# -- 456.hmmer -------------------------------------------------------------------------
# Profile HMM Viterbi inner loop: integer DP with max-reductions, 100% top-5
# coverage, very memory heavy (35 mem ops in the paper's path).


def _build_hmmer():
    segments = [
        LoadVal("mmx", dst="m0"),
        LoadVal("mmx", dst="m1", offset=1),
        LoadVal("imx", dst="i0"),
        LoadVal("imx", dst="i1", offset=1),
        LoadVal("dmx", dst="d0"),
        LoadVal("dmx", dst="d1", offset=1),
        LoadVal("tsc", dst="t0"),
        LoadVal("tsc", dst="t1", offset=1),
        LoadVal("tsc", dst="t2", offset=2),
        LoadVal("tsc", dst="t3", offset=3),
        Arith(6, use="m0", chained=False, ops=("add", "smax")),
        Arith(5, use="m1", chained=False, ops=("add", "smax")),
        Arith(6, use="i0", chained=False, ops=("add", "smax")),
        Arith(5, use="i1", chained=False, ops=("add", "smax")),
        Arith(6, use="d0", chained=False, ops=("add", "smax")),
        Arith(4, use="t0", chained=False, ops=("add", "smax")),
        StoreVal("mmx", value="acc", offset=1),
        StoreVal("mmx", value="acc", offset=2),
        LoadVal("msc", dst="sc"),
        LoadVal("isc", dst="sc2"),
        Arith(5, use="sc", chained=False, ops=("add", "smax")),
        Arith(4, use="sc2", chained=False, ops=("add", "smax")),
        StoreVal("imx", value="acc", offset=1),
        Arith(4, use="t1", chained=False, ops=("add", "smax")),
        StoreVal("dmx", value="acc", offset=1),
        Arith(3, use="t3", chained=False, ops=("add", "smax")),
        StoreVal("dmx", value="acc", offset=2),
        If(("mod", "i", 1024, 5), then=[Arith(6), StoreVal("xmx", value="acc")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "hmmer",
        "p7_viterbi_row",
        segments,
        arrays=[
            ArraySpec("mmx", 1024, init=iid_ints(456, 1024)),
            ArraySpec("imx", 1024, init=iid_ints(457, 1024)),
            ArraySpec("dmx", 1024, init=iid_ints(458, 1024)),
            ArraySpec("tsc", 1024, init=iid_ints(459, 1024)),
            ArraySpec("msc", 1024, init=iid_ints(460, 1024)),
            ArraySpec("isc", 1024, init=iid_ints(461, 1024)),
            ArraySpec("xmx", 256),
        ],
    )
    return m, fn, [600]


HMMER = Workload(
    name="456.hmmer",
    suite="spec",
    description="Profile HMM Viterbi row (integer DP)",
    build=_build_hmmer,
    expected={"paths": 61, "cov5": 100, "ins": 105, "branches": 6, "mem": 35, "overlap": 2},
)


# -- 470.lbm ---------------------------------------------------------------------------------
# Lattice-Boltzmann stream-and-collide: the paper's biggest straight-line FP
# body (232 ops, 45 mem ops, only 2 paths).  Double precision everywhere,
# which is also why lbm tops the HLS area table (72% of the Cyclone V).


def _build_lbm():
    # D3Q19-flavoured stencil: 19 distribution loads per cell
    loads = [
        LoadVal("grid", dst="f%d" % k, fp=True, scale=8, offset=k) for k in range(19)
    ]
    collide = []
    for k in range(19):
        collide.append(
            Arith(6, fp=True, use="f%d" % k, chained=False, acc="rho")
        )
    streams = [
        StoreVal("next", value="rho", offset=k) for k in range(12)
    ] + [
        StoreVal("next", value="ux", offset=12),
        StoreVal("next", value="uy", offset=13),
    ]
    segments = (
        [Reset("rho"), Reset("ux"), Reset("uy")]
        + loads
        + collide
        + [
            Arith(24, fp=True, acc="rho", chained=False),
            Arith(18, fp=True, acc="ux", use="f1", chained=False),
            Arith(18, fp=True, acc="uy", use="f2", chained=False),
        ]
        + streams
        + [
            If(("mod", "i", 2048, 9), then=[Arith(10, fp=True, acc="rho")], els=[]),
        ]
    )
    m, fn = build_loop_kernel(
        "lbm",
        "stream_collide",
        segments,
        arrays=[
            ArraySpec("grid", 8192, fp=True, init=iid_floats(470, 8192, 0.1, 1.1)),
            ArraySpec("next", 8192, fp=True),
        ],
        fp_accs=("rho", "ux", "uy"),
        return_var="rho",
    )
    return m, fn, [300]


LBM = Workload(
    name="470.lbm",
    suite="spec",
    description="Lattice-Boltzmann stream-and-collide cell update",
    build=_build_lbm,
    flavor="fp",
    expected={"paths": 2, "cov5": 100, "ins": 232, "branches": 2, "mem": 45, "overlap": 2},
)


# -- 482.sphinx3 ----------------------------------------------------------------------------------
# Gaussian mixture scoring: tiny FP body (30 ops), 100% top-5 coverage.


def _build_sphinx3():
    segments = [
        Reset("facc"),
        LoadVal("mean", dst="mu", fp=True),
        LoadVal("feat", dst="x", fp=True),
        Arith(9, fp=True, use="mu", chained=False, acc="facc"),
        Arith(7, fp=True, use="x", chained=False, acc="facc"),
        If(("mod", "i", 1024, 7), then=[StoreVal("score", value="facc"), Arith(4, fp=True, acc="facc")], els=[]),
    ]
    m, fn = build_loop_kernel(
        "sphinx3",
        "mgau_eval",
        segments,
        arrays=[
            ArraySpec("mean", 1024, fp=True, init=iid_floats(482, 1024)),
            ArraySpec("feat", 1024, fp=True, init=iid_floats(483, 1024)),
            ArraySpec("score", 256, fp=True),
        ],
        fp_accs=("facc",),
        return_var="facc",
    )
    return m, fn, [800]


SPHINX3 = Workload(
    name="482.sphinx3",
    suite="spec",
    description="Gaussian mixture model scoring",
    build=_build_sphinx3,
    flavor="fp",
    expected={"paths": 6, "cov5": 100, "ins": 30, "branches": 1, "mem": 6, "overlap": 1},
)


SPEC_FP_WORKLOADS = [EQUAKE, NAMD, SOPLEX, POVRAY, HMMER, LBM, SPHINX3]
