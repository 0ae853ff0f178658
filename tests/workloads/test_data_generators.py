"""Statistical properties of the workload input generators: the bias and
temporal-correlation knobs the Fig. 9 predictor behaviour depends on."""

import statistics

from repro.workloads.data import (
    correlated_bits,
    iid_floats,
    iid_ints,
    smooth_floats,
)


def _runs(bits):
    out, cur, n = [], bits[0], 0
    for b in bits:
        if b == cur:
            n += 1
        else:
            out.append(n)
            cur, n = b, 1
    out.append(n)
    return out


def test_correlated_bits_set_fraction():
    vals = correlated_bits(7, 20_000, bit=3, p_set=0.8, mean_run=16)
    frac = sum(1 for v in vals if v & 8) / len(vals)
    assert 0.75 < frac < 0.85


def test_correlated_bits_have_long_runs():
    vals = correlated_bits(7, 20_000, bit=3, p_set=0.5, mean_run=16)
    bits = [(v >> 3) & 1 for v in vals]
    mean_run = statistics.mean(_runs(bits))
    # geometric redraw every ~16 elements (at p=0.5 half the redraws flip)
    assert mean_run > 8


def test_iid_bits_have_short_runs():
    vals = iid_ints(7, 20_000)
    bits = [(v >> 3) & 1 for v in vals]
    assert statistics.mean(_runs(bits)) < 3


def test_correlated_bits_other_bits_noise():
    vals = correlated_bits(11, 10_000, bit=0, p_set=0.9, mean_run=16)
    other = [(v >> 5) & 1 for v in vals]
    frac = sum(other) / len(other)
    assert 0.45 < frac < 0.55  # unrelated bits stay ~uniform


def test_smooth_floats_bounded_and_smooth():
    vals = smooth_floats(3, 10_000, 1.0, 2.0, step=0.05)
    assert all(1.0 <= v <= 2.0 for v in vals)
    deltas = [abs(a - b) for a, b in zip(vals, vals[1:])]
    assert max(deltas) <= 0.11  # one reflected step of 0.05 * span
    # smooth: neighbouring values are far closer than random pairs
    iid = iid_floats(3, 10_000, 1.0, 2.0)
    iid_deltas = [abs(a - b) for a, b in zip(iid, iid[1:])]
    assert statistics.mean(deltas) < statistics.mean(iid_deltas) / 3


def test_generators_are_deterministic():
    assert correlated_bits(9, 100, 2, 0.7) == correlated_bits(9, 100, 2, 0.7)
    assert smooth_floats(9, 100, 0, 1) == smooth_floats(9, 100, 0, 1)
    assert iid_ints(9, 50) == iid_ints(9, 50)
    assert correlated_bits(9, 100, 2, 0.7) != correlated_bits(10, 100, 2, 0.7)
