"""Input-data generators for the workload suite.

Real program inputs have temporal locality: compressible text has long
literal runs, video is smooth, placement nets cluster.  Branch predictors —
and Needle's invocation history table — exploit exactly that.  These
generators produce *correlated* streams for the workloads the paper found
highly predictable, while the pathological trio (blackscholes, bodytrack,
freqmine) keeps i.i.d. data, which is what defeats their predictor in
Fig. 9 ③.
"""

from __future__ import annotations

import random
from typing import List


def iid_ints(seed: int, n: int, lo: int = 0, hi: int = 255) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(lo, hi) for _ in range(n)]


def iid_floats(seed: int, n: int, lo: float = 0.0, hi: float = 4.0) -> List[float]:
    rng = random.Random(seed)
    return [lo + rng.random() * (hi - lo) for _ in range(n)]


def correlated_bits(
    seed: int,
    n: int,
    bit: int,
    p_set: float,
    mean_run: int = 16,
) -> List[int]:
    """Bytes whose given bit is set with probability ``p_set`` *in runs*.

    The bit holds its value for geometrically distributed stretches of mean
    ``mean_run`` elements; the other seven bits stay i.i.d. noise.  Accessed
    sequentially, this produces the temporally predictable branch behaviour
    of real inputs.
    """
    rng = random.Random(seed)
    out: List[int] = []
    current = rng.random() < p_set
    for _ in range(n):
        if rng.random() < 1.0 / mean_run:
            # biased re-draw keeps the long-run set fraction at p_set
            current = rng.random() < p_set
        v = rng.randrange(256)
        v = (v | (1 << bit)) if current else (v & ~(1 << bit))
        out.append(v)
    return out


def smooth_floats(
    seed: int,
    n: int,
    lo: float,
    hi: float,
    step: float = 0.05,
) -> List[float]:
    """A reflected random walk inside [lo, hi] — a smooth field.

    Threshold branches over such data flip rarely, like physical quantities
    (densities, velocities) in simulation codes.
    """
    rng = random.Random(seed)
    span = hi - lo
    x = lo + rng.random() * span
    out: List[float] = []
    for _ in range(n):
        x += (rng.random() * 2 - 1) * step * span
        if x < lo:
            x = 2 * lo - x
        if x > hi:
            x = 2 * hi - x
        out.append(x)
    return out
