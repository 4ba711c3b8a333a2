"""A fixed piece of work outside qcplane, timed to track the host's speed.

The benchmark shares a host whose speed wanders: the same work takes up to
1.8 times as long during spells that last from a second to a minute or more.
A run therefore times this work between every two jobs and reports each job's
time scaled by REFERENCE_S / (the median of the four samples nearest it), that
is, in seconds at the speed where this work takes REFERENCE_S.  The work mixes
what qcplane does: small exact fraction matrices, and a symmetric eigensolve
through numpy.  It never calls qcplane, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Seconds this work takes in the fast phase of the 2-vCPU host on which the
# benchmark was defined; it only sets the unit and is never re-measured.
REFERENCE_S = 0.004

_EXACT = [[Fraction(i - j, i + j + 2) for j in range(6)] for i in range(6)]
_FLOAT = np.random.default_rng(0).standard_normal((120, 120))
_FLOAT = _FLOAT + _FLOAT.T


def _work() -> None:
    m = _EXACT
    for _ in range(4):
        m = [[sum(m[i][k] * _EXACT[k][j] for k in range(6)) for j in range(6)]
             for i in range(6)]
    np.linalg.eigvalsh(_FLOAT @ _FLOAT)


def sample() -> float:
    """Seconds the reference work takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def median_sample(n: int) -> float:
    """Median of n samples."""
    return statistics.median(sample() for _ in range(n))
