"""Machine-speed calibration for timings taken on a shared machine.

The speed of the machine the benchmark was tuned on (2 vCPUs shared with
other tenants) drifts by up to 1.8x over tens of seconds, and whole runs
can fall into a slow spell.  ``calibrate`` times a fixed loop that mixes
the two kinds of work the package does: scalar Python series arithmetic
(as in ``specfun``) and small-array NumPy calls (as in ``darboux``).
Scaling a timing by ``CAL_REF_S`` over the loop time measured alongside
it gives the time the work would take at the reference speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Loop time at the reference speed: its median on the 2-vCPU machine the
# benchmark was tuned on, in a calm spell.
CAL_REF_S = 0.52e-3


def calibrate() -> float:
    """Wall time of one pass of the calibration loop, in seconds."""
    start = time.perf_counter()
    total = 0.0
    for j in range(32):
        term = 1.0
        terms = [term]
        for k in range(60):
            term *= (0.5 + k) * 0.3 / ((1.5 + k) * (k + 1))
            terms.append(term)
        total += math.fsum(terms)
        m = np.array([[1.0, term, 2.0], [0.5, 1.0, total], [float(j), 1.0, 3.0]])
        total += float(np.delete(m, 0, axis=0).sum()) + float(np.abs(m).max())
    return time.perf_counter() - start


def speed_factor(samples) -> float:
    """Factor that scales timings taken alongside ``samples`` to the reference speed."""
    return CAL_REF_S / statistics.median(samples)
