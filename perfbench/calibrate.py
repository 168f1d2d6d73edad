"""Host-speed reference for the benchmark's driver-call timings.

The sandbox this benchmark was built on shares its cores with other
tenants: within minutes the same ``peakon`` driver call ranged from 1.1 s to
3.3 s.  Each timed call is therefore bracketed by ``calibrate()``, a fixed
pure-Python loop that never touches rodwave, and reported scaled to the host
speed at which that loop takes ``REFERENCE_S``.  A change to the program
moves the scaled time; a slow spell of the host slows the loop too and
cancels out.

Of the reference loops tried (a scalar recurrence over numpy floats, small
numpy arithmetic, an N=500 kernel matrix product, CSV writes and this loop),
this one varied least on its own and tracked both ``peakon`` and
``collision`` best: over 46 calls of each, grouping six calls at a time
like one run, the spread of the group medians fell from 0.33 to 0.03
(peakon) and from 0.13 to 0.04 (collision).  The scaling assumes the
program slows under contention about as much as interpreted Python does,
which holds while its hot paths are interpreter-bound; the raw medians are
printed next to the scaled ones for that reason.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.05


def calibrate() -> float:
    """Wall time of the reference loop, in seconds (~50 ms on a Xeon vCPU)."""
    start = time.perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A timing scaled to reference host speed, from the calibrations around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
