"""Calibration kernel and the normalisation of timings to reference speed.

The shared 2-vCPU machines this benchmark runs on drift in throughput
by 10-25 % from one second to the next without any preemption (a fixed
pure-Python loop's 20 s-window medians ranged 0.070-0.086 s at CPU/wall
0.98).  A timed unit is therefore sampled with a small fixed kernel at
its start, at every generation boundary and at its end, and its raw
seconds are rescaled by ``REFERENCE_KERNEL_S / median(samples)``:
seconds at reference speed.  The kernel's work never depends on program
state and it calls nothing in ``src/``.

Sampling throughout the unit matters: over 40 inline surrogate
campaigns in groups of five, the group medians spread 18.9 % raw,
13.4 % normalised by one sample before and after each campaign, and
3.5 % normalised by the median of the per-generation samples.
"""

from __future__ import annotations

import statistics
import time

#: the kernel's median wall time on the reference machine (2-vCPU shared
#: VM, CPython 3.11); a normalised second is a second at that speed
REFERENCE_KERNEL_S = 0.0075


def calibration_sample() -> float:
    """Run the fixed kernel once; return its wall time in seconds.

    Integer arithmetic plus a fresh 20k-entry dict build and walk: the
    interpreter, allocator and hash-table paths the campaign layers
    spend their time in.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    table = {}
    for i in range(20_000):
        table[i] = i ^ acc
    total = 0
    for key in table:
        total += table[key]
    if total < 0:  # never true; keeps the walk from being dead code
        raise AssertionError
    return time.perf_counter() - start


def normalisation_factor(samples: list[float]) -> float:
    """Scale from raw seconds to seconds at reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(samples)
