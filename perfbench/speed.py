"""Timings in reference seconds, steady on a host whose speed drifts.

On a small shared virtual machine the same code can run up to about 1.9x
slower for seconds to minutes at a time, while the process keeps its CPU
(CPU time slows as much as wall time). A median over one run then depends
on how much of the run fell in a slow phase. So every timed interval is
bracketed by a fixed reference kernel that does not touch qlgraph, and is
scaled by REFERENCE_S over the mean of the two kernel times around it. The
result reads as seconds at the speed where the kernel takes REFERENCE_S.
A change to qlgraph moves the interval and not the kernel, so it shows in
full.
"""
from __future__ import annotations

import random
import time

import numpy as np

# The kernel's median time on the machine the benchmark was written on
# (2 vCPUs, Python 3.11, numpy 2.4, one OpenBLAS thread).
REFERENCE_S = 0.040

KERNEL_ROUNDS = 28
KERNEL_N = 40
KERNEL_EDGES = 300


def reference_kernel() -> int:
    """Fixed work in qlgraph's mix: Python sets and tuples, a 40x40 eigh, text.

    The result is returned so that no step can be skipped.
    """
    rng = random.Random(1)
    total = 0
    for _ in range(KERNEL_ROUNDS):
        edges = set()
        while len(edges) < KERNEL_EDGES:
            a, b = rng.randrange(KERNEL_N), rng.randrange(KERNEL_N)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        ordered = sorted(edges)
        m = np.zeros((KERNEL_N, KERNEL_N))
        for a, b in ordered:
            m[a, b] = m[b, a] = 1.0
        total += len(",".join(f"{x:.12f}" for x in np.linalg.eigh(m)[0]))
        total += sum(len(f"{i},{a},{b}") for i, (a, b) in enumerate(ordered))
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class SpeedScale:
    """Converts back-to-back wall times to reference seconds.

    Call `scaled` right after each timed interval; the kernel time taken
    just before the interval is the one `scaled` took last.
    """

    def __init__(self):
        reference_kernel()  # first calls pay for lazy set-up in numpy
        self.last = kernel_seconds()
        self.kernel_s = [self.last]

    def scaled(self, seconds: float) -> float:
        now = kernel_seconds()
        self.kernel_s.append(now)
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor
