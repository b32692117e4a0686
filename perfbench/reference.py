"""A fixed reference computation, timed in the same process as the passes.

On a shared virtual machine the speed of one core can drift by a quarter
or more over a minute or two, which swamps run-to-run comparisons of raw
times. The drift slows this reference and the workload alike, so a pass
time divided by the run's median reference time varies far less between
runs than the pass time does. The reference mixes interpreted Python with
numpy kernels, as the workloads do, and uses nothing from ``nwlearn``, so
no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

_GEN = np.random.default_rng(0)
_QUERIES = _GEN.random((200, 16))
_ROWS = _GEN.random((1000, 16))

BLOCK = 5  # samples per block


def reference_unit() -> float:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    q, x = _QUERIES, _ROWS
    total = 0.0
    for _ in range(10):
        d2 = (q * q).sum(axis=1)[:, None] + (x * x).sum(axis=1)[None, :] - 2.0 * (q @ x.T)
        total += float(np.exp(-np.sqrt(np.maximum(d2, 0.0))).sum())
    return acc + total


def reference_block(samples: int = BLOCK) -> list[float]:
    """Seconds taken by each of ``samples`` reference units."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - start)
    return times
