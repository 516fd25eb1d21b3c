"""Data-parallel table build for splat's table.

factor() does not use this module: every worker count runs serial backend
e, which builds no table. Here splat's sort is split across threads, which
numpy's sorts can run outside the GIL.

Each worker stable-sorts the fractional subset sums of its own contiguous
pattern range, and one stable sort merges the sorted runs. Runs are
concatenated in pattern order, so equal values stay in pattern order and
the merged order is the serial stable argsort; splat's layout code then
places it, and the table is splat's cell for cell for any worker count.
"""
from __future__ import annotations

import threading

import numpy as np

from .recombine import RecombineStats, RhoVector, ValueTable, _splat_table, splat


def _in_threads(fn, total: int, workers: int) -> list:
    """fn(lo, hi) on one thread per disjoint contiguous range covering
    [0, total), at most `workers` of them; results in range order. A
    worker's exception is raised again in the calling thread."""
    step = -(-total // workers)
    ranges = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    out: list = [None] * len(ranges)

    def run(i: int) -> None:
        try:
            out[i] = fn(*ranges[i])
        except Exception as exc:
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(ranges))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in out:
        if isinstance(r, Exception):
            raise r
    return out


def parallel_build(
    rho_half: RhoVector, workers: int = 1, stats: RecombineStats | None = None
) -> ValueTable:
    """splat's sparse table, with `workers` threads sorting disjoint pattern
    ranges. The non-empty count is asserted equal to the number of
    insertions: no update may be lost."""
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def argsort(sums: np.ndarray) -> np.ndarray:
        runs = _in_threads(
            lambda lo, hi: lo + np.argsort(sums[lo:hi], kind="stable"), len(sums), workers
        )
        merged = np.concatenate(runs)
        return merged[np.argsort(sums[merged], kind="stable")]

    table = _splat_table(rho_half, argsort, stats)
    assert table.occupied() == 1 << table.width, "lost insertion detected"
    return table


def serial_reference_table(rho_half: RhoVector) -> ValueTable:
    """Serial splat of the same instance; the content-equality oracle."""
    return splat(rho_half)
