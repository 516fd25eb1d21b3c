"""Data-parallel table build and query sweep for backend e.

factor() does not use this module: every worker count runs serial backend
e. Here the same numpy core is split across threads, which numpy's sorts
and searches can run outside the GIL.

Build: each worker stable-sorts the fractional subset sums of its own
contiguous pattern range, and one stable sort merges the sorted runs. Runs
are concatenated in pattern order, so equal values stay in pattern order
and the merged order is the serial stable argsort; splat's layout code then
places it, and the table is splat's cell for cell for any worker count.

Sweep: the sorted low-half targets are split among the workers, each of
which window-queries its slice against the compacted table.
"""
from __future__ import annotations

import threading

import numpy as np

from .recombine import (
    GUARD,
    CandidateSet,
    RecombineStats,
    RhoVector,
    ValueTable,
    _canonical_filter,
    _guard_width,
    _query_probes,
    _sorted_targets,
    _splat_table,
    _window_pairs,
    recombine_a,
    splat,
)


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


def parallel_query_sweep(
    rho: RhoVector,
    table: ValueTable,
    eps: float,
    workers: int = 1,
    stats: RecombineStats | None = None,
) -> CandidateSet:
    """Window-query every low-half pattern of rho against `table`, the
    sparse table of rho's high half, with `workers` read-only threads.
    Output and counters equal serial backend e's."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    na = len(rho) // 2
    if table.width != len(rho) - na:
        raise ValueError("the table must hold the high half of rho")
    dense = table.compact()
    eps_d = eps + GUARD
    qorder, ts = _sorted_targets(rho.values[:na])

    def query(lo: int, hi: int) -> np.ndarray:
        qi, vj = _window_pairs(ts[lo:hi], dense.values, eps_d)
        return qorder[lo + qi] | (dense.patterns[vj] << na)

    raw = np.concatenate(_in_threads(query, len(ts), workers))
    if stats is not None:
        stats.visited += len(ts)
        stats.queries += len(ts)
        cells = np.flatnonzero(table.values >= 0.0)
        stats.query_probes += _query_probes(cells, table.capacity, ts, eps_d)
    return CandidateSet(_canonical_filter(raw, rho, eps), len(rho))


def parallel_recombine_e(
    rho: RhoVector,
    eps: float,
    workers: int,
    stats: RecombineStats | None = None,
) -> CandidateSet:
    """Backend e with a threaded build and sweep; candidate sets, counters
    and width errors are identical to the serial backend for any worker
    count."""
    n = len(rho)
    _guard_width(n, 31)
    if n < 2:
        return recombine_a(rho, eps, stats)
    table = parallel_build(RhoVector.from_values(rho.values[n // 2 :]), workers, stats)
    return parallel_query_sweep(rho, table, eps, workers, stats)


def serial_reference_table(rho_half: RhoVector) -> ValueTable:
    """Serial splat of the same instance; the content-equality oracle."""
    return splat(rho_half)
