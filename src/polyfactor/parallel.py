"""Data-parallel table build and query sweep for backend e.

factor() does not use this module: every worker count runs serial backend
e, whose numpy window queries beat these threads under the GIL. The
concurrent table stays as a tested, standalone construction.

The shared table is a slot map whose only mutations are single indivisible
operations: claim-if-empty and remove-and-own. Under CPython both are one C
call on a dict with int keys (setdefault / pop), which cannot be interleaved
by other threads; the free-threaded build locks per object and keeps the same
guarantee. A thread that removes a larger occupant owns it outright and
re-inserts it from its own home slot, so every value is owned by exactly one
thread at every instant: insertions cannot be lost, whatever the schedule.

After the build barrier the table is frozen into plain arrays; the query
sweep is read-only and embarrassingly parallel.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import WidthExceeded
from .recombine import (
    EMPTY,
    GUARD,
    CandidateSet,
    RecombineStats,
    RhoVector,
    ValueTable,
    _canonical_filter,
    _guard_width,
    _probe_window,
    subset_sums,
    splat,
)


@dataclass
class SharedValueTable:
    """Concurrent sparse value table; becomes immutable after publish()."""

    capacity: int
    width: int
    rho_half: np.ndarray
    cells: dict[int, tuple[float, int]] = field(default_factory=dict)
    published: bool = False
    values: np.ndarray | None = None
    patterns: np.ndarray | None = None

    def occupied(self) -> int:
        return len(self.cells)

    def publish(self) -> None:
        """Freeze the build into arrays; the query phase reads only these."""
        values = np.full(self.capacity, EMPTY, dtype=np.float64)
        patterns = np.zeros(self.capacity, dtype=np.int64)
        for i, (v, pat) in self.cells.items():
            values[i] = v
            patterns[i] = pat
        self.values = values
        self.patterns = patterns
        self.published = True

    def as_value_table(self) -> ValueTable:
        if not self.published:
            raise RuntimeError("table not published yet")
        return ValueTable(
            values=self.values, patterns=self.patterns, width=self.width, sparse=True
        )

    def content(self) -> tuple[np.ndarray, np.ndarray]:
        return self.as_value_table().content()

    def checksum(self) -> int:
        if not self.published:
            raise RuntimeError("table not published yet")
        return hash((self.values.tobytes(), self.patterns.tobytes()))


@dataclass(frozen=True)
class WorkPartition:
    """One worker's half-open slice of the pattern integers."""

    worker_id: int
    pattern_range: range


def work_partitions(total: int, workers: int) -> list[WorkPartition]:
    """Disjoint contiguous ranges covering [0, total)."""
    step = (total + workers - 1) // workers
    return [
        WorkPartition(w, range(lo, min(lo + step, total)))
        for w, lo in enumerate(range(0, total, step))
    ]


_MISSING = object()


def parallel_insert(
    x: float,
    pattern: int,
    table: SharedValueTable,
    stats: RecombineStats | None = None,
    yield_every: int = 0,
) -> None:
    """Insert one value with indivisible slot exchanges only.

    The displaced-carry loop of the serial insert, decomposed into claim and
    remove-and-own steps. Owning a removed occupant, the thread restarts that
    value's insertion from its own home slot, which lands it exactly where
    the serial carry would (the cells in between hold smaller values).
    yield_every > 0 forces a scheduler yield between probes; the stress tests
    use it to shake out interleavings.
    """
    k = table.capacity
    cells = table.cells
    own: list[tuple[float, int]] = [(x, pattern)]
    probes = 0
    while own:
        item = own.pop()
        val = item[0]
        i = int(k * val)
        steps = 0
        while True:
            probes += 1
            steps += 1
            if steps > 2 * k:
                raise RuntimeError("insert probe budget exhausted; table over-full")
            if yield_every and probes % yield_every == 0:
                time.sleep(0)
            cur = cells.setdefault(i, item)
            if cur is item:
                break  # claimed an empty slot
            if cur[0] > val:
                got = cells.pop(i, _MISSING)
                if got is _MISSING:
                    continue  # lost a race; slot empty again, retry claim
                claimed = cells.setdefault(i, item)
                if claimed is item:
                    own.append(got)  # we displaced got; re-insert it
                    break
                own.append(got)  # someone else claimed; we still own got
                continue
            i += 1
            if i == k:
                i = 0
    if stats is not None:
        stats.inserts += 1
        stats.insert_probes += probes


def parallel_build(
    rho_half: RhoVector,
    workers: int = 1,
    stats: RecombineStats | None = None,
    yield_every: int = 0,
) -> SharedValueTable:
    """Build the sparse table with `workers` threads over disjoint pattern
    ranges, then publish. The non-empty count is asserted equal to the number
    of insertions: no update may be lost."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    m = len(rho_half)
    if m > 31:
        raise WidthExceeded(f"splat handles half widths <= 31, got {m}")
    count = 1 << m
    table = SharedValueTable(capacity=2 * count, width=m, rho_half=np.asarray(rho_half.values))
    sums = subset_sums(rho_half.values)
    sums -= np.floor(sums)
    xs = sums.tolist()

    local_stats = [RecombineStats() for _ in range(workers)]

    def run(rng: range, st: RecombineStats) -> None:
        for s in rng:
            parallel_insert(xs[s], s, table, st, yield_every)

    threads = [
        threading.Thread(target=run, args=(part.pattern_range, local_stats[part.worker_id]), name=f"splat-{part.worker_id}")
        for part in work_partitions(count, workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert table.occupied() == count, "lost insertion detected"
    table.publish()
    if stats is not None:
        for st in local_stats:
            stats.merge(st)
        stats.visited += count
    return table


def parallel_query_sweep(
    rho_a: RhoVector,
    table: SharedValueTable,
    eps: float,
    workers: int = 1,
    stats: RecombineStats | None = None,
) -> CandidateSet:
    """Stream the low half's patterns through the published table with
    `workers` read-only threads and merge the per-worker finds. Output equals
    the serial backend e candidate set."""
    if not table.published:
        raise RuntimeError("query sweep requires a published table")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    na = len(rho_a)
    sums = subset_sums(rho_a.values)
    sums -= np.floor(sums)
    xs = sums.tolist()
    bvals = table.values.tolist()
    bpats = table.patterns.tolist()
    k = table.capacity
    eps_d = eps + GUARD

    results: list[set[int]] = [set() for _ in range(workers)]
    local_stats = [RecombineStats() for _ in range(workers)]

    def run(rng: range, out: set[int], st: RecombineStats) -> None:
        probes_total = 0
        for s_a in rng:
            hits, probes = _probe_window(bvals, bpats, k, (1.0 - xs[s_a]) % 1.0, eps_d)
            probes_total += probes
            for pb in hits:
                out.add(s_a | (pb << na))
        st.queries += len(rng)
        st.query_probes += probes_total

    threads = [
        threading.Thread(
            target=run,
            args=(part.pattern_range, results[part.worker_id], local_stats[part.worker_id]),
            name=f"query-{part.worker_id}",
        )
        for part in work_partitions(len(xs), workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    raw: set[int] = set()
    for part in results:
        raw |= part
    full_rho = RhoVector.from_values(np.concatenate((rho_a.values, table.rho_half)))
    if stats is not None:
        for st in local_stats:
            stats.merge(st)
        stats.visited += len(xs)
    return CandidateSet(_canonical_filter(raw, full_rho, eps), len(full_rho))


def parallel_recombine_e(
    rho: RhoVector,
    eps: float,
    workers: int,
    stats: RecombineStats | None = None,
) -> CandidateSet:
    """Backend e with a concurrent build and a partitioned sweep; candidate
    sets, and width errors, are identical to the serial backend for any
    worker count."""
    n = len(rho)
    _guard_width(n, 31)
    if n < 2:
        from .recombine import recombine_a

        return recombine_a(rho, eps, stats)
    na = n // 2
    rho_a = RhoVector.from_values(rho.values[:na])
    rho_b = RhoVector.from_values(rho.values[na:])
    table = parallel_build(rho_b, workers, stats)
    return parallel_query_sweep(rho_a, table, eps, workers, stats)


def serial_reference_table(rho_half: RhoVector) -> ValueTable:
    """Serial splat of the same instance; the content-equality oracle."""
    return splat(rho_half)
