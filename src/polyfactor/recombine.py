"""Subset-sum recombination over the rho vector.

Five interchangeable backends search for bit patterns s whose selected
fractional parts sum to within eps of an integer:

  a  exhaustive scan of half the pattern space (the reference oracle)
  b  the same scan with provably-sound jumps over barren pattern runs,
     run as a pruned tree of aligned pattern blocks
  c  meet in the middle: expand both halves, sort, sweep the matching line
  d  c with each half laid out in a splat table after a stable argsort
  e  sort one half's values once, then window-query them with the other
     half's complements (two searchsorted calls per batch)

Backends b..e discover candidates with a tiny slack band and then re-test
every find against the one canonical value() function, so all five return
bit-identical sets; differences in float association order can never leak
into the reported candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WidthExceeded
from .rootfinder import RootProfile

# absolute slack added to every discovery band before the canonical re-test;
# must dominate float64 association error of <=64-term sums (~1e-14)
GUARD = 1e-12

_A_WIDTH_LIMIT = 30
_A_CHUNK_BITS = 20
_B_WIDTH_LIMIT = 30
_B_CHUNK = 1 << 16  # block-tree nodes per numpy pass of backend b
_FILTER_ROWS = 1 << 14  # patterns per bit matrix in the canonical filter
_WINDOW_PAD = 1e-13  # window widening that covers the rounding of the -1/+1 copies
# (target, value) pairs one window query may gather, about 2^n * 2 eps;
# checked before the pair arrays (tens of bytes per pair) are allocated
_PAIR_LIMIT = 1 << 24


@dataclass(frozen=True)
class RhoVector:
    """The subset-sum instance: n fractional parts plus their prefix sums."""

    values: np.ndarray
    sigma: np.ndarray
    is_sorted: bool

    @classmethod
    def from_values(cls, values, sort: bool = False) -> "RhoVector":
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("rho must be one-dimensional")
        if len(vals) and (vals.min() < 0.0 or vals.max() >= 1.0):
            raise ValueError("rho entries must lie in [0, 1)")
        if sort:
            vals = np.sort(vals)
        sigma = np.concatenate(([0.0], np.cumsum(vals)))
        srt = bool(np.all(np.diff(vals) >= 0)) if len(vals) else True
        return cls(values=vals, sigma=sigma, is_sorted=srt)

    @classmethod
    def from_profile(cls, profile: RootProfile) -> "RhoVector":
        return cls.from_values(profile.rho)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CandidateSet:
    """Patterns that passed the canonical accept test, complement-canonicalized
    into the lower half space (min(s, ~s))."""

    patterns: frozenset[int]
    n: int

    def nontrivial(self) -> frozenset[int]:
        full = (1 << self.n) - 1
        return frozenset(s for s in self.patterns if s not in (0, full))

    def __len__(self) -> int:
        return len(self.patterns)


@dataclass
class RecombineStats:
    """Instrumentation counters surfaced by the bench command.

    visited counts the patterns or subset sums a backend forms. inserts and
    insert_probes count insertions into a splat table, so probes_mean reads
    0.0 for backends that build none. queries counts backend e's window
    queries and query() calls; query_probes counts the cells query() walks."""

    visited: int = 0
    inserts: int = 0
    insert_probes: int = 0
    queries: int = 0
    query_probes: int = 0

    @property
    def probes_mean(self) -> float:
        return self.insert_probes / self.inserts if self.inserts else 0.0


def value(s: int, rho) -> float:
    """Canonical pattern value: fractional part of the selected sum,
    accumulated in ascending index order. Every backend's final membership
    test goes through this exact function."""
    vals = rho.values if isinstance(rho, RhoVector) else rho
    x = 0.0
    i = 0
    while s:
        if s & 1:
            x += vals[i]
        s >>= 1
        i += 1
    return x - math.floor(x)


def accept(y: float, eps: float) -> bool:
    """True when y in [0,1] is within eps of either integer end."""
    return y < eps or (1.0 - y) < eps


def subset_sums(values) -> np.ndarray:
    """Raw subset sums of all 2^len patterns, index == pattern.

    Built by doubling, which reproduces the ascending-order accumulation of
    value() bit for bit (before the final fractional reduction)."""
    sums = np.zeros(1, dtype=np.float64)
    for v in np.asarray(values, dtype=np.float64):
        sums = np.concatenate((sums, sums + v))
    return sums


def _fractional_sums(values) -> np.ndarray:
    """subset_sums reduced to their fractional parts, as value() reduces."""
    sums = subset_sums(values)
    sums -= np.floor(sums)
    return sums


def _canonical_filter(found, rho: RhoVector, eps: float) -> frozenset[int]:
    """Map each discovered pattern to min(s, ~s) and keep it only if the
    representative itself passes the canonical accept test. This is what
    pins backends b..e to backend a's exact output.

    Each value adds the selected entries in ascending index order with an
    exact 0.0 for every unselected one, so it is bitwise value()'s."""
    if isinstance(found, np.ndarray):
        s = found.astype(np.uint64)
    else:
        s = np.fromiter(found, dtype=np.uint64)
    if not len(s):
        return frozenset()
    n = len(rho)
    s = np.minimum(s, s ^ np.uint64((1 << n) - 1))
    s.sort()
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    shifts = np.arange(n, dtype=np.uint64)
    keep = np.empty(len(s), dtype=bool)
    for lo in range(0, len(s), _FILTER_ROWS):
        bits = ((s[lo : lo + _FILTER_ROWS, None] >> shifts) & 1) != 0
        x = np.cumsum(np.where(bits, rho.values, 0.0), axis=1)[:, -1]
        y = x - np.floor(x)
        keep[lo : lo + len(y)] = (y < eps) | (1.0 - y < eps)
    return frozenset(s[keep].tolist())


# ---------------------------------------------------------------------------
# backend a: exhaustive half-space scan


def recombine_a(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Reference scan of every pattern s < 2^(n-1); the oracle for the rest."""
    n = len(rho)
    if n > _A_WIDTH_LIMIT:
        raise WidthExceeded(f"backend a handles n <= {_A_WIDTH_LIMIT}, got {n}")
    if n == 0:
        return CandidateSet(frozenset(), 0)
    bits = n - 1  # bit n-1 is never set below 2^(n-1)
    eps_d = eps + GUARD
    if bits <= _A_CHUNK_BITS:
        vals = _fractional_sums(rho.values[:bits])
        found = np.flatnonzero((vals < eps_d) | (vals > 1.0 - eps_d))
    else:
        lo = subset_sums(rho.values[:_A_CHUNK_BITS])
        hi = subset_sums(rho.values[_A_CHUNK_BITS:bits])
        parts = []
        for h, base in enumerate(hi):
            v = lo + base
            v -= np.floor(v)
            idx = np.flatnonzero((v < eps_d) | (v > 1.0 - eps_d))
            parts.append(idx | (h << _A_CHUNK_BITS))
        found = np.concatenate(parts)
    if stats is not None:
        stats.visited += 1 << bits
    return CandidateSet(_canonical_filter(found, rho, eps), n)


# ---------------------------------------------------------------------------
# backend b: pruned block tree
#
# A node (s, c) is the aligned block of patterns [s, s + 2^c) and carries the
# value x of s. Every other pattern in the block adds to s a nonempty subset
# of rho[0:c] (the alignment makes the additions carry-free), so its value
# lies in [x + rho[0], x + sigma[c]]. The node is a leaf, and only s is
# tested, when c = 0 or when that interval misses both accept bands:
# sigma[c] < (1 - eps) - x and x + rho[0] >= eps. This is slightly tighter
# than a plain "< 1" cutoff, which could skip patterns inside the eps band.
# Any other node splits into (s, c - 1) with value x and (s + 2^(c-1), c - 1)
# with value frac(x + rho[c-1]). Each numpy pass takes one array of at most
# _B_CHUNK pending nodes off a stack, so memory stays flat.


def recombine_b(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Jump scan as a pruned block tree; visits only the patterns the sigma
    rule cannot exclude, and returns exactly backend a's candidate set on
    the same sorted rho.

    visited counts the leaves, the patterns jump_width's scan visits. A
    pattern whose exact value is an integer may read just below 1 or just
    above 0, depending on the order its sum is rounded in; the two readings
    jump differently, and both are sound under GUARD. So a scan that sums in
    pattern order can count a few patterns more or fewer: on one n = 20
    instance a true factor reads 1 - 9e-16 in the tree and 9e-15 in such a
    scan, and the tree has 34,894 leaves against the scan's 34,892."""
    n = len(rho)
    if n > _B_WIDTH_LIMIT:
        raise WidthExceeded(f"backend b handles n <= {_B_WIDTH_LIMIT}, got {n}")
    if not rho.is_sorted:
        raise ValueError("backend b requires rho sorted non-decreasing")
    if n == 0:
        return CandidateSet(frozenset(), 0)
    eps_d = eps + GUARD
    sig, vals = rho.sigma, rho.values
    stack = [(np.zeros(1, dtype=np.int64), np.array([n - 1]), np.zeros(1))]
    found = []
    visited = 0
    while stack:
        s, c, x = stack.pop()
        leaf = (c == 0) | ((sig[c] < (1.0 - eps_d) - x) & (x + vals[0] >= eps_d))
        visited += int(np.count_nonzero(leaf))
        found.append(s[leaf & ((x < eps_d) | (x > 1.0 - eps_d))])
        s, c, x = s[~leaf], c[~leaf] - 1, x[~leaf]
        y = x + vals[c]
        y -= np.floor(y)
        s, c, x = np.concatenate((s, s + (1 << c))), np.tile(c, 2), np.concatenate((x, y))
        for i in range(0, len(s), _B_CHUNK):
            stack.append((s[i : i + _B_CHUNK], c[i : i + _B_CHUNK], x[i : i + _B_CHUNK]))
    if stats is not None:
        stats.visited += visited
    return CandidateSet(_canonical_filter(np.concatenate(found), rho, eps), n)


def jump_width(s: int, x: float, rho: RhoVector, eps: float) -> int:
    """Width exponent j of the sound jump from pattern s with value x
    (backend b advances by 2^j). Exposed for the soundness property tests."""
    n = len(rho)
    sig = rho.sigma
    c = n - 1 if s == 0 else ((s & -s).bit_length() - 1)
    j = c
    lim = (1.0 - eps) - x
    while j > 0 and sig[j] >= lim:
        j -= 1
    if j > 0 and x + rho.values[0] < eps:
        j = 0
    return j


# ---------------------------------------------------------------------------
# value tables (dense for the sweep, sparse for the probe structure)

EMPTY = -1.0  # sentinel outside the value range [0, 1)


@dataclass
class ValueTable:
    """(value, pattern) store produced by expand or splat.

    Dense form: no empty cells, values non-decreasing. Sparse form: capacity
    2 * 2^width with EMPTY holes; occupied cells are circularly non-decreasing
    starting from the global minimum.
    """

    values: np.ndarray
    patterns: np.ndarray
    width: int
    sparse: bool

    @property
    def capacity(self) -> int:
        return len(self.values)

    def occupied(self) -> int:
        return int(np.count_nonzero(self.values >= 0.0))

    def content(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored (value, pattern) multiset in a canonical order: by value,
        equal values by pattern.

        compact() already orders the values, so a sort is needed only when
        some run of equal values is out of pattern order (insert() calls
        out of pattern order leave them so). A dense table returns its own
        arrays."""
        dense = self.compact()
        vals, pats = dense.values, dense.patterns
        ties = vals[1:] == vals[:-1]
        if np.any(pats[1:][ties] < pats[:-1][ties]):
            order = np.lexsort((pats, vals))
            return vals[order], pats[order]
        return vals, pats

    def compact(self) -> "ValueTable":
        """Drop empty cells, yielding the dense sorted form in linear time.

        Cells whose home slot lies after their position hold values that
        wrapped past the end of the table; they are all at least as large as
        every unwrapped value (a carried value can never pass a larger
        occupant), so moving them to the back restores sortedness."""
        if not self.sparse:
            return self
        mask = self.values >= 0.0
        pos = np.nonzero(mask)[0]
        vals = self.values[mask]
        pats = self.patterns[mask]
        home = np.floor(vals * self.capacity).astype(np.int64)
        wrapped = home > pos
        vals = np.concatenate((vals[~wrapped], vals[wrapped]))
        pats = np.concatenate((pats[~wrapped], pats[wrapped]))
        assert bool(np.all(np.diff(vals) >= 0)), "splat table lost its probe order"
        return ValueTable(values=vals, patterns=pats, width=self.width, sparse=False)


def expand(rho_half: RhoVector, stats: RecombineStats | None = None) -> ValueTable:
    """All 2^len half-pattern values, stable-sorted by (value, pattern)."""
    m = len(rho_half)
    if m > 32:
        raise WidthExceeded(f"expand handles half widths <= 32, got {m}")
    sums = _fractional_sums(rho_half.values)
    order = np.argsort(sums, kind="stable")
    if stats is not None:
        stats.visited += 1 << m
    return ValueTable(
        values=sums[order],
        patterns=order.astype(np.int64),
        width=m,
        sparse=False,
    )


def _insert(values, patterns, k: int, x: float, pattern: int) -> int:
    """Place x near slot floor(k*x), carrying displaced larger values forward
    with circular wraparound. Returns the number of cells examined."""
    i = int(k * x)
    probes = 0
    while probes <= k:
        probes += 1
        v = values[i]
        if v < 0.0:
            values[i] = x
            patterns[i] = pattern
            return probes
        if v > x:
            values[i] = x
            carried = patterns[i]
            patterns[i] = pattern
            x = v
            pattern = carried
        i += 1
        if i == k:
            i = 0
    raise RuntimeError("splat table full; fill ratio contract violated")


def insert(x: float, pattern: int, table: ValueTable, stats: RecombineStats | None = None) -> None:
    """Public single insertion into a sparse table."""
    if not table.sparse:
        raise ValueError("insert requires a sparse table")
    probes = _insert(table.values, table.patterns, table.capacity, x, pattern)
    if stats is not None:
        stats.inserts += 1
        stats.insert_probes += probes


def _splat_cells(vs: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Cell of each value in a splat table of capacity k, for values sorted
    non-decreasing, plus the probe count of inserting them one by one.

    An ordered linear-probing table ends in the same layout whatever the
    insertion order (Amble & Knuth, Ordered hash tables, 1974), apart from
    the order among equal values, so the layout is that of inserting in
    sorted order: each value takes the cell after its predecessor's or its
    home floor(k*x), whichever is later, i.e. i + cummax(home_i - i). The
    values pushed past the end wrap into the first empty cells from 0, since
    the smaller values stored there never give way to them. Every insertion
    examines the cells from its home through the empty cell it fills, so the
    probe total is the insert count plus the summed circular displacements.
    """
    home = (k * vs).astype(np.int64)
    i = np.arange(len(vs))
    cells = i + np.maximum.accumulate(home - i)
    wrap = int(np.searchsorted(cells, k))
    if wrap < len(vs):
        free = np.ones(k, dtype=bool)
        free[cells[:wrap]] = False
        cells[wrap:] = np.flatnonzero(free)[: len(vs) - wrap]
    return cells, len(vs) + int(np.sum((cells - home) % k))


def _splat_table(rho_half: RhoVector, argsort, stats: RecombineStats | None) -> ValueTable:
    """splat's table, with the half-pattern values ordered by argsort(sums),
    which must equal np.argsort(sums, kind="stable")."""
    m = len(rho_half)
    if m > 31:
        raise WidthExceeded(f"splat handles half widths <= 31, got {m}")
    sums = _fractional_sums(rho_half.values)
    order = argsort(sums)
    k = 2 * len(sums)
    cells, probes = _splat_cells(sums[order], k)
    values = np.full(k, EMPTY, dtype=np.float64)
    values[cells] = sums[order]
    patterns = np.zeros(k, dtype=np.int64)
    patterns[cells] = order
    if stats is not None:
        stats.inserts += len(sums)
        stats.insert_probes += probes
        stats.visited += len(sums)
    return ValueTable(values=values, patterns=patterns, width=m, sparse=True)


def splat(rho_half: RhoVector, stats: RecombineStats | None = None) -> ValueTable:
    """Distribution-sort all half-pattern values into a table of twice their
    count; expected constant probes per insertion at this fill ratio.

    The table is the one the insert() loop over patterns 0, 1, 2, ... builds,
    cell for cell, except that equal values sit in pattern order (the serial
    carries leave them in an order that depends on their history); content()
    and the probe count are the same either way."""
    return _splat_table(rho_half, lambda sums: np.argsort(sums, kind="stable"), stats)


def _probe_window(values, patterns, k: int, t: float, eps: float, first_only: bool = False):
    """All stored patterns whose value lies within eps of t, circularly.

    Every stored value sits at or after its home slot with the cells in
    between occupied, so the walk starts at the home slot of (t - eps) and
    only an empty cell past the window's own slot range proves completion.
    Value ordering is deliberately not used as a stop condition: chains that
    wrapped past the table end interleave with small values near slot zero.
    Returns (hits, probes).
    """
    lo = (t - eps) % 1.0
    start = int(k * lo)
    span = (int(k * ((t + eps) % 1.0)) - start) % k
    i = start
    off = 0
    probes = 0
    hits: list[int] = []
    while off <= k:
        v = values[i]
        probes += 1
        if v < 0.0:
            if off >= span:
                break
        else:
            delta = (v - t) % 1.0
            if delta < eps or delta > 1.0 - eps:
                hits.append(patterns[i])
                if first_only:
                    break
        off += 1
        i += 1
        if i == k:
            i = 0
    return hits, probes


def query(
    x: float, table: ValueTable, eps: float, stats: RecombineStats | None = None
) -> int | None:
    """First stored pattern whose value is within eps of x (wraparound at 0/1
    honored), or None. The probe cost matches the insertion bound."""
    if not table.sparse:
        raise ValueError("query requires the sparse (uncompacted) table form")
    hits, probes = _probe_window(
        table.values, table.patterns, table.capacity, x % 1.0, eps, first_only=True
    )
    if stats is not None:
        stats.queries += 1
        stats.query_probes += probes
    return int(hits[0]) if hits else None


# ---------------------------------------------------------------------------
# meet-in-the-middle window queries


def _window_pairs(ts: np.ndarray, vs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with (vs[j] - ts[i]) mod 1 below eps or above
    1 - eps, the probe walk's test: every value within eps of a target on
    the unit circle. Both arrays must be sorted non-decreasing.

    Two searchsorted calls gather each target's values within a slightly
    wider window from vs, padded by copies of its ends shifted by -1 and +1
    so that windows wrap around 0/1; the exact test then runs on each pair.
    Windows are narrow and most hold no value, so the upper bound is only
    searched where the first value at or above the lower one lies inside.
    Raises WidthExceeded when the pair volume exceeds _PAIR_LIMIT."""
    w = eps + _WINDOW_PAD
    head = int(np.searchsorted(vs, w))
    tail = int(np.searchsorted(vs, 1.0 - w))
    ext = np.concatenate((vs[tail:] - 1.0, vs, vs[:head] + 1.0))
    lo = np.searchsorted(ext, ts - w)
    upper = ts + w
    hit = np.flatnonzero(ext[np.minimum(lo, len(ext) - 1)] <= upper)
    counts = np.zeros(len(ts), dtype=np.int64)
    counts[hit] = np.searchsorted(ext, upper[hit], side="right") - lo[hit]
    volume = int(counts.sum())
    if volume > _PAIR_LIMIT:
        n = (len(ts) * len(vs)).bit_length() - 1
        raise WidthExceeded(
            f"candidate volume of {volume:,} pairs exceeds {_PAIR_LIMIT:,} "
            f"(n = {n}, eps = {eps:.3g})"
        )
    qi = np.repeat(np.arange(len(ts)), counts)
    pos = np.arange(len(qi)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    vj = (pos - (len(vs) - tail)) % len(vs)
    delta = np.mod(vs[vj] - ts[qi], 1.0)
    keep = (delta < eps) | (delta > 1.0 - eps)
    return qi[keep], vj[keep]


def find(alpha: ValueTable, beta: ValueTable, eps: float) -> set[int]:
    """All concatenated patterns with alpha_i + beta_j within the accept
    bands: one window query of every (1 - alpha_i) mod 1 against the sorted
    beta values, so the bands at 0, 1 and 2 are one circular window.
    Duplicate-value neighborhoods are fully enumerated. Raw discovery
    output; the caller applies the canonical filter."""
    if alpha.sparse or beta.sparse:
        raise ValueError("find requires dense sorted tables")
    t = np.mod(1.0 - alpha.values, 1.0)
    qorder = np.argsort(t)
    qi, vj = _window_pairs(t[qorder], beta.values, eps + GUARD)
    apat = alpha.patterns[qorder[qi]].astype(np.uint64)
    bpat = beta.patterns[vj].astype(np.uint64)
    return set((apat | (bpat << alpha.width)).tolist())


def _split(rho: RhoVector) -> tuple[RhoVector, RhoVector]:
    n = len(rho)
    na = n // 2
    return (
        RhoVector.from_values(rho.values[:na]),
        RhoVector.from_values(rho.values[na:]),
    )


def _guard_width(n: int, half_limit: int) -> None:
    if n > 64:
        raise WidthExceeded(f"pattern width is capped at 64 bits, got {n}")
    if n - n // 2 > half_limit:
        raise WidthExceeded(f"half width {n - n // 2} exceeds backend limit {half_limit}")


def recombine_c(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Expand both halves, sort, sweep."""
    n = len(rho)
    _guard_width(n, 32)
    if n < 2:
        return recombine_a(rho, eps, stats)
    rho_a, rho_b = _split(rho)
    alpha = expand(rho_a, stats)
    beta = expand(rho_b, stats)
    raw = find(alpha, beta, eps)
    return CandidateSet(_canonical_filter(raw, rho, eps), n)


def recombine_d(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Splat-sort both halves, compact, sweep."""
    n = len(rho)
    _guard_width(n, 31)
    if n < 2:
        return recombine_a(rho, eps, stats)
    rho_a, rho_b = _split(rho)
    alpha = splat(rho_a, stats).compact()
    beta = splat(rho_b, stats).compact()
    raw = find(alpha, beta, eps)
    return CandidateSet(_canonical_filter(raw, rho, eps), n)


def recombine_e(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Sort the high half's values once and find every low-half pattern's
    partners with window queries against them.

    The counters record what runs: the 2^na + 2^nb subset sums formed
    (visited) and one window query per low-half pattern (queries). No table
    is built, so nothing is inserted or probed."""
    n = len(rho)
    _guard_width(n, 31)
    if n < 2:
        return recombine_a(rho, eps, stats)
    na = n // 2
    bsums = _fractional_sums(rho.values[na:])
    border = np.argsort(bsums)
    t = 1.0 - _fractional_sums(rho.values[:na])
    t[t == 1.0] = 0.0  # (1 - x) % 1.0, bit for bit
    qorder = np.argsort(t)
    qi, vj = _window_pairs(t[qorder], bsums[border], eps + GUARD)
    raw = qorder[qi] | (border[vj] << na)
    if stats is not None:
        stats.visited += len(bsums) + len(t)
        stats.queries += len(t)
    return CandidateSet(_canonical_filter(raw, rho, eps), n)


BACKENDS = {
    "a": recombine_a,
    "b": recombine_b,
    "c": recombine_c,
    "d": recombine_d,
    "e": recombine_e,
}


# ---------------------------------------------------------------------------
# cost estimators


def predict_beta(n: int) -> tuple[float, float]:
    """Expected visited-pattern ratio of the exhaustive scan to the jump scan.

    Returns (iterative, closed_form): the iterative value runs the jump-count
    recursion with E(sigma_k) = k^2/2n down from the largest jump width
    l = floor(sqrt(2n)); the closed form collapses it to 2^l / l.
    """
    if n < 2:
        raise ValueError("predict_beta requires n >= 2")
    l = math.isqrt(2 * n)
    closed = (2.0**l) / l
    total = 1 << (n - 1)
    remaining = total
    counts = [0] * (l + 1)
    for i in range(l, -1, -1):
        # floor(remaining * (1 - i^2/2n) / 2^i), kept in exact ints
        num = remaining * (2 * n - i * i)
        counts[i] = num // (2 * n * (1 << i))
        remaining -= counts[i] << i
    visits = sum(counts)
    covered = sum(m << i for i, m in enumerate(counts))
    iterative = covered / visits if visits else 1.0
    return iterative, closed


def splat_cost_bounds(c: float) -> tuple[float, float]:
    """(lower, upper) bounds on expected probes per insertion when the table
    is oversized by factor c: (c ln(c/(c-1)), c/(c-1))."""
    if c <= 1:
        raise ValueError("oversize factor must exceed 1")
    return c * math.log(c / (c - 1.0)), c / (c - 1.0)
