"""Subset-sum recombination over the rho vector.

Five interchangeable backends search for bit patterns s whose selected
fractional parts sum to within eps of an integer:

  a  exhaustive scan of half the pattern space (the reference oracle)
  b  the same scan with provably-sound jumps over barren pattern runs,
     run as a pruned tree of aligned pattern blocks
  c  meet in the middle over a's half space: sort the high half's subset
     sums into a table and window-query it with the complements of the low
     half's sums; bit n-1, which one of every pattern and its complement
     sets, belongs to neither half
  d  c with the high half's table laid out by splat, then compacted
  e  c with the high half sorted by one unstable argsort, the cheapest table

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
from .rootfinder import GUARD, RootProfile

_A_CHUNK_BITS = 20
_B_CHUNK = 1 << 16  # block-tree nodes per numpy pass of backend b
_WINDOW_PAD = 1e-13  # window widening that covers the rounding of the -1/+1 copies
# (target, value) pairs one window query may gather, about 2^n * eps over
# the 2^(n-1) patterns below bit n-1; checked before the pair arrays (tens
# of bytes per pair) are allocated
_PAIR_LIMIT = 1 << 24
# the widest n each backend searches: a and b scan 2^(n-1) patterns, and
# c, d and e, which meet over the same 2^(n-1), refuse n past twice the
# bits of _PAIR_LIMIT (see _meet)
WIDTHS = {"a": 30, "b": 30, **dict.fromkeys("cde", 2 * (_PAIR_LIMIT.bit_length() - 1))}


@dataclass(frozen=True)
class RhoVector:
    """The subset-sum instance: n fractional parts plus their prefix sums."""

    values: np.ndarray
    sigma: np.ndarray
    is_sorted: bool

    @classmethod
    def from_values(cls, values) -> "RhoVector":
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("rho must be one-dimensional")
        if len(vals) and (vals.min() < 0.0 or vals.max() >= 1.0):
            raise ValueError("rho entries must lie in [0, 1)")
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
        """The patterns but 0 (min(s, ~s) maps the full pattern to 0); not
        patterns - {0}, whose copy doubles the table: 32 MB for x^60 - 1."""
        return frozenset(filter(None, self.patterns))

    def __len__(self) -> int:
        return len(self.patterns)


@dataclass
class RecombineStats:
    """Instrumentation counters surfaced by the bench command.

    visited counts the patterns or subset sums a backend forms. inserts and
    insert_probes count insertions into a splat table, so probes_mean reads
    0.0 for backends that build none."""

    visited: int = 0
    inserts: int = 0
    insert_probes: int = 0

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


def _canonical_filter(found: np.ndarray, rho: RhoVector, eps: float) -> frozenset[int]:
    """Map each discovered pattern in the integer array found (duplicates
    allowed) to min(s, ~s) and keep it only if the representative itself
    passes the canonical accept test. This is what pins backends b..e to
    backend a's exact output.

    Its sums are value()'s loop run over all patterns at once, so bitwise
    value()'s (a matmul would add the entries in another order)."""
    s = found.astype(np.uint64)
    if not len(s):
        return frozenset()
    s = np.minimum(s, s ^ np.uint64((1 << len(rho)) - 1))
    s.sort()
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    x = 0.0
    for i, v in enumerate(rho.values):
        x += np.where(s & np.uint64(1 << i), v, 0.0)
    x -= np.floor(x)
    s = s[(x < eps) | (1.0 - x < eps)]
    del x  # 8 MB per 2^20 finds, freed before the set's Python ints are made
    return frozenset(s.tolist())


# ---------------------------------------------------------------------------
# backend a: exhaustive half-space scan


def recombine_a(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Reference scan of every pattern s < 2^(n-1); the oracle for the rest."""
    n = len(rho)
    if n > WIDTHS["a"]:
        raise WidthExceeded(f"backend a handles n <= {WIDTHS['a']}, got {n}")
    if n == 0:
        return CandidateSet(frozenset(), 0)
    bits = n - 1  # bit n-1 is never set below 2^(n-1)
    low = min(bits, _A_CHUNK_BITS)
    eps_d = eps + GUARD
    lo = subset_sums(rho.values[:low])
    parts = []
    # one pass per high pattern h; with no high bits, h = 0 adds an exact 0.0
    for h, base in enumerate(subset_sums(rho.values[low:bits])):
        v = lo + base
        v -= np.floor(v)
        parts.append(np.flatnonzero((v < eps_d) | (v > 1.0 - eps_d)) | (h << low))
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
    if n > WIDTHS["b"]:
        raise WidthExceeded(f"backend b handles n <= {WIDTHS['b']}, got {n}")
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
# value tables (dense for the sweep, sparse as splat lays them out)

EMPTY = -1.0  # sentinel outside the value range [0, 1)


@dataclass
class ValueTable:
    """(value, pattern) store produced by expand or splat.

    Dense form: no empty cells, values non-decreasing (the query side that
    find takes may be in any order). Sparse form: capacity
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


def _half_table(values, argsort, stats: RecombineStats | None) -> ValueTable:
    """Dense table of the 2^len fractional subset sums of values, ordered by
    argsort(sums), or left in pattern order when argsort is None; visited
    counts the sums formed."""
    sums = _fractional_sums(values)
    if stats is not None:
        stats.visited += len(sums)
    order = np.arange(len(sums)) if argsort is None else argsort(sums)
    vals = sums if argsort is None else sums[order]
    return ValueTable(values=vals, patterns=order, width=len(values), sparse=False)


def _stable_argsort(sums: np.ndarray) -> np.ndarray:
    return np.argsort(sums, kind="stable")


def expand(rho_half: RhoVector, stats: RecombineStats | None = None) -> ValueTable:
    """All 2^len half-pattern values, stable-sorted by (value, pattern)."""
    m = len(rho_half)
    if m > 32:
        raise WidthExceeded(f"expand handles half widths <= 32, got {m}")
    return _half_table(rho_half.values, _stable_argsort, stats)


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
    dense = _half_table(rho_half.values, argsort, stats)
    k = 2 * len(dense.values)
    cells, probes = _splat_cells(dense.values, k)
    values = np.full(k, EMPTY, dtype=np.float64)
    values[cells] = dense.values
    patterns = np.zeros(k, dtype=np.int64)
    patterns[cells] = dense.patterns
    if stats is not None:
        stats.inserts += len(dense.values)
        stats.insert_probes += probes
    return ValueTable(values=values, patterns=patterns, width=m, sparse=True)


def splat(rho_half: RhoVector, stats: RecombineStats | None = None) -> ValueTable:
    """Distribution-sort all half-pattern values into a table of twice their
    count; expected constant probes per insertion at this fill ratio.

    The table is the one the insert() loop over patterns 0, 1, 2, ... builds,
    cell for cell, except that equal values sit in pattern order (the serial
    carries leave them in an order that depends on their history); content()
    and the probe count are the same either way."""
    return _splat_table(rho_half, _stable_argsort, stats)


# ---------------------------------------------------------------------------
# meet-in-the-middle window queries


def _window_pairs(
    ts: np.ndarray, vs: np.ndarray, eps: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with (vs[j] - ts[i]) mod 1 below eps or above
    1 - eps, the probe walk's test: every value within eps of a target on
    the unit circle. Both arrays must be sorted non-decreasing.

    Two searchsorted calls gather each target's values within a slightly
    wider window from vs, padded by copies of its ends shifted by -1 and +1
    so that windows wrap around 0/1; the exact test then runs on each pair.
    Windows are narrow and most hold no value, so the upper bound is only
    searched at the hits, where the first value at or above the lower one
    lies inside; past them every array has one entry per hit or per pair.
    Raises WidthExceeded, naming the instance's width n, when the pair
    volume exceeds _PAIR_LIMIT."""
    w = eps + _WINDOW_PAD
    head = int(np.searchsorted(vs, w))
    tail = int(np.searchsorted(vs, 1.0 - w))
    ext = np.concatenate((vs[tail:] - 1.0, vs, vs[:head] + 1.0))
    lo = np.searchsorted(ext, ts - w)
    hit = np.flatnonzero(ext[np.minimum(lo, len(ext) - 1)] <= ts + w)
    lo = lo[hit]
    counts = np.searchsorted(ext, ts[hit] + w, side="right") - lo
    volume = int(counts.sum())
    if volume > _PAIR_LIMIT:
        raise WidthExceeded(
            f"candidate volume of {volume:,} pairs exceeds {_PAIR_LIMIT:,} "
            f"(n = {n}, eps = {eps:.3g})"
        )
    qi = np.repeat(hit, counts)
    pos = np.arange(len(qi)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    vj = (pos - (len(vs) - tail)) % len(vs)
    delta = np.mod(vs[vj] - ts[qi], 1.0)
    keep = (delta < eps) | (delta > 1.0 - eps)
    return qi[keep], vj[keep]


def find(alpha: ValueTable, beta: ValueTable, eps: float, n: int) -> np.ndarray:
    """All concatenated patterns with alpha_i + beta_j within the accept
    bands, as a uint64 array: one window query of every (1 - alpha_i) mod 1
    against the sorted beta values, so the bands at 0, 1 and 2 are one
    circular window. beta must be dense and sorted; alpha's values may come
    in any order, since the targets are sorted here. Duplicate-value
    neighborhoods are fully enumerated. Raw discovery output; the caller
    applies the canonical filter. n is the width of the instance the halves
    come from, named by the volume guard's message."""
    if alpha.sparse or beta.sparse:
        raise ValueError("find requires dense tables")
    t = 1.0 - alpha.values
    t[t == 1.0] = 0.0  # (1 - x) mod 1, bit for bit, and far cheaper than np.mod
    qorder = np.argsort(t)
    t = t[qorder]
    qi, vj = _window_pairs(t, beta.values, eps + GUARD, n)
    apat = alpha.patterns[qorder[qi]].astype(np.uint64)
    bpat = beta.patterns[vj].astype(np.uint64)
    return apat | (bpat << alpha.width)


def _meet(rho: RhoVector, eps: float, stats: RecombineStats | None, table) -> CandidateSet:
    """Meet in the middle for backends c, d and e, which differ only in
    table(high half, stats), the high half's dense sorted table; the low
    half's sums stay in pattern order, since find sorts their complements.

    The search covers backend a's domain, the patterns below 2^(n-1): the
    low half is rho[:na] and the high half rho[na:n-1], na = (n-1)//2, and
    bit n-1 is never set. Each find s is then its own representative
    min(s, ~s), and _canonical_filter still re-tests it against value().
    visited counts the 2^na + 2^(n-1-na) sums formed. A half table costs
    tens of bytes per sum, and n - n//2 past the bits of _PAIR_LIMIT, the
    window query's own budget, is refused before any sum is formed."""
    n = len(rho)
    half_limit = _PAIR_LIMIT.bit_length() - 1
    if n - n // 2 > half_limit:
        raise WidthExceeded(f"half width {n - n // 2} exceeds backend limit {half_limit}")
    if n < 2:
        return recombine_a(rho, eps, stats)
    na = (n - 1) // 2
    alpha = _half_table(rho.values[:na], None, stats)
    beta = table(RhoVector.from_values(rho.values[na : n - 1]), stats)
    return CandidateSet(_canonical_filter(find(alpha, beta, eps, n), rho, eps), n)


def recombine_c(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Meet in the middle against the high half's expand table."""
    return _meet(rho, eps, stats, expand)


def recombine_d(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Meet in the middle against the high half's splat table, compacted;
    only the high half is inserted and probed."""
    return _meet(rho, eps, stats, lambda half, st: splat(half, st).compact())


def recombine_e(rho: RhoVector, eps: float, stats: RecombineStats | None = None) -> CandidateSet:
    """Meet in the middle against the high half's sums sorted by one
    unstable argsort, the cheapest table; nothing is inserted or probed."""
    return _meet(rho, eps, stats, lambda half, st: _half_table(half.values, np.argsort, st))


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
