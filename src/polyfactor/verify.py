"""Candidate verification and the top-level factorization driver.

A pattern from the recombination stage is only a hint: its selected roots sum
to nearly an integer. Verification screens all patterns at once by
integrality of their power-sum traces, a chunk of patterns at a time: the
order-2 trace of every pattern first, then every other order on the few
patterns that order keeps. It then rebuilds the real factor of each
survivor, rounds its coefficients, and demands an exact integer division.
Traces and coefficients are held to one integrality budget, _budget.
Each square-free part gets one root finding and one recombination; a single
walk over the screened candidates, in order of factor degree, divides out
every confirmed factor.
Nothing floating ever reaches the output; a factorization is shipped with a
certificate obtained by exact re-multiplication.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergence, WidthExceeded
from .polynomial import IntPolynomial, divide_exact, square_free_decompose
from .recombine import BACKENDS, WIDTHS, RecombineStats, RhoVector
from .rootfinder import INT_LIMIT, RootProfile, ToleranceConfig, build_profile, find_roots, to_float

# per-root relative error budget: a value summing products of m roots,
# with terms of size scale, is taken to be within m * scale * _TRACE_REL
_TRACE_REL = 1e-11
# patterns screened per matrix product; bounds the bit matrix and the trace
# and scale arrays to this many rows
_SCREEN_CHUNK = 1024


@dataclass(frozen=True)
class CandidateFactor:
    """A real factor rebuilt from a pattern: lead * prod(x - root) (extended
    precision). coeff_scales holds the size of each coefficient's terms (the
    same product with every root taken in absolute value). lead is the top
    coefficient as an exact int."""

    pattern: int
    real_coeffs: np.ndarray
    coeff_scales: np.ndarray
    lead: int

    @property
    def degree(self) -> int:
        return len(self.real_coeffs) - 1


def selected_degree(s: int, profile: RootProfile) -> int:
    """Factor degree a pattern would produce: the sum of its entries' degrees."""
    return sum(int(profile.degrees[i]) for i in range(s.bit_length()) if s >> i & 1)


def build_candidate(s: int, profile: RootProfile, lead: int = 1) -> CandidateFactor:
    """Multiply out the selected pieces x - u/a and x^2 - (t/a)*x + m/a^2 of
    a profile of roots scaled by the lead a, in real arithmetic and in bit
    order, and scale by a: a true factor g with lead b gives the integral
    (a/b)*g."""
    ld = np.longdouble
    a = to_float(lead, ld)
    coeffs = np.array([1.0], dtype=ld)
    mags = np.array([1.0], dtype=ld)
    for i in range(s.bit_length()):
        if s >> i & 1:
            t, m = ld(profile.sums[i]) / a, ld(profile.products[i]) / a**2
            # x - t for a real root, x^2 - t*x + m for a pair
            piece = np.array([m, -t, 1.0], dtype=ld)[2 - profile.degrees[i] :]
            coeffs = np.convolve(coeffs, piece)
            mags = np.convolve(mags, np.abs(piece))
    return CandidateFactor(s, a * coeffs, abs(a) * mags, lead)


def _budget(m, scale, eps):
    """How far a float value summing products of m roots, with terms of size
    scale, may lie from an integer and still be taken for one: its assumed
    error m * scale * _TRACE_REL, or eps if larger. Elementwise on arrays.
    A budget of 1/2 or more rejects nothing."""
    return np.maximum(eps, m * scale * _TRACE_REL)


def trace_test(traces: np.ndarray, scales: np.ndarray, eps: float) -> bool:
    """Screen a candidate by integrality of its power-sum traces of orders
    m = 1..e, given with their scales (the power sums of the selected roots'
    absolute values): reject it when some order-m trace lies more than
    max(eps, m * scale * _TRACE_REL) from an integer.

    This is the scalar reference for screen_candidates, which applies the
    same rule through _budget to many candidates at once; it writes the
    rule out itself, so that the two can be checked against each other."""
    for m0 in range(len(traces)):
        tr = traces[m0]
        if abs(float(tr - np.rint(tr))) > max(eps, (m0 + 1) * float(scales[m0]) * _TRACE_REL):
            return False
    return True


def round_and_divide(
    cand: CandidateFactor, p: IntPolynomial, eps: float
) -> tuple[IntPolynomial, IntPolynomial] | None:
    """Round the candidate's coefficients below its exact lead to integers,
    take the primitive part q and demand an exact division of p; return
    (q, p / q). None (rejection) is the normal fate of spurious patterns.

    Coefficient k sums products of e - k roots, so it must lie within
    _budget(e - k, size of its terms, eps) of an integer, the trace screen's
    rule; exact division decides the rest."""
    e = cand.degree
    rounded: list[int] = []
    for k, c in enumerate(cand.real_coeffs[:e]):
        r = np.rint(c)
        if abs(float(r)) >= INT_LIMIT:
            return None
        if abs(float(c - r)) > _budget(e - k, float(cand.coeff_scales[k]), eps):
            return None
        rounded.append(int(r))
    q = IntPolynomial(rounded + [cand.lead]).primitive_part()
    rest = divide_exact(p, q)
    return None if rest is None else (q, rest)


def _trace_tables(profile: RootProfile, e_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry power sums and their scales for orders m = 1..e_max.

    Two long-double tables with one row per bit. Entry i, with sums t,
    products m' and degree e_i, has the power sums p_k = t*p_{k-1} -
    m'*p_{k-2} from p_0 = e_i: u^k for a real root u (m' = 0), and
    z^k + conj(z)^k for a pair. Its scales are e_i * |z|^k, with |z| = |u|
    for a real root and sqrt(m') for a pair. Each row is a running product,
    so its entries are the same whichever e_max it is computed to."""
    ld = np.longdouble
    t, m, deg = (np.asarray(v, dtype=ld) for v in (profile.sums, profile.products, profile.degrees))
    powers = np.empty((profile.n, e_max), dtype=ld)
    prev, cur = deg, t
    for k in range(e_max):
        powers[:, k] = cur
        prev, cur = cur, t * cur - m * prev
    steps = np.repeat(np.where(deg == 1, np.abs(t), np.sqrt(m))[:, None], e_max, axis=1)
    steps[:, 0] *= deg
    return powers, np.cumprod(steps, axis=1)


def _pattern_bits(pats: np.ndarray, n: int) -> np.ndarray:
    """(len(pats), n) uint8 matrix of bits s >> i & 1 of the uint64 patterns."""
    raw = np.ascontiguousarray(pats, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def screen_candidates(patterns, profile: RootProfile, eps: float):
    """Yield (pattern, degree, passed) for every pattern, in (degree,
    pattern) order, where degree is selected_degree(s) and passed is
    trace_test's verdict on the pattern's traces and scales, each summed
    over the rows of _trace_tables that its set bits select, in bit order.

    Each chunk is screened in two stages, both products of its one bit
    matrix (_pattern_bits, which also gives the degrees) with the tables of
    _trace_tables. Stage 1 takes the order-2 column of the scale and
    power-sum tables alone and drops the rows of degree 2 or more whose
    order-2 trace lies past its _budget; that order settles almost every
    spurious pattern, since order 1 is what recombination already tested.
    Stage 2 gives the rows stage 1 kept the scales of every order, then the
    traces of the orders where some row's budget is below 1/2 (no other
    order can reject a row), and rejects a row with a trace past its budget
    at an order up to its degree. Chunks are screened lazily, so a caller
    that stops at some degree never screens the chunks after it."""
    pats = np.fromiter(patterns, dtype=np.uint64, count=len(patterns))
    if not len(pats):
        return
    chunks = range(0, len(pats), _SCREEN_CHUNK)
    n, weight = profile.n, profile.degrees.astype(np.uint64)
    degrees = np.concatenate(
        [_pattern_bits(pats[i : i + _SCREEN_CHUNK], n) @ weight for i in chunks]
    )
    order = np.lexsort((pats, degrees))
    pats, degrees = pats[order], degrees[order]

    powers, mags = _trace_tables(profile, int(degrees[-1]))
    for start in chunks:
        stop = min(start + _SCREEN_CHUNK, len(pats))
        e = int(degrees[stop - 1])
        deg = degrees[start:stop]
        sel = _pattern_bits(pats[start:stop], n).astype(np.longdouble)
        passed = np.ones(len(deg), dtype=bool)
        if e >= 2:
            # stage 1: the order-2 trace alone settles most spurious rows
            scale = (sel @ mags[:, 1]).astype(np.float64)
            trace = sel @ powers[:, 1]
            off = np.abs((trace - np.rint(trace)).astype(np.float64)) > _budget(2, scale, eps)
            passed = ~off | (deg < 2)
        # stage 2: every order, on the rows stage 1 kept
        keep = np.flatnonzero(passed)
        sel = sel[keep]
        orders = np.arange(1, e + 1, dtype=np.uint64)
        budgets = _budget(orders, (sel @ mags[:, :e]).astype(np.float64), eps)
        # only an order where some row's budget is below 1/2 can reject
        used = np.flatnonzero((budgets < 0.5).any(axis=0))
        traces = sel @ powers[:, used]
        off = np.abs((traces - np.rint(traces)).astype(np.float64)) > budgets[:, used]
        passed[keep] = ~np.any(off & (orders[used] <= deg[keep, None]), axis=1)
        yield from zip(pats[start:stop].tolist(), deg.tolist(), passed.tolist())


@dataclass
class FactorStats:
    """Aggregated per-stage counters for one factor() call.

    candidates counts the nontrivial patterns recombination returned.
    rejected counts the candidates the verification walk reached and turned
    down (by the trace screen, the rounding gate or exact division); those
    skipped for sharing roots with a confirmed factor, and those past the
    walk's degree stop, are not counted. screen_rejected counts the part of
    rejected that the trace screen failed; the rest of rejected fell to the
    rounding gate or to exact division. square_free_seconds times the one
    square-free split of the input; the other timings are summed over its
    parts."""

    backend: str = "e"
    workers: int = 1
    n: int = 0
    square_free_seconds: float = 0.0
    root_seconds: float = 0.0
    recombine_seconds: float = 0.0
    verify_seconds: float = 0.0
    candidates: int = 0
    rejected: int = 0
    screen_rejected: int = 0
    recombine: RecombineStats = field(default_factory=RecombineStats)


@dataclass(frozen=True)
class FactorizationResult:
    input: IntPolynomial
    content: int
    factors: tuple[tuple[IntPolynomial, int], ...]
    certificate: bool
    stats: FactorStats

    @property
    def irreducible(self) -> bool:
        """True when the primitive part is a single multiplicity-1 factor."""
        return len(self.factors) == 1 and self.factors[0][1] == 1


def factor(
    p: IntPolynomial,
    cfg: ToleranceConfig | None = None,
    backend: str = "e",
    workers: int = 1,
) -> FactorizationResult:
    """Full irreducible factorization over the integers.

    Splits off the content and the square-free parts, and runs roots ->
    recombine -> verify once on each part, monic or not: one walk over
    the screened candidates in (degree, pattern) order confirms the factors
    by exact division, and what remains is the last factor. The certificate
    flag is set by exact re-multiplication of the output.

    `workers` is validated and recorded in the stats; every worker count
    runs the same serial recombination. Raises WidthExceeded when n or the
    candidate volume is beyond the backend's limits.
    """
    cfg = cfg or ToleranceConfig()
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if p.is_constant():
        raise ValueError("factor requires a non-constant polynomial")

    stats = FactorStats(backend=backend, workers=workers)
    content = p.content()
    prim = p.primitive_part()
    out: list[tuple[IntPolynomial, int]] = []
    t0 = time.perf_counter()
    parts = square_free_decompose(prim)
    stats.square_free_seconds = time.perf_counter() - t0
    for part, mult in parts:
        out.extend((g, mult) for g in _factor_squarefree(part, cfg, backend, stats))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))

    rebuilt = IntPolynomial([content])
    for g, m in out:
        rebuilt = rebuilt * g**m
    return FactorizationResult(
        input=p,
        content=content,
        factors=tuple(out),
        certificate=(rebuilt == p),
        stats=stats,
    )


def _factor_squarefree(
    p: IntPolynomial,
    cfg: ToleranceConfig,
    backend: str,
    stats: FactorStats,
) -> list[IntPolynomial]:
    """Irreducible factors of a square-free p with positive lead a from one
    root finding and one recombination, on p's roots multiplied by a.

    The walk confirms candidates in (degree, pattern) order, so a reducible
    candidate always comes after its factors, and shares roots with one of
    them once they are confirmed. _canonical_filter keeps the smaller of a
    pattern and its complement, so no candidate selects the root of bit
    n - 1: every factor except the one owning that root is a candidate, and
    that one is the remainder. A candidate of the remainder's degree or more
    cannot be a proper factor of it, which ends the walk. Degree d gives
    n >= ceil(d/2), so a part past WIDTHS[backend] is refused before root finding."""
    if p.degree <= 1:
        return [p]
    if (n := (p.degree + 1) // 2) > WIDTHS[backend]:
        raise WidthExceeded(
            f"pattern width is capped at {WIDTHS[backend]} bits, degree {p.degree} needs {n}"
        )

    t0 = time.perf_counter()
    roots = find_roots(p, cfg)
    # unscaled monic parts skip the guard, whose worst case would refuse some that
    # factor correctly: 2.5e-6 on a product of factors with 1e9 coefficients
    if p.leading != 1:
        # the roots of the monic a^(d-1) * p(x/a): integral traces on factors
        y = roots.astype(np.clongdouble) * to_float(p.leading, np.longdouble)
        big = np.max(np.abs(y))
        if not p.degree * big * 2.0**-52 < cfg.eps:
            raise NonConvergence(
                f"roots times the lead reach {np.format_float_scientific(big, 2, unique=False)}, "
                f"too large for eps {cfg.eps:g}"
            )
        roots = y.astype(np.complex128)
    profile = build_profile(roots)
    stats.root_seconds += time.perf_counter() - t0

    rho = RhoVector.from_profile(profile)
    stats.n = max(stats.n, len(rho))
    t0 = time.perf_counter()
    # only the nontrivial patterns are kept: the CandidateSet's own set of the
    # same ints is 16 MB for x^60 - 1
    patterns = BACKENDS[backend](rho, cfg.eps, stats.recombine).nontrivial()
    stats.recombine_seconds += time.perf_counter() - t0
    stats.candidates += len(patterns)

    t0 = time.perf_counter()
    factors: list[IntPolynomial] = []
    rest = p
    consumed = 0
    for s, e, passed in screen_candidates(patterns, profile, cfg.eps):
        if e >= rest.degree:
            break
        if s & consumed:
            continue
        if not passed:
            stats.rejected += 1
            stats.screen_rejected += 1
            continue
        found = round_and_divide(build_candidate(s, profile, p.leading), rest, cfg.eps)
        if found is None:
            stats.rejected += 1
            continue
        q, rest = found
        factors.append(q)
        consumed |= s
    stats.verify_seconds += time.perf_counter() - t0
    return factors + [rest]


def is_irreducible(
    p: IntPolynomial, cfg: ToleranceConfig | None = None, backend: str = "e"
) -> bool:
    """True when the primitive part of p does not split over the integers."""
    if p.is_constant():
        raise ValueError("irreducibility is asked of non-constant polynomials")
    if p.degree == 1:
        return True
    return factor(p, cfg, backend).irreducible
