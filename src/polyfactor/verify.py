"""Candidate verification and the top-level factorization driver.

A pattern from the recombination stage is only a hint: its selected roots sum
to nearly an integer. Verification first screens all patterns at once by
integrality of their power-sum traces (one matrix product per chunk of
patterns), then rebuilds the real factor of each survivor, repeats the trace
test on it, rounds the coefficients, and finally demands an exact integer
division of the input. Nothing floating ever reaches the output; a
factorization is shipped with a certificate obtained by exact
re-multiplication.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .polynomial import (
    IntPolynomial,
    divide_exact,
    monic_transform,
    monic_untransform_factor,
    square_free_decompose,
)
from .recombine import BACKENDS, CandidateSet, RecombineStats, RhoVector
from .rootfinder import RootProfile, ToleranceConfig, build_profile, find_roots

# per-root relative error budget used to decide whether a trace is still
# numerically resolvable against the integer lattice
_TRACE_REL = 1e-11
_INT_LIMIT = 1 << 62  # beyond this, float values cannot certify integrality
# patterns screened per matrix product; bounds the bit matrix and the trace
# and scale arrays to this many rows
_SCREEN_CHUNK = 1024


@dataclass(frozen=True)
class CandidateFactor:
    """A real factor rebuilt from a pattern: monic coefficients (extended
    precision) plus the power-sum traces of its selected roots. coeff_scales
    holds the size of each coefficient's terms (the coefficients of the
    product with every root taken in absolute value)."""

    pattern: int
    real_coeffs: np.ndarray
    traces: np.ndarray
    trace_scales: np.ndarray
    coeff_scales: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.real_coeffs) - 1


def selected_degree(s: int, profile: RootProfile) -> int:
    """Factor degree a pattern would produce: one per real root, two per pair."""
    e = 0
    i = 0
    while s:
        if s & 1:
            e += 1 if profile.perm[i] < profile.r else 2
        s >>= 1
        i += 1
    return e


def build_candidate(s: int, profile: RootProfile) -> CandidateFactor:
    """Multiply out the selected linear and quadratic pieces and accumulate
    power sums. Pair traces use the recurrence p_k = t*p_{k-1} - m*p_{k-2}
    of the quadratic x^2 - t*x + m, so everything stays in real arithmetic."""
    ld = np.longdouble
    coeffs = np.array([1.0], dtype=ld)
    reals: list = []
    pairs: list[tuple] = []
    i = 0
    t = s
    while t:
        if t & 1:
            ent = profile.perm[i]
            if ent < profile.r:
                reals.append(ld(profile.real_roots[ent]))
            else:
                j = ent - profile.r
                pairs.append((ld(profile.pair_sums[j]), ld(profile.pair_products[j])))
        t >>= 1
        i += 1

    mags = np.array([1.0], dtype=ld)
    for u in reals:
        ext = np.zeros(len(coeffs) + 1, dtype=ld)
        ext[1:] += coeffs
        ext[:-1] -= u * coeffs
        coeffs = ext
        ext = np.zeros(len(mags) + 1, dtype=ld)
        ext[1:] += mags
        ext[:-1] += abs(u) * mags
        mags = ext
    for psum, pprod in pairs:
        ext = np.zeros(len(coeffs) + 2, dtype=ld)
        ext[2:] += coeffs
        ext[1:-1] -= psum * coeffs
        ext[:-2] += pprod * coeffs
        coeffs = ext
        ext = np.zeros(len(mags) + 2, dtype=ld)
        ext[2:] += mags
        ext[1:-1] += abs(psum) * mags
        ext[:-2] += pprod * mags
        mags = ext

    e = len(coeffs) - 1
    traces = np.zeros(e, dtype=ld)
    scales = np.zeros(e, dtype=ld)
    upow = [u for u in reals]
    uabs = [abs(u) for u in reals]
    # pair power sums: (previous, current), starting at p_0 = 2, p_1 = t
    pstate = [(ld(2.0), psum) for psum, _ in pairs]
    pmag = [ld(2.0) * np.sqrt(pprod) for _, pprod in pairs]
    for m in range(1, e + 1):
        tr = ld(0.0)
        sc = ld(0.0)
        for idx in range(len(reals)):
            tr += upow[idx]
            sc += uabs[idx]
        for idx in range(len(pairs)):
            tr += pstate[idx][1]
            sc += pmag[idx]
        traces[m - 1] = tr
        scales[m - 1] = sc
        if m < e:
            for idx in range(len(reals)):
                upow[idx] *= reals[idx]
                uabs[idx] *= abs(reals[idx])
            for idx, (psum, pprod) in enumerate(pairs):
                prev, cur = pstate[idx]
                pstate[idx] = (cur, psum * cur - pprod * prev)
                pmag[idx] *= np.sqrt(pprod)
    return CandidateFactor(
        pattern=s, real_coeffs=coeffs, traces=traces, trace_scales=scales, coeff_scales=mags
    )


def trace_test(cand: CandidateFactor, eps: float) -> bool:
    """Screen a candidate by integrality of its power-sum traces.

    A trace is only consulted while it is numerically resolvable: once
    m * scale * (per-root error budget) exceeds eps, the float value could
    not distinguish integer from non-integer and the decision is deferred to
    the exact division stage."""
    for m0 in range(len(cand.traces)):
        m = m0 + 1
        scale = float(cand.trace_scales[m0])
        if m * scale * _TRACE_REL >= eps or scale >= _INT_LIMIT:
            continue
        tr = cand.traces[m0]
        if abs(float(tr - np.rint(tr))) >= eps:
            return False
    return True


def round_and_divide(cand: CandidateFactor, p: IntPolynomial, eps: float) -> IntPolynomial | None:
    """Round the candidate's coefficients to integers and demand an exact
    division of p. None (rejection) is the normal fate of spurious patterns.

    Coefficient k sums products of e - k roots, so its float error is at most
    (e - k) * (size of its terms) * (per-root error budget), the budget of the
    trace test. Each coefficient must lie within that bound, or within eps
    if larger, of an integer; exact division decides the rest."""
    e = len(cand.real_coeffs) - 1
    rounded: list[int] = []
    for k, c in enumerate(cand.real_coeffs):
        r = np.rint(c)
        if abs(float(r)) >= _INT_LIMIT:
            return None
        tol = max(eps, (e - k) * float(cand.coeff_scales[k]) * _TRACE_REL)
        if abs(float(c - r)) > tol:
            return None
        rounded.append(int(r))
    q = IntPolynomial(rounded)
    if q.degree < 1:
        return None
    return q if divide_exact(p, q) is not None else None


def _trace_tables(profile: RootProfile, e_max: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Per-entry power sums and their scales for orders m = 1..e_max.

    Returns the bit indices in build_candidate's summation order (real roots,
    then pairs, each by bit index) and two long-double tables with one row per
    index in that order: u^m and |u|^m for a real root u; for a pair
    x^2 - t*x + m', the recurrence p_k = t*p_{k-1} - m'*p_{k-2} and
    2*sqrt(m')^k. The values are computed exactly as build_candidate does."""
    ld = np.longdouble
    r, perm = profile.r, profile.perm
    real_bits = [i for i, ent in enumerate(perm) if ent < r]
    pair_bits = [i for i, ent in enumerate(perm) if ent >= r]
    reals = np.array([profile.real_roots[perm[i]] for i in real_bits], dtype=ld)
    psum = np.array([profile.pair_sums[perm[i] - r] for i in pair_bits], dtype=ld)
    pprod = np.array([profile.pair_products[perm[i] - r] for i in pair_bits], dtype=ld)

    powers = np.cumprod(np.repeat(reals[:, None], e_max, axis=1), axis=1)
    mags = np.cumprod(np.repeat(np.abs(reals)[:, None], e_max, axis=1), axis=1)

    pair_powers = np.empty((len(pair_bits), e_max), dtype=ld)
    prev, cur = np.full(len(pair_bits), ld(2.0)), psum
    for m in range(e_max):
        pair_powers[:, m] = cur
        prev, cur = cur, psum * cur - pprod * prev
    root = np.sqrt(pprod)
    steps = np.repeat(root[:, None], e_max, axis=1)
    steps[:, 0] *= ld(2.0)
    pair_mags = np.cumprod(steps, axis=1)

    return (
        real_bits + pair_bits,
        np.concatenate([powers, pair_powers]),
        np.concatenate([mags, pair_mags]),
    )


def screen_candidates(patterns, profile: RootProfile, eps: float):
    """Yield (pattern, passed) for every pattern, in (selected degree,
    pattern) order, where passed is trace_test(build_candidate(s), eps).

    The scales of a whole chunk of patterns are one product of its bit matrix
    with the scale table of _trace_tables; the traces of the orders some
    pattern consults under trace_test's rule are a second product, with the
    power-sum table. Both sum in build_candidate's order, and the rule is
    applied unchanged. Chunks are screened lazily, so a caller that stops at
    the first confirmed factor never screens the chunks after it."""
    pats = np.fromiter(patterns, dtype=np.uint64, count=len(patterns))
    if not len(pats):
        return
    chunks = range(0, len(pats), _SCREEN_CHUNK)
    shifts = np.arange(profile.n, dtype=np.uint64)
    weight = np.array([1 if ent < profile.r else 2 for ent in profile.perm], dtype=np.uint64)
    degrees = np.concatenate(
        [((pats[i : i + _SCREEN_CHUNK, None] >> shifts) & 1) @ weight for i in chunks]
    )
    order = np.lexsort((pats, degrees))
    pats, degrees = pats[order], degrees[order]

    cols, powers, mags = _trace_tables(profile, int(degrees[-1]))
    col_shifts = np.array(cols, dtype=np.uint64)
    for start in chunks:
        stop = min(start + _SCREEN_CHUNK, len(pats))
        e = int(degrees[stop - 1])
        sel = ((pats[start:stop, None] >> col_shifts) & 1).astype(np.longdouble)
        scales = (sel @ mags[:, :e]).astype(np.float64)
        m = np.arange(1, e + 1, dtype=np.uint64)
        consult = (m * scales * _TRACE_REL < eps) & (scales < _INT_LIMIT)
        consult &= m <= degrees[start:stop, None]
        # only the orders some candidate consults are worth a product
        used = np.flatnonzero(consult.any(axis=0))
        traces = sel @ powers[:, used]
        off = np.abs((traces - np.rint(traces)).astype(np.float64)) >= eps
        passed = ~np.any(off & consult[:, used], axis=1)
        yield from zip(pats[start:stop].tolist(), passed.tolist())


@dataclass
class FactorStats:
    """Aggregated per-stage counters for one factor() call."""

    backend: str = "e"
    workers: int = 1
    n: int = 0
    root_seconds: float = 0.0
    recombine_seconds: float = 0.0
    verify_seconds: float = 0.0
    candidates: int = 0
    rejected: int = 0
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

    Normalizes content and leading coefficient, splits off square-free parts,
    and runs roots -> recombine -> verify on each part, recursing on every
    confirmed factor until nothing survives verification. The certificate
    flag is set by exact re-multiplication of the output.
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
    for part, mult in square_free_decompose(prim):
        if part.is_monic():
            irr = _factor_monic_squarefree(part, cfg, backend, workers, stats)
        else:
            transformed = monic_transform(part)
            irr = [
                monic_untransform_factor(g, part.leading)
                for g in _factor_monic_squarefree(transformed, cfg, backend, workers, stats)
            ]
        out.extend((g, mult) for g in irr)
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


def _recombine_dispatch(
    rho: RhoVector, cfg: ToleranceConfig, backend: str, workers: int, stats: FactorStats
) -> CandidateSet:
    if backend == "e" and workers > 1:
        from .parallel import parallel_recombine_e

        return parallel_recombine_e(rho, cfg.eps, workers, stats.recombine)
    return BACKENDS[backend](rho, cfg.eps, stats.recombine)


def _factor_monic_squarefree(
    p: IntPolynomial,
    cfg: ToleranceConfig,
    backend: str,
    workers: int,
    stats: FactorStats,
) -> list[IntPolynomial]:
    if p.degree <= 1:
        return [p]

    t0 = time.perf_counter()
    roots = find_roots(p, cfg)
    profile = build_profile(roots, cfg)
    stats.root_seconds += time.perf_counter() - t0

    rho = RhoVector.from_profile(profile)
    stats.n = max(stats.n, len(rho))
    t0 = time.perf_counter()
    cands = _recombine_dispatch(rho, cfg, backend, workers, stats)
    stats.recombine_seconds += time.perf_counter() - t0

    patterns = cands.nontrivial()
    stats.candidates += len(patterns)

    t0 = time.perf_counter()
    for s, passed in screen_candidates(patterns, profile, cfg.eps):
        q = None
        if passed:
            cand = build_candidate(s, profile)
            if trace_test(cand, cfg.eps):
                q = round_and_divide(cand, p, cfg.eps)
        if q is None:
            stats.rejected += 1
            continue
        rest = divide_exact(p, q)
        stats.verify_seconds += time.perf_counter() - t0
        return _factor_monic_squarefree(q, cfg, backend, workers, stats) + _factor_monic_squarefree(
            rest, cfg, backend, workers, stats
        )
    stats.verify_seconds += time.perf_counter() - t0
    return [p]


def is_irreducible(
    p: IntPolynomial, cfg: ToleranceConfig | None = None, backend: str = "e"
) -> bool:
    """True when the primitive part of p does not split over the integers."""
    if p.is_constant():
        raise ValueError("irreducibility is asked of non-constant polynomials")
    if p.degree == 1:
        return True
    return factor(p, cfg, backend).irreducible
