"""Numerical root finding and root classification.

The solver is a simultaneous (all roots at once) fixed-point iteration with a
Newton polish. It starts from the eigenvalues of the double-precision
companion matrix, which are already close to the roots, and refines them in
80-bit extended floats when the platform has them, so that one or two sweeps
reach the stop rule and sums of ~50 fractional parts still resolve integers
well below the acceptance tolerance. Inputs whose companion matrix cannot be
formed or gives no distinct finite eigenvalues in double precision start on
a perturbed circle inside the Cauchy bound instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UnpairedComplexRoot
from .polynomial import IntPolynomial

_HAS_EXTENDED = np.finfo(np.longdouble).nmant > 52
# at or past 2^62 a double holds no fraction, so no float certifies an integer
INT_LIMIT = 1 << 62


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances for the whole pipeline.

    eps drives candidate acceptance (how close a subset sum must be to an
    integer), root_tol stops the root iteration, imag_threshold separates
    real roots from conjugate pairs (scaled by root magnitude). The root
    iteration runs in 80-bit extended floats where the platform has them,
    and in float64 otherwise.
    """

    eps: float = 1e-6
    root_tol: float = 1e-12
    imag_threshold: float = 1e-9
    max_iterations: int = 500

    def __post_init__(self):
        if not 0 < self.eps < 0.5:
            raise ValueError("eps must be in (0, 0.5)")
        if self.root_tol <= 0:
            raise ValueError("root_tol must be positive")
        if self.imag_threshold <= 0:
            raise ValueError("imag_threshold must be positive")


@dataclass(frozen=True)
class RootProfile:
    """Classified roots of one square-free polynomial.

    rho holds the fractional parts of the r real roots and the c conjugate
    pair sums, sorted non-decreasing; perm[i] names the root behind rho[i]
    (0..r-1 are real-root ids, r..r+c-1 are pair ids). Pair sums and products
    are kept so candidate factors can be rebuilt from a bit pattern.
    """

    real_roots: np.ndarray
    pair_sums: np.ndarray
    pair_products: np.ndarray
    rho: np.ndarray
    perm: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.real_roots)

    @property
    def c(self) -> int:
        return len(self.pair_sums)

    @property
    def n(self) -> int:
        return self.r + self.c


def to_float(value: int, dtype) -> float:
    # float() raises past the double range; this gives inf past dtype's range
    if abs(value) < (1 << 62):
        return dtype(value)
    shift = value.bit_length() - 62
    return dtype(value >> shift) * dtype(2.0) ** shift


def frac(x: float) -> float:
    """Fractional part in [0, 1); frac(-0.25) == 0.75.

    x - floor(x) rounds to 1.0 for tiny negative x (frac(-1e-17)); that value
    is 0 modulo 1, and it is returned as 0.0 so the result stays in range."""
    f = float(x) - math.floor(x)
    return f if f < 1.0 else 0.0


def find_roots(p: IntPolynomial, cfg: ToleranceConfig | None = None) -> np.ndarray:
    """All d complex roots of a square-free polynomial, conjugate symmetrized.

    Real roots come back with exactly zero imaginary part; complex roots in
    exact conjugate pairs (each pair averaged with its mirror). Raises
    NonConvergence if a coefficient is past the float range, if the
    iteration cannot reach root_tol, or if a root reaches 2^62, where a
    double has no fraction left.
    """
    cfg = cfg or ToleranceConfig()
    d = p.degree
    if d < 1:
        raise ValueError("find_roots requires degree >= 1")
    if p.is_zero():
        raise ValueError("zero polynomial has no root set")
    rdtype = np.longdouble if _HAS_EXTENDED else np.float64
    cdtype = np.clongdouble if _HAS_EXTENDED else np.complex128

    with np.errstate(over="ignore"):
        c = np.array([to_float(a, rdtype) for a in p.coeffs], dtype=cdtype)
    if not np.all(np.isfinite(c)):
        raise NonConvergence("a coefficient is past the float range")
    c = c / c[-1]
    if d == 1:
        z = np.array([-c[0]], dtype=cdtype)
    else:
        z = _aberth(c, cfg, cdtype)
    z = _newton_polish(c, z)
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.complex128)
        big = np.max(np.abs(z))
    if not big < INT_LIMIT:
        raise NonConvergence(f"a root of magnitude {big:.3g} is past 2^62")
    return _symmetrize(z, cfg)


def _eigenvalue_start(c: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of the double-precision companion matrix of the monic c,
    or None when they cannot seed the iteration: a coefficient that is not
    finite in double precision, or eigenvalues that are not finite or not
    pairwise distinct (the iteration divides by z_i - z_j)."""
    with np.errstate(over="ignore"):
        c64 = c.real.astype(np.float64)
    if not np.all(np.isfinite(c64)):
        return None
    z = np.roots(c64[::-1])
    # equal values sort next to each other; np.unique would do, but its
    # first call costs milliseconds
    ordered = np.sort(z)
    if not np.all(np.isfinite(z)) or np.any(np.diff(ordered) == 0):
        return None
    return z


def _circle_start(c: np.ndarray, cdtype) -> np.ndarray:
    # the radius stays extended: a coefficient can be past the double range
    d = len(c) - 1
    mags = np.abs(c)
    rad = min(1 + np.max(mags[:-1]), 1 + mags[0] ** (1.0 / d))
    k = np.arange(d)
    # irrational-ish angle offset and radius jitter break conjugate lockstep
    ang = 2 * np.pi * k / d + 0.4
    return (rad * np.exp(1j * ang) * (1 + 0.08 * np.cos(3.7 * k + 1.2))).astype(cdtype)


# a sweep's overflow or invalid operation leaves a non-finite iterate, which raises
@np.errstate(over="ignore", invalid="ignore")
def _aberth(c: np.ndarray, cfg: ToleranceConfig, cdtype) -> np.ndarray:
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1, dtype=cdtype)
    z = _eigenvalue_start(c)
    z = _circle_start(c, cdtype) if z is None else z.astype(cdtype)

    tiny = np.finfo(cdtype).tiny
    for _ in range(cfg.max_iterations):
        pv = np.zeros(d, dtype=cdtype)
        for a in c[::-1]:
            pv = pv * z + a
        dv = np.zeros(d, dtype=cdtype)
        for a in dc[::-1]:
            dv = dv * z + a
        dv = np.where(dv == 0, tiny, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, tiny, denom)
        corr = w / denom
        z = z - corr
        if not np.all(np.isfinite(z)):
            raise NonConvergence("root iteration reached a non-finite iterate")
        step = np.max(np.abs(corr) / np.maximum(1.0, np.abs(z)))
        if step < cfg.root_tol:
            return z
    raise NonConvergence(
        f"root iteration did not reach {cfg.root_tol:g} within {cfg.max_iterations} sweeps"
    )


def _newton_polish(c: np.ndarray, z: np.ndarray, rounds: int = 2) -> np.ndarray:
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1, dtype=c.dtype)
    for _ in range(rounds):
        pv = np.zeros_like(z)
        for a in c[::-1]:
            pv = pv * z + a
        dv = np.zeros_like(z)
        for a in dc[::-1]:
            dv = dv * z + a
        safe = dv != 0
        z = np.where(safe, z - pv / np.where(safe, dv, 1.0), z)
    return z


def _pair_conjugates(z: np.ndarray, cfg: ToleranceConfig) -> tuple[np.ndarray, list[complex]]:
    """Sorted real parts of the (near-)real roots, and one averaged
    upper-half-plane representative per conjugate pair, in the order of the
    upper roots sorted by (real, imag). Raises UnpairedComplexRoot when a
    complex root has no partner within tolerance."""
    scale = np.maximum(1.0, np.abs(z))
    real_mask = np.abs(z.imag) <= cfg.imag_threshold * scale
    reals = np.sort(z.real[real_mask])
    rest = z[~real_mask]
    uppers = sorted((w for w in rest if w.imag > 0), key=lambda w: (w.real, w.imag))
    lowers = [w for w in rest if w.imag <= 0]
    if len(uppers) != len(lowers):
        raise UnpairedComplexRoot(f"{len(uppers)} upper vs {len(lowers)} lower half-plane roots")
    pairs = []
    for u in uppers:
        target = u.conjugate()
        best = min(range(len(lowers)), key=lambda i: abs(lowers[i] - target))
        partner = lowers.pop(best)
        if abs(partner - target) > 1e-6 * max(1.0, abs(u)):
            raise UnpairedComplexRoot(f"no conjugate partner for root {u}")
        pairs.append((u + partner.conjugate()) / 2)
    return reals, pairs


def _symmetrize(z: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    reals, pairs = _pair_conjugates(z, cfg)
    pairs.sort(key=lambda w: (w.real, w.imag))
    out = np.empty(len(z), dtype=np.complex128)
    out[: len(reals)] = reals
    for j, w in enumerate(pairs):
        out[len(reals) + 2 * j] = w
        out[len(reals) + 2 * j + 1] = w.conjugate()
    return out


def build_profile(roots: np.ndarray, cfg: ToleranceConfig | None = None) -> RootProfile:
    """Classify a conjugate-closed root multiset and build the sorted rho vector.

    Real roots contribute frac(u); each conjugate pair contributes
    frac(z + conj(z)) once. Raises UnpairedComplexRoot when a complex root
    has no partner within tolerance.
    """
    cfg = cfg or ToleranceConfig()
    reals, pairs = _pair_conjugates(np.asarray(roots, dtype=np.complex128), cfg)
    sums = [float(2.0 * w.real) for w in pairs]
    prods = [float(abs(w) ** 2) for w in pairs]

    entries = [(frac(u), i) for i, u in enumerate(reals)]
    entries += [(frac(s), len(reals) + j) for j, s in enumerate(sums)]
    entries.sort()
    rho = np.array([e[0] for e in entries], dtype=np.float64)
    perm = tuple(e[1] for e in entries)
    return RootProfile(
        real_roots=np.asarray(reals, dtype=np.float64),
        pair_sums=np.asarray(sums, dtype=np.float64),
        pair_products=np.asarray(prods, dtype=np.float64),
        rho=rho,
        perm=perm,
    )


def profile_polynomial(p: IntPolynomial, cfg: ToleranceConfig | None = None) -> RootProfile:
    """find_roots followed by build_profile."""
    cfg = cfg or ToleranceConfig()
    return build_profile(find_roots(p, cfg), cfg)


def expected_real_roots(d) -> float:
    """Leading term of the expected real-root count of a random degree d
    polynomial, (2/pi) ln d; the O(1) constant is excluded."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return (2.0 / math.pi) * math.log(d)


def expected_n(d) -> float:
    """Expected subset-sum instance size for degree d: d/2 + (1/pi) ln d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return d / 2.0 + math.log(d) / math.pi


def residual_bound(p: IntPolynomial, root: complex, root_tol: float) -> float:
    """Acceptance envelope for |p(root)|: root_tol * max|a_i| * max(1,|root|)^d."""
    amax = max(abs(c) for c in p.coeffs)
    return root_tol * amax * max(1.0, abs(root)) ** p.degree
