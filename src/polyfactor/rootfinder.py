"""Numerical root finding and root classification.

The solver is Aberth's simultaneous (all roots at once) iteration, which
converges cubically near simple roots and ends on its own step rule. It
starts from the eigenvalues of the double-precision companion matrix,
which are already close to the roots, and refines them in np.longdouble
(80-bit extended floats where the platform has them, float64 where it does
not), so that one or two sweeps reach the stop rule and sums of ~50
fractional parts still resolve integers well below the acceptance
tolerance. Inputs whose companion matrix cannot be formed or gives no
distinct finite eigenvalues in double precision start on a perturbed circle
inside the Cauchy bound instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UnpairedComplexRoot
from .polynomial import IntPolynomial

# at or past 2^62 a double holds no fraction, so no float certifies an integer
INT_LIMIT = 1 << 62
# absolute slack added to every discovery band before the canonical re-test;
# must dominate float64 association error of <=64-term sums (~1e-14), so it
# is also the smallest eps that the acceptance test can honor
GUARD = 1e-12
# a root is real when |imag| is at most this times max(1, |root|)
_IMAG_THRESHOLD = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances for the whole pipeline.

    eps drives candidate acceptance (how close a subset sum must be to an
    integer); root_tol is the relative step that stops the root iteration,
    and max_iterations the number of sweeps it may take to get there.
    """

    eps: float = 1e-6
    root_tol: float = 1e-12
    max_iterations: int = 500

    def __post_init__(self):
        if not GUARD <= self.eps < 0.5:
            raise ValueError(f"eps must be in [{GUARD:g}, 0.5)")
        # written so that NaN fails it
        if not self.root_tol > 0:
            raise ValueError("root_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class RootProfile:
    """Classified roots of one square-free polynomial, one entry per rho bit.

    Entry i is a real root u, whose piece of a factor is x - u (sums[i] = u,
    products[i] = 0, degrees[i] = 1), or a conjugate pair z, conj(z), whose
    piece is x^2 - t*x + m (sums[i] = t = 2 Re z, products[i] = m = |z|^2,
    degrees[i] = 2). rho[i] == frac(sums[i]), and the entries are sorted by
    rho, so bit i of a pattern selects entry i's piece.
    """

    rho: np.ndarray
    sums: np.ndarray
    products: np.ndarray
    degrees: np.ndarray

    @property
    def r(self) -> int:
        return int(np.count_nonzero(self.degrees == 1))

    @property
    def c(self) -> int:
        return len(self.degrees) - self.r

    @property
    def n(self) -> int:
        return len(self.rho)


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

    with np.errstate(over="ignore"):
        c = np.array([to_float(a, np.longdouble) for a in p.coeffs], dtype=np.clongdouble)
    if not np.all(np.isfinite(c)):
        raise NonConvergence("a coefficient is past the float range")
    c = c / c[-1]
    z = -c[:1] if d == 1 else _aberth(c, cfg)
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.complex128)
        big = np.max(np.abs(z))
    if not big < INT_LIMIT:
        raise NonConvergence(f"a root of magnitude {big:.3g} is past 2^62")
    return _symmetrize(z)


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


def _circle_start(c: np.ndarray) -> np.ndarray:
    # the radius stays extended: a coefficient can be past the double range
    d = len(c) - 1
    mags = np.abs(c)
    rad = min(1 + np.max(mags[:-1]), 1 + mags[0] ** (1.0 / d))
    k = np.arange(d)
    # irrational-ish angle offset and radius jitter break conjugate lockstep
    ang = 2 * np.pi * k / d + 0.4
    return (rad * np.exp(1j * ang) * (1 + 0.08 * np.cos(3.7 * k + 1.2))).astype(c.dtype)


# a sweep's overflow or invalid operation leaves a non-finite iterate, which raises
@np.errstate(over="ignore", invalid="ignore")
def _aberth(c: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1, dtype=c.dtype)
    z = _eigenvalue_start(c)
    z = _circle_start(c) if z is None else z.astype(c.dtype)

    tiny = np.finfo(c.dtype).tiny
    for _ in range(cfg.max_iterations):
        pv = np.zeros(d, dtype=c.dtype)
        for a in c[::-1]:
            pv = pv * z + a
        dv = np.zeros(d, dtype=c.dtype)
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


def _pair_conjugates(z: np.ndarray) -> tuple[np.ndarray, list[complex]]:
    """Sorted real parts of the (near-)real roots, and one averaged
    upper-half-plane representative per conjugate pair, in the order of the
    upper roots sorted by (real, imag). Raises UnpairedComplexRoot when a
    complex root has no partner within tolerance."""
    scale = np.maximum(1.0, np.abs(z))
    real_mask = np.abs(z.imag) <= _IMAG_THRESHOLD * scale
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


def _symmetrize(z: np.ndarray) -> np.ndarray:
    reals, pairs = _pair_conjugates(z)
    pairs.sort(key=lambda w: (w.real, w.imag))
    out = np.empty(len(z), dtype=np.complex128)
    out[: len(reals)] = reals
    for j, w in enumerate(pairs):
        out[len(reals) + 2 * j] = w
        out[len(reals) + 2 * j + 1] = w.conjugate()
    return out


def build_profile(roots: np.ndarray) -> RootProfile:
    """Classify a conjugate-closed root multiset into rho entries.

    Each real root u is an entry with rho frac(u); each conjugate pair is
    one entry with rho frac(z + conj(z)). Entries are sorted by rho, and
    equal rho keep the real roots, ascending, before the pairs. Raises
    UnpairedComplexRoot when a complex root has no partner within tolerance.
    """
    reals, pairs = _pair_conjugates(np.asarray(roots, dtype=np.complex128))
    pieces = [(float(u), 0.0, 1) for u in reals]
    pieces += [(float(2.0 * w.real), float(abs(w) ** 2), 2) for w in pairs]
    order = sorted(range(len(pieces)), key=lambda i: (frac(pieces[i][0]), i))
    table = np.array([pieces[i] for i in order], dtype=np.float64).reshape(-1, 3)
    sums, products, degrees = table.T
    rho = np.array([frac(t) for t in sums], dtype=np.float64)
    return RootProfile(rho, sums, products, degrees.astype(np.int64))


def profile_polynomial(p: IntPolynomial, cfg: ToleranceConfig | None = None) -> RootProfile:
    """find_roots followed by build_profile."""
    return build_profile(find_roots(p, cfg))


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
