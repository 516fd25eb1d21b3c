"""Exact integer polynomial arithmetic, normalization, and input generators.

Polynomials are dense coefficient vectors of Python ints (index i holds the
coefficient of x^i), so nothing here ever overflows or rounds. All heavy
numeric work lives elsewhere; this module is the exactness backbone that the
final verification step relies on.

The gcd behind the square-free decomposition is Brown's small-primes modular
algorithm: Euclid on the images modulo primes just below 2^62, images
combined by the Chinese remainder theorem, and a lifted candidate accepted
only when it divides both inputs exactly. The quotients of those divisions
are the next terms of Yun's chain, so the decomposition divides nothing
itself.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import comb, gcd
from typing import Callable, Iterable, Iterator, NamedTuple


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x^i.

    Trailing zero coefficients are stripped on construction, so the leading
    coefficient is nonzero unless the polynomial is zero (stored as ``(0,)``).
    Instances are immutable values and safe to share between workers.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def is_constant(self) -> bool:
        return self.degree == 0

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return multiply(self, other)

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; works for int, float, and complex arguments."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        """Signed content: gcd of the coefficients, carrying the sign of the
        leading coefficient so the primitive part always has positive lead."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        if g == 0:
            return 0
        return -g if self.leading < 0 else g

    def primitive_part(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial([a // c for a in self.coeffs])

    def to_text(self) -> str:
        """Coefficient list, low to high, space separated."""
        return " ".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        return cls([int(t) for t in text.split()])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " - " if c < 0 else (" + " if parts else "")
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                term = x if mag == 1 else f"{mag}*{x}"
            parts.append(sign + term)
        return "".join(parts)


class SquareFreePart(NamedTuple):
    factor: IntPolynomial
    multiplicity: int


def multiply(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact product by schoolbook convolution."""
    if a.is_zero() or b.is_zero():
        return IntPolynomial([0])
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(out)


def divide_exact(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial | None:
    """Return r with q*r == p exactly over the integers, else None.

    None covers both a nonzero remainder and a rational quotient with
    non-integer coefficients; callers treat it as a normal outcome.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return IntPolynomial([0])
    dp, dq = p.degree, q.degree
    if dp < dq:
        return None
    lq = q.leading
    rem = list(p.coeffs)
    quot = [0] * (dp - dq + 1)
    for k in range(dp - dq, -1, -1):
        num = rem[k + dq]
        if num == 0:
            continue
        if num % lq:
            return None
        t = num // lq
        quot[k] = t
        for i, qc in enumerate(q.coeffs):
            rem[k + i] -= t * qc
    if any(rem):
        return None
    return IntPolynomial(quot)


# Moduli of the modular gcd: primes just below 2^62, largest first. Images
# are taken modulo one of these at a time, so the Euclidean steps multiply
# numbers below 2^62 however large the inputs' coefficients are.
_PRIME_CEILING = 1 << 62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_below(n: int) -> int:
    q = n - 1
    while not _is_prime(q):
        q -= 1
    return q


def _gcd_primes() -> Iterator[int]:
    """The primes below 2^62 in descending order, each found once per process."""
    q = _PRIME_CEILING
    while True:
        q = _prime_below(q)
        yield q


def _rem_mod(a: list[int], b: list[int], q: int) -> list[int]:
    # remainder of a by b in GF(q)[x]; coefficient lists highest degree
    # first, b with a nonzero lead; a is consumed
    inv = pow(b[0], -1, q)
    nb = len(b)
    tail = b[1:]
    while len(a) >= nb:
        t = a[0] * inv % q
        if t:
            a[1:nb] = [(x - t * y) % q for x, y in zip(a[1:nb], tail)]
        del a[0]
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return a[i:]


def _monic_gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    # Euclid in GF(q)[x] on lists as in _rem_mod, both nonzero
    while b:
        a, b = b, _rem_mod(a, b, q)
    inv = pow(a[0], -1, q)
    return [c * inv % q for c in a]


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd over Z[x] by Brown's small-primes modular algorithm.

    For each prime q below 2^62 (largest first) that divides neither leading
    coefficient, the monic gcd of the images in GF(q)[x] is scaled by
    gamma = gcd(lc a, lc b). Such an image has degree at least that of the
    gcd over Z, so a constant image proves the inputs coprime, and an image
    of higher degree than one already seen comes from an unlucky prime and
    is dropped. Images of the lowest degree are combined by the Chinese
    remainder theorem and lifted to the symmetric range; the primitive part
    of the lift is returned only once it divides both inputs exactly, which
    with its degree makes it the gcd. Nothing is accepted on a bound.

    The result is primitive with a positive leading coefficient (content is
    deliberately dropped; callers track integer content themselves):
    poly_gcd(a, 0) is +-pp(a) and poly_gcd(0, 0) is 0.
    """
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(
    a: IntPolynomial, b: IntPolynomial
) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """(poly_gcd(a, b), a / g, b / g): the cofactors are the quotients of the
    exact divisions that accept g, scaled by the inputs' contents, so that
    a == g * (a / g) and b == g * (b / g)."""
    ca, cb = a.content(), b.content()
    a = a.primitive_part()
    b = b.primitive_part()
    if a.is_zero():
        return b, a, IntPolynomial([cb])
    if b.is_zero():
        return a, IntPolynomial([ca]), b
    la, lb = a.leading, b.leading
    gamma = gcd(la, lb)
    high_a, high_b = a.coeffs[::-1], b.coeffs[::-1]
    image: list[int] = []  # gamma * the gcd's image modulo `modulus`, highest first
    modulus = 1
    primes = _gcd_primes()
    while True:
        q = next(primes)
        if la % q == 0 or lb % q == 0:
            continue
        g = _monic_gcd_mod([c % q for c in high_a], [c % q for c in high_b], q)
        if len(g) == 1:
            return IntPolynomial([1]), IntPolynomial([ca]) * a, IntPolynomial([cb]) * b
        if image and len(g) > len(image):
            continue
        g = [gamma * c % q for c in g]
        if not image or len(g) < len(image):
            image, modulus = g, q
        else:
            inv = pow(modulus, -1, q)
            image = [r + modulus * ((s - r) * inv % q) for r, s in zip(image, g)]
            modulus *= q
        half = modulus // 2
        cand = IntPolynomial([c - modulus if c > half else c for c in reversed(image)])
        cand = cand.primitive_part()
        qa = divide_exact(a, cand)
        if qa is None:
            continue
        qb = divide_exact(b, cand)
        if qb is not None:
            return cand, IntPolynomial([ca]) * qa, IntPolynomial([cb]) * qb


def square_free_decompose(p: IntPolynomial) -> list[SquareFreePart]:
    """Square-free decomposition by gcd chains on p and its derivative (Yun).

    Each gcd hands back its cofactors, so the loop divides nothing itself.
    Returns parts with strictly increasing multiplicities whose product
    (factor^multiplicity) reassembles the primitive part of p exactly.
    """
    if p.is_constant():
        raise ValueError("square_free_decompose requires a non-constant polynomial")
    p = p.primitive_part()
    if p.leading < 0:
        p = -p
    g, c, d = _gcd_cofactors(p, p.derivative())
    if g.is_constant():
        return [SquareFreePart(p, 1)]
    d = d - c.derivative()
    parts: list[SquareFreePart] = []
    i = 1
    while c.degree > 0:
        a, c, d = _gcd_cofactors(c, d)
        if a.degree > 0:
            parts.append(SquareFreePart(a, i))
        d = d - c.derivative()
        i += 1
    return parts


def gen_swinnerton_dyer(k: int) -> IntPolynomial:
    """Degree 2^k polynomial whose roots are all sums of +-sqrt of the first
    k primes; classic adversarial input for recombination searches.

    Built exactly by repeated quadratic extension: if f has the roots for the
    first k-1 primes, the next polynomial is f(x - t) * f(x + t) expanded in
    Z[t]/(t^2 - p_k), whose odd part cancels.
    """
    if not 1 <= k <= 6:
        raise ValueError("k must be between 1 and 6 (degree 2^k caps the pattern width)")
    primes = [2, 3, 5, 7, 11, 13][:k]
    f = [-primes[0], 0, 1]
    for p in primes[1:]:
        f = _adjoin_sqrt(f, p)
    return IntPolynomial(f)


def _adjoin_sqrt(f: list[int], p: int) -> list[int]:
    # shifted[i] = coefficient of x^i in f(x + t) as a pair (a, b) = a + b*t
    d = len(f) - 1
    plus: list[tuple[int, int]] = []
    for i in range(d + 1):
        a = b = 0
        for j in range(i, d + 1):
            term = f[j] * comb(j, i)
            e = j - i
            if e % 2 == 0:
                a += term * p ** (e // 2)
            else:
                b += term * p ** ((e - 1) // 2)
        plus.append((a, b))
    minus = [(a, -b) for a, b in plus]
    out_a = [0] * (2 * d + 1)
    out_b = [0] * (2 * d + 1)
    for i, (a1, b1) in enumerate(plus):
        for j, (a2, b2) in enumerate(minus):
            out_a[i + j] += a1 * a2 + p * b1 * b2
            out_b[i + j] += a1 * b2 + a2 * b1
    assert all(b == 0 for b in out_b), "odd radical part must cancel"
    return out_a


def gen_random_reducible_parts(
    d: int,
    coeff_bound: int = 100,
    seed: int = 0,
    irreducible: Callable[[IntPolynomial], bool] | None = None,
) -> tuple[IntPolynomial, IntPolynomial]:
    """Two random monic irreducible degree d/2 polynomials, reproducibly.

    Each half is resampled until the irreducibility oracle accepts it; the
    default oracle is the factorizer itself running backend E.
    """
    if d % 2 or d < 4:
        raise ValueError("degree must be even and at least 4")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be positive")
    if irreducible is None:
        from .verify import is_irreducible

        irreducible = is_irreducible
    rng = random.Random(seed)
    half = d // 2

    def sample() -> IntPolynomial:
        while True:
            cand = IntPolynomial(
                [rng.randint(-coeff_bound, coeff_bound) for _ in range(half)] + [1]
            )
            if irreducible(cand):
                return cand

    f = sample()
    g = sample()
    while g == f:
        g = sample()
    return f, g


def gen_random_reducible(
    d: int,
    coeff_bound: int = 100,
    seed: int = 0,
    irreducible: Callable[[IntPolynomial], bool] | None = None,
) -> IntPolynomial:
    """Product of two certified-irreducible random monic halves; the standard
    reducible benchmark input. Deterministic for a fixed seed."""
    f, g = gen_random_reducible_parts(d, coeff_bound, seed, irreducible)
    return f * g
