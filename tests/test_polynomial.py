import random

import pytest

from polyfactor.polynomial import (
    IntPolynomial,
    SquareFreePart,
    divide_exact,
    gen_random_reducible,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
    monic_transform,
    monic_untransform_factor,
    multiply,
    poly_gcd,
    square_free_decompose,
)
from polyfactor.polynomial import _gcd_cofactors, _gcd_primes

P = IntPolynomial


def test_multiply_difference_of_squares():
    assert multiply(P([-1, 1]), P([1, 1])) == P([-1, 0, 1])


def test_multiply_identity():
    p = P([3, -2, 0, 7])
    assert multiply(p, P([1])) == p


def test_multiply_hand_expansion():
    # (x^2 - 2x + 1)(x + 2) = x^3 - 3x + 2
    assert multiply(P([1, -2, 1]), P([2, 1])) == P([2, -3, 0, 1])


def test_multiply_zero():
    assert multiply(P([0]), P([5, 1])).is_zero()


def test_divide_exact_basic():
    assert divide_exact(P([-1, 0, 1]), P([-1, 1])) == P([1, 1])


def test_divide_exact_remainder():
    assert divide_exact(P([-1, 0, 1]), P([-2, 1])) is None


def test_divide_exact_radical_quotient():
    # long division of x^4 - 10x^2 + 1 by x^2 - 5 leaves remainder -24
    p = P([1, 0, -10, 0, 1])
    q = P([-5, 0, 1])
    quot_floor = P([-5, 0, 1])  # rational quotient would be x^2 - 5
    assert p - multiply(q, quot_floor) == P([-24])
    assert divide_exact(p, q) is None


def test_divide_exact_zero_cases():
    assert divide_exact(P([0]), P([1, 1])) == P([0])
    with pytest.raises(ZeroDivisionError):
        divide_exact(P([1, 1]), P([0]))


def test_divide_multiply_round_trip():
    rng = random.Random(1)
    for _ in range(60):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        a = P([rng.randint(-9, 9) for _ in range(da)] + [rng.choice([1, -1, 2, 3])])
        b = P([rng.randint(-9, 9) for _ in range(db)] + [rng.choice([1, -1, 2, 5])])
        assert divide_exact(multiply(a, b), a) == b


def test_poly_gcd_common_factor():
    a = multiply(P([-1, 1]), P([1, 1]))
    b = multiply(P([-1, 1]), P([2, 1]))
    assert poly_gcd(a, b) == P([-1, 1])


# sympy is the independent oracle for poly_gcd and square_free_decompose


def _sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain="ZZ")


def _from_sympy(poly):
    return P([int(c) for c in reversed(poly.all_coeffs())])


def _sympy_gcd(a, b):
    # sympy's gcd keeps the gcd of the contents; poly_gcd drops it
    g = _sympy_poly(a).gcd(_sympy_poly(b))
    if g.is_zero:
        return P([0])
    g = g.primitive()[1]
    return _from_sympy(-g if g.LC() < 0 else g)


def _random_poly(rng, degree, bound=9):
    lead = rng.choice([-1, 1]) * rng.randint(1, 6)
    return P([rng.randint(-bound, bound) for _ in range(degree)] + [lead])


def test_poly_gcd_coprime_pairs_match_sympy():
    # leads share factors (gamma > 1), yet the gcd is 1
    rng = random.Random(101)
    for _ in range(40):
        a = _random_poly(rng, rng.randint(1, 12)) * P([rng.choice([2, 6, -4])])
        b = _random_poly(rng, rng.randint(1, 12)) * P([rng.choice([2, 3, -6])])
        expected = _sympy_gcd(a, b)
        assert expected == P([1])
        assert poly_gcd(a, b) == expected


def test_poly_gcd_shared_factors_match_sympy():
    # shared factors of degree 1-10 with non-monic and negative leads, and
    # inputs carrying integer content
    rng = random.Random(102)
    for k in range(1, 11):
        for _ in range(4):
            g = _random_poly(rng, k)
            a = g * _random_poly(rng, rng.randint(0, 8)) * P([rng.choice([1, -3, 10])])
            b = g * _random_poly(rng, rng.randint(0, 8))
            assert poly_gcd(a, b) == _sympy_gcd(a, b)
            assert poly_gcd(b, a) == _sympy_gcd(a, b)


def test_poly_gcd_large_coefficients_match_sympy():
    # gcd coefficients far above 2^62 need images modulo several primes
    rng = random.Random(103)
    for bits in (70, 130, 260):
        g = _random_poly(rng, 5, bound=1 << bits) * P([rng.randint(-9, 9), 1 << bits])
        a = g * _random_poly(rng, 6)
        b = g * _random_poly(rng, 4)
        got = poly_gcd(a, b)
        assert got == _sympy_gcd(a, b)
        assert max(abs(c) for c in got.coeffs) > 1 << 62


def test_poly_gcd_constant_and_zero_arguments():
    a = P([4, -6, -2])  # -2 * (x^2 + 3x - 2)
    cases = [
        (P([0]), P([0])),
        (a, P([0])),
        (P([0]), a),
        (P([0]), P([-7])),
        (P([6]), P([4])),
        (P([-5]), a),
        (a, P([3])),
    ]
    for x, y in cases:
        assert poly_gcd(x, y) == _sympy_gcd(x, y)
    assert poly_gcd(P([0]), P([0])) == P([0])
    assert poly_gcd(a, P([0])) == P([-2, 3, 1])


def test_poly_gcd_drops_unlucky_prime():
    # modulo the first prime q1, x and x - q1 coincide
    primes = _gcd_primes()
    q1, q2 = next(primes), next(primes)
    x = P([0, 1])
    assert poly_gcd(x, P([-q1, 1])) == P([1])
    assert poly_gcd(P([1, 1]) * x, P([1, 1]) * P([-q1, 1])) == P([1, 1])
    # a lucky q1 whose image is too small to lift, then an unlucky q2
    g = P([3**50, -(5**40), 7**30, 2**81 + 1])
    assert poly_gcd(g * P([1, 1]), g * P([1 - q2, 1])) == g


def test_poly_gcd_skips_prime_dividing_a_lead():
    # modulo q1 the shared factor q1*x + 1 becomes a unit
    q1 = next(_gcd_primes())
    shared = P([1, q1])
    a = shared * P([2, 1])
    b = shared * P([3, 1])
    assert poly_gcd(a, b) == shared == _sympy_gcd(a, b)


def test_gcd_cofactors_are_the_exact_quotients():
    # the cofactors carry the inputs' contents and signs, so g times each
    # rebuilds its input: shared, coprime, content-bearing, constant and zero
    rng = random.Random(104)
    a = P([4, -6, -2])
    pairs = [(P([0]), P([0])), (a, P([0])), (P([0]), a), (P([-5]), a), (a, P([3]))]
    for k in range(8):
        g = _random_poly(rng, k)
        pairs.append(
            (
                g * _random_poly(rng, rng.randint(0, 6)) * P([rng.choice([1, -3, 10])]),
                g * _random_poly(rng, rng.randint(0, 6)) * P([rng.choice([1, 2, -6])]),
            )
        )
    for x, y in pairs:
        g, cx, cy = _gcd_cofactors(x, y)
        assert g == poly_gcd(x, y)
        assert g * cx == x and g * cy == y


def _sympy_square_free(p):
    _, parts = _sympy_poly(p).sqf_list()
    return [SquareFreePart(_from_sympy(f.primitive()[1]), m) for f, m in parts]


@pytest.mark.parametrize("squared", [False, True])
def test_square_free_decompose_degree_64_matches_sympy(squared):
    rng = random.Random(104)
    f, g = (P([rng.randint(-100, 100) for _ in range(32)] + [1]) for _ in range(2))
    p = f * g**2 if squared else f * g
    parts = square_free_decompose(p)
    assert parts == _sympy_square_free(p)
    assert [m for _, m in parts] == ([1, 2] if squared else [1])


def test_square_free_decompose_examples():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    parts = square_free_decompose(P([2, -3, 0, 1]))
    assert parts == [SquareFreePart(P([2, 1]), 1), SquareFreePart(P([-1, 1]), 2)]

    assert square_free_decompose(P([-2, 0, 1])) == [SquareFreePart(P([-2, 0, 1]), 1)]

    cube = multiply(multiply(P([-1, 1]), P([-1, 1])), P([-1, 1]))
    assert square_free_decompose(cube) == [SquareFreePart(P([-1, 1]), 3)]


def test_square_free_reassembly_and_coprimality():
    rng = random.Random(7)
    for _ in range(25):
        base = [
            P([rng.randint(-5, 5), rng.randint(-5, 5), 1]) for _ in range(rng.randint(1, 3))
        ]
        mults = [rng.randint(1, 3) for _ in base]
        p = P([1])
        for f, m in zip(base, mults):
            p = multiply(p, f**m)
        parts = square_free_decompose(p)
        rebuilt = P([1])
        seen = set()
        for f, m in parts:
            assert m not in seen  # strictly increasing multiplicities
            seen.add(m)
            rebuilt = multiply(rebuilt, f**m)
            assert poly_gcd(f, f.derivative()).is_constant()
        assert rebuilt == p.primitive_part()


def test_square_free_rejects_constants():
    with pytest.raises(ValueError):
        square_free_decompose(P([3]))


# exact radical arithmetic oracle for the degree-8 sum-of-square-roots
# polynomial: elements of Z[sqrt(2), sqrt(3), sqrt(5)] are dicts keyed by the
# subset of primes under the radical


def _rmul(a: dict, b: dict, primes=(2, 3, 5)) -> dict:
    out: dict = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            key = s1 ^ s2
            coef = c1 * c2
            both = s1 & s2
            for i, p in enumerate(primes):
                if both & (1 << i):
                    coef *= p
            out[key] = out.get(key, 0) + coef
    return {k: v for k, v in out.items() if v}


def _expand_radical_roots(primes=(2, 3, 5)) -> list[int]:
    poly = [{0: 1}]  # list of radical-coefficients, low to high degree
    for signs in range(1 << len(primes)):
        root = {}
        for i in range(len(primes)):
            root[1 << i] = 1 if (signs >> i) & 1 else -1
        new = [dict() for _ in range(len(poly) + 1)]
        for deg, coef in enumerate(poly):
            for k, v in coef.items():
                new[deg + 1][k] = new[deg + 1].get(k, 0) + v
            neg = {k: -v for k, v in root.items()}
            for k, v in _rmul(coef, neg).items():
                new[deg][k] = new[deg].get(k, 0) + v
        poly = [{k: v for k, v in c.items() if v} for c in new]
    out = []
    for c in poly:
        assert set(c) <= {0}, "radical parts must cancel"
        out.append(c.get(0, 0))
    return out


def test_swinnerton_dyer_small():
    assert gen_swinnerton_dyer(1) == P([-2, 0, 1])
    assert gen_swinnerton_dyer(2) == P([1, 0, -10, 0, 1])


def test_swinnerton_dyer_k3_against_radical_oracle():
    assert gen_swinnerton_dyer(3) == P(_expand_radical_roots())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_swinnerton_dyer_shape(k):
    f = gen_swinnerton_dyer(k)
    assert f.degree == 2**k
    assert f.is_monic()
    assert all(c == 0 for i, c in enumerate(f.coeffs) if i % 2 == 1)


def test_swinnerton_dyer_guard():
    with pytest.raises(ValueError):
        gen_swinnerton_dyer(0)
    with pytest.raises(ValueError):
        gen_swinnerton_dyer(7)


def _no_check(_):
    return True


def test_gen_random_reducible_product_of_parts():
    f, g = gen_random_reducible_parts(12, 50, seed=3, irreducible=_no_check)
    p = gen_random_reducible(12, 50, seed=3, irreducible=_no_check)
    assert multiply(f, g) == p
    assert f.degree == g.degree == 6
    assert f.is_monic() and g.is_monic()


def test_gen_random_reducible_reproducible():
    a = gen_random_reducible(16, 100, seed=42, irreducible=_no_check)
    b = gen_random_reducible(16, 100, seed=42, irreducible=_no_check)
    assert a == b
    c = gen_random_reducible(16, 100, seed=43, irreducible=_no_check)
    assert a != c


def test_gen_random_reducible_coeff_bound():
    for seed in range(5):
        f, g = gen_random_reducible_parts(10, 100, seed=seed, irreducible=_no_check)
        for h in (f, g):
            assert all(abs(c) <= 100 for c in h.coeffs)


def test_gen_random_reducible_rejects_bad_degree():
    with pytest.raises(ValueError):
        gen_random_reducible(7, 100, 0, irreducible=_no_check)
    with pytest.raises(ValueError):
        gen_random_reducible(2, 100, 0, irreducible=_no_check)


def test_gen_random_reducible_certified_halves():
    # default oracle is the factorizer itself
    from polyfactor.verify import is_irreducible

    f, g = gen_random_reducible_parts(8, 100, seed=1)
    assert is_irreducible(f) and is_irreducible(g)


def test_content_and_primitive():
    p = P([4, -6, 2])
    assert p.content() == 2
    assert p.primitive_part() == P([2, -3, 1])
    q = P([4, -6, -2])
    assert q.content() == -2
    assert q.primitive_part() == P([-2, 3, 1])


def test_monic_transform_round_trip():
    p = P([1, 3, 2])  # 2x^2 + 3x + 1 = (2x + 1)(x + 1)
    q = monic_transform(p)
    assert q.is_monic()
    g1, g2 = P([1, 1]), P([2, 1])  # factors of q = y^2 + 3y + 2
    assert multiply(g1, g2) == q
    back = [monic_untransform_factor(g, p.leading) for g in (g1, g2)]
    prod = multiply(back[0], back[1])
    assert prod == p


def test_text_round_trip():
    p = P([1, 0, -10, 0, 1])
    assert p.to_text() == "1 0 -10 0 1"
    assert IntPolynomial.from_text(p.to_text()) == p


def test_str_rendering():
    assert str(P([1, 0, -10, 0, 1])) == "x^4 - 10*x^2 + 1"
    assert str(P([0])) == "0"
    assert str(P([-1, 1])) == "x - 1"
