import math
import random

import numpy as np
import pytest

from polyfactor.errors import NonConvergence, UnpairedComplexRoot
from polyfactor.polynomial import IntPolynomial, gen_swinnerton_dyer
from polyfactor.rootfinder import (
    ToleranceConfig,
    build_profile,
    expected_n,
    expected_real_roots,
    find_roots,
    frac,
    profile_polynomial,
    residual_bound,
)

P = IntPolynomial
CFG = ToleranceConfig()

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_frac():
    assert frac(2.0) == 0.0
    assert frac(-0.25) == 0.75
    assert abs(frac(1.41421356) - 0.41421356) < 1e-12


@pytest.mark.parametrize("x", [-1e-17, -1e-300, -5e-324, -2.0**-54, -0.0])
def test_frac_tiny_negative_stays_in_range(x):
    # x - floor(x) rounds to 1.0 here; the fractional part is 0 modulo 1
    assert frac(x) == 0.0


def test_frac_small_negative_keeps_value():
    assert frac(-2.0**-52) == 1.0 - 2.0**-52
    assert 0.0 <= frac(-1e-10) < 1.0
    assert frac(-1e-10) == pytest.approx(1.0 - 1e-10, abs=1e-16)


def test_profile_of_imaginary_pairs_in_range():
    # (x^2 + 3)(x^2 + 5): both pair sums are 0, computed as tiny floats
    prof = profile_polynomial(P([15, 0, 8, 0, 1]), CFG)
    assert prof.r == 0 and prof.c == 2
    assert all(0.0 <= v < 1.0 for v in prof.rho)


def test_roots_sqrt2():
    roots = find_roots(P([-2, 0, 1]), CFG)
    assert sorted(z.real for z in roots) == pytest.approx([-SQRT2, SQRT2], abs=1e-12)
    assert all(z.imag == 0 for z in roots)


def test_roots_pure_imaginary():
    roots = find_roots(P([1, 0, 1]), CFG)
    assert sorted(z.imag for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert all(abs(z.real) < 1e-12 for z in roots)


def test_roots_radical_sums():
    # roots of x^4 - 10x^2 + 1 are the four sign combinations of sqrt2 +- sqrt3
    roots = find_roots(P([1, 0, -10, 0, 1]), CFG)
    got = sorted(z.real for z in roots)
    want = sorted([SQRT2 + SQRT3, SQRT3 - SQRT2, -(SQRT3 - SQRT2), -(SQRT2 + SQRT3)])
    assert got == pytest.approx(want, abs=1e-10)
    assert want[-1] == pytest.approx(3.14626436994, abs=1e-9)
    assert want[2] == pytest.approx(0.31783724519, abs=1e-9)


def test_conjugate_closure_and_residual():
    rng = random.Random(5)
    for d in (6, 13, 27, 54):
        p = P([rng.randint(-100, 100) for _ in range(d)] + [1])
        roots = find_roots(p, CFG)
        assert len(roots) == d
        # symmetrization makes pairs exact mirrors
        ups = sorted((z for z in roots if z.imag > 0), key=lambda z: (z.real, z.imag))
        downs = sorted((z.conjugate() for z in roots if z.imag < 0), key=lambda z: (z.real, z.imag))
        assert np.allclose(np.array(ups), np.array(downs), rtol=0, atol=0)
        for z in roots:
            assert abs(p.evaluate(complex(z))) <= residual_bound(p, complex(z), CFG.root_tol)


def test_degree_one():
    roots = find_roots(P([7, 1]), CFG)
    assert roots == pytest.approx([-7.0 + 0j])


def test_nonconvergence_surfaces():
    cfg = ToleranceConfig(max_iterations=1, root_tol=1e-15)
    with pytest.raises(NonConvergence):
        find_roots(P([rng_c for rng_c in (-73, 12, 55, -9, 1, 44, 1)]), cfg)


def test_eigenvalue_start_converges_within_four_sweeps():
    # from a circle the iteration needs about 30 sweeps at this degree; from
    # the companion-matrix eigenvalues it needs one or two
    rng = random.Random(64)
    p = P([rng.randint(-100, 100) for _ in range(32)] + [1]) * P(
        [rng.randint(-100, 100) for _ in range(32)] + [1]
    )
    cfg = ToleranceConfig(max_iterations=4)
    roots = find_roots(p, cfg)
    assert len(roots) == 64
    for z in roots:
        assert abs(p.evaluate(complex(z))) <= residual_bound(p, complex(z), cfg.root_tol)


def test_coefficients_beyond_double_range_start_on_the_circle():
    # 10^320 overflows a double, so the companion matrix cannot seed the
    # iteration; the extended-precision circle start still finds every root
    p = P([1] + [0] * 29 + [10**320] + [0] * 29 + [1])
    roots = find_roots(p, CFG)
    assert len(roots) == 60


def test_circle_start_radius_stays_in_the_coefficients_dtype():
    # x^4 + 10^800 is past the double range, so the circle's radius must be
    # computed in extended precision; its roots, of magnitude 10^200, have
    # no fraction in a double, so find_roots raises
    from polyfactor.rootfinder import _circle_start, to_float

    c = np.array([to_float(v, np.longdouble) for v in (10**800, 0, 0, 0, 1)], dtype=np.clongdouble)
    assert np.all(np.isfinite(_circle_start(c, np.clongdouble)))
    with pytest.raises(NonConvergence, match="2\\^62"):
        find_roots(P([10**800, 0, 0, 0, 1]), CFG)


def test_aberth_stops_at_the_first_non_finite_iterate():
    from polyfactor.rootfinder import _aberth

    c = np.array([np.nan, 0, 1], dtype=np.clongdouble)
    with pytest.raises(NonConvergence, match="non-finite"):
        _aberth(c, CFG, np.clongdouble)


def test_coefficients_past_the_float_range_raise():
    with pytest.raises(NonConvergence, match="float range"):
        find_roots(P([10**5000, 0, 0, 0, 1]), CFG)


def test_root_past_2_62_raises():
    # the factor x - 2^63 cannot be rounded from a double root, so it would
    # be lost and the input reported with two factors instead of three
    with pytest.raises(NonConvergence):
        find_roots(P([-(2**63), 1]) * P([-3, 1]) * P([1, 0, 1]), CFG)


def test_profile_mixed_real_and_pairs():
    # (x^2 - 2)(x^2 + 1): reals +-sqrt2, one pair with sum 0
    p = P([-2, 0, -1, 0, 1])
    prof = profile_polynomial(p, CFG)
    assert prof.r == 2 and prof.c == 1
    assert prof.r + 2 * prof.c == p.degree
    assert sorted(prof.rho.tolist()) == pytest.approx([0.0, 0.41421356, 0.58578644], abs=1e-8)
    assert sorted(prof.perm) == [0, 1, 2]


def test_profile_pair_sum_two():
    # x^2 - 2x + 2 has roots 1 +- i; pair sum 2 -> frac 0
    prof = profile_polynomial(P([2, -2, 1]), CFG)
    assert prof.r == 0 and prof.c == 1
    assert prof.pair_sums.tolist() == pytest.approx([2.0], abs=1e-12)
    assert prof.rho.tolist() == pytest.approx([0.0], abs=1e-12)


def test_profile_negative_pair_sum():
    # synthetic pair with sum -0.25 -> rho entry 0.75
    roots = np.array([-0.125 + 0.8j, -0.125 - 0.8j])
    prof = build_profile(roots, CFG)
    assert prof.rho.tolist() == pytest.approx([0.75], abs=1e-12)
    assert prof.pair_products.tolist() == pytest.approx([0.125**2 + 0.64], abs=1e-12)


def test_profile_of_inexact_conjugates():
    # a pair 1e-10 off conjugacy is averaged to 1 + 2.00000000005i; a real
    # root with a 1e-12 imaginary part counts as real
    prof = build_profile(np.array([1 + 2j, 1 - 2.0000000001j, 3, -1.5 + 1e-12j]), CFG)
    assert prof.real_roots.tolist() == [-1.5, 3.0]
    assert prof.pair_sums.tolist() == [2.0]
    assert prof.pair_products.tolist() == [float.fromhex("0x1.4000000036f9bp+2")]
    assert prof.rho.tolist() == [0.0, 0.0, 0.5]
    assert prof.perm == (1, 2, 0)


def test_profile_unpaired_root_raises():
    with pytest.raises(UnpairedComplexRoot):
        build_profile(np.array([1.0 + 1.0j, 2.0 - 1.0j, 0.5]), CFG)
    with pytest.raises(UnpairedComplexRoot):
        build_profile(np.array([1.0 + 1.0j]), CFG)


def test_rho_sum_matches_trace(monkeypatch=None):
    # sum of all rho entries must agree with frac(-a_{d-1}) up to eps
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(3, 24)
        p = P([rng.randint(-50, 50) for _ in range(d)] + [1])
        prof = profile_polynomial(p, CFG)
        total = frac(float(np.sum(prof.rho)))
        want = frac(-p.coeffs[-2])
        delta = abs(total - want)
        assert min(delta, 1 - delta) < 1e-6


def test_perm_recovers_entities():
    p = P([-2, 0, -1, 0, 1])
    prof = profile_polynomial(p, CFG)
    for i, ent in enumerate(prof.perm):
        if ent < prof.r:
            assert frac(float(prof.real_roots[ent])) == pytest.approx(float(prof.rho[i]))
        else:
            assert frac(float(prof.pair_sums[ent - prof.r])) == pytest.approx(float(prof.rho[i]))


def test_expected_real_roots_values():
    assert expected_real_roots(1) == 0.0
    assert expected_real_roots(100) == pytest.approx(2.93174, abs=1e-4)
    assert expected_real_roots(math.e**math.pi) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        expected_real_roots(0)


def test_expected_n_values():
    assert expected_n(1) == 0.5
    assert expected_n(2) == pytest.approx(1.22064, abs=1e-4)
    assert expected_n(100) == pytest.approx(51.46587, abs=1e-4)


def test_real_root_count_trend_smoke():
    # small-sample version of the full trend check in the acceptance suite
    rng = random.Random(17)
    d = 20
    counts = []
    for _ in range(120):
        p = P([rng.randint(-100, 100) for _ in range(d)] + [1])
        roots = find_roots(p, CFG)
        counts.append(int(sum(1 for z in roots if z.imag == 0)))
    mean = sum(counts) / len(counts)
    assert abs(mean - expected_real_roots(d)) < 2.5


def test_extended_precision_tier():
    roots = find_roots(P([-2, 0, 1]), CFG)
    assert sorted(z.real for z in roots) == pytest.approx([-SQRT2, SQRT2], abs=1e-14)


def test_swinnerton_dyer_roots_all_real():
    f4 = gen_swinnerton_dyer(4)
    roots = find_roots(f4, CFG)
    assert all(z.imag == 0 for z in roots)
    assert len(roots) == 16


def test_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eps=0.7)
    with pytest.raises(ValueError):
        ToleranceConfig(root_tol=0)
