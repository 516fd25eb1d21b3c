import math
import random

import numpy as np
import pytest

from polyfactor.errors import WidthExceeded
from polyfactor.polynomial import (
    IntPolynomial,
    divide_exact,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
    multiply,
)
from polyfactor.recombine import BACKENDS, RhoVector, recombine_e
from polyfactor.rootfinder import ToleranceConfig, profile_polynomial
from polyfactor.verify import (
    CandidateFactor,
    build_candidate,
    factor,
    is_irreducible,
    round_and_divide,
    screen_candidates,
    selected_degree,
    trace_test,
)

P = IntPolynomial
CFG = ToleranceConfig()
SQRT6 = math.sqrt(6.0)


def pattern_for(profile, want_reals=(), want_pairs=()):
    """Bit pattern selecting specific real roots / pair sums by value."""
    s = 0
    for i, ent in enumerate(profile.perm):
        if ent < profile.r:
            if any(abs(profile.real_roots[ent] - w) < 1e-6 for w in want_reals):
                s |= 1 << i
        else:
            if any(abs(profile.pair_sums[ent - profile.r] - w) < 1e-6 for w in want_pairs):
                s |= 1 << i
    return s


def test_build_candidate_conjugate_pair():
    # select the pair (i, -i) out of (x^2 - 2)(x^2 + 1)
    prof = profile_polynomial(P([-2, 0, -1, 0, 1]), CFG)
    s = pattern_for(prof, want_pairs=[0.0])
    cand = build_candidate(s, prof)
    assert cand.degree == 2
    assert np.asarray(cand.real_coeffs, dtype=float).tolist() == pytest.approx(
        [1.0, 0.0, 1.0], abs=1e-9
    )
    assert trace_test(cand, CFG.eps)
    assert float(cand.traces[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(cand.traces[1]) == pytest.approx(-2.0, abs=1e-9)


def test_build_candidate_two_reals():
    prof = profile_polynomial(P([-2, 0, -1, 0, 1]), CFG)
    s = pattern_for(prof, want_reals=[math.sqrt(2), -math.sqrt(2)])
    cand = build_candidate(s, prof)
    assert np.asarray(cand.real_coeffs, dtype=float).tolist() == pytest.approx(
        [-2.0, 0.0, 1.0], abs=1e-9
    )


def test_swinnerton_dyer_dual_pair_candidate():
    # the +-(sqrt2 + sqrt3) dual pair of f2 has integer first trace but an
    # irrational constant term; it must pass the first screen and then fail
    f2 = gen_swinnerton_dyer(2)
    prof = profile_polynomial(f2, CFG)
    a = math.sqrt(2) + math.sqrt(3)
    s = pattern_for(prof, want_reals=[a, -a])
    cand = build_candidate(s, prof)
    assert float(cand.traces[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(cand.traces[1]) == pytest.approx(2 * (5 + 2 * SQRT6), abs=1e-8)
    assert float(cand.real_coeffs[0]) == pytest.approx(-(5 + 2 * SQRT6), abs=1e-9)
    assert not trace_test(cand, CFG.eps)
    assert round_and_divide(cand, f2, CFG.eps) is None


def test_trace_test_rejects_fractional_root():
    prof = profile_polynomial(P([-1, 0, 4]), CFG)  # 4x^2 - 1 -> roots +-1/2
    # primitive part is not monic; build from the profile of (2x-1)(2x+1)/..
    # simpler: craft a one-real-root profile directly
    from polyfactor.rootfinder import build_profile

    prof = build_profile(np.array([0.5 + 0j]), CFG)
    cand = build_candidate(0b1, prof)
    assert float(cand.traces[0]) == pytest.approx(0.5)
    assert not trace_test(cand, CFG.eps)


def test_round_and_divide_accepts_known_factor():
    p = P([-2, 0, -1, 0, 1])  # (x^2 + 1)(x^2 - 2)
    prof = profile_polynomial(p, CFG)
    cand = build_candidate(pattern_for(prof, want_pairs=[0.0]), prof)
    q = round_and_divide(cand, p, CFG.eps)
    assert q == P([1, 0, 1])
    assert divide_exact(p, q) == P([-2, 0, 1])


def test_round_and_divide_rejects_off_grid_coefficient():
    cand = CandidateFactor(
        pattern=1,
        real_coeffs=np.array([0.5003, 1.0], dtype=np.longdouble),
        traces=np.array([-0.5003], dtype=np.longdouble),
        trace_scales=np.array([0.5003], dtype=np.longdouble),
        coeff_scales=np.array([0.5003, 1.0], dtype=np.longdouble),
    )
    assert round_and_divide(cand, P([-1, 2]), 1e-6) is None


def test_round_and_divide_scales_gate_to_coefficient_size():
    # x + 2^35 rebuilt with an error of 5e-6 on its constant term is within
    # the per-root budget for a term that large (about 0.34), so exact
    # division decides; an error of 0.45 is not, and the gate rejects it
    big = 1 << 35

    def cand(err):
        return CandidateFactor(
            pattern=1,
            real_coeffs=np.array([big + err, 1.0], dtype=np.longdouble),
            traces=np.array([-big], dtype=np.longdouble),
            trace_scales=np.array([big], dtype=np.longdouble),
            coeff_scales=np.array([big, 1.0], dtype=np.longdouble),
        )

    p = P([-big, big - 1, 1])  # (x + 2^35)(x - 1)
    assert round_and_divide(cand(5e-6), p, 1e-6) == P([big, 1])
    assert round_and_divide(cand(5e-6), P([big + 1, 1]), 1e-6) is None
    assert round_and_divide(cand(0.45), p, 1e-6) is None


def test_factor_non_monic_product_splits_fully():
    # after monic_transform the degree-7 factor's constant term is about
    # -2.56e10 with a float error of ~6e-6; an absolute eps gate lost it
    parts = [
        P([11, 14, -16, 17, 1]),
        P([9, -3, 12, 9, -19, 4]),
        P([2, -9, 1]),
        P([-4, 20, -12, -17, -10, 11, 4, 9, 5]),
        P([-20, -2, 15, 9, -20, 3, -18, 1]),
    ]
    p = parts[0]
    for q in parts[1:]:
        p = p * q
    res = factor(p)
    assert res.certificate
    assert sorted(q.degree for q, _ in res.factors) == [2, 4, 5, 7, 8]
    for q, m in res.factors:
        assert m == 1 and divide_exact(p, q) is not None


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize(
    "kind,size",
    [("sd", 2), ("sd", 3), ("sd", 4), ("random", 16), ("random", 28), ("random", 40), ("random", 56)],
)
def test_screen_matches_per_candidate_trace_test(kind, size, eps):
    # Swinnerton-Dyer f2..f4, and random products of degree `size`
    if kind == "sd":
        p = gen_swinnerton_dyer(size)
    else:
        p = multiply(*gen_random_reducible_parts(size, 100, seed=size))
    cfg = ToleranceConfig(eps=eps)
    prof = profile_polynomial(p, cfg)
    patterns = recombine_e(RhoVector.from_profile(prof), eps).nontrivial()
    assert patterns
    screened = list(screen_candidates(patterns, prof, eps))
    ordered = sorted(patterns, key=lambda s: (selected_degree(s, prof), s))
    assert [s for s, _ in screened] == ordered
    want = [trace_test(build_candidate(s, prof), eps) for s in ordered]
    assert [ok for _, ok in screened] == want


def test_screen_keeps_rejection_counts():
    # every pattern before the first confirmed factor is counted as rejected,
    # whether the screen, the trace test or the division turned it down
    f, g = gen_random_reducible_parts(60, 100, seed=606)
    res = factor(f * g)
    assert sorted(q.coeffs for q, _ in res.factors) == sorted([f.coeffs, g.coeffs])
    assert res.stats.candidates == 17121
    assert res.stats.rejected == 10106


def test_factor_difference_of_squares():
    res = factor(P([-1, 0, 1]))
    assert res.factors == ((P([-1, 1]), 1), (P([1, 1]), 1))
    assert res.certificate and not res.irreducible
    assert res.content == 1


def test_factor_swinnerton_dyer_irreducible():
    res = factor(P([1, 0, -10, 0, 1]))
    assert res.irreducible
    assert res.factors == ((P([1, 0, -10, 0, 1]), 1),)
    assert res.certificate
    assert res.stats.candidates >= 1  # the dual-pair candidate was seen
    assert res.stats.rejected >= 1


def test_factor_constructed_product():
    res = factor(P([-2, 0, -1, 0, 1]))
    assert res.factors == ((P([-2, 0, 1]), 1), (P([1, 0, 1]), 1))
    assert res.certificate


def test_factor_square_free_path():
    res = factor(P([2, -3, 0, 1]))
    assert res.factors == ((P([-1, 1]), 2), (P([2, 1]), 1))
    assert res.certificate


def test_factor_content_extraction():
    res = factor(P([-2, 0, 2]))  # 2(x-1)(x+1)
    assert res.content == 2
    assert res.factors == ((P([-1, 1]), 1), (P([1, 1]), 1))
    assert res.certificate


def test_factor_non_monic():
    res = factor(P([1, 3, 2]))  # (2x + 1)(x + 1)
    assert res.factors == ((P([1, 1]), 1), (P([1, 2]), 1))
    assert res.certificate


def test_factor_negative_leading():
    res = factor(P([1, 0, -1]))  # -(x-1)(x+1)
    assert res.content == -1
    assert res.factors == ((P([-1, 1]), 1), (P([1, 1]), 1))
    assert res.certificate


def test_factor_rejects_constants():
    with pytest.raises(ValueError):
        factor(P([5]))
    with pytest.raises(ValueError):
        factor(P([1, 1]), backend="z")
    with pytest.raises(ValueError):
        factor(P([1, 1]), workers=0)


def test_factor_width_guard():
    rng = random.Random(0)
    big = P([rng.randint(-3, 3) for _ in range(131)] + [1])
    with pytest.raises(WidthExceeded):
        factor(big)


def test_backend_independence():
    rng = random.Random(23)
    polys = [
        multiply(
            P([rng.randint(-20, 20) for _ in range(4)] + [1]),
            P([rng.randint(-20, 20) for _ in range(4)] + [1]),
        )
        for _ in range(6)
    ]
    polys.append(gen_swinnerton_dyer(3))
    for p in polys:
        results = {name: factor(p, backend=name).factors for name in BACKENDS}
        baseline = results["a"]
        assert all(r == baseline for r in results.values())


def test_soundness_every_factor_divides():
    rng = random.Random(29)
    for seed in range(8):
        f, g = gen_random_reducible_parts(rng.choice([8, 12, 16]), 100, seed=seed)
        p = f * g
        res = factor(p)
        rebuilt = P([res.content])
        for q, m in res.factors:
            assert divide_exact(p, q) is not None
            rebuilt = multiply(rebuilt, q**m)
        assert rebuilt == p
        assert res.certificate


def test_constructed_halves_recovered():
    for seed in (3, 11, 19):
        f, g = gen_random_reducible_parts(20, 100, seed=seed)
        res = factor(f * g)
        assert sorted(q.coeffs for q, _ in res.factors) == sorted([f.coeffs, g.coeffs])


def test_selected_degree_counts_pairs_twice():
    prof = profile_polynomial(P([-2, 0, -1, 0, 1]), CFG)
    full = (1 << prof.n) - 1
    assert selected_degree(full, prof) == 4
    s = pattern_for(prof, want_pairs=[0.0])
    assert selected_degree(s, prof) == 2


def test_is_irreducible():
    assert is_irreducible(P([1, 0, -10, 0, 1]))
    assert not is_irreducible(P([-1, 0, 1]))
    assert is_irreducible(P([7, 1]))
    with pytest.raises(ValueError):
        is_irreducible(P([3]))


def test_parallel_dispatch_matches_serial():
    p = P([-2, 0, -1, 0, 1])
    serial = factor(p, backend="e", workers=1)
    par = factor(p, backend="e", workers=3)
    assert serial.factors == par.factors
    assert par.stats.workers == 3


def test_large_true_factor_survives_trace_screen():
    # degree-40 product: high-order traces overflow the float lattice and are
    # skipped rather than misjudged
    f, g = gen_random_reducible_parts(40, 100, seed=2)
    p = f * g
    prof = profile_polynomial(p, CFG)
    rho = RhoVector.from_profile(prof)
    cands = recombine_e(rho, CFG.eps)
    full = (1 << prof.n) - 1
    matched = []
    for s in cands.nontrivial():
        for t in (s, s ^ full):
            cand = build_candidate(t, prof)
            if trace_test(cand, CFG.eps):
                q = round_and_divide(cand, p, CFG.eps)
                if q is not None:
                    matched.append(q)
    assert sorted(q.coeffs for q in matched) == sorted([f.coeffs, g.coeffs])
