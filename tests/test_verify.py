import functools
import math
import random
from collections import Counter

import numpy as np
import pytest

from polyfactor import verify
from polyfactor.errors import NonConvergence, WidthExceeded
from polyfactor.polynomial import (
    IntPolynomial,
    divide_exact,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
    multiply,
)
from polyfactor.recombine import BACKENDS, RhoVector, recombine_e
from polyfactor.rootfinder import INT_LIMIT, ToleranceConfig, profile_polynomial
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
    traces, scales = reference_traces(s, prof)
    assert trace_test(traces, scales, CFG.eps)
    assert float(traces[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(traces[1]) == pytest.approx(-2.0, abs=1e-9)


def test_build_candidate_two_reals():
    prof = profile_polynomial(P([-2, 0, -1, 0, 1]), CFG)
    s = pattern_for(prof, want_reals=[math.sqrt(2), -math.sqrt(2)])
    cand = build_candidate(s, prof)
    assert np.asarray(cand.real_coeffs, dtype=float).tolist() == pytest.approx(
        [-2.0, 0.0, 1.0], abs=1e-9
    )


def reference_traces(s, profile):
    """A pattern's traces and trace scales the scalar way: one power per
    selected root, summed order by order, reals then pairs."""
    ld = np.longdouble
    reals, pairs = [], []
    for i, ent in enumerate(profile.perm):
        if s >> i & 1:
            if ent < profile.r:
                reals.append(ld(profile.real_roots[ent]))
            else:
                j = ent - profile.r
                pairs.append((ld(profile.pair_sums[j]), ld(profile.pair_products[j])))
    e = len(reals) + 2 * len(pairs)
    traces = np.zeros(e, dtype=ld)
    scales = np.zeros(e, dtype=ld)
    upow = list(reals)
    uabs = [abs(u) for u in reals]
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
        for idx in range(len(reals)):
            upow[idx] *= reals[idx]
            uabs[idx] *= abs(reals[idx])
        for idx, (psum, pprod) in enumerate(pairs):
            prev, cur = pstate[idx]
            pstate[idx] = (cur, psum * cur - pprod * prev)
            pmag[idx] *= np.sqrt(pprod)
    return traces, scales


# the seven factors of a degree-30 product with two roots 0.0053 apart near
# 0.58 (root condition number 1.0e6)
CLUSTERED_FACTORS = [
    [-18, 13, -15, -4, 20, -14, 1],
    [-12, 19, 1],
    [-15, 8, -5, 4, 7, 5, -10, 1],
    [-12, 19, 11, -7, -13, 1],
    [6, -13, -2, -3, -5, 4, 1],
    [-8, 13, 1],
    [-19, 20, 1],
]


@pytest.mark.parametrize(
    "p",
    [gen_swinnerton_dyer(4), P([-1] + [0] * 23 + [1]), functools.reduce(multiply, map(P, CLUSTERED_FACTORS))],
    ids=["sd-f4", "x24-1", "clustered-d30"],
)
def test_trace_tables_match_scalar_reference(p):
    # the screen's tables, their selected rows summed one at a time in
    # table order, give the scalar reference bit for bit
    prof = profile_polynomial(p, CFG)
    patterns = recombine_e(RhoVector.from_profile(prof), CFG.eps).nontrivial()
    assert len(patterns) > 50
    cols, powers, mags = verify._trace_tables(prof, p.degree)
    for s in patterns:
        e = selected_degree(s, prof)
        traces = np.zeros(e, dtype=np.longdouble)
        scales = np.zeros(e, dtype=np.longdouble)
        for k, i in enumerate(cols):
            if s >> i & 1:
                traces += powers[k, :e]
                scales += mags[k, :e]
        want_traces, want_scales = reference_traces(s, prof)
        assert np.array_equal(traces, want_traces)
        assert np.array_equal(scales, want_scales)


def test_swinnerton_dyer_dual_pair_candidate():
    # the +-(sqrt2 + sqrt3) dual pair of f2 has integer first trace but an
    # irrational constant term; it must pass the first screen and then fail
    f2 = gen_swinnerton_dyer(2)
    prof = profile_polynomial(f2, CFG)
    a = math.sqrt(2) + math.sqrt(3)
    s = pattern_for(prof, want_reals=[a, -a])
    cand = build_candidate(s, prof)
    traces, scales = reference_traces(s, prof)
    assert float(traces[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(traces[1]) == pytest.approx(2 * (5 + 2 * SQRT6), abs=1e-8)
    assert float(cand.real_coeffs[0]) == pytest.approx(-(5 + 2 * SQRT6), abs=1e-9)
    assert not trace_test(traces, scales, CFG.eps)
    assert round_and_divide(cand, f2, CFG.eps) is None


def test_trace_test_rejects_fractional_root():
    prof = profile_polynomial(P([-1, 0, 4]), CFG)  # 4x^2 - 1 -> roots +-1/2
    # primitive part is not monic; build from the profile of (2x-1)(2x+1)/..
    # simpler: craft a one-real-root profile directly
    from polyfactor.rootfinder import build_profile

    prof = build_profile(np.array([0.5 + 0j]), CFG)
    traces, scales = reference_traces(0b1, prof)
    assert float(traces[0]) == pytest.approx(0.5)
    assert not trace_test(traces, scales, CFG.eps)


def test_round_and_divide_accepts_known_factor():
    p = P([-2, 0, -1, 0, 1])  # (x^2 + 1)(x^2 - 2)
    prof = profile_polynomial(p, CFG)
    cand = build_candidate(pattern_for(prof, want_pairs=[0.0]), prof)
    assert round_and_divide(cand, p, CFG.eps) == (P([1, 0, 1]), P([-2, 0, 1]))


def test_round_and_divide_rejects_off_grid_coefficient():
    cand = CandidateFactor(
        pattern=1,
        real_coeffs=np.array([0.5003, 1.0], dtype=np.longdouble),
        coeff_scales=np.array([0.5003, 1.0], dtype=np.longdouble),
        lead=1,
    )
    assert round_and_divide(cand, P([-1, 2]), 1e-6) is None


def test_round_and_divide_divides_by_the_primitive_part():
    # a candidate rebuilt with the lead 2 of p = (x + 2)(2x - 1) is 2x + 4;
    # its primitive part x + 2 divides p, and 2x + 4 itself does not
    cand = CandidateFactor(
        pattern=1,
        real_coeffs=np.array([4.0, 2.0], dtype=np.longdouble),
        coeff_scales=np.array([4.0, 2.0], dtype=np.longdouble),
        lead=2,
    )
    assert round_and_divide(cand, P([-2, 3, 2]), 1e-6) == (P([2, 1]), P([-1, 2]))


def test_round_and_divide_scales_gate_to_coefficient_size():
    # x + 2^35 rebuilt with an error of 5e-6 on its constant term is within
    # the per-root budget for a term that large (about 0.34), so exact
    # division decides; an error of 0.45 is not, and the gate rejects it
    big = 1 << 35

    def cand(err):
        return CandidateFactor(
            pattern=1,
            real_coeffs=np.array([big + err, 1.0], dtype=np.longdouble),
            coeff_scales=np.array([big, 1.0], dtype=np.longdouble),
            lead=1,
        )

    p = P([-big, big - 1, 1])  # (x + 2^35)(x - 1)
    assert round_and_divide(cand(5e-6), p, 1e-6) == (P([big, 1]), P([-1, 1]))
    assert round_and_divide(cand(5e-6), P([big + 1, 1]), 1e-6) is None
    assert round_and_divide(cand(0.45), p, 1e-6) is None


def test_factor_non_monic_product_splits_fully():
    # the leads multiply to 1280, which scales the roots every candidate is
    # rebuilt from; the rounding gate must forgive the float error of the
    # large coefficients that gives, not hold them to eps
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


# x^5 - 100x^4 - 1 has the real root u = 100 + 1.0e-8: its degree-1
# candidate passes trace_test, while its order-2 trace u^2 is off the lattice
# by 2.0e-6 with a resolvable scale. Stage 1 runs only on chunks holding a
# candidate of degree 2 or more, which the factor x - 3 supplies; there only
# stage 1's degree term keeps u
NEAR_INTEGER_ROOT = P([-1, 0, 0, 0, -100, 1])


@pytest.mark.parametrize(
    "kind,size,eps",
    [
        pytest.param(kind, size, eps, id=f"{kind}-{size}-{eps}")
        for eps in (1e-6, 1e-9)
        for kind, size in [
            ("sd", 2), ("sd", 3), ("sd", 4),
            ("random", 16), ("random", 28), ("random", 40), ("random", 56),
        ]
    ]
    + [pytest.param("near-integer", 6, 1e-6, id="near-integer-6-1e-06")],
)
def test_screen_matches_per_candidate_trace_test(kind, size, eps):
    # Swinnerton-Dyer f2..f4, random products of degree `size`, and a
    # degree-6 input with a near-integer irrational root
    if kind == "sd":
        p = gen_swinnerton_dyer(size)
    elif kind == "random":
        p = multiply(*gen_random_reducible_parts(size, 100, seed=size))
    else:
        p = NEAR_INTEGER_ROOT * P([-3, 1])
    cfg = ToleranceConfig(eps=eps)
    prof = profile_polynomial(p, cfg)
    patterns = recombine_e(RhoVector.from_profile(prof), eps).nontrivial()
    assert patterns
    screened = list(screen_candidates(patterns, prof, eps))
    ordered = sorted(patterns, key=lambda s: (selected_degree(s, prof), s))
    assert [s for s, _, _ in screened] == ordered
    assert [e for _, e, _ in screened] == [selected_degree(s, prof) for s in ordered]
    want = [trace_test(*reference_traces(s, prof), eps) for s in ordered]
    assert [ok for _, _, ok in screened] == want


@pytest.mark.parametrize(
    "p,counts",
    [(NEAR_INTEGER_ROOT, (1, 1, 0)), (NEAR_INTEGER_ROOT * P([-3, 1]), (3, 1, 0))],
    ids=["alone", "times-x-3"],
)
def test_near_integer_root_candidate_passes_the_screen(p, counts):
    # the screen passes u's degree-1 candidate and exact division rejects it;
    # with x - 3, the pattern {u, 3} shares a root with the confirmed x - 3
    # and is never reached
    stats = factor(p, ToleranceConfig(eps=1e-6)).stats
    assert (stats.candidates, stats.rejected, stats.screen_rejected) == counts


def test_screen_stages_cover_every_kind():
    # f3 (x - 400)(x + 500) at eps 1e-6 has candidates of each kind the
    # two-stage screen tells apart: rejected on the order-2 trace alone,
    # kept by order 2 and rejected at a higher order, and not consulting
    # order 2 at all (degree 1, or an order-2 scale too large to resolve);
    # some of the last kind pass with an order-2 trace off the lattice
    eps = 1e-6
    p = gen_swinnerton_dyer(3) * P([-400, 1]) * P([500, 1])
    prof = profile_polynomial(p, ToleranceConfig(eps=eps))
    patterns = recombine_e(RhoVector.from_profile(prof), eps).nontrivial()
    screened = list(screen_candidates(patterns, prof, eps))
    kinds = Counter()
    want = []
    for s, _, _ in screened:
        traces, scales = reference_traces(s, prof)
        want.append(trace_test(traces, scales, eps))
        off = len(traces) >= 2 and abs(float(traces[1] - np.rint(traces[1]))) >= eps
        scale = float(scales[1]) if len(traces) >= 2 else math.inf
        if not (2 * scale * verify._TRACE_REL < eps and scale < INT_LIMIT):
            kinds["unconsulted"] += 1
            kinds["unconsulted, off, passed"] += off and want[-1]
        elif off:
            kinds["order 2"] += 1
        elif not want[-1]:
            kinds["higher order"] += 1
    assert [ok for _, _, ok in screened] == want
    assert kinds == {
        "order 2": 7,
        "higher order": 1,
        "unconsulted": 27,
        "unconsulted, off, passed": 21,
    }


def test_screen_keeps_rejection_counts():
    # every candidate the walk reaches before the degree stop is counted as
    # rejected, whether the screen, the rounding gate or the division turned
    # it down; here the screen turned down every one
    f, g = gen_random_reducible_parts(60, 100, seed=606)
    res = factor(f * g)
    assert sorted(q.coeffs for q, _ in res.factors) == sorted([f.coeffs, g.coeffs])
    assert res.stats.candidates == 17120
    assert res.stats.rejected == 10105
    assert res.stats.screen_rejected == 10105


@pytest.mark.parametrize(
    "k,eps,screen_rejected",
    [(2, 1e-6, 1), (3, 1e-6, 8), (4, 1e-6, 323), (3, 1e-9, 3), (4, 1e-8, 318), (4, 1e-9, 61)],
)
def test_screen_rejected_is_the_screens_part_of_rejected(k, eps, screen_rejected):
    # the Swinnerton-Dyer f2..f4 reach every candidate and reject it; at the
    # finer eps the screen resolves fewer traces and rounding or exact
    # division turns down the rest
    res = factor(gen_swinnerton_dyer(k), ToleranceConfig(eps=eps))
    assert res.irreducible
    assert res.stats.rejected == res.stats.candidates
    assert res.stats.screen_rejected == screen_rejected
    assert res.stats.screen_rejected <= res.stats.rejected


def x_power_minus_one(k):
    return P([-1] + [0] * (k - 1) + [1])


@functools.cache
def cyclotomic(d):
    """Phi_d as x^d - 1 divided by every Phi_e for e a proper divisor of d."""
    q = x_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            q = divide_exact(q, cyclotomic(e))
    return q


@pytest.mark.parametrize(
    "p,parts,count",
    [
        (x_power_minus_one(24), 1, 8),
        # ((x^2 + 1)(x - 2))^2 (2x + 1)(x^2 - 2)(x + 3): a squared part of
        # degree 3 and a non-monic square-free part of degree 4
        ((P([1, 0, 1]) * P([-2, 1])) ** 2 * P([1, 2]) * P([-2, 0, 1]) * P([3, 1]), 2, 5),
    ],
)
def test_one_root_finding_and_recombination_per_square_free_part(monkeypatch, p, parts, count):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "find_roots", counted("find_roots", verify.find_roots))
    backends = {key: counted("recombine", fn) for key, fn in verify.BACKENDS.items()}
    monkeypatch.setattr(verify, "BACKENDS", backends)
    res = factor(p)
    assert res.certificate
    assert len(res.factors) == count
    assert calls == {"find_roots": parts, "recombine": parts}


@pytest.mark.parametrize("k,count", [(12, 6), (24, 8), (48, 10)])
def test_x_power_minus_one_splits_into_cyclotomic_factors(k, count):
    res = factor(x_power_minus_one(k))
    assert res.certificate
    want = sorted((cyclotomic(d).coeffs, 1) for d in range(1, k + 1) if k % d == 0)
    assert len(want) == count
    assert sorted((q.coeffs, m) for q, m in res.factors) == want


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


def product_factors_into(factors):
    want = sorted(P(f).coeffs for f in factors)
    res = factor(functools.reduce(multiply, map(P, factors)))
    assert res.certificate
    assert sorted(g.coeffs for g, _ in res.factors) == want
    assert all(mult == 1 for _, mult in res.factors)


@pytest.mark.parametrize(
    "factors",
    [
        CLUSTERED_FACTORS,
        [
            [-711070233, 264728931, -779301586, 624180670, 1],
            [-688801561, -887590468, 172407674, 543925881, 1],
            [471108460, 701335365, 743315116, -920092363, 915996000, 271121375,
             -688604942, 758699953, 664870474, 1],
        ],
    ],
    ids=["clustered-roots", "1e9-coefficients"],
)
def test_ill_conditioned_products_factor(factors):
    # the first raised NonConvergence when the root iteration started on a
    # circle in double precision; the second came back as one irreducible
    product_factors_into(factors)


@pytest.mark.parametrize("m", range(9, 14))
def test_wilkinson_products_split_into_linear_factors(m):
    product_factors_into([[-k, 1] for k in range(1, m + 1)])


def test_wilkinson_16_raises_nonconvergence():
    with pytest.raises(NonConvergence):
        factor(functools.reduce(multiply, (P([-k, 1]) for k in range(1, 17))))


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


def _sympy_factors(p):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain="ZZ")
    content, pairs = poly.factor_list()
    out = []
    for g, m in pairs:
        coeffs = [int(c) for c in reversed(g.all_coeffs())]
        if coeffs[-1] < 0:
            content, coeffs = -content, [-c for c in coeffs]
        out.append((P(coeffs), m))
    return int(content), sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))


def test_factor_non_monic_products_match_sympy():
    # products of 2-3 factors of degree 2-12 with leads up to 1000; the
    # leads' product scales a degree-k factor's roots, and each answer must
    # be sympy's, not a silent under-split
    rng = random.Random(7)
    leads = [1, 2, 3, 5, 7, 12, 30, 100, 1000]
    for _ in range(50):
        p = P([1])
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(2, 12)
            p = p * P([rng.randint(-30, 30) for _ in range(d)] + [rng.choice(leads)])
        res = factor(p)
        assert res.certificate
        assert (res.content, list(res.factors)) == _sympy_factors(p), p.coeffs


def test_factor_non_monic_degree_17_splits():
    # sympy splits it into degrees 8 and 9; the degree-9 candidate passes
    # the screen and must then round and divide
    p = P([-84, 170, -100, -182, 306, 137, -730, 266, 255, 131, 131, 409, 219, -147, -139, 159, -91, 49])
    res = factor(p)
    assert res.certificate
    assert sorted(q.degree for q, _ in res.factors) == [8, 9]
    assert (res.content, list(res.factors)) == _sympy_factors(p)


HUGE_LEAD = P([-6, -600000000000000000003, -299999999999999999998, 200000000000000000001, 10**20])


def test_factor_huge_lead_raises_instead_of_under_splitting():
    # (10^20 x + 1)(x + 2)(x^2 - 3): its roots scaled by the lead reach
    # 2e20, past what a double resolves to eps, so the answer would be a
    # guess; factor must raise rather than report too few factors
    with pytest.raises(NonConvergence, match="2.00e"):
        factor(HUGE_LEAD)


def test_factor_lead_past_2_62_splits():
    # (2200000000x + 1)(2150000000x - 1): the lead 4.73e18 is past 2^62,
    # where a double holds no fraction, but its roots scaled by it stay
    # below the precision guard; every candidate's lead is exactly the
    # part's, so it is taken as the int and never rounded
    p = P([1, 2200000000]) * P([-1, 2150000000])
    assert p.leading > INT_LIMIT
    res = factor(p)
    assert res.certificate
    assert res.factors == ((P([-1, 2150000000]), 1), (P([1, 2200000000]), 1))


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
            if trace_test(*reference_traces(t, prof), CFG.eps):
                found = round_and_divide(build_candidate(t, prof), p, CFG.eps)
                if found is not None:
                    matched.append(found[0])
    assert sorted(q.coeffs for q in matched) == sorted([f.coeffs, g.coeffs])
