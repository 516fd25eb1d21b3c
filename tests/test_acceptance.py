"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single summary line; run with `pytest tests/test_acceptance.py -v -s`
to see them. Every expected value is either exact (set equality, certificates)
or carries the tolerance stated in its docstring.
"""
import math
import random
import time

import numpy as np

from polyfactor.parallel import parallel_build, serial_reference_table
from polyfactor.polynomial import (
    IntPolynomial,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
)
from polyfactor.recombine import (
    BACKENDS,
    RecombineStats,
    RhoVector,
    predict_beta,
    recombine_a,
    recombine_b,
    recombine_e,
    splat,
    splat_cost_bounds,
)
from polyfactor.rootfinder import ToleranceConfig, expected_real_roots, find_roots
from polyfactor.verify import factor

EPS = 1e-6


def _sorted_rho(rng: random.Random, n: int) -> RhoVector:
    return RhoVector.from_values(sorted(rng.random() for _ in range(n)))


def test_criterion_1_oracle_equivalence():
    """Backends b..e return exactly backend a's candidate set (zero tolerance)
    for 200 random rho vectors at each n in {8, 12, 16, 20, 24}; under 5 min."""
    t0 = time.perf_counter()
    vectors = 200
    mismatches = 0
    for n in (8, 12, 16, 20, 24):
        rng = random.Random(1000 + n)
        for _ in range(vectors):
            rho = _sorted_rho(rng, n)
            base = recombine_a(rho, EPS).patterns
            for name in "bcde":
                if BACKENDS[name](rho, EPS).patterns != base:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 1 oracle equivalence: PASS ({vectors} vectors x 5 widths, {elapsed:.1f}s)")


def test_criterion_2_factorization_round_trip():
    """100 seeded random-reducible inputs, even degrees cycling 8..40,
    coefficients bounded by 100: certificate holds and both constructed
    halves are recovered exactly (zero tolerance)."""
    degrees = list(range(8, 41, 2))
    checked = 0
    for i in range(100):
        d = degrees[i % len(degrees)]
        f, g = gen_random_reducible_parts(d, 100, seed=10_000 + i)
        res = factor(f * g)
        assert res.certificate, f"certificate failed at d={d} seed={10_000 + i}"
        got = sorted(q.coeffs for q, _ in res.factors)
        assert got == sorted([f.coeffs, g.coeffs]), f"halves not recovered at d={d}"
        assert all(m == 1 for _, m in res.factors)
        checked += 1
    print(f"ACCEPTANCE 2 factorization round-trip: PASS ({checked} inputs, d in 8..40)")


def test_criterion_3_swinnerton_dyer_pathology():
    """f2, f3, f4 are reported irreducible while the recombination stage sees
    at least one nontrivial candidate each; all candidates die in verification."""
    for k in (2, 3, 4):
        res = factor(gen_swinnerton_dyer(k))
        assert res.irreducible, f"f{k} wrongly split"
        assert res.certificate
        assert res.stats.candidates >= 1, f"f{k} produced no candidate"
        assert res.stats.rejected == res.stats.candidates
    print("ACCEPTANCE 3 radical-sum pathology: PASS (f2, f3, f4 irreducible, candidates rejected)")


def test_criterion_4_splat_probe_constant():
    """Mean probes per insertion pooled over 50 splat builds per table width
    in {14, 16, 18} at oversize factor 2: inside the theoretical bounds
    (1.386, 2) and within 1.67 +/- 0.2."""
    lo, hi = splat_cost_bounds(2.0)
    rng = random.Random(20240)
    means = {}
    for m in (14, 16, 18):
        st = RecombineStats()
        for _ in range(50):
            splat(RhoVector.from_values([rng.random() for _ in range(m)]), st)
        means[m] = st.probes_mean
        assert lo < means[m] < hi, f"len {m}: {means[m]:.4f} outside ({lo:.3f}, {hi:.3f})"
        assert abs(means[m] - 1.67) <= 0.2, f"len {m}: {means[m]:.4f} not within 1.67 +/- 0.2"
    pretty = ", ".join(f"len {m}: {v:.3f}" for m, v in means.items())
    print(f"ACCEPTANCE 4 splat probe constant: PASS ({pretty})")


def test_criterion_5_jump_scan_speedup():
    """Mean visited-pattern ratio of the exhaustive scan to the jump scan at
    n in {20, 24, 28} lies within a factor of 2 of the closed-form 2^l / l,
    l = floor(sqrt(2n)). Measured on the benchmark workload (random reducible
    polynomials whose profile width lands on the target n), which is where
    the estimate's uniform-spacing assumptions apply."""
    from polyfactor.polynomial import gen_random_reducible
    from polyfactor.rootfinder import profile_polynomial

    cfg = ToleranceConfig()
    plan = {20: (12, (36, 38, 40)), 24: (10, (44, 46, 48)), 28: (20, (52, 54, 56))}
    report = []
    for n, (instances, degrees) in plan.items():
        _, closed = predict_beta(n)
        ratios = []
        tried = 0
        while len(ratios) < instances and tried < 600:
            tried += 1
            d = degrees[tried % len(degrees)]
            p = gen_random_reducible(d, 100, seed=31337 + 1000 * n + tried)
            prof = profile_polynomial(p, cfg)
            if prof.n != n:
                continue
            rho = RhoVector.from_profile(prof)
            st = RecombineStats()
            recombine_b(rho, EPS, st)
            ratios.append((1 << (n - 1)) / st.visited)
        assert len(ratios) == instances, f"could not assemble n={n} instances"
        mean = sum(ratios) / len(ratios)
        assert closed / 2 <= mean <= closed * 2, f"n={n}: ratio {mean:.2f} vs closed {closed:.2f}"
        report.append(f"n={n}: {mean:.1f} vs {closed:.1f}")
    print(f"ACCEPTANCE 5 jump-scan speedup: PASS ({'; '.join(report)})")


def test_criterion_6_exponential_scaling():
    """Least-squares slope of log2(backend e wall time) against n over
    n in {24, 28, 32, 36, 40} equals 0.5 +/- 0.1. The sweep pins eps = 1e-9 so
    the expected number of reported patterns stays tiny across the range;
    at looser tolerances the output volume itself grows like 2^n * eps and
    would swamp the enumeration kernel being measured."""
    import gc

    rng = random.Random(11)
    ns = list(range(24, 41, 2))
    recombine_e(_sorted_rho(rng, 20), 1e-9)  # warm the kernels
    gc.collect()
    # two instances per width, timed in round-robin sweeps so a burst of
    # machine noise cannot poison every repetition of one width
    instances = [(n, _sorted_rho(rng, n)) for n in ns for _ in range(2)]
    best = [math.inf] * len(instances)
    for _ in range(8):
        for idx, (_, rho) in enumerate(instances):
            t0 = time.perf_counter()
            recombine_e(rho, 1e-9)
            best[idx] = min(best[idx], time.perf_counter() - t0)
    logs = [
        (math.log2(best[2 * i]) + math.log2(best[2 * i + 1])) / 2.0 for i in range(len(ns))
    ]
    slope = float(np.polyfit(ns, logs, 1)[0])
    assert 0.4 <= slope <= 0.6, f"slope {slope:.3f} outside 0.5 +/- 0.1"

    # stretch target (generous budget): factor a degree-60 reducible input
    f, g = gen_random_reducible_parts(60, 100, seed=606)
    t0 = time.perf_counter()
    res = factor(f * g, backend="e", workers=1)
    stretch = time.perf_counter() - t0
    assert res.certificate
    assert stretch < 60.0
    print(
        f"ACCEPTANCE 6 exponential scaling: PASS (slope {slope:.3f}; "
        f"d=60 factored in {stretch:.1f}s)"
    )


def test_criterion_7_parallel_correctness():
    """For worker counts {2, 4, 8} and 100 random width-16 instances the
    shared-table content multiset equals the serial build and no insertion is
    lost (exact non-empty count); end-to-end parallel factoring matches the
    serial factor sets (zero tolerance)."""
    rng = random.Random(77)
    instances = [
        RhoVector.from_values([rng.random() for _ in range(16)]) for _ in range(100)
    ]
    for idx, rho in enumerate(instances):
        ser_v, ser_p = serial_reference_table(rho).content()
        for w in (2, 4, 8):
            tab = parallel_build(rho, workers=w)
            assert tab.occupied() == 1 << 16, f"lost insertion at instance {idx} workers {w}"
            pv, pp = tab.content()
            assert np.array_equal(pv, ser_v) and np.array_equal(pp, ser_p)

    corpus = [gen_swinnerton_dyer(2), gen_swinnerton_dyer(3)]
    for d in (8, 12, 16, 20, 24):
        f, g = gen_random_reducible_parts(d, 100, seed=700 + d)
        corpus.append(f * g)
    for p in corpus:
        serial = factor(p, backend="e", workers=1)
        for w in (2, 4, 8):
            par = factor(p, backend="e", workers=w)
            assert par.factors == serial.factors
            assert par.certificate
    print("ACCEPTANCE 7 parallel correctness: PASS (100 builds x {2,4,8} workers; end-to-end parity)")


def test_criterion_8_real_root_trend():
    """Over 500 random degree-d polynomials for d in {10, 30, 100}, the mean
    real-root count stays within an additive constant of 2 of (2/pi) ln d."""
    cfg = ToleranceConfig()
    report = []
    for d in (10, 30, 100):
        rng = random.Random(90 + d)
        total = 0
        for _ in range(500):
            p = IntPolynomial([rng.randint(-100, 100) for _ in range(d)] + [1])
            roots = find_roots(p, cfg)
            total += sum(1 for z in roots if z.imag == 0)
        mean = total / 500
        gap = abs(mean - expected_real_roots(d))
        assert gap <= 2.0, f"d={d}: mean {mean:.2f} vs {expected_real_roots(d):.2f}"
        report.append(f"d={d}: {mean:.2f} vs {expected_real_roots(d):.2f}")
    print(f"ACCEPTANCE 8 real-root trend: PASS ({'; '.join(report)})")
