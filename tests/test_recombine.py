import math
import random

import numpy as np
import pytest

import polyfactor.recombine as recombine
from polyfactor.errors import WidthExceeded
from polyfactor.polynomial import IntPolynomial, gen_random_reducible, gen_swinnerton_dyer
from polyfactor.recombine import (
    BACKENDS,
    EMPTY,
    RecombineStats,
    RhoVector,
    ValueTable,
    accept,
    expand,
    find,
    insert,
    jump_width,
    predict_beta,
    recombine_a,
    recombine_b,
    recombine_c,
    recombine_d,
    recombine_e,
    splat,
    splat_cost_bounds,
    subset_sums,
    value,
)
from polyfactor.rootfinder import ToleranceConfig, profile_polynomial

EPS = 1e-6


def rv(vals):
    return RhoVector.from_values(vals)


def brute_force(rho: RhoVector, eps: float) -> frozenset:
    """Independent oracle: double-loop over every pattern in the half space."""
    n = len(rho)
    vals = rho.values.tolist()
    out = set()
    for s in range(1 << (n - 1)):
        total = 0.0
        for i in range(n):
            if s >> i & 1:
                total += vals[i]
        y = total - math.floor(total)
        if y < eps or 1.0 - y < eps:
            out.add(s)
    return frozenset(out)


# --- value / accept ---------------------------------------------------------


def test_value_examples():
    assert value(0, rv([0.3, 0.9])) == 0.0
    assert value(0b11, rv([0.3, 0.9])) == pytest.approx(0.2, abs=1e-12)
    assert value(0b101, rv([0.25, 0.5, 0.75])) == 0.0


def test_accept_examples():
    assert accept(0.0, EPS)
    assert not accept(0.5, EPS)
    assert accept(1.0 - EPS / 2, EPS)
    assert not accept(EPS, EPS)  # strict inequality


def test_subset_sums_matches_value():
    rng = random.Random(2)
    vals = [rng.random() for _ in range(10)]
    sums = subset_sums(vals)
    sums -= np.floor(sums)
    rho = rv(vals)
    for s in range(1 << 10):
        assert sums[s] == value(s, rho)


def _descending_value(s, vals):
    """value(s) with the selected entries added in descending bit order."""
    x = 0.0
    for i in reversed(range(len(vals))):
        if s >> i & 1:
            x += vals[i]
    return x - math.floor(x)


@pytest.mark.parametrize("ascending_inside", [True, False])
@pytest.mark.parametrize("band", ["low", "high"])
def test_canonical_filter_follows_value_at_the_band_edges(band, ascending_inside):
    # plant a pattern s of 5 entries summing to about 1 + 1e-6 (band "low")
    # or 2 - 1e-6 ("high"), whose ascending sum and descending sum round to
    # different distances from the integer; eps is set to the larger one,
    # so the two orders of summation fall on opposite sides of the band
    n, k = 10, 5
    s = (1 << k) - 1
    for seed in range(1000):
        rng = random.Random(seed)
        vals = [rng.uniform(0.0, 0.3) for _ in range(n)]
        if band == "high":
            vals[: k - 1] = [rng.uniform(0.3, 0.5) for _ in range(k - 1)]
        vals[k - 1] = (1.0 + 1e-6 if band == "low" else 2.0 - 1e-6) - sum(vals[: k - 1])
        if not 0.0 <= vals[k - 1] < 1.0:
            continue
        rho = rv(vals)
        ys = value(s, rho), _descending_value(s, vals)
        # each order's distance from the integer of its band
        d_asc, d_desc = ys if band == "low" else (1.0 - ys[0], 1.0 - ys[1])
        if d_asc != d_desc and (d_asc < d_desc) == ascending_inside:
            break
    else:
        pytest.fail("no planted rho found")
    eps = max(d_asc, d_desc)
    assert accept(ys[0], eps) == ascending_inside != accept(ys[1], eps)
    want = {t for t in range(1 << (n - 1)) if accept(value(t, rho), eps)}
    assert (s in want) == ascending_inside
    assert recombine._canonical_filter(np.arange(1 << n), rho, eps) == want


# --- backend a --------------------------------------------------------------


def test_recombine_a_small_examples():
    assert recombine_a(rv([0.3, 0.7, 0.5]), EPS).patterns == frozenset({0b000, 0b011})
    assert recombine_a(rv([0.25, 0.75]), EPS).patterns == frozenset({0b00})


def test_recombine_a_matches_double_loop():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(5, 14)
        rho = rv([rng.random() for _ in range(n)])
        assert recombine_a(rho, EPS).patterns == brute_force(rho, EPS)


@pytest.mark.parametrize("n", [21, 22, 23])
def test_recombine_a_chunked_path(n):
    # the scan adds each high pattern's sum to the 2^20 low sums: one pass
    # at n = 21 (bits = 20, no high bits), two at n = 22, four at n = 23;
    # compare against an eps wide enough to produce hits without the double
    # loop being feasible at full width
    rng = random.Random(6)
    rho = rv(sorted(rng.random() for _ in range(n)))
    big = recombine_a(rho, 1e-4).patterns
    # spot-check every reported pattern and a random non-member sample
    for s in big:
        assert accept(value(s, rho), 1e-4)
    for _ in range(2000):
        s = rng.randrange(1 << (n - 1))
        if s not in big:
            assert not accept(value(s, rho), 1e-4)


def test_recombine_a_width_guard():
    with pytest.raises(WidthExceeded):
        recombine_a(rv([0.5] * 31), EPS)


def test_visited_counter():
    st = RecombineStats()
    recombine_a(rv([0.3, 0.7, 0.5]), EPS, st)
    assert st.visited == 4  # 2^(n-1)


# --- backend b --------------------------------------------------------------


def test_jump_example_skips_seven():
    # after pattern ...1000 with value 0.2 over rho starting (0.1, 0.2, 0.4, ...)
    # the next seven patterns cannot reach an integer, so the jump is 2^3
    rho = rv([0.1, 0.2, 0.4, 0.8, 0.9, 0.95])
    assert jump_width(0b1000, 0.2, rho, EPS) == 3


def test_jump_honors_accept_band_edge():
    # a jump may not leap across patterns whose value falls inside the band
    rho = rv([0.1, 0.2, 0.4, 0.8, 0.9, 0.95])
    x = 1.0 - 0.7 - 5e-7  # x + sigma_3 lands inside the upper eps band
    j = jump_width(0b1000, x, rho, EPS)
    assert x + float(rho.sigma[j]) < 1.0 - EPS


def test_jump_tiny_first_entry_guard():
    # with rho[0] below eps, skipping from an accepted-low pattern would skip
    # equally accepted neighbors
    rho = rv([2e-7, 0.3, 0.4, 0.45])
    assert jump_width(0b1000, 1e-7, rho, EPS) == 0


def test_recombine_b_equals_a_sorted():
    assert recombine_b(rv([0.3, 0.5, 0.7]), EPS).patterns == recombine_a(
        rv([0.3, 0.5, 0.7]), EPS
    ).patterns


def test_recombine_b_requires_sorted():
    with pytest.raises(ValueError):
        recombine_b(rv([0.7, 0.3]), EPS)


def test_recombine_b_oracle_and_visit_savings():
    rng = random.Random(8)
    for _ in range(6):
        n = rng.randint(10, 18)
        rho = rv(sorted(rng.random() for _ in range(n)))
        sa, sb = RecombineStats(), RecombineStats()
        set_a = recombine_a(rho, EPS, sa).patterns
        set_b = recombine_b(rho, EPS, sb).patterns
        assert set_b == set_a
        assert sb.visited < sa.visited


def _parity_vectors(seed: int):
    """(values, eps) over n = 2..24 and eps 1e-3/1e-6/1e-9: random values,
    all zeros, values on a 1/8 lattice, and values 1e-13 from 0 or 1. The
    zero and lattice kinds stop at n = 14, since about 2^n / 8 of their
    patterns are candidates."""
    rng = random.Random(seed)
    kinds = [
        lambda n: [rng.random() for _ in range(n)],
        lambda n: [0.0] * n,
        lambda n: [rng.randrange(8) / 8 for _ in range(n)],
        lambda n: [rng.choice([1e-13, 1.0 - 1e-13, rng.random()]) for _ in range(n)],
    ]
    for n in (2, 3, 5, 8, 11, 14, 17, 20, 24):
        for i, kind in enumerate(kinds):
            if n <= 14 or i in (0, 3):
                yield kind(n), (1e-3, 1e-6, 1e-9)[(n + i) % 3]


@pytest.mark.parametrize("backend", ["c", "d", "e"])
def test_meet_in_middle_reference_parity(backend):
    # c, d and e share one window query and differ only in the high half's
    # table: each gives backend a's set on tie-heavy vectors and forms the
    # subset sums of both halves of bits 0..n-2, and d splats the high half alone
    for vals, eps in _parity_vectors(33):
        rho = rv(vals)
        n = len(rho)
        na = (n - 1) // 2
        st = RecombineStats()
        assert BACKENDS[backend](rho, eps, st).patterns == recombine_a(rho, eps).patterns
        assert st.visited == 2**na + 2 ** (n - 1 - na), (vals, eps)
        assert st.inserts == (2 ** (n - 1 - na) if backend == "d" else 0), (vals, eps)


@pytest.mark.parametrize("backend", ["c", "d", "e"])
def test_meet_in_middle_searches_half_space(backend, monkeypatch):
    # c, d and e search backend a's domain: no find they hand the canonical
    # filter sets bit n - 1, and with all values 0 every one of its 2^(n-1)
    # patterns is found exactly once
    finds = []
    canonical_filter = recombine._canonical_filter

    def record(found, rho, eps):
        finds.append(found)
        return canonical_filter(found, rho, eps)

    monkeypatch.setattr(recombine, "_canonical_filter", record)
    for vals, eps in _parity_vectors(34):
        n = len(vals)
        finds.clear()
        BACKENDS[backend](rv(vals), eps)
        (found,) = finds
        assert not np.any(found >> np.uint64(n - 1)), (vals, eps)
        if not any(vals):
            assert len(found) == len(set(found.tolist())) == 2 ** (n - 1), (vals, eps)


def test_jump_soundness_exhaustive():
    # replay the scan; every pattern skipped by a jump must fail accept, and
    # backend b's leaves are exactly the patterns the replay visits
    rng = random.Random(21)
    vectors = [
        sorted(rng.random() for _ in range(10)),
        [0.0, 0.0] + sorted(rng.random() for _ in range(8)),
        [3e-7] + sorted(rng.random() for _ in range(9)),
        [0.0] * 12,
        [0.5] * 12,
    ]
    for vals in vectors:
        rho = rv(vals)
        n = len(rho)
        s = 0
        visited = set()
        while s < 1 << (n - 1):
            visited.add(s)
            x = value(s, rho)
            s += 1 << jump_width(s, x, rho, EPS + 1e-12)
        for t in range(1 << (n - 1)):
            if t not in visited:
                assert not accept(value(t, rho), EPS)
        st = RecombineStats()
        recombine_b(rho, EPS, st)
        assert st.visited == len(visited), vals


# --- expand / find ----------------------------------------------------------


def test_expand_single():
    tab = expand(rv([0.6]))
    assert tab.values.tolist() == [0.0, 0.6]
    assert tab.patterns.tolist() == [0, 1]


def test_expand_two_entries():
    tab = expand(rv([0.6, 0.7]))
    assert tab.values.tolist() == pytest.approx([0.0, 0.3, 0.6, 0.7], abs=1e-12)
    assert tab.patterns.tolist() == [0b00, 0b11, 0b01, 0b10]


def test_expand_self_consistent():
    rng = random.Random(10)
    half = rv([rng.random() for _ in range(16)])
    tab = expand(half)
    assert np.all(np.diff(tab.values) >= 0)
    for i in range(0, 1 << 16, 997):
        assert tab.values[i] == value(int(tab.patterns[i]), half)


def test_find_zero_pair():
    a = expand(rv([]))  # single zero-pattern entry
    assert set(find(a, a, EPS, 1).tolist()) == {0}


def test_find_four_pair_exhaustive():
    alpha = ValueTable(
        values=np.array([0.2, 0.9]), patterns=np.array([0, 1]), width=1, sparse=False
    )
    beta = ValueTable(
        values=np.array([0.1, 0.8]), patterns=np.array([0, 1]), width=1, sparse=False
    )
    got = set(find(alpha, beta, EPS, 3).tolist())
    assert got == {0b10, 0b01}  # 0.2+0.8 and 0.9+0.1
    # the query side may come in any order; only beta must be sorted
    reverse = ValueTable(
        values=np.array([0.9, 0.2]), patterns=np.array([1, 0]), width=1, sparse=False
    )
    assert set(find(reverse, beta, EPS, 3).tolist()) == {0b10, 0b01}


def test_find_matches_oracle_through_c():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(8, 16)
        rho = rv([rng.random() for _ in range(n)])
        assert recombine_c(rho, EPS).patterns == brute_force(rho, EPS)


# --- splat / insert ---------------------------------------------------------


def empty_table(width: int) -> ValueTable:
    k = 2 << width
    return ValueTable(
        values=np.full(k, EMPTY),
        patterns=np.zeros(k, dtype=np.int64),
        width=width,
        sparse=True,
    )


def test_insert_into_empty_lands_home():
    tab = empty_table(3)
    st = RecombineStats()
    insert(0.6, 5, tab, st)
    home = int(tab.capacity * 0.6)
    assert tab.values[home] == 0.6
    assert tab.patterns[home] == 5
    assert st.insert_probes == 1


def test_insert_equal_values_adjacent():
    tab = empty_table(3)
    st = RecombineStats()
    insert(0.5, 1, tab, st)
    insert(0.5, 2, tab, st)
    home = int(tab.capacity * 0.5)
    assert tab.values[home] == tab.values[home + 1] == 0.5
    assert st.insert_probes == 1 + 2


def test_insert_adversarial_cluster():
    tab = empty_table(4)
    st = RecombineStats()
    m = 7
    for i in range(m):
        st2 = RecombineStats()
        insert(0.25, i, tab, st2)
        assert st2.insert_probes == i + 1
    assert tab.occupied() == m


def test_insert_displacement_order():
    # inserting a smaller value displaces the larger occupant one cell right
    tab = empty_table(3)
    insert(0.52, 1, tab)
    insert(0.50, 2, tab)
    home = int(tab.capacity * 0.5)
    assert tab.values[home] == 0.50
    assert tab.values[home + 1] == 0.52
    assert tab.patterns[home] == 2 and tab.patterns[home + 1] == 1


def test_splat_collision_then_exchange_sequence():
    # collision first: a same-home value lands one cell right of its slot;
    # then a smaller same-home value takes the slot and the displaced pair
    # carries forward in order
    tab = empty_table(4)  # capacity 32, home slot of these values is 12
    insert(0.377, 0, tab)
    st = RecombineStats()
    insert(0.380, 1, tab, st)  # collides with 0.377, settles right of home
    assert st.insert_probes == 2
    assert tab.values[13].item() == pytest.approx(0.380)
    st = RecombineStats()
    insert(0.3758, 2, tab, st)  # smaller: exchanges at 12, carry ripples right
    assert st.insert_probes == 3
    assert tab.values[12].item() == pytest.approx(0.3758)
    assert tab.values[13].item() == pytest.approx(0.377)
    assert tab.values[14].item() == pytest.approx(0.380)
    assert tab.patterns[12:15].tolist() == [2, 0, 1]


def test_splat_content_equals_expand():
    rng = random.Random(13)
    for _ in range(6):
        half = rv([rng.random() for _ in range(rng.randint(4, 12))])
        dense = expand(half)
        sp = splat(half)
        cv, cp = sp.content()
        assert cv.tolist() == dense.values.tolist()
        assert sorted(zip(cv.tolist(), cp.tolist())) == sorted(
            zip(dense.values.tolist(), dense.patterns.tolist())
        )


def test_splat_matches_insert_loop():
    # the computed layout is the serial insert() loop's, cell for cell, with
    # the same probe count; equal values sit in pattern order, so with ties
    # only the values per cell and the content are compared
    rng = random.Random(23)
    halves = [[rng.random() for _ in range(rng.randint(1, 11))] for _ in range(20)]
    halves += [[0.0] * 9, [0.5] * 7, [0.25, 0.5, 0.75, 0.125] * 2]
    halves += [[1.0 - 10.0 ** -rng.randint(2, 13) for _ in range(8)] for _ in range(10)]
    halves += [[0.9956, 0.97, 0.93, 0.9, 0.6, 0.55, 0.5, 0.0007]]
    for vals in halves:
        half = rv(vals)
        st = RecombineStats()
        got = splat(half, st)
        ref, ref_st = empty_table(len(vals)), RecombineStats()
        sums = subset_sums(vals)
        sums -= np.floor(sums)
        for s, x in enumerate(sums.tolist()):
            insert(x, s, ref, ref_st)
        assert got.values.tolist() == ref.values.tolist()
        assert st.insert_probes == ref_st.insert_probes
        assert st.inserts == ref_st.inserts == len(sums)
        for a, b in zip(got.content(), ref.content()):
            assert a.tolist() == b.tolist()
        if len(set(sums.tolist())) == len(sums):
            assert got.patterns.tolist() == ref.patterns.tolist()


def _two_key_sorted(table):
    mask = table.values >= 0.0
    vals, pats = table.values[mask], table.patterns[mask]
    order = np.lexsort((pats, vals))
    return vals[order].tolist(), pats[order].tolist()


@pytest.mark.parametrize("kind", ["random", "lattice", "zero"])
def test_content_equals_two_key_sort(kind):
    # content() sorts only runs of equal values left out of pattern order,
    # as insert() calls in shuffled pattern order leave them on lattice and
    # all-zero halves
    rng = random.Random(31)
    for width in (1, 5, 9, 12):
        if kind == "random":
            vals = [rng.random() for _ in range(width)]
        elif kind == "lattice":
            vals = [rng.randrange(8) / 8 for _ in range(width)]
        else:
            vals = [0.0] * width
        half = rv(vals)
        looped = empty_table(width)
        sums = subset_sums(vals)
        sums -= np.floor(sums)
        shuffled = list(enumerate(sums.tolist()))
        rng.shuffle(shuffled)
        for s, x in shuffled:
            insert(x, s, looped)
        for table in (splat(half), expand(half), looped):
            got = table.content()
            assert (got[0].tolist(), got[1].tolist()) == _two_key_sorted(table)


def test_splat_compact_is_sorted_with_wraparound():
    # values crowding 1.0 wrap past the table end; compaction must still sort
    half = rv([0.9956, 0.97, 0.93, 0.9, 0.6, 0.55, 0.5, 0.0007])
    dense = splat(half).compact()
    assert np.all(np.diff(dense.values) >= 0)
    assert not dense.sparse
    assert len(dense.values) == 1 << 8


def test_splat_probe_bound_random():
    rng = random.Random(14)
    st = RecombineStats()
    for _ in range(6):
        splat(rv([rng.random() for _ in range(14)]), st)
    lo, hi = splat_cost_bounds(2.0)
    assert lo < st.probes_mean < hi


def test_splat_width_guard():
    with pytest.raises(WidthExceeded):
        splat(rv([0.5] * 32))


# --- backends c/d/e full agreement -----------------------------------------


@pytest.mark.parametrize("backend", ["c", "d", "e"])
def test_meet_in_middle_oracle(backend):
    rng = random.Random(16)
    fn = BACKENDS[backend]
    for _ in range(8):
        n = rng.randint(6, 18)
        rho = rv(sorted(rng.random() for _ in range(n)))
        assert fn(rho, EPS).patterns == recombine_a(rho, EPS).patterns


def test_pair_sum_integer_instance():
    got = recombine_d(rv([0.5, 0.5]), EPS).patterns
    assert got == frozenset({0b00})  # 0b11 canonicalizes onto the trivial empty


def test_cross_backend_agreement_wider():
    rng = random.Random(18)
    rho = rv(sorted(rng.random() for _ in range(26)))
    sets = {name: BACKENDS[name](rho, EPS).patterns for name in ("c", "d", "e")}
    assert sets["c"] == sets["d"] == sets["e"]


def test_complement_symmetry_on_polynomials():
    # profiles from real polynomials make the full pattern integer-valued, so
    # accept is complement symmetric there
    cfg = ToleranceConfig()
    for seed in (1, 2):
        p = gen_random_reducible(12, 60, seed=seed)
        prof = profile_polynomial(p, cfg)
        rho = RhoVector.from_profile(prof)
        n = len(rho)
        full = (1 << n) - 1
        assert accept(value(full, rho), cfg.eps)
        for s in recombine_a(rho, cfg.eps).patterns:
            assert accept(value(s ^ full, rho), cfg.eps)


@pytest.mark.parametrize(
    "p, n", [(IntPolynomial([-1] + [0] * 47 + [1]), 25), (gen_swinnerton_dyer(4), 16)]
)
def test_meet_in_middle_parity_on_structured_profiles(p, n):
    # integer roots give rho entries of 0 and the full pattern sums to an
    # integer, so complements tie as densely as on any real input
    cfg = ToleranceConfig()
    rho = RhoVector.from_profile(profile_polynomial(p, cfg))
    assert len(rho) == n
    assert recombine_e(rho, cfg.eps).patterns == recombine_a(rho, cfg.eps).patterns


def test_e_superset_contains_true_factors():
    from polyfactor.polynomial import gen_random_reducible_parts
    from polyfactor.verify import selected_degree

    cfg = ToleranceConfig()
    f, g = gen_random_reducible_parts(16, 100, seed=5)
    p = f * g
    prof = profile_polynomial(p, cfg)
    rho = RhoVector.from_profile(prof)
    cands = recombine_e(rho, cfg.eps)
    degrees = sorted(selected_degree(s, prof) for s in cands.nontrivial())
    assert f.degree in degrees  # some candidate carries each half's degree


def test_width_guards_c_d_e():
    with pytest.raises(WidthExceeded):
        recombine_c(rv([0.5] * 65), EPS)
    with pytest.raises(WidthExceeded):
        recombine_d(rv([0.5] * 63), EPS)  # half width 32 > 24
    with pytest.raises(WidthExceeded):
        recombine_e(rv([0.5] * 63), EPS)


@pytest.mark.parametrize("backend", [recombine_c, recombine_d, recombine_e])
def test_half_width_guard_before_any_sum(backend, monkeypatch):
    # the tables of a half of 2^25 sums take gigabytes, so n = 49 is refused
    # before a single subset sum is formed
    def no_sums(values):
        raise AssertionError("subset sums formed before the width guard")

    monkeypatch.setattr(recombine, "subset_sums", no_sums)
    with pytest.raises(WidthExceeded, match="half width 25 exceeds backend limit 24"):
        backend(rv([0.5] * 49), EPS)


@pytest.mark.parametrize("backend", [recombine_c, recombine_d, recombine_e])
def test_candidate_volume_guard_c_d_e(backend):
    # every one of the 2^39 patterns below bit 39 of 40 zeros is a candidate:
    # the window query fails on its pair count before allocating the pairs
    with pytest.raises(WidthExceeded, match=r" 549,755,813,888 pairs .*n = 40, eps = 1e-06"):
        backend(rv([0.0] * 40), EPS)


# --- estimators -------------------------------------------------------------


def test_predict_beta_examples():
    it32, closed32 = predict_beta(32)
    assert closed32 == pytest.approx(32.0)
    _, closed2 = predict_beta(2)
    assert closed2 == pytest.approx(2.0)
    _, closed50 = predict_beta(50)
    assert closed50 == pytest.approx(102.4)
    assert it32 > 1.0


def test_predict_beta_closed_within_factor_two():
    for n in range(8, 65):
        iterative, closed = predict_beta(n)
        assert closed / 2 <= iterative <= closed * 2


def test_splat_cost_bounds_values():
    lo, hi = splat_cost_bounds(2.0)
    assert lo == pytest.approx(2 * math.log(2), abs=1e-12)
    assert hi == 2.0
    lo, hi = splat_cost_bounds(1.5)
    assert lo == pytest.approx(1.5 * math.log(3), abs=1e-9)
    assert hi == pytest.approx(3.0)
    lo, hi = splat_cost_bounds(1e9)
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        splat_cost_bounds(1.0)
