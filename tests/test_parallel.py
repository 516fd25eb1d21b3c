import random

import numpy as np
import pytest

from polyfactor.errors import WidthExceeded
from polyfactor.parallel import parallel_build, serial_reference_table
from polyfactor.polynomial import IntPolynomial, gen_random_reducible
from polyfactor.recombine import RecombineStats, RhoVector, ValueTable, splat
from polyfactor.verify import factor


def rho_of(seed: int, n: int) -> RhoVector:
    rng = random.Random(seed)
    return RhoVector.from_values([rng.random() for _ in range(n)])


def contents_equal(tab: ValueTable, ref) -> bool:
    pv, pp = tab.content()
    sv, sp = ref.content()
    return np.array_equal(pv, sv) and np.array_equal(pp, sp)


def test_single_worker_matches_serial_cell_for_cell():
    # and so do 2, 4 and 8 workers; the 1/8 lattice gives runs of equal
    # values, which must keep splat's pattern order
    lattice = RhoVector.from_values([random.Random(1).randrange(8) / 8 for _ in range(12)])
    for rho in (rho_of(1, 12), lattice):
        ser = serial_reference_table(rho)
        for workers in (1, 2, 4, 8):
            tab = parallel_build(rho, workers=workers)
            assert np.array_equal(tab.values, ser.values)
            assert np.array_equal(tab.patterns, ser.patterns)


def test_two_workers_disjoint_values_none_lost():
    rho = rho_of(2, 10)
    tab = parallel_build(rho, workers=2)
    assert tab.occupied() == 1 << 10
    assert contents_equal(tab, serial_reference_table(rho))


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_racing_workers_content_multiset(workers):
    for seed in range(6):
        rho = rho_of(seed, 11)
        tab = parallel_build(rho, workers=workers)
        assert tab.occupied() == 1 << 11
        assert contents_equal(tab, serial_reference_table(rho))


def test_insert_probe_stats_accumulate():
    rho = rho_of(3, 10)
    stats = RecombineStats()
    parallel_build(rho, workers=2, stats=stats)
    assert stats.inserts == 1 << 10
    assert stats.insert_probes >= stats.inserts


def test_publish_freezes_readable_arrays():
    rho = rho_of(4, 8)
    vt = parallel_build(rho, workers=2)
    assert isinstance(vt, ValueTable)
    assert vt.sparse and vt.capacity == 2 << 8
    assert int(np.count_nonzero(vt.values >= 0)) == 1 << 8


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_counters_equal_serial(workers):
    # the threaded build counts what splat counts: the same inserts, insert
    # probes and visited values
    for seed, n in [(seed, n) for seed in range(4) for n in (4, 9, 12)]:
        rho = rho_of(seed, n)
        ser, par = RecombineStats(), RecombineStats()
        splat(rho, ser)
        parallel_build(rho, workers, par)
        assert par == ser, (seed, n)


def test_end_to_end_factor_parity():
    polys = [
        gen_random_reducible(d, 100, seed=d) for d in (8, 12, 16, 20)
    ] + [IntPolynomial([1, 0, -10, 0, 1])]
    for p in polys:
        serial = factor(p, backend="e", workers=1)
        for w in (2, 4, 8):
            par = factor(p, backend="e", workers=w)
            assert par.factors == serial.factors
            assert par.certificate


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [63, 68])
def test_width_errors_match_serial(n, workers):
    # the high half of an n-wide rho: 32 values for n = 63, 34 for n = 68,
    # at 1 and 2 workers
    rho = RhoVector.from_values(np.linspace(0.01, 0.99, n)[n // 2 :])
    with pytest.raises(WidthExceeded) as serial:
        splat(rho)
    with pytest.raises(WidthExceeded) as par:
        parallel_build(rho, workers=workers)
    assert str(par.value) == str(serial.value)


def test_build_width_error_matches_splat():
    rho = RhoVector.from_values(np.linspace(0.01, 0.99, 32))
    with pytest.raises(WidthExceeded) as serial:
        splat(rho)
    with pytest.raises(WidthExceeded) as par:
        parallel_build(rho, workers=2)
    assert str(par.value) == str(serial.value)


def test_worker_validation():
    rho = rho_of(6, 6)
    with pytest.raises(ValueError):
        parallel_build(rho, workers=0)


def test_worker_exception_reaches_the_caller():
    from polyfactor.parallel import _in_threads

    def fail_second(lo, hi):
        if lo:
            raise ZeroDivisionError("worker failed")
        return hi

    with pytest.raises(ZeroDivisionError):
        _in_threads(fail_second, 4, 2)
    assert _in_threads(lambda lo, hi: (lo, hi), 5, 2) == [(0, 3), (3, 5)]
