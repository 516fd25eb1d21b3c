"""Threaded table building: per-worker sorted runs merge into the serial table.

Each worker stable-sorts the subset sums of its own pattern range; one stable
sort merges the runs, and splat's layout places them. The result is the
serial splat table cell for cell, whatever the worker count. factor() runs
the same serial search for every worker count. Run:
python demos/04_parallel_tables.py
"""
import random

import numpy as np

from polyfactor import RhoVector, factor, gen_random_reducible, parallel_build, splat

rng = random.Random(1)
rho = RhoVector.from_values([rng.random() for _ in range(14)])
serial = splat(rho)

print("width-14 half, 16384 values, table capacity 32768:")
for workers in (1, 2, 4, 8):
    tab = parallel_build(rho, workers=workers)
    same = np.array_equal(tab.values, serial.values) and np.array_equal(
        tab.patterns, serial.patterns
    )
    print(
        f"  workers={workers}: {workers} sorted run(s), occupied {tab.occupied():,} "
        f"/ expected {1 << 14:,}, table == serial splat cell for cell: {same}"
    )

p = gen_random_reducible(24, 100, seed=3)
base = factor(p, backend="e", workers=1).factors
print(f"\nend to end on a degree-24 input: {' * '.join(str(g) for g, _ in base)}")
for workers in (2, 4, 8):
    got = factor(p, backend="e", workers=workers).factors
    print(f"  workers={workers}: factor set identical: {got == base}")
