"""The five recombination backends on one instance, with their work counters.

All five return bit-identical candidate sets; they differ in how much of the
pattern space they touch. Run:  python demos/02_backend_tour.py
"""
import time

from polyfactor import (
    BACKENDS,
    RecombineStats,
    RhoVector,
    gen_random_reducible,
    profile_polynomial,
)

# Build a real subset-sum instance from a degree-36 reducible polynomial.
p = gen_random_reducible(36, 100, seed=7)
profile = profile_polynomial(p)
rho = RhoVector.from_profile(profile)
n = len(rho)
print(f"degree {p.degree} input, {profile.r} real roots + {profile.c} pairs -> n = {n}")
print(f"pattern space: 2^{n} = {1 << n:,}\n")

print(f"{'backend':>8} {'candidates':>11} {'visited':>12} {'probes':>10} {'time':>9}")
for name in "abcde":
    st = RecombineStats()
    t0 = time.perf_counter()
    cands = BACKENDS[name](rho, 1e-6, st)
    dt = time.perf_counter() - t0
    probes = st.insert_probes
    print(
        f"{name:>8} {len(cands.nontrivial()):>11} {st.visited:>12,} "
        f"{probes:>10,} {dt * 1e3:>7.1f}ms"
    )

print(
    "\na scans half the space; b jumps over runs a cumulative-sum argument"
    "\nrules out; c/d/e enumerate only the two half spaces (meet in the"
    "\nmiddle) and run one window query, differing only in how the high"
    "\nhalf's table is sorted. Only d builds a probe table (splat, high half"
    "\nonly); probes counts the cells its insertions examine, so c and e"
    "\nprobe nothing."
)
