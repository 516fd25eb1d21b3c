"""The distribution sort behind backend d, and its probe economics.

Each value lands near slot floor(capacity * value); collisions resolve by
carrying the larger value one slot onward. At fill ratio 1/2 the expected
probes per insertion sit between 2 ln 2 and 2. Run:
python demos/03_splat_and_probes.py
"""
import random

from polyfactor import RecombineStats, RhoVector, splat, splat_cost_bounds

lo, hi = splat_cost_bounds(2.0)
print(f"theory at oversize factor 2: {lo:.4f} < probes/insert < {hi:.4f}\n")

rng = random.Random(0)
print(f"{'width':>6} {'inserts':>9} {'probes/insert':>14}")
for m in (10, 12, 14, 16, 18):
    st = RecombineStats()
    for _ in range(5):
        splat(RhoVector.from_values([rng.random() for _ in range(m)]), st)
    print(f"{m:>6} {st.inserts:>9,} {st.probes_mean:>14.4f}")

# Worst case: many identical values pile into one slot and the last
# insertion walks the whole cluster.
st = RecombineStats()
splat(RhoVector.from_values([0.0] * 10), st)
print(f"\nadversarial (all values equal): probes/insert = {st.probes_mean:.2f}")
print("the mean degrades to half the cluster length; correctness is unaffected")
