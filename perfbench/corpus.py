"""Seeded input corpora for the factorization benchmark.

Every factor is drawn at random and certified irreducible by sympy, which
polyfactor does not use, so the answer each input must factor into is known
apart from the program under test. The same corpus name and seed always give
the same inputs.

    python3 perfbench/corpus.py --seed 7 --out perfbench/out/corpus   # every corpus, one file each
    python3 perfbench/corpus.py --corpus split-many --seed 7          # one corpus, JSON on stdout

An item is ``{"coeffs": [...], "content": c, "factors": [[[...], m], ...]}``
with coefficients low to high; ``coeffs`` is exactly content * prod(g^m).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

import numpy as np
from sympy import Poly
from sympy.abc import x
from sympy.polys.domains import ZZ

from check import expand, multiply

# Largest root condition number (see max_condition) a square-free part may
# have. Double-precision Aberth iteration stops on a relative step of 1e-12,
# which ill-conditioned roots cannot reach: of 1000 unscreened draws of 6-12
# factors of degree 2-8, none below 1e4 failed and failures began at 4.4e4.
MAX_CONDITION = 1e3

HALVES_PER_CORPUS = 12
SPLIT_MANY_INPUTS = 120
MAX_SPLIT_N = 28

# Inputs that fail in every run because of two faults in the program; they do
# not depend on the seed and are counted as failed operations.
SPLIT_MANY_FAULTS = (
    # (x^2+3)(x^2+5): the pair sums are 0, rootfinder.frac(-1e-17) returns 1.0
    # and RhoVector.from_values raises a bare ValueError
    [[3, 0, 1], [5, 0, 1]],
    # seven factors with two roots 0.0053 apart near 0.58 (condition 1.0e6):
    # the Aberth stop rule cannot be met and find_roots raises NonConvergence
    [
        [-18, 13, -15, -4, 20, -14, 1],
        [-12, 19, 1],
        [-15, 8, -5, 4, 7, 5, -10, 1],
        [-12, 19, 11, -7, -13, 1],
        [6, -13, -2, -3, -5, 4, 1],
        [-8, 13, 1],
        [-19, 20, 1],
    ],
)


def _sympy(coeffs: list[int]) -> Poly:
    return Poly(coeffs[::-1], x, domain=ZZ)


def max_condition(coeffs: list[int]) -> float:
    """Largest root condition number sum|a_k||z|^k / (|p'(z)| max(1, |z|)) of
    a square-free polynomial: how many units of rounding error one Horner
    evaluation puts into the relative root step. Roots from numpy's
    companion-matrix eigenvalues."""
    c = np.array([float(a) for a in coeffs])
    z = np.roots(c[::-1])
    dc = c[1:] * np.arange(1, len(c))
    num = np.polyval(np.abs(c[::-1]), np.abs(z))
    den = np.abs(np.polyval(dc[::-1], z)) * np.maximum(1.0, np.abs(z))
    return float(np.max(num / den))


def _numpy_real_roots(coeffs: list[int]) -> int:
    z = np.roots(np.array([float(a) for a in coeffs[::-1]]))
    return int(np.count_nonzero(np.abs(z.imag) <= 1e-7 * np.maximum(1.0, np.abs(z))))


def _well_conditioned(factors) -> bool:
    # polyfactor finds roots of each square-free part (the product of the
    # factors of one multiplicity), so each part is screened on its own
    parts: dict[int, list[int]] = {}
    for g, m in factors:
        parts[m] = multiply(parts.get(m, [1]), g)
    return all(max_condition(p) <= MAX_CONDITION for p in parts.values())


def _random_monic(rng: random.Random, degree: int, bound: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(degree)] + [1]


def halves(rng: random.Random, degree: int, count: int) -> list[dict]:
    """Products of two distinct monic irreducible halves of the given degree,
    coefficients in [-100, 100], each half with exactly 4 real roots. Fixing
    the real roots fixes the pattern width n = degree + 4, so every input of a
    corpus does the same amount of search."""
    items = []
    while len(items) < count:
        pair: list[list[int]] = []
        while len(pair) < 2:
            g = _random_monic(rng, degree, 100)
            if g in pair or _numpy_real_roots(g) != 4:
                continue  # cheap pre-screen; sympy below decides
            p = _sympy(g)
            if p.count_roots() == 4 and p.is_irreducible:
                pair.append(g)
        factors = [(g, 1) for g in pair]
        if _well_conditioned(factors):
            items.append(_item(1, factors))
    return items


def _split_many_shapes(count: int) -> list[list[tuple[int, int, int]]]:
    """(degree, real roots, multiplicity) per factor, shared by every seed:
    6-12 factors of degree 2-8 with at most 4 real roots each, a fifth of them
    squared, total degree 24-48, and a pattern width of at most MAX_SPLIT_N
    in each square-free part. Only the coefficients depend on the seed, so
    every seed's corpus does the same amount of search."""
    rng = random.Random("split-many shapes")
    shapes = []
    while len(shapes) < count:
        shape = []
        for _ in range(rng.randint(6, 12)):
            degree = rng.randint(2, 8)
            real = degree % 2 + 2 * min(rng.randint(0, 2), (min(degree, 4) - degree % 2) // 2)
            shape.append((degree, real, 2 if rng.random() < 0.2 else 1))
        width: dict[int, int] = {}
        for degree, real, mult in shape:
            width[mult] = width.get(mult, 0) + (degree + real) // 2
        if 24 <= sum(d * m for d, _, m in shape) <= 48 and max(width.values()) <= MAX_SPLIT_N:
            shapes.append(shape)
    return shapes


def _small_factor(rng: random.Random, degree: int, real: int, taken: list[list[int]]) -> list[int]:
    # Even factors h(x^2) are left out: a root pair on the imaginary axis has
    # pair sum 0, which trips the frac fault that SPLIT_MANY_FAULTS shows.
    while True:
        g = _random_monic(rng, degree, 20)
        if g in taken or not any(g[1::2]) or _numpy_real_roots(g) != real:
            continue
        p = _sympy(g)
        if p.count_roots() == real and p.is_irreducible:
            return g


def split_many(rng: random.Random, count: int) -> list[dict]:
    items = []
    for shape in _split_many_shapes(count):
        content = rng.choice([-3, -2, -1, 1, 1, 2, 3, 5])
        while True:
            taken: list[list[int]] = []
            factors = []
            for degree, real, mult in shape:
                g = _small_factor(rng, degree, real, taken)
                taken.append(g)
                factors.append((g, mult))
            if _well_conditioned(factors):
                break
        items.append(_item(content, factors))
    items += [_item(1, [(g, 1) for g in fault]) for fault in SPLIT_MANY_FAULTS]
    return items


def _item(content: int, factors) -> dict:
    return {
        "coeffs": expand(content, factors),
        "content": content,
        "factors": [[list(g), m] for g, m in factors],
    }


CORPORA = {
    "halves-d56": lambda rng: halves(rng, 28, HALVES_PER_CORPUS),
    "halves-d64": lambda rng: halves(rng, 32, HALVES_PER_CORPUS),
    "split-many": lambda rng: split_many(rng, SPLIT_MANY_INPUTS),
}


def generate(name: str, seed: int) -> dict:
    """The corpus `name` for `seed`; string seeding keeps corpora independent."""
    rng = random.Random(f"{name}:{seed}")
    return {"corpus": name, "seed": seed, "items": CORPORA[name](rng)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--corpus", choices=sorted(CORPORA), help="one corpus, written to stdout")
    ap.add_argument("--out", help="directory for every corpus, one <name>-seed<N>.json each")
    args = ap.parse_args(argv)
    if (args.corpus is None) == (args.out is None):
        ap.error("give exactly one of --corpus and --out")
    if args.corpus:
        json.dump(generate(args.corpus, args.seed), sys.stdout)
        sys.stdout.write("\n")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for name in sorted(CORPORA):
        path = os.path.join(args.out, f"{name}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(generate(name, args.seed), fh)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
