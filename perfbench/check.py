"""Checks a reported factorization against the corpus construction.

It imports neither polyfactor nor sympy, and it recomputes content *
prod(g^m) itself instead of trusting the program's certificate flag.
"""
from __future__ import annotations


def multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def expand(content: int, factors) -> list[int]:
    """content * prod(g^m), coefficients low to high."""
    out = [content]
    for g, m in factors:
        for _ in range(m):
            out = multiply(out, list(g))
    return out


def check(item: dict, content: int, factors) -> str | None:
    """None when (content, factors) is the construction of `item`, else the
    name of the first mismatch. `factors` is a sequence of (coefficients, m)
    with coefficients low to high."""
    got = sorted((tuple(g), m) for g, m in factors)
    want = sorted((tuple(g), m) for g, m in item["factors"])
    if content != item["content"]:
        return "wrong_content"
    if got != want:
        if sorted(g for g, _ in got) == sorted(g for g, _ in want):
            return "wrong_multiplicity"
        return "wrong_factors"
    if expand(content, got) != list(item["coeffs"]):
        return "wrong_product"
    return None
