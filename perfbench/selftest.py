"""Tests of the benchmark itself: the checker, the corpus seeding and the
trace accounting.

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import run  # noqa: E402
from check import check, expand, multiply  # noqa: E402

A = [-2, 0, 1]  # x^2 - 2
B = [1, 1, 1]  # x^2 + x + 1
ITEM = {"coeffs": expand(3, [(A, 2), (B, 1)]), "content": 3, "factors": [[A, 2], [B, 1]]}


def test_check_accepts_the_construction():
    assert check(ITEM, 3, [(tuple(B), 1), (tuple(A), 2)]) is None


def test_check_flags_a_merged_factor():
    assert check(ITEM, 3, [(A, 1), (multiply(A, B), 1)]) == "wrong_factors"


def test_check_flags_a_wrong_multiplicity():
    assert check(ITEM, 3, [(A, 1), (B, 1)]) == "wrong_multiplicity"


def test_check_flags_a_wrong_content():
    assert check(ITEM, -3, [(A, 2), (B, 1)]) == "wrong_content"


def test_check_recomputes_the_product():
    bad = dict(ITEM, coeffs=ITEM["coeffs"][:-1] + [4])
    assert check(bad, 3, [(A, 2), (B, 1)]) == "wrong_product"


class _Result:
    def __init__(self, content, factors):
        self.content = content
        self.factors = [(type("G", (), {"coeffs": tuple(g)})(), m) for g, m in factors]
        self.stats = None


def test_raised_errors_and_mismatches_are_failed_operations():
    answers = {
        "ok": _Result(3, [(A, 2), (B, 1)]),
        "merged": _Result(3, [(A, 1), (multiply(A, B), 1)]),
    }

    def fake_factor(key):
        if key == "raise":
            raise ValueError("rho entries must lie in [0, 1)")
        return answers[key]

    tally = run.Tally()
    for key in ("ok", "raise", "merged"):
        run.attempt(fake_factor, ITEM, key, tally, False)
    assert tally.attempted == 3
    assert dict(tally.failed) == {"ValueError": 1, "wrong_factors": 1}
    assert tally.wrong == 1
    assert len(tally.ok_times) == 1


def test_same_seed_same_corpus(monkeypatch):
    monkeypatch.setattr(corpus, "SPLIT_MANY_INPUTS", 4)
    monkeypatch.setattr(corpus, "HALVES_PER_CORPUS", 1)
    for name in corpus.CORPORA:
        first = corpus.generate(name, 11)
        assert first == corpus.generate(name, 11)
        assert first != corpus.generate(name, 12)
        for item in first["items"]:
            assert item["coeffs"] == expand(item["content"], item["factors"])
            assert check(item, item["content"], item["factors"]) is None
            for g, _ in item["factors"]:
                assert corpus._sympy(g).is_irreducible


def test_corpus_drops_even_factors_and_ill_conditioned_parts(monkeypatch):
    monkeypatch.setattr(corpus, "SPLIT_MANY_INPUTS", 6)
    items = corpus.generate("split-many", 5)["items"]
    faults = items[-len(corpus.SPLIT_MANY_FAULTS):]
    assert [[g for g, _ in it["factors"]] for it in faults] == [list(f) for f in corpus.SPLIT_MANY_FAULTS]
    for item in items[: -len(corpus.SPLIT_MANY_FAULTS)]:
        assert all(any(g[1::2]) for g, _ in item["factors"])
        assert corpus._well_conditioned(item["factors"])
    assert not corpus._well_conditioned([(g, 1) for g in corpus.SPLIT_MANY_FAULTS[1]])


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_self_times_add_up_to_the_traced_wall_time(program, workers):
    polyfactor, modules = program

    def functions():
        return {m: {k: v for k, v in vars(mod).items() if callable(v)} for m, mod in modules.items()}

    originals = functions()
    backends = dict(modules["verify"].BACKENDS)
    items = [
        {"content": 1, "factors": [[A, 1], [B, 1], [[5, 3, 0, 1], 1]]},
        {"content": 2, "factors": [[A, 1], [[-7, 1, 0, 0, 1], 2]]},
        {"content": 1, "factors": [[[3, 0, 1], 1], [[5, 0, 1], 1]]},  # raises: the frac fault
    ]
    for item in items:
        item["coeffs"] = expand(item["content"], item["factors"])
    cfg = polyfactor.ToleranceConfig()
    corpus_ = [(it, polyfactor.IntPolynomial(it["coeffs"])) for it in items]

    def factor_fn(p):
        return polyfactor.factor(p, cfg, "e", workers)

    tracer = run.Tracer()
    plain, traced = run.measure(factor_fn, corpus_, 0.0, tracer, modules)
    metrics = run.per_layer(plain, traced, tracer)

    self_total = sum(metrics[m] for m in run.SELF_METRICS.values())
    assert self_total + metrics["trace.unaccounted_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert all(metrics[m] >= -1e-12 for m in run.SELF_METRICS.values())
    assert metrics["rootfinder.find_roots_s"] > 0 and metrics["recombine.s"] > 0
    assert (metrics["parallel.build_s"] > 0) == (workers > 1)
    assert dict(traced.failed) == {"ValueError": 1}
    # every wrapper is gone again
    assert functions() == originals
    assert modules["verify"].BACKENDS == backends


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
