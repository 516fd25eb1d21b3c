"""Whole-program smoke tests in fresh interpreters: the set-up cost of a
first small factor() call, and every demo script running to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_first_small_factor_skips_numpy_ma():
    # numpy.ma is imported lazily by some numpy functions (np.unique among
    # them) and costs a first call ~15 ms; the small-input path must not
    # pull it in
    probe = (
        "import sys; from polyfactor import IntPolynomial, factor; "
        "res = factor(IntPolynomial([-2, -2, -1, 1, 1])); "
        "assert len(res.factors) == 2 and res.certificate; "
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# module attributes perfbench/spans.py wraps to time each layer; it skips any
# that is missing, so a rename would read as a zero per-layer metric
TRACED = {
    "verify": (
        "square_free_decompose",
        "divide_exact",
        "find_roots",
        "build_profile",
        "build_candidate",
        "round_and_divide",
        "BACKENDS",
    ),
    "polynomial": ("divide_exact",),
    "recombine": ("subset_sums", "_canonical_filter"),
    "parallel": ("parallel_build",),
}


def test_benchmark_entry_points(monkeypatch):
    # perfbench/run.py imports polyfactor.parallel, calls factor() with the
    # worker count as the fourth positional argument, wraps the TRACED
    # attributes and reads the counters below from res.stats
    import importlib

    import polyfactor.recombine as recombine
    from polyfactor import IntPolynomial, factor
    from polyfactor.rootfinder import ToleranceConfig

    for mod, attrs in TRACED.items():
        module = importlib.import_module(f"polyfactor.{mod}")
        for attr in attrs:
            assert hasattr(module, attr), f"polyfactor.{mod}.{attr}"
    # the recombine spans see a call only if backend e reaches these
    # functions through the module attribute, as the wrappers replace it
    calls = dict.fromkeys(TRACED["recombine"], 0)
    for attr in calls:

        def counted(*args, _attr=attr, _fn=getattr(recombine, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(recombine, attr, counted)
    p = IntPolynomial([-2, 0, 1]) * IntPolynomial([1, 1, 1])
    res = factor(p, ToleranceConfig(eps=1e-9), "e", 2)
    assert all(calls.values()), calls
    assert res.factors == ((IntPolynomial([-2, 0, 1]), 1), (IntPolynomial([1, 1, 1]), 1))
    assert res.certificate
    assert hasattr(res.stats, "candidates")
    for counter in ("visited", "inserts", "insert_probes"):
        assert hasattr(res.stats.recombine, counter), f"stats.recombine.{counter}"


def test_all_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
