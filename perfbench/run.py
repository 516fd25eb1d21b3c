"""Factorization benchmark for polyfactor.

    python3 perfbench/run.py --workload verify-d56 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run generates the workload's corpus from the seed in a
child process (corpus.py, which needs sympy), factors every input with
``polyfactor.factor`` in whole passes over the corpus for about ``--seconds``
seconds, and checks every answer against the construction (check.py).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it factors every input untraced and then traced, and reports the per-layer
metrics (spans.py) and the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A record of the run, with
every call time and the failures by type, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from check import check
from spans import ROOT, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
SRC = os.path.join(ROOT_DIR, "src")


@dataclass(frozen=True)
class Workload:
    corpus: str
    eps: float
    workers: int


# Every workload runs backend e.
WORKLOADS = {
    "verify-d56": Workload("halves-d56", 1e-6, 1),
    "search-d64": Workload("halves-d64", 1e-9, 1),
    "search-d64-2w": Workload("halves-d64", 1e-9, 2),
    "split-many": Workload("split-many", 1e-6, 1),
}
BACKEND = "e"

# set-up: a fresh interpreter imports polyfactor and factors
# (x^2 - 2)(x^2 + x + 1); one untimed warm-up, then the median of these
SETUP_REPEATS = 7
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from polyfactor import IntPolynomial, factor; "
    "assert len(factor(IntPolynomial([-2, -2, -1, 1, 1])).factors) == 2"
)

END_TO_END_UNITS = {"factor_p50_s": "s", "factored_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# span -> self-time metric; together they cover the whole traced factor() time
SELF_METRICS = {
    "rootfinder.find_roots": "rootfinder.find_roots_s",
    "rootfinder.build_profile": "rootfinder.build_profile_s",
    "polynomial.square_free": "polynomial.square_free_s",
    "polynomial.divide_exact": "polynomial.divide_exact_s",
    "recombine.subset_sums": "recombine.subset_sums_s",
    "recombine.table_build": "recombine.table_build_s",
    "recombine.backend": "recombine.stream_s",
    "recombine.canonical_filter": "recombine.canonical_filter_s",
    "parallel.build": "parallel.build_s",
    "parallel.sweep": "parallel.sweep_s",
    "verify.build_candidate": "verify.build_candidate_s",
    "verify.trace_test": "verify.trace_test_s",
    "verify.round_and_divide": "verify.round_and_divide_s",
    ROOT: "verify.factor_self_s",
}
LAYER_UNITS = {
    **dict.fromkeys(SELF_METRICS.values(), "s"),
    "rootfinder.find_roots_calls": "count",
    "polynomial.divide_exact_calls": "count",
    "recombine.s": "s",
    "recombine.calls": "count",
    "recombine.n": "bits",
    "recombine.visited": "count",
    "recombine.probes_per_insert": "probes/insert",
    "recombine.query_probes": "count",
    "recombine.candidates": "count",
    "verify.examined": "count",
    "verify.trace_rejects": "count",
    "verify.division_rejects": "count",
    "verify.confirmed": "count",
    "verify.examined_share": "ratio",
    "verify.yield": "ratio",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Tally:
    """Outcomes of the untraced, or of the traced, factor() calls of a run."""

    attempted: int = 0
    wrong: int = 0
    call_s: float = 0.0  # summed wall time of every call, failed ones included
    # High-water mark when the first call returns. With 2 workers it creeps
    # up by tens of MB over later calls, by amounts that differ from run to
    # run, so a later reading would measure the allocator more than the call.
    first_call_rss_mb: float = 0.0
    ok_times: list[float] = field(default_factory=list)
    failed: Counter = field(default_factory=Counter)
    stats: list = field(default_factory=list)  # FactorizationResult.stats, when kept

    def record(self, seconds: float, failure: str | None, stats=None) -> None:
        self.attempted += 1
        if self.attempted == 1:
            self.first_call_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.call_s += seconds
        if failure is None:
            self.ok_times.append(seconds)
            self.stats.append(stats)
        else:
            self.failed[failure] += 1
            self.wrong += failure.startswith("wrong_")


def attempt(factor_fn, item: dict, poly, tally: Tally, keep_result: bool) -> None:
    """One timed call. A raised exception or a mismatch with the construction
    is a failed operation, recorded by its type."""
    t0 = perf_counter()
    try:
        res = factor_fn(poly)
    except Exception as exc:  # the program's failure: count it, go on
        tally.record(perf_counter() - t0, type(exc).__name__)
        return
    seconds = perf_counter() - t0
    failure = check(item, res.content, [(g.coeffs, m) for g, m in res.factors])
    tally.record(seconds, failure, res.stats if keep_result else None)


def measure(factor_fn, corpus, seconds: float, tracer: Tracer | None, modules) -> tuple[Tally, Tally]:
    """Whole passes over the corpus until about `seconds` have gone by; the
    last pass is started only if it should end nearer the deadline than not.
    With a tracer, every input is factored untraced and then traced, so the
    overhead compares the same inputs at nearly the same time."""
    plain, traced = Tally(), Tally()
    traced_factor = tracer.wrap(ROOT, factor_fn) if tracer else None
    start = perf_counter()
    passes = 0
    while True:
        for item, poly in corpus:
            attempt(factor_fn, item, poly, plain, keep_result=False)
            if tracer is not None:
                with tracer.installed(modules):
                    attempt(traced_factor, item, poly, traced, keep_result=True)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            return plain, traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(plain: Tally, setup_s: float) -> dict[str, float]:
    return {
        "factor_p50_s": statistics.median(plain.ok_times),
        "factored_per_s": _ratio(len(plain.ok_times), plain.call_s),
        "peak_rss_mb": plain.first_call_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(plain: Tally, traced: Tally, tracer: Tracer) -> dict[str, float]:
    calls = traced.attempted
    out = {metric: tracer.self_s[span] / calls for span, metric in SELF_METRICS.items()}
    rec = [getattr(s, "recombine", None) for s in traced.stats]
    candidates = sum(getattr(s, "candidates", 0) for s in traced.stats)
    examined = tracer.calls["verify.build_candidate"]
    out.update(
        {
            "rootfinder.find_roots_calls": tracer.calls["rootfinder.find_roots"] / calls,
            "polynomial.divide_exact_calls": tracer.calls["polynomial.divide_exact"] / calls,
            "recombine.s": tracer.total_s["recombine.backend"] / calls,
            "recombine.calls": tracer.calls["recombine.backend"] / calls,
            "recombine.n": _ratio(sum(tracer.widths), len(tracer.widths)),
            "recombine.visited": sum(getattr(r, "visited", 0) for r in rec) / calls,
            "recombine.probes_per_insert": _ratio(
                sum(getattr(r, "insert_probes", 0) for r in rec),
                sum(getattr(r, "inserts", 0) for r in rec),
            ),
            "recombine.query_probes": sum(getattr(r, "query_probes", 0) for r in rec) / calls,
            "recombine.candidates": candidates / calls,
            "verify.examined": examined / calls,
            "verify.trace_rejects": tracer.counts["trace_rejects"] / calls,
            "verify.division_rejects": tracer.counts["division_rejects"] / calls,
            "verify.confirmed": tracer.counts["confirmed"] / calls,
            "verify.examined_share": _ratio(examined, candidates),
            "verify.yield": _ratio(tracer.counts["confirmed"], examined),
            "trace.wall_s": traced.call_s / calls,
            "trace.unaccounted_s": (traced.call_s - tracer.total_s[ROOT]) / calls,
            "trace.overhead_pct": 100.0
            * (_ratio(traced.call_s, traced.attempted) / _ratio(plain.call_s, plain.attempted) - 1.0),
        }
    )
    return out


def load_program():
    """polyfactor from this checkout's src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "polyfactor", "__init__.py")):
        raise SystemExit(f"run.py: no program sources at {SRC}; run inside a polyfactor checkout")
    sys.path.insert(0, SRC)
    import polyfactor

    if not os.path.realpath(polyfactor.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"run.py: imported polyfactor from {polyfactor.__file__}, not {SRC}")
    modules = {
        m: importlib.import_module(f"polyfactor.{m}")
        for m in ("verify", "polynomial", "rootfinder", "recombine", "parallel")
    }
    return polyfactor, modules


def make_corpus(name: str, seed: int) -> list[dict]:
    # a child process, so that sympy never loads into the measured process
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "corpus.py"), "--corpus", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout)["items"]


def measure_setup() -> float:
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT_DIR, check=True)
        if i:  # the first run also compiles the byte code, which users pay once
            times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    polyfactor, modules = load_program()
    items = make_corpus(wl.corpus, args.seed)
    setup_s = measure_setup() if not args.trace else None

    cfg = polyfactor.ToleranceConfig(eps=wl.eps)

    def factor_fn(p):
        return polyfactor.factor(p, cfg, BACKEND, wl.workers)

    factor_fn(polyfactor.IntPolynomial([-2, -2, -1, 1, 1]))  # lazy set-up, untimed
    corpus = [(item, polyfactor.IntPolynomial(item["coeffs"])) for item in items]
    tracer = Tracer() if args.trace else None
    plain, traced = measure(factor_fn, corpus, args.seconds, tracer, modules)

    if not plain.ok_times:
        raise SystemExit(f"run.py: no factor() call of {args.workload} completed correctly")
    if tracer is None:
        metrics = end_to_end(plain, setup_s)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(plain, traced, tracer)
        units = LAYER_UNITS
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    wrong = plain.wrong + traced.wrong

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "inputs": len(items),
                "attempted": attempted,
                "failed": dict(failed),
                "call_times_s": plain.ok_times,
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, "
          f"failed {dict(failed) or 0}, record {os.path.relpath(record)}")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": sum(failed.values()),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
