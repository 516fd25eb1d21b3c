"""Command-line surface: factor, bench, gen, selftest.

Exit codes: 0 ok, 2 parse or argument error, 3 root non-convergence, roots
a double cannot resolve, or an unpaired complex root, 4 pattern width or
candidate volume exceeded, 5 selftest failure.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import NamedTuple

from .errors import NonConvergence, PolynomialParseError, UnpairedComplexRoot, WidthExceeded
from .polynomial import (
    IntPolynomial,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
    square_free_decompose,
)
from .recombine import BACKENDS
from .rootfinder import ToleranceConfig, find_roots
from .verify import factor

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_WIDTH = 4
EXIT_SELFTEST = 5

CSV_HEADER = "d,n,backend,workers,wall_s,visited,probes_mean,candidates,factors,seed"


class BenchRecord(NamedTuple):
    """One benchmark row; field order matches the CSV header."""

    d: int
    n: int
    backend: str
    workers: int
    wall_s: float
    visited: int
    probes_mean: float
    candidates: int
    factors: int
    seed: int

    def to_csv(self) -> str:
        return (
            f"{self.d},{self.n},{self.backend},{self.workers},{self.wall_s:.6f},"
            f"{self.visited},{self.probes_mean:.4f},{self.candidates},{self.factors},{self.seed}"
        )

    @classmethod
    def from_csv(cls, line: str) -> "BenchRecord":
        cells = line.strip().split(",")
        if len(cells) != 10:
            raise ValueError(f"expected 10 CSV cells, got {len(cells)}")
        return cls(
            d=int(cells[0]),
            n=int(cells[1]),
            backend=cells[2],
            workers=int(cells[3]),
            wall_s=float(cells[4]),
            visited=int(cells[5]),
            probes_mean=float(cells[6]),
            candidates=int(cells[7]),
            factors=int(cells[8]),
            seed=int(cells[9]),
        )

_TERM_RE = re.compile(
    r"^([+-]?\d*)\s*(?:\*?\s*(x(?:\^(\d+)|\*\*(\d+))?))?$"
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Accept a low-to-high coefficient list ("1 0 -10 0 1") or a symbolic
    form ("x^4-10*x^2+1", python style ** also allowed)."""
    text = text.strip()
    if not text:
        raise PolynomialParseError("empty polynomial text")
    if not any(ch in text for ch in "xX"):
        try:
            return IntPolynomial.from_text(text)
        except ValueError as exc:
            raise PolynomialParseError(f"bad coefficient list: {exc}") from exc
    if re.search(r"\d\s+\d", text):
        # dropping the spaces would join the digits into another number
        raise PolynomialParseError(f"digits separated by whitespace in {text!r}")
    src = text.replace("X", "x").replace(" ", "")
    src = src.replace("-", "+-")
    terms = [t for t in src.split("+") if t]
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise PolynomialParseError(f"cannot parse term {term!r}")
        coef_s, xpart, e1, e2 = m.groups()
        if not xpart and coef_s in ("", "+", "-"):
            raise PolynomialParseError(f"cannot parse term {term!r}")
        coef = int(coef_s) if coef_s not in ("", "+", "-") else (-1 if coef_s == "-" else 1)
        if xpart:
            exp = int(e1 or e2 or 1)
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + coef
    top = max(coeffs)
    return IntPolynomial([coeffs.get(i, 0) for i in range(top + 1)])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _eps(text: str) -> float:
    try:
        return ToleranceConfig(eps=float(text)).eps
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_factor(args) -> int:
    p = parse_polynomial(args.polynomial)
    if p.is_constant():
        print("parse error: factor requires a non-constant polynomial", file=sys.stderr)
        return EXIT_PARSE
    cfg = ToleranceConfig(eps=args.eps)
    res = factor(p, cfg, backend=args.backend, workers=args.workers)
    if args.dump_roots:
        # after factor(), which refuses a part too wide to search before any
        # root finding; find_roots needs square-free input, so each part's
        # roots are written mult times
        args.dump_roots.write("re,im\n")
        for part, mult in square_free_decompose(p):
            for z in find_roots(part, cfg):
                args.dump_roots.write(f"{float(z.real)!r},{float(z.imag)!r}\n" * mult)

    if args.json:
        print(json.dumps(result_to_json(res)))
        return EXIT_OK
    if res.irreducible:
        print("irreducible")
    if res.content != 1:
        print(f"content: {res.content}")
    for g, mult in res.factors:
        print(f"factor: {g.to_text()} ^{mult}")
    print(f"certificate: {'ok' if res.certificate else 'FAILED'}")
    return EXIT_OK if res.certificate else 1


def result_to_json(res) -> dict:
    return {
        "input": list(res.input.coeffs),
        "content": res.content,
        "factors": [{"coeffs": list(g.coeffs), "multiplicity": m} for g, m in res.factors],
        "irreducible": res.irreducible,
        "certificate": res.certificate,
        "stats": {
            "backend": res.stats.backend,
            "workers": res.stats.workers,
            "n": res.stats.n,
            "square_free_seconds": res.stats.square_free_seconds,
            "root_seconds": res.stats.root_seconds,
            "recombine_seconds": res.stats.recombine_seconds,
            "verify_seconds": res.stats.verify_seconds,
            "candidates": res.stats.candidates,
            "rejected": res.stats.rejected,
            "screen_rejected": res.stats.screen_rejected,
            "visited": res.stats.recombine.visited,
            "probes_mean": res.stats.recombine.probes_mean,
        },
    }


def _parse_degrees(spec: str) -> list[int]:
    if ":" in spec:
        parts = [int(t) for t in spec.split(":")]
        lo, hi = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 4
        degrees = list(range(lo, hi + 1, step))
    else:
        degrees = [int(t) for t in spec.split(",")]
    for d in degrees:
        if d % 2 or d < 4:
            raise argparse.ArgumentTypeError(f"degrees must be even and at least 4, got {d}")
    return degrees


def _parse_backends(spec: str) -> list[str]:
    backends = spec.split(",")
    for name in backends:
        if name not in BACKENDS:
            raise argparse.ArgumentTypeError(
                f"unknown backend {name!r}, expected one of {','.join(BACKENDS)}"
            )
    return backends


def bench_rows(degrees, backends, trials, seed, workers, include_roots=False, cfg=None):
    """Yield one CSV row per (degree, backend, trial); deterministic inputs
    per seed. wall_s times the recombination stage only unless include_roots."""
    cfg = cfg or ToleranceConfig()
    for d in degrees:
        if d % 2:
            raise ValueError("bench degrees must be even")
        for trial in range(trials):
            f, g = gen_random_reducible_parts(d, 100, seed + trial)
            p = f * g
            for backend in backends:
                t0 = time.perf_counter()
                res = factor(p, cfg, backend=backend, workers=workers)
                total = time.perf_counter() - t0
                wall = total if include_roots else res.stats.recombine_seconds
                yield BenchRecord(
                    d=d,
                    n=res.stats.n,
                    backend=backend,
                    workers=workers,
                    wall_s=wall,
                    visited=res.stats.recombine.visited,
                    probes_mean=res.stats.recombine.probes_mean,
                    candidates=res.stats.candidates,
                    factors=len(res.factors),
                    seed=seed + trial,
                )


def cmd_bench(args) -> int:
    def emit(line: str) -> None:
        print(line)
        if args.csv:
            args.csv.write(line + "\n")

    emit(CSV_HEADER)
    for row in bench_rows(
        args.degrees, args.backends, args.trials, args.seed, args.workers, args.include_roots
    ):
        emit(row.to_csv())
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.kind == "swinnerton":
            print(gen_swinnerton_dyer(args.k).to_text())
            return EXIT_OK
        f, g = gen_random_reducible_parts(args.d, args.coeff_bound, args.seed)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"# factor: {f.to_text()}")
    print(f"# factor: {g.to_text()}")
    print((f * g).to_text())
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = run_selftest(level=args.level, inject_fault=args.inject_fault)
    return EXIT_OK if ok else EXIT_SELFTEST


def run_selftest(level: str = "quick", inject_fault: bool = False) -> bool:
    """Oracle-equivalence, probe-bound, certificate, and parallel checks.

    inject_fault deliberately corrupts one comparison to prove the harness
    reports failure.
    """
    import random

    import numpy as np

    from .parallel import parallel_build, serial_reference_table
    from .recombine import RecombineStats, RhoVector, splat_cost_bounds, splat

    failures = 0

    def check(name: str, passed: bool) -> None:
        nonlocal failures
        print(f"{'ok' if passed else 'FAIL'}  {name}")
        if not passed:
            failures += 1

    rng = random.Random(2024)
    widths = [8, 10, 12] if level == "quick" else [8, 12, 16, 20, 24]
    vectors = 10 if level == "quick" else 40
    eps = 1e-6
    agree = True
    for n in widths:
        for _ in range(vectors):
            rho = RhoVector.from_values(sorted(rng.random() for _ in range(n)))
            base = BACKENDS["a"](rho, eps).patterns
            if inject_fault:
                base = base | {max(base, default=0) + 3}
            for name in "bcde":
                if BACKENDS[name](rho, eps).patterns != base:
                    agree = False
    check("oracle equivalence (b..e == a)", agree)

    # pooled over several builds; a single build's mean wobbles around the
    # theoretical band
    rng = random.Random(77)
    lens = [12] if level == "quick" else [12, 14, 16]
    lo, hi = splat_cost_bounds(2.0)
    bound_ok = True
    for m in lens:
        st = RecombineStats()
        for _ in range(8):
            splat(RhoVector.from_values([rng.random() for _ in range(m)]), st)
        if not lo < st.probes_mean < hi:
            bound_ok = False
    check("splat probe bound", bound_ok)

    cert_ok = True
    for d in (8, 12, 16) if level == "quick" else (8, 12, 16, 20, 24):
        from .polynomial import gen_random_reducible

        p = gen_random_reducible(d, 100, seed=d)
        res = factor(p)
        cert_ok = cert_ok and res.certificate and len(res.factors) == 2
    p = gen_swinnerton_dyer(2)
    res = factor(p)
    cert_ok = cert_ok and res.certificate and res.irreducible
    check("factorization certificates", cert_ok)

    par_ok = True
    for workers in (2, 4):
        rho = RhoVector.from_values([rng.random() for _ in range(10)])
        tab = parallel_build(rho, workers)
        ser = serial_reference_table(rho)
        pv, pp = tab.content()
        sv, sp = ser.content()
        if not (np.array_equal(pv, sv) and np.array_equal(pp, sp)):
            par_ok = False
    check("parallel build content", par_ok)

    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return failures == 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One stderr line and exit code 2 for any bad argument."""
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polyfactor",
        description="Factor integer polynomials by recombination of their real roots.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factor", help="factor one polynomial")
    f.add_argument("polynomial", help='coefficient list "1 0 -10 0 1" or symbolic "x^4-10*x^2+1"')
    f.add_argument("--backend", choices=list(BACKENDS), default="e")
    f.add_argument("--eps", type=_eps, default=1e-6)
    f.add_argument("--workers", type=_positive_int, default=1)
    f.add_argument("--json", action="store_true", help="machine-readable output")
    f.add_argument(
        "--dump-roots", metavar="PATH", type=argparse.FileType("w"), help="write roots as CSV (re,im)"
    )
    f.set_defaults(fn=cmd_factor)

    b = sub.add_parser("bench", help="benchmark recombination on random reducible inputs")
    b.add_argument(
        "--degrees", type=_parse_degrees, default="8:40:4", help='"8:40:4" range or "8,12,16" list'
    )
    b.add_argument(
        "--backends",
        type=_parse_backends,
        default="e",
        help=f"comma list from {','.join(BACKENDS)}",
    )
    b.add_argument("--trials", type=_positive_int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=_positive_int, default=1)
    b.add_argument(
        "--include-roots",
        action="store_true",
        help="wall_s covers the whole run instead of recombination only",
    )
    b.add_argument(
        "--csv", metavar="PATH", type=argparse.FileType("w"), help="also write the rows to a file"
    )
    b.set_defaults(fn=cmd_bench)

    g = sub.add_parser("gen", help="generate test inputs")
    gsub = g.add_subparsers(dest="kind", required=True)
    gs = gsub.add_parser("swinnerton", help="radical-sum polynomial of degree 2^k")
    gs.add_argument("--k", type=int, required=True)
    gs.set_defaults(fn=cmd_gen, kind="swinnerton")
    gr = gsub.add_parser("random", help="product of two random irreducible halves")
    gr.add_argument("--d", type=int, required=True)
    gr.add_argument("--coeff-bound", type=int, default=100)
    gr.add_argument("--seed", type=int, default=0)
    gr.set_defaults(fn=cmd_gen, kind="random")

    s = sub.add_parser("selftest", help="run the built-in verification suites")
    s.add_argument("--level", choices=["quick", "full"], default="quick")
    s.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    s.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    """Run one command; a package error becomes one stderr line and its
    exit code."""
    exits = {
        PolynomialParseError: (EXIT_PARSE, "parse error"),
        NonConvergence: (EXIT_CONVERGENCE, "convergence error"),
        UnpairedComplexRoot: (EXIT_CONVERGENCE, "root pairing error"),
        WidthExceeded: (EXIT_WIDTH, "width error"),
    }
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(exits) as exc:
        code, label = next(v for cls, v in exits.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    finally:
        # the files argparse opened for --dump-roots and --csv ("-" is stdout)
        for fh in (getattr(args, name, None) for name in ("dump_roots", "csv")):
            if fh is not None and fh is not sys.stdout:
                fh.close()


if __name__ == "__main__":
    sys.exit(main())
