import json

import pytest

from polyfactor.cli import (
    CSV_HEADER,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SELFTEST,
    EXIT_WIDTH,
    bench_rows,
    main,
    parse_polynomial,
)
from polyfactor.errors import NonConvergence, UnpairedComplexRoot
from polyfactor.polynomial import IntPolynomial, multiply

P = IntPolynomial


def test_parse_coefficient_list():
    assert parse_polynomial("1 0 -10 0 1") == P([1, 0, -10, 0, 1])
    assert parse_polynomial(" -1  0 1 ") == P([-1, 0, 1])


def test_parse_symbolic():
    assert parse_polynomial("x^4-10*x^2+1") == P([1, 0, -10, 0, 1])
    assert parse_polynomial("x**2 - 2") == P([-2, 0, 1])
    assert parse_polynomial("-x^3 + 4x - 7") == P([-7, 4, 0, -1])
    assert parse_polynomial("3*x") == P([0, 3])
    assert parse_polynomial("x^2 + x + x") == P([0, 2, 1])


def test_parse_errors():
    from polyfactor.errors import PolynomialParseError

    for bad in ("", "1 2 fish", "x^", "y^2", "++", "2**x"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad)


def test_factor_command_composite(capsys):
    rc = main(["factor", "-2 0 -1 0 1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "factor: -2 0 1 ^1" in out
    assert "factor: 1 0 1 ^1" in out
    assert "certificate: ok" in out
    assert "irreducible" not in out


def test_factor_command_irreducible(capsys):
    rc = main(["factor", "1 0 -10 0 1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "irreducible"
    assert "factor: 1 0 -10 0 1 ^1" in out


def test_factor_command_symbolic_and_backend(capsys):
    rc = main(["factor", "x^2-1", "--backend", "b"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "factor: -1 1 ^1" in out and "factor: 1 1 ^1" in out


def test_factor_round_trip_through_text(capsys):
    rc = main(["factor", "2 -3 0 1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    prod = P([1])
    content = 1
    for line in out.splitlines():
        if line.startswith("content:"):
            content = int(line.split(":")[1])
        if line.startswith("factor:"):
            body, mult = line[len("factor:") :].split("^")
            q = P.from_text(body.strip())
            prod = multiply(prod, q ** int(mult))
    prod = multiply(P([content]), prod)
    assert prod == P([2, -3, 0, 1])


def test_factor_json_schema(capsys):
    rc = main(["factor", "-1 0 1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert doc["input"] == [-1, 0, 1]
    assert doc["content"] == 1
    assert doc["factors"] == [
        {"coeffs": [-1, 1], "multiplicity": 1},
        {"coeffs": [1, 1], "multiplicity": 1},
    ]
    assert doc["certificate"] is True
    assert doc["irreducible"] is False
    assert doc["stats"]["backend"] == "e"
    assert doc["stats"]["n"] >= 1
    assert doc["stats"]["square_free_seconds"] > 0.0
    assert doc["stats"]["rejected"] == doc["stats"]["screen_rejected"] == 0


def test_factor_even_factors_exit_ok(capsys):
    # both factors have their root pairs on the imaginary axis, so the pair
    # sums are computed as tiny negatives and must still map into [0, 1)
    rc = main(["factor", "x^4+8*x^2+15", "--json"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["factors"] == [
        {"coeffs": [3, 0, 1], "multiplicity": 1},
        {"coeffs": [5, 0, 1], "multiplicity": 1},
    ]
    assert doc["certificate"] is True


def test_factor_parse_error_exit_code(capsys):
    assert main(["factor", "1 2 fish"]) == EXIT_PARSE


def test_factor_width_exit_code(capsys):
    import random

    rng = random.Random(0)
    text = " ".join(str(rng.randint(-3, 3)) for _ in range(131)) + " 1"
    assert main(["factor", text]) == EXIT_WIDTH


@pytest.mark.parametrize("workers", ["1", "2"])
def test_factor_width_exit_code_any_worker_count(workers, capsys):
    # every worker count must report the same width error, whatever the
    # host's CPU count
    import random

    rng = random.Random(0)
    text = " ".join(str(rng.randint(-3, 3)) for _ in range(131)) + " 1"
    assert main(["factor", text, "--workers", workers]) == EXIT_WIDTH
    err = capsys.readouterr().err
    assert "width error: pattern width is capped at 64 bits, got 68" in err
    assert "Traceback" not in err


def test_factor_volume_exit_code(capsys):
    # x^60 - 1 at eps 0.01: n = 31 is within the width limits, but the
    # window query would gather 42,502,144 pairs
    assert main(["factor", "x^60-1", "--eps", "0.01"]) == EXIT_WIDTH
    err = capsys.readouterr().err
    assert err.startswith("width error: candidate volume of 42,502,144 pairs")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        # (10^20 x + 1)(x + 2)(x^2 - 3): roots scaled by the lead reach 2e20
        "-6 -600000000000000000003 -299999999999999999998 200000000000000000001 "
        "100000000000000000000",
        # x^4 + 10^800: beyond the double range
        f"{10**800} 0 0 0 1",
    ],
    ids=["huge-lead", "huge-constant"],
)
def test_unresolvable_roots_exit_3_with_one_line(text, capsys):
    assert main(["factor", text]) == EXIT_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("convergence error: ")


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize(
    "argv,exc,label",
    [
        (["factor", "x^2-2"], UnpairedComplexRoot("no partner for 1j"), "root pairing error"),
        (["bench", "--degrees", "8", "--trials", "1"], NonConvergence("stalled"), "convergence error"),
    ],
    ids=["factor-unpaired", "bench-nonconvergence"],
)
def test_root_errors_exit_3_with_one_line(argv, exc, label, monkeypatch, capsys):
    import polyfactor.cli as cli

    monkeypatch.setattr(cli, "factor", _raise(exc))
    assert main(argv) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err == f"{label}: {exc}\n"


def test_factor_dump_roots(tmp_path, capsys):
    path = tmp_path / "roots.csv"
    rc = main(["factor", "-2 0 1", "--dump-roots", str(path)])
    assert rc == EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    got = sorted(float(row.split(",")[0]) for row in lines[1:])
    assert got == pytest.approx([-(2**0.5), 2**0.5], abs=1e-12)
    # (x - 1)^10 (x + 2): not square-free, so each part's roots are written
    # once per multiplicity
    p = P([-1, 1]) ** 10 * P([2, 1])
    rc = main(["factor", p.to_text(), "--dump-roots", str(path)])
    assert rc == EXIT_OK
    rows = path.read_text().strip().splitlines()[1:]
    assert sorted(float(row.split(",")[0]) for row in rows) == [-2.0] + [1.0] * 10


def test_gen_swinnerton(capsys):
    rc = main(["gen", "swinnerton", "--k", "2"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "1 0 -10 0 1"


def test_gen_random_reproducible_with_factor_comments(capsys):
    rc = main(["gen", "random", "--d", "8", "--seed", "1"])
    out1 = capsys.readouterr().out
    assert rc == EXIT_OK
    rc = main(["gen", "random", "--d", "8", "--seed", "1"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("# factor: ") and lines[1].startswith("# factor: ")
    f = P.from_text(lines[0][len("# factor: ") :])
    g = P.from_text(lines[1][len("# factor: ") :])
    assert multiply(f, g) == P.from_text(lines[2])


def test_gen_random_odd_degree_fails(capsys):
    assert main(["gen", "random", "--d", "7"]) == EXIT_PARSE


def test_bench_rows_deterministic_modulo_time():
    rows1 = list(bench_rows([8, 12], ["e"], trials=2, seed=5, workers=1))
    rows2 = list(bench_rows([8, 12], ["e"], trials=2, seed=5, workers=1))
    strip = lambda rows: [r._replace(wall_s=0.0) for r in rows]
    assert strip(rows1) == strip(rows2)
    assert len(rows1) == 4
    for r in rows1:
        assert r.wall_s >= 0.0 and r.visited >= 0 and r.factors == 2


def test_bench_command_csv(capsys):
    from polyfactor.cli import BenchRecord

    rc = main(["bench", "--degrees", "8", "--backends", "a,e", "--trials", "1", "--seed", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == EXIT_OK
    assert out[0] == CSV_HEADER
    assert len(out) == 3
    for line in out[1:]:
        rec = BenchRecord.from_csv(line)  # every row parses back
        assert rec.d == 8
        assert rec.backend in ("a", "e")
        assert rec.to_csv() == line


def test_bench_csv_file_sink(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    rc = main(["bench", "--degrees", "8", "--trials", "1", "--csv", str(path)])
    out = capsys.readouterr().out.strip()
    assert rc == EXIT_OK
    assert path.read_text().strip() == out


def test_bench_width_exit_code_parallel(monkeypatch, capsys):
    import functools

    import polyfactor.cli as cli
    from polyfactor.polynomial import gen_random_reducible_parts

    # the default irreducibility oracle factors each degree-66 half, which
    # takes minutes; the width check runs on the product whether or not the
    # halves are irreducible, so accept every sample
    monkeypatch.setattr(
        cli,
        "gen_random_reducible_parts",
        functools.partial(gen_random_reducible_parts, irreducible=lambda q: True),
    )
    rc = main(["bench", "--degrees", "132", "--trials", "1", "--workers", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_WIDTH
    assert captured.out.strip() == CSV_HEADER
    assert "width error:" in captured.err
    assert "Traceback" not in captured.err


def test_bench_rejects_odd_degree():
    with pytest.raises(ValueError):
        list(bench_rows([7], ["e"], 1, 0, 1))


def test_workers_default_is_one():
    from polyfactor.cli import build_parser

    args = build_parser().parse_args(["factor", "x^2-1"])
    assert args.workers == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "x^2-1", "--workers", "0"],
        ["factor", "x^2-1", "--eps", "0.7"],
        ["factor", "x^2-1", "--eps", "nan"],
        ["factor", "5"],
        ["bench", "--degrees", "9"],
        ["bench", "--backends", "z"],
        ["gen", "swinnerton", "--k", "0"],
        ["bench", "--trials", "0"],
        ["bench", "--trials", "-1"],
    ],
)
def test_argument_errors_exit_2_with_one_line(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == EXIT_PARSE
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--level", "quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selftest: PASS" in out


def test_selftest_fault_injection_fails(capsys):
    assert main(["selftest", "--level", "quick", "--inject-fault"]) == EXIT_SELFTEST
    out = capsys.readouterr().out
    assert "FAIL" in out
