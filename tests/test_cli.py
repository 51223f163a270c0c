import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vinbun
from vinbun import arith, cli, drinfeld, kcalc, lefschetz, localmodel, symrep
from vinbun.budget import BudgetExceededError
from vinbun.cli import (
    ALL_SUITES,
    DEFAULT_SUITES,
    MAX_GRID_N,
    MAX_GRID_Q,
    RunConfig,
    budgeted_divisors,
    field_from_q,
    main,
    prime_powers_up_to,
    render_report,
    run_suite,
)

DEFAULT_REPORT_SHA256 = (
    "9f0407a883c102f4b9afe6b9717ff378e6a067cf54732eb5bad9ecf229a2d068"
)
STARVED_REPORT_SHA256 = (
    "f9e5202f9e52b2aa56aa37d24d0a27593a00e1ad3df15de1ec231954015b035a"
)


TRACES_REPORT_SHA256 = (
    "90bcc9c2dea4ee835c22bae86b45a26898c072f87fe4df7fc2082645f4cc095f"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_from_q():
    assert field_from_q(9).q == 9
    assert field_from_q(8).e == 3
    with pytest.raises(ValueError):
        field_from_q(6)
    assert prime_powers_up_to(9) == [2, 3, 4, 5, 7, 8, 9]
    # 16 = 2^4 is a prime power, but its extension degree is out of range
    with pytest.raises(ValueError):
        field_from_q(16)
    assert 16 not in prime_powers_up_to(16)
    # primality is a Miller-Rabin test, and the default modulus is the first
    # irreducible found, so neither step is linear in q
    assert field_from_q(2**31 - 1).p == 2**31 - 1
    assert field_from_q(211**2).modulus == (1, 0, 1)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(suites=())
    with pytest.raises(ValueError):
        RunConfig(suites=("bogus",))
    with pytest.raises(ValueError, match="duplicate suites"):
        RunConfig(suites=("nearby", "omega", "nearby"))
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    for bad in ({"max_n": 0}, {"max_q": 1}, {"max_degree": 0}, {"max_k": 0},
                {"max_n": MAX_GRID_N + 1}, {"max_q": MAX_GRID_Q + 1}):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    RunConfig(max_n=MAX_GRID_N, max_q=MAX_GRID_Q)


def test_prime_powers_up_to_1000_is_unchanged():
    # the definition before primality became a Miller-Rabin test
    def least_prime_factor(n):
        return next(f for f in range(2, n + 1) if n % f == 0)

    expected = [q for q in range(2, 1001)
                if q in {least_prime_factor(q) ** e for e in (1, 2, 3)}]
    assert prime_powers_up_to(1000) == expected
    assert len(expected) == 183


LARGE_PRIME = 2**61 - 1
SEMIPRIME = (2**31 - 1) * (2**31 - 19)


@pytest.mark.parametrize("argv", [
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", str(SEMIPRIME)),
    ("count", "--n", "2", "--q", str(SEMIPRIME)),
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", str(2**89 - 1)),
    ("verify", "--suites", "strata", "--max-n", "1000000", "--budget", "10"),
    ("verify", "--suites", "uniformity", "--max-q", str(LARGE_PRIME)),
    ("verify", "--suites", "nearby,nearby"),
    # point degrees above MAX_GRID_N, refused before Ben-Or or the
    # coefficient list runs; a reducible one is named by its polynomial
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t^99999999999"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t^521+t^32+1"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t^1279+t^216+1"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t^64+1"),
    # total multiplicities above MAX_GRID_N
    ("equations", "--n", "5000"),
    ("equations", "--n", "100000"),
    ("equations", "--n", "32,33"),
    # integer fields longer than int() converts, refused by their length
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t^" + "9" * 5000),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t:" + "9" * 5000),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "9" * 5000 + "t+1"),
    ("count", "--n", "9" * 5000, "--q", "2"),
    ("count", "--n", "1," + "9" * 5000, "--q", "2"),
    ("count", "--n", "2", "--q", "2", "--d", "9" * 5000),
    ("equations", "--n", "9" * 5000),
    ("equations", "--n", "1," + "9" * 5000),
    # q of 2^1024 or more: 309 digits or more, above the limit of a field
    ("count", "--n", "2", "--q", "1" + "0" * 400),
    ("trace", "--object", "plo", "--q", "1" + "0" * 400, "--divisor", "t:2"),
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", "1" + "0" * 400),
    # integer fields that are not integers, named by the field
    ("count", "--n", "2,,", "--q", "2"),
    ("count", "--n", "2", "--q", "2", "--d", "abc"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t:x"),
    ("equations", "--n", "a"),
    # text int() reads but that is not an optionally signed run of ASCII
    # digits: underscores, non-ASCII digits (an Arabic-Indic three), spaces
    ("equations", "--n", "1_0"),
    ("count", "--n", "2", "--q", "3", "--d", "\u0663"),
    ("count", "--n", "1, 1", "--q", "3"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "t:\u0663"),
    ("trace", "--object", "plo", "--q", "2", "--divisor", "\u0661t+1"),
    # and the same in the integer options argparse reads
    ("count", "--n", "2", "--q", "1_1"),
    ("count", "--n", "2", "--q", "\u0663"),
    ("count", "--n", "2", "--q", " 3"),
    ("count", "--n", "2", "--q", "3", "--budget", "1_000"),
    ("count", "--n", "2", "--q", "9" * 5000),
    ("verify", "--max-n", "1_0"),
    ("verify", "--max-q", "\u0664"),
    ("verify", "--max-degree", "0x2"),
    ("verify", "--max-k", "+_4"),
    ("verify", "--budget", "1e4"),
    ("trace", "--object", "plo", "--q", "1_1", "--divisor", "t:2"),
    ("schur-weyl", "--k", "\u0663"),
    ("character-table", "--k", "1_4"),
    ("drinfeld", "--a1", "1_0", "--a2", "0", "--q", "3"),
    ("drinfeld", "--a1", "0", "--a2", "\u0663", "--q", "3"),
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", "\uff13"),
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", "3", "--budget", "9" * 5000),
])
def test_huge_arguments_exit_2_within_a_second(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4300" not in err and len(err) < 200
    assert "invalid literal" not in err


@pytest.mark.parametrize("argv, message", [
    (("count", "--n", "2,,", "--q", "2"), "multiplicity '' is not an integer"),
    (("count", "--n", "2", "--q", "2", "--d", "abc"), "d-value 'abc' is not an integer"),
    (("trace", "--object", "plo", "--q", "2", "--divisor", "t:x"),
     "multiplicity 'x' is not an integer"),
    (("equations", "--n", "a"), "multiplicity 'a' is not an integer"),
], ids=["count-n", "count-d", "trace-divisor", "equations-n"])
def test_a_non_integer_field_is_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader is gone before the table is written, as in `| head -c 10`
    src = str(Path(vinbun.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "vinbun.cli", "character-table",
                             "--k", "14"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_grpsi_trace_at_a_huge_multiplicity_answers_within_a_second(capsys):
    # the local factor sums over the exterior piece's share b <= 2, not over
    # every composition of m into the three pieces
    kcalc._type_trace.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "trace", "--object", "grpsi", "--q", "3",
                           "--divisor", "t:100000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"-200000": 1, "-199998": -1}


def test_drinfeld_at_a_large_prime_answers_within_a_second(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "drinfeld", "--a1", "0", "--a2", "0",
                           "--q", str(LARGE_PRIME))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["value"] == 1 - LARGE_PRIME**2


def test_count_command(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--q", "3", "--d", "any")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3**3 + 3**2 - 3
    assert "elapsed" in payload


@pytest.mark.parametrize("argv", [
    ["verify", "--jobs", "2"],
    ["count", "--n", "1,1", "--q", "3", "--jobs", "4"],
    ["count", "--n", "1,1", "--q", "3", "--naive"],
    # trace reads n off the divisor; every other --n exited 2
    ["trace", "--object", "plo", "--n", "2", "--q", "2", "--divisor", "t:2"],
])
def test_removed_jobs_and_naive_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--budget"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_count_rejects_nonpositive_jobs_and_budget(capsys, option, value):
    code, out, err = run_cli(capsys, "count", "--n", "2", "--q", "3", option, value)
    assert code == 2
    assert out == ""
    assert "budget must be positive" in err


def test_trace_command(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--object", "omega", "--q", "3", "--divisor", "t:1"
    )
    assert code == 0
    assert json.loads(out) == {"0": 1, "-2": -1}
    code, out, _ = run_cli(
        capsys, "trace", "--object", "plo", "--q", "2", "--divisor", "t:2"
    )
    assert code == 0
    assert json.loads(out) == {"-2": 1}
    code, out, _ = run_cli(
        capsys, "trace", "--object", "kelement", "--q", "2", "--divisor", "t:2"
    )
    assert code == 0
    assert json.loads(out) == {"-2": 1}


def test_kelement_trace_refuses_before_building_the_class(capsys, monkeypatch):
    def no_k_element(k):
        raise AssertionError("plo_k_element must not run")

    monkeypatch.setattr(kcalc, "plo_k_element", no_k_element)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "trace", "--object", "kelement", "--q", "2",
                             "--divisor", "t:100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_trace_command_rejects_reducible(capsys):
    code, _, err = run_cli(
        capsys, "trace", "--object", "omega", "--q", "2", "--divisor", "t^2+1:1"
    )
    assert code == 2
    assert err == "error: t^2+1 is reducible over F_2\n"


def test_trace_command_names_a_stray_sign(capsys):
    # "+" has no term at all, and "t+-1" is not t-1: both are refused whole
    for text in ("+", "t+-1"):
        code, out, err = run_cli(
            capsys, "trace", "--object", "omega", "--q", "3", "--divisor", text
        )
        assert (code, out, err) == (2, "", f"error: malformed polynomial {text!r}\n")


def test_equations_command(capsys):
    code, out, _ = run_cli(capsys, "equations", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "a[-2]*b[1] + a[-1]*b[0] = 0"
    code, out, _ = run_cli(capsys, "equations", "--n", "1,1")
    assert "a1[-1]*b1[0] = a2[-1]*b2[0]" in out


def test_schur_weyl_command(capsys):
    code, out, _ = run_cli(capsys, "schur-weyl", "--k", "3")
    assert code == 0
    assert "MATCH" in out


def test_drinfeld_command(capsys):
    code, out, _ = run_cli(
        capsys, "drinfeld", "--a1", "0", "--a2", "0", "--q", "3",
        "--include-nonunit-isos",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1 - 9
    assert payload["isom"] == 24
    assert "value_including_nonunit_isos" in payload
    code, out, _ = run_cli(
        capsys, "drinfeld", "--a1", "1", "--a2", "0", "--q", "2", "--histogram"
    )
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["histogram"]["[]"] == 6


def test_drinfeld_without_histogram_sweeps_nothing(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("Hom space swept")

    monkeypatch.setattr(drinfeld, "iter_hom_matrices", no_sweep)
    code, out, _ = run_cli(capsys, "drinfeld", "--a1", "1", "--a2", "1", "--q", "7")
    assert code == 0
    assert json.loads(out) == {"boundary_sum": 3828, "isom": 2058, "value": -1770}


@pytest.mark.parametrize("extra", [(), ("--include-nonunit-isos",)])
@pytest.mark.parametrize("a1,a2,q", [(0, 0, 3), (1, 1, 7), (2, 1, 4), (1, 0, 5)])
def test_drinfeld_output_matches_the_sweep(capsys, monkeypatch, a1, a2, q, extra):
    argv = ("drinfeld", "--a1", str(a1), "--a2", str(a2), "--q", str(q)) + extra
    fast = run_cli(capsys, *argv)
    monkeypatch.setattr(
        drinfeld, "rank_one_value",
        lambda a1, a2, q, budget: drinfeld.drinfeld_value(
            a1, a2, field_from_q(q), budget=budget),
    )
    assert run_cli(capsys, *argv) == fast


def test_drinfeld_rejects_negative_a(capsys):
    for argv in (("--a1", "-1", "--a2", "0"), ("--a1", "0", "--a2", "-1"),
                 ("--a1", "-1", "--a2", "0", "--histogram")):
        code, out, err = run_cli(capsys, "drinfeld", *argv, "--q", "3")
        assert code == 2
        assert out == ""
        assert "need a >= 0" in err


@pytest.mark.parametrize("argv", [
    ("drinfeld", "--a1", "1000000", "--a2", "0", "--q", "7"),
    ("drinfeld", "--a1", str(10**18), "--a2", "1", "--q", "7", "--histogram"),
    ("count", "--n", str(10**18), "--q", "7"),
])
def test_huge_sizes_exit_3_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_drinfeld_rejects_nonpositive_budget(capsys, value):
    code, out, err = run_cli(
        capsys, "drinfeld", "--a1", "0", "--a2", "0", "--q", "3", "--budget", value
    )
    assert code == 2
    assert out == ""
    assert "budget must be positive" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_character_table_rejects_nonpositive_k(capsys, k):
    code, out, err = run_cli(capsys, "character-table", "--k", k)
    assert code == 2
    assert out == ""
    assert "k must be >= 1" in err


def test_character_table_rejects_k_beyond_limit(capsys):
    k = symrep.MAX_TABLE_K
    code, out, err = run_cli(capsys, "character-table", "--k", str(k + 1))
    assert code == 2
    assert out == ""
    assert f"<= {k}" in err
    with pytest.raises(ValueError):
        symrep.character_table(k + 1)


def test_character_table_command(capsys):
    code, out, _ = run_cli(capsys, "character-table", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 irreps


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "schurweyl", "--max-k", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["summary"]["fail"] == 0
    assert len(report["checks"]) == 4


def test_verify_reconstruct_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "reconstruct")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "golden-case" in names and "random-roundtrips" in names
    assert report["summary"]["fail"] == 0


def test_reconstruct_suite_solves_the_trials_of_the_randint_choice_loop(monkeypatch):
    # the suite draws from Random(0).getrandbits; every delta it solves must
    # be the one the rng.randint/rng.choice loop over Random(0) gives
    rng = random.Random(0)
    reps = [(2,), (1, 1)]
    expected = []
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            sym = kcalc.symbol(2, rng.choice(reps), rng.randint(-5, 5))
            terms[sym] = terms.get(sym, 0) + rng.randint(-3, 3)
        g = kcalc.KElement(terms)
        negated = {s: -c for s, c in g.twisted(-1).terms.items()}
        expected.append(g + kcalc.KElement(negated))
    solve = kcalc.reconstruct_from_difference
    seen = []
    monkeypatch.setattr(kcalc, "reconstruct_from_difference",
                        lambda delta: seen.append(delta) or solve(delta))
    checks = cli.suite_reconstruct(RunConfig(suites=("reconstruct",)))
    assert [c["status"] for c in checks] == ["pass", "pass"]
    assert len(seen) == 1001
    assert seen[1:] == expected


def test_opt_in_suites_stay_out_of_the_default_run():
    # the default report is pinned; a bare verify lists exactly these
    assert ALL_SUITES[:len(DEFAULT_SUITES)] == DEFAULT_SUITES
    assert "rankone" in ALL_SUITES and "rankone" not in DEFAULT_SUITES
    assert RunConfig().suites == DEFAULT_SUITES


def test_verify_rankone_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "rankone", "--max-q", "2")
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    # 16 sweeps over F_2, 9 fields x 144 pairs against the closed form
    assert names.count("sweep-vs-rank-one") == 16
    assert names.count("closed-form") == 1296
    assert report["summary"] == {"pass": 1312, "fail": 0, "skipped": 0}


def test_verify_rankone_suite_skips_sweeps_over_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "rankone",
                           "--max-q", "3", "--budget", "600")
    assert code == 0
    report = json.loads(out)
    skipped = {c["name"] for c in report["checks"] if c["status"] == "skipped"}
    assert skipped == {"sweep-vs-rank-one"}
    assert report["summary"]["fail"] == 0


def test_verify_budget_skips_not_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "omega,uniformity", "--max-n", "3",
        "--max-q", "3", "--budget", "10",
    )
    assert code == 0
    report = json.loads(out)
    # the big fibers blow the tiny budget and must be skipped, not failed
    skipped = {c["suite"] for c in report["checks"] if c["status"] == "skipped"}
    assert skipped == {"omega", "uniformity"}
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] + report["summary"]["skipped"] == len(
        report["checks"]
    )


def test_strata_suite_forwards_budget_to_b_locus_total(monkeypatch):
    # a budget above the module default must reach every count of the suite
    monkeypatch.setattr(localmodel, "POINT_COUNT_BUDGET", 20)
    report = run_suite(
        RunConfig(suites=("strata",), max_n=3, max_q=2, budget=10**6)
    )
    assert report["summary"] == {"pass": 6, "fail": 0, "skipped": 0}


def test_budget_starved_report_is_pinned(capsys):
    # pins the layout of skipped entries across every budgeted suite
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "omega,strata,quadric,drinfeld",
        "--max-n", "3", "--max-q", "4", "--budget", "10",
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert (summary["pass"], summary["skipped"], summary["fail"]) == (6, 74, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == STARVED_REPORT_SHA256


def test_verify_reports_byte_identical_across_runs():
    config = RunConfig(suites=("quadric", "uniformity"), max_q=4)
    r1 = render_report(run_suite(config), "json")
    r2 = render_report(run_suite(config), "json")
    assert r1 == r2


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "quadric", "--max-q", "3",
        "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "suite,name,params,lhs,rhs,status"


@pytest.mark.parametrize("option,value", [
    ("--max-n", "0"), ("--max-q", "1"), ("--max-degree", "-1"), ("--max-k", "0"),
])
def test_verify_rejects_empty_grid(capsys, option, value):
    # a grid with no points would report no checks and pass vacuously
    code, out, err = run_cli(capsys, "verify", "--suites", "uniformity", option, value)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


def test_verify_rejects_an_empty_suites_value(capsys):
    # `--suites=` names no suite; it does not fall back to the default suites
    code, out, err = run_cli(capsys, "verify", "--suites=")
    assert code == 2
    assert out == ""
    assert err == "error: suites must be nonempty\n"


def test_verify_rejects_max_k_beyond_brute_force(capsys, monkeypatch):
    # refused before any suite runs, not after the decompositions up to k = 8
    def no_brute_force(k):
        raise AssertionError(f"brute force ran for k = {k}")

    monkeypatch.setattr(lefschetz, "brute_force_schur_weyl", no_brute_force)
    code, out, err = run_cli(
        capsys, "verify", "--suites", "schurweyl",
        "--max-k", str(lefschetz.MAX_BRUTE_K + 1),
    )
    assert code == 2
    assert out == ""
    assert f"max_k must be <= {lefschetz.MAX_BRUTE_K}" in err
    with pytest.raises(ValueError):
        RunConfig(max_k=lefschetz.MAX_BRUTE_K + 1)
    RunConfig(max_k=lefschetz.MAX_BRUTE_K)


def test_default_verify_report_is_pinned(capsys):
    # the default-grid report stays byte-identical across changes
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_REPORT_SHA256


def test_nearby_traces_report_is_pinned(capsys):
    # the nearby grid of the verify-traces benchmark: 1789 checks, 36 types
    code, out, _ = run_cli(capsys, "verify", "--suites", "nearby", "--max-n", "5",
                           "--max-q", "4", "--max-degree", "5")
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 1789, "fail": 0, "skipped": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == TRACES_REPORT_SHA256


# field products made by the grid below from cold caches, all of them over
# F_2 while the extension fields are built (irreducibility tests and log
# tables); the fiber kernels take none, since the torus writes every d != 0
# entry of a d-table
DEPTH_GRID_MULS = 200


def test_enumerators_at_depth_count_fibers_without_listing_points(capsys, monkeypatch):
    # the CI grid "Enumerators at depth": listing every point took 4.5 s there,
    # inside its timeout, so the per-point paths are counted instead
    for module in (arith, localmodel):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    calls = {"iter": 0, "mul": 0}
    iter_solutions, mul = localmodel._iter_factor_solutions, arith.PrimePowerField.mul

    def counted_iter(*args):
        calls["iter"] += 1
        return iter_solutions(*args)

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    monkeypatch.setattr(localmodel, "_iter_factor_solutions", counted_iter)
    monkeypatch.setattr(arith.PrimePowerField, "mul", counted_mul)
    code, out, _ = run_cli(capsys, "verify", "--suites", "omega,strata,uniformity,quadric",
                           "--max-n", "6", "--max-q", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc06f11be72fde91fbbee633e2b8695a4a38f2dcce9f79fc38fcd40e80a56b5d"
    )
    assert calls["iter"] == 0
    assert calls["mul"] <= 2 * DEPTH_GRID_MULS


def test_nearby_suite_skips_degrees_over_the_divisor_budget(capsys):
    # --max-degree 30 builds every point, so degree n is charged all 2^n
    # divisors on top of the 2^n - 2 of lower degree built before it
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suites", "nearby", "--max-n", "30",
                           "--max-q", "2", "--max-degree", "30", "--budget", "1000")
    assert time.perf_counter() - start < 5
    assert code == 0
    skipped = {c["params"]: c["lhs"] for c in json.loads(out)["checks"]
               if c["status"] == "skipped"}
    assert sorted(skipped) == sorted(f"q=2 n={n}" for n in range(9, 31))
    assert skipped["q=2 n=9"] == ("divisors of degree 9 over F_2 and 510 of lower "
                                  "degree: 1022 candidates exceed the budget 1000")


def test_wide_nearby_grid_builds_at_most_the_budget_per_field(capsys):
    # degree 64 over F_2 is 1,089 divisors over points of degree <= 2, so only
    # the running total over each field stops the grid at the budget
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suites", "nearby", "--max-n", "64",
                           "--max-q", "3", "--budget", "5000")
    assert time.perf_counter() - start < 5
    assert code == 0
    checks = json.loads(out)["checks"]
    for q in (2, 3):
        field = [c for c in checks if c["params"].startswith(f"q={q} ")]
        passed = sum(c["status"] == "pass" for c in field)
        skipped = [int(c["params"].split("n=")[1]) for c in field if c["status"] == "skipped"]
        # every degree below the first skipped one is built, and that one
        # would take the field over the budget
        first = min(skipped)
        assert sorted(skipped) == list(range(first, 65))
        assert passed == sum(arith.divisor_count(q, n, 2) for n in range(1, first))
        assert passed <= 5000 < passed + arith.divisor_count(q, first, 2)


def test_nearby_suite_builds_only_divisors_within_max_degree(capsys):
    # 614 checks out of the 262,142 divisors of degree <= 17 over F_2; degree
    # 17 is charged its 90 divisors over points of degree <= 2, not 2^17
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suites", "nearby", "--max-n", "17",
                           "--max-q", "2")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 614, "fail": 0, "skipped": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "79f33d757e67145469cf22c7a629af5540c3182e846dd91d6f11100e70ff6c39"
    )


def test_omega_suite_builds_only_divisors_of_rational_points(capsys):
    # n + 1 divisors of degree n over F_2, not 2^n
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suites", "omega", "--max-n", "30",
                           "--max-q", "2", "--budget", "1000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["summary"] == {"pass": 61, "fail": 0, "skipped": 434}


def test_divisor_budget_refuses_before_enumerating(monkeypatch):
    monkeypatch.delenv("VINBUN_BUDGET", raising=False)
    f2 = field_from_q(2)
    misses = arith.enumerate_divisors.cache_info().misses
    with pytest.raises(BudgetExceededError, match="131072 candidates exceed the budget 100000"):
        budgeted_divisors(f2, 17, None)
    # below the degree, the charge is the count of the divisors it builds
    with pytest.raises(BudgetExceededError, match="90 candidates exceed the budget 89"):
        budgeted_divisors(f2, 17, 89, max_degree=2)
    assert arith.enumerate_divisors.cache_info().misses == misses
    # and what was built before counts against the same budget
    with pytest.raises(BudgetExceededError, match="F_2 and 11 of lower degree: "
                       "101 candidates exceed the budget 100"):
        budgeted_divisors(f2, 17, 100, max_degree=2, built=11)
    assert arith.enumerate_divisors.cache_info().misses == misses
    assert len(budgeted_divisors(f2, 3, None)) == 8
    assert len(budgeted_divisors(f2, 17, 90, max_degree=2)) == 90
    assert len(budgeted_divisors(f2, 17, 100, max_degree=2, built=10)) == 90


def test_env_var_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("VINBUN_BUDGET", "10")
    code, _, err = run_cli(capsys, "count", "--n", "3", "--q", "5")
    assert code == 3
    assert "budget" in err
    # an explicit --budget wins over the environment, either way round
    monkeypatch.setenv("VINBUN_BUDGET", "100000")
    code, _, err = run_cli(capsys, "count", "--n", "3", "--q", "5", "--budget", "10")
    assert code == 3
    assert "exceed the budget 10" in err
    monkeypatch.setenv("VINBUN_BUDGET", "10")
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--q", "5",
                           "--budget", "100000")
    assert code == 0
    assert json.loads(out)["count"] == 5**4 + 2 * 4 * 25


@pytest.mark.parametrize("value", ["-1", "0", "abc"])
@pytest.mark.parametrize("argv", [
    ("count", "--n", "2", "--q", "3"),
    ("verify", "--suites", "omega,quadric"),
    # no budgeted suite: refused by RunConfig before any suite runs
    ("verify", "--suites", "nearby,schurweyl,reconstruct"),
    ("drinfeld", "--a1", "0", "--a2", "0", "--q", "3"),
])
def test_invalid_env_var_budget_exits_2(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("VINBUN_BUDGET", value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "budget must be positive" in err
    assert f"VINBUN_BUDGET={value!r}" in err


def test_verify_output_file(tmp_path, capsys):
    for fmt in ("json", "csv"):
        path = tmp_path / f"report.{fmt}"
        code, out, _ = run_cli(
            capsys, "verify", "--suites", "schurweyl", "--max-k", "2",
            "--output", str(path), "--format", fmt,
        )
        assert code == 0
        assert path.read_bytes() == out.encode()


report_strings = st.text()  # any code point: non-ASCII, quotes, backslashes, controls
report_checks = st.lists(st.fixed_dictionaries({
    "suite": report_strings, "name": report_strings, "params": report_strings,
    "lhs": report_strings, "rhs": report_strings,
    "status": st.sampled_from(["pass", "fail", "skipped"]),
}), max_size=5)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@example(checks=[], suites=["nearby"])
@given(checks=report_checks, suites=st.lists(st.sampled_from(ALL_SUITES), max_size=3))
def test_json_report_writer_matches_json_dumps(checks, suites):
    # json.dumps is the oracle of the direct writer
    report = {
        "schema": 1,
        "suites": suites,
        "checks": checks,
        "summary": {s: sum(c["status"] == s for c in checks)
                    for s in ("pass", "fail", "skipped")},
    }
    assert render_report(report, "json") == json.dumps(report, indent=2,
                                                       sort_keys=True) + "\n"


def test_fault_inside_a_suite_is_one_fail_check(capsys, monkeypatch):
    # a faulty K-element difference makes reconstruct raise
    # ReconstructionError, a ValueError: that suite reports one failed check,
    # the other suites report theirs and the run exits 1, not 2
    monkeypatch.setattr(kcalc.KElement, "__sub__",
                        lambda self, other: self._combine(other, 1))
    code, out, err = run_cli(capsys, "verify", "--suites", "reconstruct,schurweyl",
                             "--max-k", "2")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["summary"] == {"pass": 2, "fail": 1, "skipped": 0}
    [failed] = [c for c in report["checks"] if c["status"] == "fail"]
    assert (failed["suite"], failed["name"], failed["params"]) == (
        "reconstruct", "error", "ReconstructionError")
    assert [c["suite"] for c in report["checks"]] == ["reconstruct", "schurweyl",
                                                       "schurweyl"]


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_verify_unwritable_output_exits_2_before_any_suite(tmp_path, capsys, monkeypatch,
                                                           where):
    # a directory that does not exist, and a path that is a directory
    monkeypatch.setattr(cli, "run_suite", lambda config: pytest.fail("suites ran"))
    code, out, err = run_cli(capsys, "verify", "--suites", "quadric",
                             "--output", str(tmp_path / where))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report to ")
    assert "Traceback" not in err


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the value types are built without dataclasses, which pulls in inspect,
    # ast, dis and tokenize when imported
    src = str(Path(vinbun.__file__).resolve().parent.parent)
    probe = (
        f"import json, sys; sys.path.insert(0, {src!r}); import vinbun.cli; "
        "print(json.dumps([m in sys.modules for m in ('dataclasses', 'inspect')]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == [False, False]


def test_json_verify_does_not_import_csv():
    # csv is imported by the CSV report and the character table only
    src = str(Path(vinbun.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import vinbun.cli; "
        "vinbun.cli.main(['verify', '--suites', 'schurweyl', '--max-k', '1']); "
        "print('csv' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_no_module_imports_typing_or_dataclasses():
    package = Path(vinbun.__file__).resolve().parent
    pattern = re.compile(r"^\s*(from|import)\s+(typing|dataclasses)\b", re.M)
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if pattern.search(path.read_text())]
    assert offenders == []


def test_cli_import_needs_no_numpy_or_sympy():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(vinbun.__file__).resolve().parent.parent)
    probe = (
        f"import json, sys; sys.path.insert(0, {src!r}); import vinbun.cli; "
        "print(json.dumps([m in sys.modules "
        "for m in ('numpy', 'sympy', 'vinbun.lefschetz')]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == [False, False, True]


# exit codes under hostile input: integer options from negative to huge, q
# that are not prime powers or are large.  Options are passed as --name=value, so that
# argparse reads a value like "-3,1" as a value.  Budgets stay at most 10^4, so every run the
# budget admits is short; an unbudgeted run may rightly take long.
FUZZ_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                         derandomize=True)
fuzz_ints = st.one_of(st.integers(0, 6), st.integers(-5, 20),
                      st.integers(-(10**30), 10**30))
# half the draws are fields, so that runs get past field_from_q
fuzz_qs = st.booleans().flatmap(lambda field: st.sampled_from(
    prime_powers_up_to(9)) if field else st.one_of(
    st.integers(-5, 64),
    st.integers(1, 10**18).map(lambda k: 6 * k),  # never a prime power
    st.integers(-(10**30), 1),
    # large primes, their squares and cubes (some over MAX_Q), products of
    # two large primes, and any large number
    st.sampled_from([2**31 - 1, 2**31 - 19, 10**9 + 7, LARGE_PRIME,
                     2**89 - 1]).flatmap(lambda p: st.sampled_from(
                         [p, p * p, p**3, p * (2**31 - 1), p * LARGE_PRIME])),
    st.integers(2**40, 2**90),
))
fuzz_budgets = st.one_of(st.integers(1, 10**4),
                         st.integers(-(10**18), 10**4)).map(str)


def exit_code(argv):
    """main's exit code, argparse errors included; stdout and stderr are
    dropped.  Any exception other than SystemExit propagates."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@FUZZ_SETTINGS
@given(a1=fuzz_ints, a2=fuzz_ints, q=fuzz_qs, budget=fuzz_budgets,
       flags=st.lists(st.sampled_from(["--histogram", "--include-nonunit-isos"]),
                      unique=True))
def test_drinfeld_fuzzed_argv_exits_0_2_or_3(a1, a2, q, budget, flags):
    argv = ["drinfeld", f"--a1={a1}", f"--a2={a2}", f"--q={q}",
            f"--budget={budget}", *flags]
    assert exit_code(argv) in (0, 2, 3), argv


@FUZZ_SETTINGS
@given(ns=st.lists(st.one_of(st.integers(1, 4), fuzz_ints), min_size=1,
                   max_size=3),
       q=fuzz_qs,
       d=st.one_of(st.sampled_from(["any", "zero", "nonzero", "x"]),
                   st.integers(0, 3).map(str), fuzz_ints.map(str)),
       budget=fuzz_budgets)
def test_count_fuzzed_argv_exits_0_2_or_3(ns, q, d, budget):
    argv = ["count", f"--n={','.join(map(str, ns))}", f"--q={q}", f"--d={d}",
            f"--budget={budget}"]
    assert exit_code(argv) in (0, 2, 3), argv
