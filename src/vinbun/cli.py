"""Batch driver: named verification suites over (n, q, divisor) grids, plus
direct access to the counters and trace functions.

Commands: verify, count, trace, equations, schur-weyl, drinfeld,
character-table.  A bare `verify` runs DEFAULT_SUITES; the opt-in suites of
ALL_SUITES run only when named.  Reports are deterministic (entries
order-normalized, fixed RNG seeds), so repeated runs emit byte-identical
output; the process exits nonzero iff some check failed.  Each suite
compares the two sides that the library's identity functions return.
Budget overruns are reported as "skipped", never as failures.  An explicit
--budget wins over the VINBUN_BUDGET environment variable, which wins over
the default budgets.
"""

import argparse
import io
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from itertools import product

from vinbun import arith, drinfeld, kcalc, lefschetz, localmodel, symrep
from vinbun.arith import MAX_GRID_N, field_from_q
from vinbun.budget import (DIVISOR_BUDGET, BudgetExceededError, check_budget,
                           check_power_budget)

DEFAULT_SUITES = (
    "nearby",
    "omega",
    "strata",
    "schurweyl",
    "reconstruct",
    "drinfeld",
    "quadric",
    "uniformity",
)
ALL_SUITES = DEFAULT_SUITES + ("rankone",)
# verify refuses larger grids, with MAX_GRID_N (README, "Budgets and determinism")
MAX_GRID_Q = 1024


def prime_powers_up_to(limit):
    """Every q <= limit that `field_from_q` accepts: p^e with e <= 3."""
    return [q for q in range(2, limit + 1) if arith.prime_power(q)]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


class RunConfig:
    __slots__ = "suites max_n max_q max_degree max_k budget".split()

    def __init__(self, suites=DEFAULT_SUITES, max_n=3, max_q=4, max_degree=2,
                 max_k=4, budget=None):
        self.suites, self.max_n, self.max_q = suites, max_n, max_q
        self.max_degree, self.max_k, self.budget = max_degree, max_k, budget
        if not self.suites:
            raise ValueError("suites must be nonempty")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        if len(set(self.suites)) != len(self.suites):
            raise ValueError(f"duplicate suites: {','.join(self.suites)}")
        # resolves --budget or VINBUN_BUDGET, so a bad one fails before any suite
        check_budget(0, self.budget, 1, "verify")
        if min(self.max_n, self.max_degree, self.max_k) < 1 or self.max_q < 2:
            raise ValueError("max_n, max_degree and max_k must be >= 1 "
                             "and max_q >= 2")
        if self.max_n > MAX_GRID_N or self.max_q > MAX_GRID_Q:
            raise ValueError(f"max_n must be <= {MAX_GRID_N} and max_q <= {MAX_GRID_Q}")
        if self.max_k > lefschetz.MAX_BRUTE_K:
            raise ValueError(f"max_k must be <= {lefschetz.MAX_BRUTE_K}")


def _check(suite, name, params, lhs, rhs, ok):
    return {
        "suite": suite,
        "name": name,
        "params": params,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "status": "pass" if ok else "fail",
    }


@contextmanager
def _skip_over_budget(checks, suite, name, params):
    """Run the block; if an enumeration in it exceeds its budget, record one
    `skipped` entry instead of the block's checks."""
    try:
        yield
    except BudgetExceededError as exc:
        checks.append(dict(_check(suite, name, params, exc, "", False), status="skipped"))


def budgeted_divisors(fld, n, budget, max_degree=None, built=0):
    """`arith.enumerate_divisors(fld, n, max_degree)`, refused before any
    divisor is built when its `arith.divisor_count` divisors, added to the
    `built` divisors of lower degree already built, exceed the budget."""
    q = fld.q
    what = f"divisors of degree {n} over F_{q}"
    if built:
        what += f" and {built} of lower degree"
    check_power_budget(arith.divisor_count_exponent(q, n, max_degree),
                       lambda: built + arith.divisor_count(q, n, max_degree),
                       budget, DIVISOR_BUDGET, what)
    return arith.enumerate_divisors(fld, n, max_degree)


def suite_nearby(config):
    checks = []
    by_type = {}  # divisor type -> its check, rendered once per run
    for q in prime_powers_up_to(config.max_q):
        fld = field_from_q(q)
        built = 0  # the budget bounds the divisors built over each field
        names = {}  # point -> its text, so each point is formatted once per field
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(checks, "nearby", "nearby-vs-boundary", params):
                divisors = budgeted_divisors(fld, n, config.budget, config.max_degree,
                                             built)
                built += len(divisors)
                for d in divisors:
                    dtype = kcalc.divisor_type(d)
                    check = by_type.get(dtype)
                    if check is None:
                        lhs, rhs = kcalc.nearby_vs_boundary(n, d)
                        check = by_type[dtype] = _check("nearby", "nearby-vs-boundary",
                                                        None, lhs, rhs, lhs == rhs)
                    d_text = arith.format_divisor(fld, d, names)
                    checks.append(dict(check, params=f"{params} D={d_text}"))
    return checks


def suite_omega(config):
    checks = []
    for q in prime_powers_up_to(config.max_q):
        fld = field_from_q(q)
        for n in range(1, config.max_n + 1):
            for d in arith.enumerate_divisors(fld, n, 1):
                params = f"q={q} n={n} D={arith.format_divisor(fld, d)}"
                with _skip_over_budget(checks, "omega", "g-locus-count", params):
                    count, predicted, closed_form = localmodel.omega_point_count(
                        n, d, fld, config.budget
                    )
                    checks.append(
                        _check(
                            "omega",
                            "omega-point-count",
                            params,
                            count,
                            f"{predicted} (closed form {closed_form})",
                            count == predicted == closed_form,
                        )
                    )
    return checks


def suite_strata(config):
    checks = []
    for q in prime_powers_up_to(config.max_q):
        fld = field_from_q(q)
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(checks, "strata", "defect-strata", params):
                counts = localmodel.strata_counts(n, fld, config.budget)
                total = localmodel.count_points(
                    localmodel.build_system([n]), fld, "zero", config.budget
                )
                expected = {
                    k: v
                    for k, v in localmodel.expected_strata_counts(n, q).items()
                    if v
                }
                checks.append(
                    _check("strata", "defect-strata", params, counts, expected,
                           counts == expected)
                )
                checks.append(
                    _check("strata", "b-locus-total", params,
                           sum(counts.values()), total,
                           sum(counts.values()) == total)
                )
    return checks


def suite_schurweyl(config):
    checks = []
    for k in range(1, config.max_k + 1):
        brute = lefschetz.brute_force_schur_weyl(k)
        predicted = lefschetz.predicted_schur_weyl(k)
        checks.append(
            _check(
                "schurweyl",
                "brute-vs-predicted",
                f"k={k}",
                brute.describe(),
                predicted.describe(),
                brute == predicted and brute.total_dimension() == 1 << k,
            )
        )
    return checks


def _draw_below(bits, n):
    """A uniform draw from range(n) off the bit source `bits`, by rejection
    as `random.Random` draws for `randrange` and `choice`: the same stream
    gives the same numbers."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def suite_reconstruct(config):
    checks = []
    golden_delta = kcalc.KElement(
        {
            kcalc.symbol(2, "trivial", 0): 1,
            kcalc.symbol(2, "trivial", -1): -1,
            kcalc.symbol(2, "sign", 1): 1,
            kcalc.symbol(2, "sign", -2): -1,
        }
    )
    expected = kcalc.KElement(
        {
            kcalc.symbol(2, "sign", 1): 1,
            kcalc.symbol(2, "sign", 0): 1,
            kcalc.symbol(2, "sign", -1): 1,
            kcalc.symbol(2, "trivial", 0): 1,
        }
    )
    got = kcalc.reconstruct_from_difference(golden_delta)
    checks.append(
        _check("reconstruct", "golden-case", "k=2", got, expected, got == expected)
    )
    # symbols[r][t + 5] is the symbol of rep r twisted by t
    symbols = [[kcalc.symbol(2, rep, t) for t in range(-5, 6)]
               for rep in ((2,), (1, 1))]
    bits = random.Random(0).getrandbits
    failures = 0
    trials = 1000
    for _ in range(trials):
        terms = {}
        for _ in range(1 + _draw_below(bits, 10)):
            sym = symbols[_draw_below(bits, 2)][_draw_below(bits, 11)]
            terms[sym] = terms.get(sym, 0) + _draw_below(bits, 7) - 3
        g = kcalc.KElement(terms)
        if kcalc.reconstruct_from_difference(g - g.twisted(-1)) != g:
            failures += 1
    checks.append(
        _check("reconstruct", "random-roundtrips", f"trials={trials}",
               f"{trials - failures} ok", f"{trials} ok", failures == 0)
    )
    return checks


def suite_drinfeld(config):
    checks = []
    for q in prime_powers_up_to(min(config.max_q, 5)):
        fld = field_from_q(q)
        params = f"a1=0 a2=0 q={q}"
        with _skip_over_budget(checks, "drinfeld", "value-0-0", params):
            res = drinfeld.drinfeld_value(0, 0, fld, budget=config.budget)
            checks.append(
                _check("drinfeld", "value-0-0", params, res.value, 1 - q * q,
                       res.value == 1 - q * q)
            )
    params = "a1=1 a2=0 q=2"
    with _skip_over_budget(checks, "drinfeld", "value-1-0", params):
        res = drinfeld.drinfeld_value(1, 0, field_from_q(2), budget=config.budget)
        checks.append(
            _check("drinfeld", "value-1-0", params, res.value, 3, res.value == 3)
        )
    return checks


def suite_rankone(config):
    """The rank-one sum against the Hom sweep on every result field, and
    against the observed closed form on a grid the sweep cannot reach."""
    checks = []
    for q in prime_powers_up_to(min(config.max_q, 5)):
        fld = field_from_q(q)
        for a1, a2 in product(range(4), repeat=2):
            params = f"a1={a1} a2={a2} q={q}"
            with _skip_over_budget(checks, "rankone", "sweep-vs-rank-one", params):
                sweep = drinfeld.drinfeld_value(a1, a2, fld, budget=config.budget)
                fast = drinfeld.rank_one_value(a1, a2, q, budget=config.budget)
                checks.append(_check("rankone", "sweep-vs-rank-one", params,
                                     sweep, fast, sweep == fast))
    for q in prime_powers_up_to(13):
        for a1, a2 in product(range(12), repeat=2):
            params = f"a1={a1} a2={a2} q={q}"
            with _skip_over_budget(checks, "rankone", "closed-form", params):
                value = drinfeld.rank_one_value(a1, a2, q, budget=config.budget).value
                expected = drinfeld.closed_form_value(a1, a2, q)
                checks.append(_check("rankone", "closed-form", params,
                                     value, expected, value == expected))
    return checks


def suite_quadric(config):
    checks = []
    sys2 = localmodel.build_system([2])
    eqs = sys2.equations_text()
    checks.append(
        _check("quadric", "single-equation", "n=[2]", eqs,
               ["a[-2]*b[1] + a[-1]*b[0] = 0"], len(eqs) == 1)
    )
    sys11 = localmodel.build_system([1, 1])
    for q in prime_powers_up_to(min(config.max_q, 7)):
        fld = field_from_q(q)
        expected = q**3 + q**2 - q
        params = f"q={q}"
        with _skip_over_budget(checks, "quadric", "cone-count", params):
            total = localmodel.count_points(sys2, fld, "any", config.budget)
            coupled = localmodel.count_points(sys11, fld, "any", config.budget)
            checks.append(
                _check("quadric", "cone-count", params, total, expected,
                       total == expected)
            )
            checks.append(
                _check("quadric", "fiber-product-count", params, coupled,
                       expected, coupled == expected)
            )
    return checks


def suite_uniformity(config):
    checks = []
    for q in prime_powers_up_to(config.max_q):
        fld = field_from_q(q)
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(checks, "uniformity", "g-fibers-equal", params):
                ok = localmodel.per_fiber_uniformity(n, fld, config.budget)
                checks.append(
                    _check("uniformity", "g-fibers-equal", params,
                           "uniform" if ok else "non-uniform", "uniform", ok)
                )
    return checks


_SUITE_RUNNERS = {
    "nearby": suite_nearby,
    "omega": suite_omega,
    "strata": suite_strata,
    "schurweyl": suite_schurweyl,
    "reconstruct": suite_reconstruct,
    "drinfeld": suite_drinfeld,
    "quadric": suite_quadric,
    "uniformity": suite_uniformity,
    "rankone": suite_rankone,
}


def run_suite(config):
    """Execute the configured suites and assemble the order-normalized report.
    The input was checked before any suite runs, so a ValueError raised in a
    suite is a fault of the program: it becomes one `fail` check in place of
    that suite's checks."""
    checks = []
    for name in config.suites:
        try:
            checks.extend(_SUITE_RUNNERS[name](config))
        except ValueError as exc:
            checks.append(_check(name, "error", type(exc).__name__, exc, "", False))
    checks.sort(key=lambda c: (c["suite"], c["name"], c["params"]))
    summary = {
        "pass": sum(1 for c in checks if c["status"] == "pass"),
        "fail": sum(1 for c in checks if c["status"] == "fail"),
        "skipped": sum(1 for c in checks if c["status"] == "skipped"),
    }
    return {
        "schema": 1,
        "suites": list(config.suites),
        "checks": checks,
        "summary": summary,
    }


# A check as `json.dumps(report, indent=2, sort_keys=True)` writes it: its six
# keys in sorted order, each value a string escaped as json escapes it
_CHECK_JSON = """    {
      "lhs": %s,
      "name": %s,
      "params": %s,
      "rhs": %s,
      "status": %s,
      "suite": %s
    }"""


def render_report(report, fmt):
    """The report as text.  JSON is written as `json.dumps(report, indent=2,
    sort_keys=True) + "\\n"` writes it, but each check is filled into a fixed
    template: only the schema, suites and summary go through `json.dumps`."""
    if fmt == "json":
        quote = json.encoder.encode_basestring_ascii
        checks = ",\n".join(
            _CHECK_JSON % tuple(map(quote, (c["lhs"], c["name"], c["params"], c["rhs"],
                                            c["status"], c["suite"])))
            for c in report["checks"])
        rest = json.dumps({k: v for k, v in report.items() if k != "checks"},
                          indent=2, sort_keys=True)
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return f'{{\n  "checks": {checks},\n{rest[2:]}\n'
    import csv  # only here and in cmd_character_table, so `import vinbun.cli` skips it

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "name", "params", "lhs", "rhs", "status"])
    for c in report["checks"]:
        writer.writerow([c["suite"], c["name"], c["params"], c["lhs"], c["rhs"],
                         c["status"]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    suites = DEFAULT_SUITES
    if args.suites is not None:  # `--suites=` names no suite, which RunConfig refuses
        suites = tuple(args.suites.split(",")) if args.suites else ()
    config = RunConfig(
        suites=suites,
        max_n=args.max_n,
        max_q=args.max_q,
        max_degree=args.max_degree,
        max_k=args.max_k,
        budget=args.budget,
    )
    try:  # opened before any suite runs, so a bad path fails at once
        handle = open(args.output, "w") if args.output else None
    except OSError as exc:
        raise ValueError(f"cannot write the report to {args.output}: {exc.strerror}") from None
    report = run_suite(config)
    text = render_report(report, args.format)
    if handle:
        with handle:
            handle.write(text)
    sys.stdout.write(text)
    return 1 if report["summary"]["fail"] else 0


def cmd_count(args):
    field = field_from_q(args.q)
    mults = [arith._parse_int(x, "multiplicity") for x in args.n.split(",")]
    system = localmodel.build_system(mults)
    if args.d in ("any", "zero", "nonzero"):
        constraint = args.d
    else:
        constraint = arith._parse_int(args.d, "d-value")
    start = time.perf_counter()
    count = localmodel.count_points(system, field, constraint, args.budget)
    elapsed = time.perf_counter() - start
    print(json.dumps({"count": count, "elapsed": round(elapsed, 6)}))
    return 0


def cmd_trace(args):
    field = field_from_q(args.q)
    divisor = arith.parse_divisor(field, args.divisor)
    n = divisor.degree
    # refused before the K-element, of about n^2/4 symbols, is built
    if args.object == "kelement" and n > MAX_GRID_N:
        raise ValueError(f"kelement degree must be <= {MAX_GRID_N}, got {n}")
    if args.object == "plo":
        value = kcalc.trace_plo(n, divisor)
    elif args.object == "omega":
        value = kcalc.trace_omega_tilde(n, divisor)
    elif args.object == "grpsi":
        value = kcalc.trace_gr_psi(n, divisor)
    else:  # "kelement", the last of the choices argparse admits
        value = kcalc.trace_k_element(kcalc.plo_k_element(n), divisor)
    print(json.dumps(value.to_json_map(), sort_keys=True))
    return 0


def cmd_equations(args):
    mults = [arith._parse_int(x, "multiplicity") for x in args.n.split(",")]
    system = localmodel.build_system(mults)
    if sum(mults) > MAX_GRID_N:
        raise ValueError(f"total multiplicity must be <= {MAX_GRID_N}, got {sum(mults)}")
    lines = system.equations_text()
    if not lines:
        print("# no constraints")
    for line in lines:
        print(line)
    multi = len(mults) > 1
    for idx, m in enumerate(mults):
        a = f"a{idx + 1}" if multi else "a"
        b = f"b{idx + 1}" if multi else "b"
        print(f"# d = {a}[{-m}]*{b}[0]")
    return 0


def cmd_schur_weyl(args):
    brute = lefschetz.brute_force_schur_weyl(args.k)
    predicted = lefschetz.predicted_schur_weyl(args.k)
    print(f"brute force : {brute.describe()}")
    print(f"predicted   : {predicted.describe()}")
    verdict = "MATCH" if brute == predicted else "MISMATCH"
    print(f"verdict     : {verdict}")
    return 0 if verdict == "MATCH" else 1


def cmd_drinfeld(args):
    field = field_from_q(args.q)
    if args.histogram:  # the profile of each map needs the sweep
        res = drinfeld.drinfeld_value(
            args.a1, args.a2, field, budget=args.budget, histogram=True
        )
    else:
        res = drinfeld.rank_one_value(args.a1, args.a2, field.q, budget=args.budget)
    payload = {
        "isom": res.isom,
        "boundary_sum": res.boundary_sum,
        "value": res.value,
    }
    if args.include_nonunit_isos:
        payload["nonunit_isoms"] = res.nonunit_isoms
        payload["value_including_nonunit_isos"] = res.value_including_nonunit_isos
    if args.histogram:
        payload["histogram"] = {
            json.dumps(list(profile)): count for profile, count in res.histogram
        }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_character_table(args):
    import csv

    cts, lams, rows = symrep.character_table(args.k)
    writer = csv.writer(sys.stdout)
    writer.writerow(["irrep\\class"] + [str(list(c)) for c in cts])
    for lam, row in zip(lams, rows):
        writer.writerow([str(list(lam))] + [str(v) for v in row])
    return 0


class _BadInteger(Exception):
    """An integer option `arith._parse_int` refused.  argparse passes it on
    to `main`, where a ValueError would have got argparse's usage text."""


def _int_option(parser, flag, **kwargs):
    def parse(text):
        try:
            return arith._parse_int(text, flag)
        except ValueError as exc:
            raise _BadInteger(exc) from None

    parser.add_argument(flag, type=parse, **kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vinbun",
        description="verification suites for local-model point counts vs "
        "representation-theoretic trace predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suites", default=None,
                   help=f"comma-separated subset of {','.join(ALL_SUITES)} "
                   f"(default: {','.join(DEFAULT_SUITES)})")
    _int_option(p, "--max-n", default=3)
    _int_option(p, "--max-q", default=4)
    _int_option(p, "--max-degree", default=2)
    _int_option(p, "--max-k", default=4)
    _int_option(p, "--budget", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="count F_q-points of a local-model fiber")
    p.add_argument("--n", required=True, help="multiplicities, e.g. 2,1")
    _int_option(p, "--q", required=True)
    p.add_argument("--d", default="any", help="any|zero|nonzero|<element code>")
    _int_option(p, "--budget", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("trace", help="emit a Laurent trace value as JSON")
    p.add_argument("--object", choices=("plo", "omega", "grpsi", "kelement"),
                   required=True)
    _int_option(p, "--q", required=True)
    p.add_argument("--divisor", required=True, help="poly:mult,... format")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("equations", help="print a fiber equation system")
    p.add_argument("--n", required=True, help="multiplicities, e.g. 2,1")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("schur-weyl", help="brute-force vs predicted decomposition")
    _int_option(p, "--k", required=True)
    p.set_defaults(func=cmd_schur_weyl)

    p = sub.add_parser("drinfeld", help="evaluate Drinfeld's function")
    _int_option(p, "--a1", required=True)
    _int_option(p, "--a2", required=True)
    _int_option(p, "--q", required=True)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--include-nonunit-isos", action="store_true")
    _int_option(p, "--budget", default=None)
    p.set_defaults(func=cmd_drinfeld)

    p = sub.add_parser("character-table", help="print an S_k character table as CSV")
    _int_option(p, "--k", required=True)
    p.set_defaults(func=cmd_character_table)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, _BadInteger) as exc:  # StalkNotDeterminedError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
