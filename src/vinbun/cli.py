"""Batch driver: named verification suites over (n, q, divisor) grids, plus
direct access to the counters and trace functions.

Commands: verify, count, trace, equations, schur-weyl, drinfeld,
character-table.  A bare `verify` runs DEFAULT_SUITES; the opt-in suites of
ALL_SUITES run only when named.  Reports are deterministic (entries
order-normalized, fixed RNG seeds), so repeated runs emit byte-identical
output; the process exits nonzero iff some check failed.  Each suite
compares the two sides that the library's identity functions return.
Budget overruns are reported as "skipped", never as failures.  --budget,
and nothing else, replaces the default budgets.
"""

import gc
import json
import os
import random
import re
import sys
import time
from collections import Counter, namedtuple
from contextlib import contextmanager
from itertools import product
from operator import attrgetter, itemgetter
from types import SimpleNamespace

from vinbun import arith, drinfeld, kcalc, lefschetz, localmodel, symrep
from vinbun.arith import MAX_GRID_N, field_from_q
from vinbun.budget import (DIVISOR_BUDGET, BudgetExceededError, budget_limit,
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

    # the keyword defaults are the default grid, and `verify`'s options in `_COMMANDS`
    def __init__(self, suites=DEFAULT_SUITES, *, max_n=3, max_q=4, max_degree=2,
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
        # checks --budget, so a bad one fails before any suite
        budget_limit(self.budget, 1)
        if min(self.max_n, self.max_degree, self.max_k) < 1 or self.max_q < 2:
            raise ValueError("max_n, max_degree and max_k must be >= 1 "
                             "and max_q >= 2")
        if self.max_n > MAX_GRID_N or self.max_q > MAX_GRID_Q:
            raise ValueError(f"max_n must be <= {MAX_GRID_N} and max_q <= {MAX_GRID_Q}")
        if self.max_k > lefschetz.MAX_BRUTE_K:
            raise ValueError(f"max_k must be <= {lefschetz.MAX_BRUTE_K}")


# one report row, its fields in the order of the CSV columns.  A suite runner
# `suite_x(config, rows)` appends its rows without the suite's name, as
# (name, params, lhs, rhs, status), and `run_suite` puts the name in front
Check = namedtuple("Check", "suite name params lhs rhs status")


def _sides(lhs, rhs, ok):
    """The (lhs, rhs, status) of a row: both sides as text, and `pass` iff ok."""
    return str(lhs), str(rhs), "pass" if ok else "fail"


@contextmanager
def _skip_over_budget(rows, name, params):
    """Run the block; if an enumeration in it exceeds its budget, append one
    `skipped` row instead of the block's rows."""
    try:
        yield
    except BudgetExceededError as exc:
        rows.append((name, params, str(exc), "", "skipped"))


def _fields(limit):
    """(q, F_q) for every q of `prime_powers_up_to(limit)`, each field built
    when the walk reaches it."""
    return ((q, field_from_q(q)) for q in prime_powers_up_to(limit))


def budgeted_divisors(fld, n, budget, max_degree, built):
    """`arith.enumerate_divisors(fld, n, max_degree)`, refused before any
    divisor is built when its `arith.divisor_count` divisors, added to the
    `built` divisors of lower degree already built, exceed the budget.  A
    walk that builds another number of divisors is a fault: ValueError."""
    q = fld.q
    what = f"divisors of degree {n} over F_{q}"
    if built:
        what += f" and {built} of lower degree"
    check_power_budget(arith.divisor_count_exponent(q, n, max_degree),
                       lambda: built + arith.divisor_count(q, n, max_degree),
                       budget, DIVISOR_BUDGET, what)
    divisors = arith.enumerate_divisors(fld, n, max_degree)
    count = arith.divisor_count(q, n, max_degree)
    if len(divisors) != count:
        raise ValueError(f"built {len(divisors)} divisors of degree {n} over F_{q}, not {count}")
    return divisors


def suite_nearby(config, rows):
    by_type = {}  # divisor type -> its `_sides`, rendered once per run
    for q, fld in _fields(config.max_q):
        built = 0  # the budget bounds the divisors built over each field
        names = {}  # point -> its text, so each point is formatted once per field
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(rows, "nearby-vs-boundary", params):
                divisors = budgeted_divisors(fld, n, config.budget, config.max_degree,
                                             built)
                built += len(divisors)
                for d in divisors:
                    dtype = kcalc.divisor_type(d)
                    sides = by_type.get(dtype)
                    if sides is None:
                        lhs, rhs = kcalc.nearby_vs_boundary(d)
                        sides = by_type[dtype] = _sides(lhs, rhs, lhs == rhs)
                    where = f"{params} D={arith.format_divisor(d, names)}"
                    rows.append(("nearby-vs-boundary", where, *sides))


def suite_omega(config, rows):
    for q, fld in _fields(config.max_q):
        built = 0  # the budget bounds the divisors built over each field
        names = {}  # point -> its text, so each point is formatted once per field
        by_type = {}  # divisor type -> its `_sides`, counted once per field
        for n in range(1, config.max_n + 1):
            with _skip_over_budget(rows, "g-locus-count", f"q={q} n={n}"):
                divisors = budgeted_divisors(fld, n, config.budget, 1, built)
                built += len(divisors)
                for d in divisors:
                    params = f"q={q} n={n} D={arith.format_divisor(d, names)}"
                    dtype = kcalc.divisor_type(d)
                    if dtype not in by_type:
                        # a type skipped over budget is not kept: each of its
                        # divisors gets its own skipped row
                        with _skip_over_budget(rows, "g-locus-count", params):
                            count, predicted, closed_form = localmodel.omega_point_count(
                                d, fld, config.budget
                            )
                            by_type[dtype] = _sides(
                                count, f"{predicted} (closed form {closed_form})",
                                count == predicted == closed_form)
                    if dtype in by_type:
                        rows.append(("omega-point-count", params, *by_type[dtype]))


def suite_strata(config, rows):
    for q, fld in _fields(config.max_q):
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(rows, "defect-strata", params):
                counts = localmodel.strata_counts(n, fld, config.budget)
                total = localmodel.count_points(
                    localmodel.build_system([n]), fld, "zero", config.budget
                )
                expected = {
                    k: v
                    for k, v in localmodel.expected_strata_counts(n, q).items()
                    if v
                }
                found = sum(counts.values())
                rows.append(("defect-strata", params,
                             *_sides(counts, expected, counts == expected)))
                rows.append(("b-locus-total", params, *_sides(found, total, found == total)))


def suite_schurweyl(config, rows):
    for k in range(1, config.max_k + 1):
        brute = lefschetz.brute_force_schur_weyl(k)
        predicted = lefschetz.predicted_schur_weyl(k)
        rows.append(("brute-vs-predicted", f"k={k}", *_sides(
            brute.describe(), predicted.describe(),
            brute == predicted and brute.total_dimension() == 1 << k)))


def _draw_below(bits, n):
    """A uniform draw from range(n) off the bit source `bits`, by rejection
    as `random.Random` draws for `randrange` and `choice`: the same stream
    gives the same numbers."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def suite_reconstruct(config, rows):
    """The golden delta is [ker N] - [coker N](-1) of the k = 2 oscillator,
    and its reconstruction is `plo_k_element(2)`; then random round trips."""
    golden_delta = kcalc.KElement(
        {
            kcalc.symbol((2,), 0): 1,
            kcalc.symbol((2,), -1): -1,
            kcalc.symbol((1, 1), 1): 1,
            kcalc.symbol((1, 1), -2): -1,
        }
    )
    expected = kcalc.KElement(
        {
            kcalc.symbol((1, 1), 1): 1,
            kcalc.symbol((1, 1), 0): 1,
            kcalc.symbol((1, 1), -1): 1,
            kcalc.symbol((2,), 0): 1,
        }
    )
    got = kcalc.reconstruct_from_difference(golden_delta)
    rows.append(("golden-case", "k=2", *_sides(got, expected, got == expected)))
    # symbols[r][t + 5] is the symbol of rep r twisted by t
    symbols = [[kcalc.symbol(rep, t) for t in range(-5, 6)]
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
    rows.append(("random-roundtrips", f"trials={trials}", *_sides(
        f"{trials - failures} ok", f"{trials} ok", failures == 0)))


def suite_drinfeld(config, rows):
    cases = [(0, 0, fld, 1 - q * q) for q, fld in _fields(min(config.max_q, 5))]
    for a1, a2, fld, expected in cases + [(1, 0, field_from_q(2), 3)]:
        name, params = f"value-{a1}-{a2}", f"a1={a1} a2={a2} q={fld.q}"
        with _skip_over_budget(rows, name, params):
            value = drinfeld.drinfeld_value(a1, a2, fld, budget=config.budget).value
            rows.append((name, params, *_sides(value, expected, value == expected)))


def suite_rankone(config, rows):
    """The closed form of the rank-one sum against the Hom sweep, on every
    result field."""
    for q, fld in _fields(min(config.max_q, 5)):
        for a1, a2 in product(range(4), repeat=2):
            params = f"a1={a1} a2={a2} q={q}"
            with _skip_over_budget(rows, "sweep-vs-rank-one", params):
                sweep = drinfeld.drinfeld_value(a1, a2, fld, budget=config.budget)
                fast = drinfeld.rank_one_value(a1, a2, q)
                rows.append(("sweep-vs-rank-one", params, *_sides(sweep, fast, sweep == fast)))


def suite_quadric(config, rows):
    sys2 = localmodel.build_system([2])
    eqs = sys2.equations_text()
    rows.append(("single-equation", "n=[2]",
                 *_sides(eqs, ["a[-2]*b[1] + a[-1]*b[0] = 0"], len(eqs) == 1)))
    sys11 = localmodel.build_system([1, 1])
    for q, fld in _fields(min(config.max_q, 7)):
        expected = q**3 + q**2 - q
        params = f"q={q}"
        with _skip_over_budget(rows, "cone-count", params):
            total = localmodel.count_points(sys2, fld, "any", config.budget)
            coupled = localmodel.count_points(sys11, fld, "any", config.budget)
            rows.append(("cone-count", params, *_sides(total, expected, total == expected)))
            rows.append(("fiber-product-count", params,
                         *_sides(coupled, expected, coupled == expected)))


def suite_uniformity(config, rows):
    for q, fld in _fields(config.max_q):
        for n in range(1, config.max_n + 1):
            params = f"q={q} n={n}"
            with _skip_over_budget(rows, "g-fibers-equal", params):
                ok = localmodel.per_fiber_uniformity(n, fld, config.budget)
                rows.append(("g-fibers-equal", params,
                             *_sides("uniform" if ok else "non-uniform", "uniform", ok)))


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
    the rows that suite appended."""
    checks = []
    for suite in config.suites:
        rows = []
        try:
            _SUITE_RUNNERS[suite](config, rows)
        except ValueError as exc:
            rows = [("error", type(exc).__name__, *_sides(exc, "", False))]
        checks.extend(Check(suite, *row) for row in rows)
    checks.sort()  # (suite, name, params) tells checks apart: the tuple order is theirs
    summary = dict.fromkeys(("pass", "fail", "skipped"), 0)
    summary.update(Counter(map(attrgetter("status"), checks)))
    return {
        "schema": 1,
        "suites": list(config.suites),
        "checks": checks,
        "summary": summary,
    }


# A check as `json.dumps(report, indent=2, sort_keys=True)` writes it: its six
# fields in sorted order, each filled with the value escaped as json escapes
# it.  Only `params` tells most checks apart, so a check is written as the
# head before its params and the tail after them, both filled from the other
# five fields, numbered by their index in `_FRAME_FIELDS(check)`
_FRAME_FIELDS = itemgetter(0, 1, 3, 4, 5)  # suite, name, lhs, rhs, status
_CHECK_HEAD = """    {{
      "lhs": {2},
      "name": {1},
      "params": """
_CHECK_TAIL = """,
      "rhs": {3},
      "status": {4},
      "suite": {0}
    }}"""


# checks joined into one `write`: a few hundred, so that an unbuffered or
# line-buffered stdout takes a few writes per report, not one per check
_CHECKS_PER_WRITE = 256


def render_report(report, fmt, out):
    """Write the report to the text stream `out`, a few hundred checks at a
    time, so that the whole text is never held.  JSON is written as
    `json.dumps(report, indent=2, sort_keys=True) + "\\n"` writes it, but each
    check is its escaped params between a head and a tail, which are
    escaped and filled once per distinct other five fields: only the schema,
    suites and summary go through `json.dumps`."""
    checks = report["checks"]
    if fmt == "json":
        quote = json.encoder.encode_basestring_ascii
        frames = {}  # `_FRAME_FIELDS(check)` -> (head, tail)
        head = '{\n  "checks": [\n'
        for start in range(0, len(checks), _CHECKS_PER_WRITE):
            texts = []
            for check in checks[start:start + _CHECKS_PER_WRITE]:
                key = _FRAME_FIELDS(check)
                frame = frames.get(key)
                if frame is None:
                    fields = [quote(f) for f in key]
                    frame = frames[key] = (_CHECK_HEAD.format(*fields),
                                            _CHECK_TAIL.format(*fields))
                texts.append(frame[0] + quote(check.params) + frame[1])
            out.write(head + ",\n".join(texts))
            head = ",\n"
        rest = json.dumps({k: v for k, v in report.items() if k != "checks"},
                          indent=2, sort_keys=True)
        end = "\n  ]" if checks else '{\n  "checks": []'
        out.write(f"{end},\n{rest[2:]}\n")
        return
    import csv  # only here and in cmd_character_table, so `import vinbun.cli` skips it

    writer = csv.writer(out)
    writer.writerow(Check._fields)
    writer.writerows(checks)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    suites = DEFAULT_SUITES
    if args.suites is not None:  # `--suites=` names no suite, which RunConfig refuses
        suites = tuple(args.suites.split(",")) if args.suites else ()
    config = RunConfig(suites, **{option: getattr(args, option)
                                  for option in RunConfig.__init__.__kwdefaults__})
    try:  # opened before any suite runs, so a bad path fails at once
        handle = open(args.output, "w") if args.output else None
    except OSError as exc:
        raise ValueError(f"cannot write the report to {args.output}: {exc.strerror}") from None
    report = run_suite(config)
    if handle:  # written before stdout, so a failed write leaves stdout empty
        try:
            with handle:
                render_report(report, args.format, handle)
        except OSError as exc:  # a full disk fails the write, not the open
            raise ValueError(f"cannot write the report to {args.output}: "
                             f"{exc.strerror}") from None
    render_report(report, args.format, sys.stdout)
    return 1 if report["summary"]["fail"] else 0


def cmd_count(args):
    field = field_from_q(args.q)
    mults = [arith._parse_int(x, "multiplicity") for x in args.n.split(",")]
    if len(mults) > MAX_GRID_N:  # the budget charges each distinct multiplicity once
        raise ValueError(f"number of factors must be <= {MAX_GRID_N}, got {len(mults)}")
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
        value = kcalc.trace_plo(divisor)
    elif args.object == "omega":
        value = kcalc.trace_omega_tilde(divisor)
    elif args.object == "grpsi":
        value = kcalc.trace_gr_psi(divisor)
    else:  # "kelement", the last of the choices `_COMMANDS` admits
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
    # checks --budget, which only the sweep spends
    budget_limit(args.budget, 1)
    if args.histogram:  # the profile of each map needs the sweep
        res = drinfeld.drinfeld_value(
            args.a1, args.a2, field, budget=args.budget, histogram=True
        )
    else:
        res = drinfeld.rank_one_value(args.a1, args.a2, field.q)
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

    parts, rows = symrep.character_table(args.k)
    writer = csv.writer(sys.stdout)
    writer.writerow(["irrep\\class"] + [str(list(c)) for c in parts])
    for lam, row in zip(parts, rows):
        writer.writerow([str(list(lam))] + [str(v) for v in row])
    return 0


# command -> (runner, help line, {option: default}).  A default of `...`
# makes the option required and False makes it a flag; a tuple gives its
# choices, the first its default.  The options in `_INTEGERS` are read by
# `arith._parse_int`, the others are text
_COMMANDS = {
    "verify": (cmd_verify, "run the named suites, a comma-separated subset of "
               f"{','.join(ALL_SUITES)} (default: {','.join(DEFAULT_SUITES)})",
               {"suites": None, **RunConfig.__init__.__kwdefaults__, "output": None,
                "format": ("json", "csv")}),
    "count": (cmd_count, "count F_q-points of a local-model fiber (--n multiplicities, "
              "e.g. 2,1; --d any|zero|nonzero|<element code>)",
              {"n": ..., "q": ..., "d": "any", "budget": None}),
    "trace": (cmd_trace, "emit a Laurent trace value as JSON (--divisor poly:mult,...)",
              {"object": (..., "plo", "omega", "grpsi", "kelement"), "q": ..., "divisor": ...}),
    "equations": (cmd_equations, "print a fiber equation system (--n multiplicities, "
                  "e.g. 2,1)", {"n": ...}),
    "schur-weyl": (cmd_schur_weyl, "brute-force vs predicted decomposition", {"k": ...}),
    "drinfeld": (cmd_drinfeld, "evaluate Drinfeld's function",
                 {"a1": ..., "a2": ..., "q": ..., "histogram": False,
                  "include_nonunit_isos": False, "budget": None}),
    "character-table": (cmd_character_table, "print an S_k character table as CSV",
                        {"k": ...}),
}
_INTEGERS = {"q", "k", "a1", "a2", *RunConfig.__init__.__kwdefaults__}


def _default(entry):
    """The default of an option of `_COMMANDS`: `...` when it is required."""
    return entry[0] if type(entry) is tuple else entry


def _exit(command, error=None):
    """Leave as argparse did: the usage and `error` on stderr with status 2,
    or with no error, the usage and the help on stdout with status 0."""
    usage = f"usage: vinbun {command or '{' + ','.join(_COMMANDS) + '}'} [-h]"
    for name, entry in _COMMANDS[command][2].items() if command else ():
        text = "--" + name.replace("_", "-")
        if type(entry) is tuple:
            text += " {%s}" % ",".join(choice for choice in entry if choice is not ...)
        elif entry is not False:
            text += " " + name.upper()
        usage += f" {text}" if _default(entry) is ... else f" [{text}]"
    if error:
        print(usage, f"vinbun{' ' + command if command else ''}: error: {error}",
              sep="\n", file=sys.stderr)
        raise SystemExit(2)
    print(usage, "", _COMMANDS[command][1] if command else "\n".join(
        f"  {name:<16} {line}" for name, (_, line, _) in _COMMANDS.items()), sep="\n")
    raise SystemExit(0)


def _scan(token, flags, command):
    """What argparse read `token` as, given `flags` (option -> name): None
    for a value, else (the option, None if unknown; the text after its "="
    or after -h, or None).  A prefix of two long options is refused."""
    head, eq, value = token.partition("=")
    if token in flags:
        return token, None
    if eq and head in flags:
        return head, value
    if token[:2] == "-h":
        return "-h", token[2:]
    matches = [flag for flag in flags if token[:2] == "--" and flag.startswith(head)]
    if len(matches) > 1:
        _exit(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    # "-", a negative number or a text with a space is a value
    if token[:1] == "-" != token and " " not in token and not re.match(r"-\d+$|-\d*\.\d+$", token):
        return None, None


def _read(command, tokens, flags, options, extras):
    """Read `tokens` into `options` in order, as argparse did: every token
    before `--` is scanned first, so an ambiguous option is refused before
    any is read; unknown options and values go to `extras`."""
    end = tokens.index("--") if "--" in tokens else len(tokens)
    scans = [_scan(t, flags, command) for t in tokens[:end]] + [None] * (len(tokens) - end)
    i = 0
    while i < len(tokens):
        flag, value = scans[i] or (None, None)
        name = flags.get(flag)
        i += 1
        if name is None:
            extras.append(tokens[i - 1])
            continue
        if name == "help":  # -hh is -h twice; other text after -h or --help is refused
            if value is not None and (flag != "-h" or value.strip("h") or not value):
                _exit(command, f"argument -h/--help: ignored explicit argument {value!r}")
            _exit(command)
        entry = _COMMANDS[command][2][name]
        if entry is False:
            if value is not None:
                _exit(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif value is None:
            if i >= end or scans[i]:
                _exit(command, f"argument {flag}: expected one argument")
            value, i = tokens[i], i + 1
        if name in _INTEGERS:
            value = arith._parse_int(value, flag)
        elif type(entry) is tuple and value not in entry:
            _exit(command, f"argument {flag}: invalid choice: {value!r}")
        options[name] = value


def _parse(argv):
    """(runner, options) for `argv`, read as argparse read it: -h or the
    command, then `--opt value` or `--opt=value` in any order, a prefix of
    one option for that option, the last of repeats.  An integer option
    that `arith._parse_int` refuses raises its ValueError."""
    flags, extras = {"-h": "help", "--help": "help"}, []
    i = 0  # before the command, -h is the only option
    while i < len(argv) and argv[i] != "--" and _scan(argv[i], flags, None):
        i += 1
    _read(None, argv[:i], flags, {}, extras)
    if i == len(argv):
        _exit(None, "the following arguments are required: command")
    if argv[i] not in _COMMANDS:
        _exit(None, f"argument command: invalid choice: {argv[i]!r}")
    command = argv[i]
    run, _, spec = _COMMANDS[command]
    flags.update(("--" + name.replace("_", "-"), name) for name in spec)
    options = {name: _default(entry) for name, entry in spec.items()}
    _read(command, argv[i + 1:], flags, options, extras)
    missing = [flag for flag, name in flags.items() if options.get(name) is ...]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _exit(None, f"unrecognized arguments: {' '.join(extras)}")
    return run, SimpleNamespace(**options)


def main(argv=None):
    # a run makes no reference cycle per item, so the collector would only
    # walk live divisors and checks: it is paused, and left as it was found
    enabled = gc.isenabled()
    gc.disable()
    try:
        run, args = _parse(sys.argv[1:] if argv is None else list(argv))
        code = run(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # stdout failed, say on a full disk: so does the flush at exit
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        if enabled:
            gc.enable()


def _entry():
    """The `vinbun` script and `python -m vinbun.cli`: `main`, then the heap
    frozen, so that the collections at exit walk none of the run's caches."""
    code = main()
    gc.freeze()
    return code


# the last statement of the import: what it built lives until exit, so the
# collector, and its full collections at exit, skip it
gc.freeze()

if __name__ == "__main__":
    sys.exit(_entry())
