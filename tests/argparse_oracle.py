"""The argparse parser that read vinbun's command line before `vinbun.cli`
read argv off its command table, kept as it was: the oracle that
`tests/test_cli.py` checks `cli._parse` against, argv by argv."""

import argparse

from vinbun import arith
from vinbun.cli import (ALL_SUITES, DEFAULT_SUITES, RunConfig, cmd_character_table,
                        cmd_count, cmd_drinfeld, cmd_equations, cmd_schur_weyl,
                        cmd_trace, cmd_verify)


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
    for option, default in RunConfig.__init__.__kwdefaults__.items():
        _int_option(p, "--" + option.replace("_", "-"), default=default)
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
