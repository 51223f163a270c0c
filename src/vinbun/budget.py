"""Enumeration budget plumbing.

Brute-force counters refuse candidate spaces larger than their budget.  The
limit is resolved in one place: an explicit budget argument wins, then the
VINBUN_BUDGET environment variable, then the per-module default.  A
resolved limit that is not a positive integer is a ValueError naming its
source.
"""

import os

from vinbun.arith import _MAX_DIGITS, _parse_int

POINT_COUNT_BUDGET = 10**9  # candidate assignments for local-model fibers
HOM_ENUM_BUDGET = 10**8  # q^dim for bundle Hom-space sweeps
DIVISOR_BUDGET = 10**5  # divisors built over one field (`arith.divisor_count` per degree)


class BudgetExceededError(RuntimeError):
    """Candidate space larger than the enumeration budget."""


def budget_limit(budget, default):
    """The limit in force, validated positive.  VINBUN_BUDGET is read by the
    ASCII-digit rule of the integer flags, and an overlong value is named
    by its length instead of echoed."""
    source = budget
    if budget is None:
        env = os.environ.get("VINBUN_BUDGET")
        source = (f"VINBUN_BUDGET={env!r}" if env is None or len(env) <= _MAX_DIGITS
                  else f"VINBUN_BUDGET of {len(env)} characters")
        try:
            budget = _parse_int(env, "VINBUN_BUDGET") if env else default
        except ValueError:
            budget = 0
    if budget < 1:
        raise ValueError(f"budget must be positive, got {source}")
    return budget


def check_power_budget(exponent, space, budget, default, what):
    """Refuse a space of at least 2^exponent candidates over the limit:
    its exact size `space()` is computed only when the exponent alone does
    not put it over, so a huge exponent is refused at once."""
    limit = budget_limit(budget, default)
    if exponent > limit.bit_length():
        raise BudgetExceededError(
            f"{what}: at least 2^{exponent} candidates exceed the budget {limit}"
        )
    size = space()
    if size > limit:
        raise BudgetExceededError(f"{what}: {size} candidates exceed the budget {limit}")
