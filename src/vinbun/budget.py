"""Enumeration budget plumbing.

Brute-force counters refuse candidate spaces larger than their budget.  The
limit is resolved in one place: an explicit budget argument wins, else the
per-module default.  An explicit budget below 1 is a ValueError.
"""

POINT_COUNT_BUDGET = 10**9  # candidate assignments for local-model fibers
HOM_ENUM_BUDGET = 10**8  # q^dim for bundle Hom-space sweeps
DIVISOR_BUDGET = 10**5  # divisors built over one field (`arith.divisor_count` per degree)


class BudgetExceededError(RuntimeError):
    """Candidate space larger than the enumeration budget."""


def budget_limit(budget, default):
    """The limit in force: the explicit budget, validated positive, else the
    default."""
    if budget is None:
        return default
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
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
