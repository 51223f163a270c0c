"""Enumeration budget plumbing.

Brute-force counters refuse candidate spaces larger than their budget.  The
limit is resolved in one place: an explicit budget argument wins, then the
VINBUN_BUDGET environment variable, then the per-module default.  A
resolved limit that is not a positive integer is a ValueError naming its
source.
"""

import os

POINT_COUNT_BUDGET = 10**9  # candidate assignments for local-model fibers
HOM_ENUM_BUDGET = 10**8  # q^dim for bundle Hom-space sweeps


class BudgetExceededError(RuntimeError):
    """Candidate space larger than the enumeration budget."""


def check_budget(space, budget, default, what):
    source = budget
    if budget is None:
        env = os.environ.get("VINBUN_BUDGET")
        source = f"VINBUN_BUDGET={env!r}"
        try:
            budget = int(env) if env else default
        except ValueError:
            budget = 0
    if budget < 1:
        raise ValueError(f"budget must be positive, got {source}")
    if space > budget:
        raise BudgetExceededError(
            f"{what}: {space} candidates exceed the budget {budget}"
        )
