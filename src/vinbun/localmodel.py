"""Explicit local-model fibers: equations, exhaustive point counts, defect.

The fiber of the n-th local model over the point n*x carries coordinates
(a_{-n}, ..., a_{-1}, b_0, ..., b_{n-1}) subject to the n-1 bilinear
equations

    a_{-n} b_1 + a_{-n+1} b_0                    = 0
    a_{-n} b_2 + a_{-n+1} b_1 + a_{-n+2} b_0     = 0
    ...
    a_{-n} b_{n-1} + ... + a_{-1} b_0            = 0

(equation r collects the pairs with i + j = r - n), and maps to the affine
line by d = a_{-n} b_0.  The fiber over a divisor with several rational
points of multiplicities (n_1, ..., n_m) is the iterated fiber product of
the single-point fibers over the d-line, i.e. one block of coordinates per
point with all the d-expressions forced equal.

Point counts are exact.  Each a-code of a factor pivots on its first nonzero
a-coordinate a_{-m+s}.  For s = 0 the equations are linear in b with an
invertible pivot and fix b_1, ..., b_{m-1} from b_0, so the b-fiber is a
line; for 1 <= s < m they force b_0 = ... = b_{m-1-s} = 0 and leave the rest
free; for a = 0 every b solves.  The torus (a, b) -> (lambda a, mu b)
preserves the equations and sends d = a_{-m} b_0 to lambda mu d, so every
fiber over d != 0 holds one point of each pivot-0 line: (q-1) q^(m-1).
`factor_d_table` and `strata_counts` count each b-fiber by its pivot cell
instead of listing it, with no field product; `iter_factor_solutions`
lists every point, for demo 02 and the tests.  A factor has q^m a-codes
and q^(m+1) + (m-1)(q-1)q^(m-1) points, and the budgets charge both, counted
or listed.  Coupled counts compose cached per-factor d-tables; the fully
naive loop over all coordinates lives in the tests as the oracle.

The defect of a B-locus point (d = 0) of a multiplicity-m factor is the
t-adic valuation of the first determinantal ideal of the 2x2 matrix
[[t^m, f], [-g t^m, -g f]] with f = sum b_j t^j and g t^m = sum a_i t^(m+i):
the minimum of m, ord(f), ord(g t^m) and ord of the polynomial part of -g f.
The tests compute it so, as the oracle; `strata_counts` reads it off the
solver's pivots instead (`pivot_defect`), once per pivot cell and first
nonzero index of b.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from vinbun.arith import Laurent
from vinbun.budget import POINT_COUNT_BUDGET, check_power_budget
from vinbun.kcalc import trace_omega_tilde


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


class EquationSystem(namedtuple("EquationSystem", "multiplicities")):
    """Bilinear equations of a local-model fiber over a divisor with rational
    support and the given multiplicities.  A factor of multiplicity m carries
    variables a_{-m..-1}, b_{0..m-1}, exactly m-1 equations, and the
    d-expression a_{-m} b_0; the d-expressions of all factors are equated."""

    __slots__ = ()

    def factor_equations(self, m):
        """Equation r (1 <= r <= m-1) as a list of (i, j) index pairs with
        i + j = r - m, i in -m..-1, j in 0..m-1."""
        out = []
        for r in range(1, m):
            out.append([(i, r - m - i) for i in range(-m, -m + r + 1)])
        return out

    def equations_text(self):
        """Canonical text form, one line per equation plus the d-couplings."""
        lines = []
        multi = len(self.multiplicities) > 1
        for idx, m in enumerate(self.multiplicities):
            a = f"a{idx + 1}" if multi else "a"
            b = f"b{idx + 1}" if multi else "b"
            for eq in self.factor_equations(m):
                terms = " + ".join(f"{a}[{i}]*{b}[{j}]" for i, j in eq)
                lines.append(f"{terms} = 0")
        for idx in range(len(self.multiplicities) - 1):
            m1, m2 = self.multiplicities[idx], self.multiplicities[idx + 1]
            lines.append(
                f"a{idx + 1}[{-m1}]*b{idx + 1}[0] = a{idx + 2}[{-m2}]*b{idx + 2}[0]"
            )
        return lines


def build_system(multiplicities):
    multiplicities = tuple(int(m) for m in multiplicities)
    if not multiplicities or any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be a nonempty list of positive ints")
    return EquationSystem(multiplicities=multiplicities)


# ---------------------------------------------------------------------------
# enumeration cores
# ---------------------------------------------------------------------------


def _decode(code, q, m):
    out = []
    for _ in range(m):
        out.append(code % q)
        code //= q
    return tuple(out)


def iter_factor_solutions(field, m):
    """All ((a), (b)) solving the m-1 factor equations.  a[0] encodes
    a_{-m}, b[j] encodes b_j.

    Yields in a-code order, and per a in b-code order, exactly as the naive
    loop does.  Equation r reads sum_{j <= r} a[r-j] b[j] = 0; with s the
    index of the first nonzero a[s], equations r < s are empty and r = s..m-1
    force b_0 .. b_{m-1-s} to zero in turn, so b_{m-s} .. b_{m-1} are free.
    For s = 0 that leaves only b_0 free, and b is b_0 times the solution with
    b_0 = 1."""
    q = field.q
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv
    for a_code in range(q**m):
        a = _decode(a_code, q, m)
        if a[0]:
            inv0 = neg(inv(a[0]))
            unit = [1]
            for r in range(1, m):
                acc = 0
                for j in range(r):
                    acc = add(acc, mul(a[r - j], unit[j]))
                unit.append(mul(inv0, acc))
            rows = [tuple([mul(b0, x) for x in unit]) for b0 in range(q)]
            rows.sort(key=lambda b: b[::-1])  # b-code order: last digit leads
            for b in rows:
                yield a, b
        else:
            s = next((i for i, x in enumerate(a) if x), m)
            zeros = (0,) * (m - s)
            for free in product(range(q), repeat=s):
                yield a, zeros + free[::-1]  # b-code order: b_{m-1} leads


def enumeration_cost(q, multiplicities):
    """Work a point count over F_q is charged against its budget: per
    distinct multiplicity m, the q^m a-codes walked plus the
    q^(m+1) + (m-1)(q-1)q^(m-1) factor points.  The kernels count the points
    of a pivot cell in one step; the budget still charges each of them, so
    it bounds what the points would cost to list.  Depends only on its
    arguments, never on which d-tables are already cached."""
    return sum(
        q**m + q ** (m + 1) + (m - 1) * (q - 1) * q ** (m - 1)
        for m in set(multiplicities)
    )


def _pivot(a_code, q, m):
    """First nonzero index s of the a encoded by a_code (m for a = 0)."""
    s = 0
    while s < m and not a_code % q:
        a_code //= q
        s += 1
    return s


@lru_cache(maxsize=32)
def factor_d_table(field, m, /):
    """Count of factor solutions per d-value, as a read-only mapping
    d -> count, cached per (field, m).  The arguments are positional-only,
    so every call shape shares one cache entry.  At d = 0: each a-code with
    a_{-m} = 0 has pivot s >= 1 and a free cell of q^s points, and each of
    the (q-1) q^(m-1) pivot-0 lines adds its point b_0 = 0.  The torus sends
    d to lambda mu d, so each d != 0 holds one point of each pivot-0 line."""
    q = field.q
    line = (q - 1) * q ** (m - 1)
    zero = line + sum(q ** _pivot(a_code, q, m) for a_code in range(0, q**m, q))
    return MappingProxyType({0: zero, **dict.fromkeys(range(1, q), line)})


def count_points(system, field, d_constraint="any", budget=None):
    """Exact number of F_q-points of the coupled system with the d-value
    filtered by the constraint ("any" | "zero" | "nonzero" | an element code),
    composed from per-factor d-tables (the factorization of the fiber product
    over the d-line).  The torus makes every fiber over d != 0 alike, so
    only the products of the entries at d = 0 and at d = 1 are read."""
    q = field.q
    check_power_budget(max(system.multiplicities),
                       lambda: enumeration_cost(q, system.multiplicities),
                       budget, POINT_COUNT_BUDGET,
                       f"count_points{system.multiplicities}")
    tables = [factor_d_table(field, m) for m in system.multiplicities]
    zero, unit = prod(t[0] for t in tables), prod(t[1] for t in tables)
    if d_constraint == "any":
        return zero + (q - 1) * unit
    if d_constraint == "zero":
        return zero
    if d_constraint == "nonzero":
        return (q - 1) * unit
    if isinstance(d_constraint, int):
        if not 0 <= d_constraint < q:
            raise ValueError(f"d-value {d_constraint} outside F_{q}")
        return unit if d_constraint else zero
    raise ValueError(f"unknown d-constraint {d_constraint!r}")


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------


def pivot_defect(m, s, b):
    """Defect of a single-factor B-locus point, read off the solver's
    pivots: s is the first nonzero index of a (m for a = 0) and j that of b.
    A point with s = 0 has b = 0 and defect 0; otherwise the defect is
    s + j - m, or s when b = 0."""
    if s == 0:
        return 0
    j = next((i for i, x in enumerate(b) if x), None)
    return s if j is None else s + j - m


def strata_counts(n, field, budget=None):
    """Classify all d = 0 points of the single factor [n] by defect.  Walks
    all q^n a-codes, tallies them by pivot s, and adds the defect histogram
    of each pivot's cell once per a-code: for a_{-n} != 0, d = 0 forces
    b = 0; for pivot s >= 1 the
    B-locus fiber holds b = 0 and, for each first nonzero index j of b in
    n-s..n-1, (q-1) q^(n-1-j) points whose defect `pivot_defect` reads off
    one representative."""
    q = field.q
    check_power_budget(n, lambda: enumeration_cost(q, (n,)), budget,
                       POINT_COUNT_BUDGET, f"strata_counts[{n}]")
    a_codes = [0] * (n + 1)  # a-codes per pivot s
    for a_code in range(q**n):
        a_codes[_pivot(a_code, q, n)] += 1
    zero = (0,) * n
    counts = {}
    for s, weight in enumerate(a_codes):
        cell = {pivot_defect(n, s, zero): 1}
        for j in range(n - s, n):
            k = pivot_defect(n, s, zero[:j] + (1,) + zero[j + 1:])
            cell[k] = cell.get(k, 0) + (q - 1) * q ** (n - 1 - j)
        for k, points in cell.items():
            counts[k] = counts.get(k, 0) + weight * points
    return dict(sorted(counts.items()))


def expected_strata_counts(n, q):
    """Closed form: count(k) = sum over n1+n2 = n-k of c(n1) c(n2) with
    c(0) = 1 and c(m) = q^m - q^(m-1)."""

    def c(m):
        return 1 if m == 0 else q**m - q ** (m - 1)

    return {
        k: sum(c(n1) * c(n - k - n1) for n1 in range(n - k + 1))
        for k in range(n + 1)
    }


# ---------------------------------------------------------------------------
# identities tying enumeration to the trace calculus
# ---------------------------------------------------------------------------


def per_fiber_uniformity(n, field, budget=None):
    """True iff the count over d = c is the same for every c != 0 (the
    product-decomposition shadow of the G-locus).  It reads the d-table,
    which the torus writes alike at every c != 0, so only a fault in the
    table fails it."""
    check_power_budget(n, lambda: enumeration_cost(field.q, (n,)), budget,
                       POINT_COUNT_BUDGET, f"per_fiber_uniformity[{n}]")
    table = factor_d_table(field, n)
    return len({table.get(c, 0) for c in range(1, field.q)}) == 1


def g_locus_count(field, multiplicities, budget=None):
    """Points of the coupled fiber with d != 0."""
    system = build_system(multiplicities)
    return count_points(system, field, "nonzero", budget=budget)


def omega_point_count(n, divisor, field, budget=None):
    """Both sides of #(G-locus of the fiber over D) = (q-1) * (v^(2n) *
    omega-trace) at v^2 = q, an int (the twist clears the q-denominator),
    plus the closed form (q-1)^(m+1) q^(n-m) for m distinct points: returns
    (count, predicted, closed_form).

    D must be supported on rational points (fibers over higher-degree points
    would need coordinates the equations do not provide)."""
    if divisor.degree != n:
        raise ValueError("degree mismatch")
    if any(pt.degree != 1 or pt.is_infinity for pt, _ in divisor):
        raise ValueError("divisor must be supported on rational points of A^1")
    q = field.q
    count = g_locus_count(field, tuple(m for _, m in divisor.parts), budget)
    predicted = (q - 1) * (Laurent.monomial(2 * n) * trace_omega_tilde(n, divisor)).at_q(q)
    m = len(divisor.parts)
    return count, predicted, (q - 1) ** (m + 1) * q ** (n - m)
