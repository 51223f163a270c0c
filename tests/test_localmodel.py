import time
import tracemalloc
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

import pytest
from divisor_utils import alternative_moduli, rational_point
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vinbun.arith import (
    EffectiveDivisor,
    PrimePowerField,
    build_field,
    field_from_q,
    poly_gcd,
    poly_mul,
    poly_normalize,
)
from vinbun.budget import BudgetExceededError
from vinbun.kcalc import trace_omega_tilde
from vinbun.localmodel import (
    build_system,
    count_points,
    enumeration_cost,
    expected_strata_counts,
    factor_d_table,
    g_locus_count,
    iter_factor_solutions,
    omega_point_count,
    per_fiber_uniformity,
    pivot_defect,
    strata_counts,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F8 = build_field(2, 3)
F9 = build_field(3, 2)
# the second defining modulus of F_8 and of F_9
F8_ALT = build_field(2, 3, alternative_moduli(2, 3)[1])
F9_ALT = build_field(3, 2, alternative_moduli(3, 2)[1])


# ---------------------------------------------------------------------------
# naive oracles: literal loops over all coordinates
# ---------------------------------------------------------------------------


def _decode(code, q, m):
    """The base-q digits of code, least significant first."""
    return tuple(code // q**i % q for i in range(m))


def iter_factor_solutions_naive(field, m):
    """Fully naive double loop over all of F_q^(2m); the optimized iterator
    must yield exactly the same sequence."""
    q = field.q
    mul, add = field.mul, field.add
    for a_code in range(q**m):
        a = _decode(a_code, q, m)
        for b_code in range(q**m):
            b = _decode(b_code, q, m)
            ok = True
            for r in range(1, m):
                acc = 0
                for j in range(r + 1):
                    acc = add(acc, mul(a[r - j], b[j]))
                if acc != 0:
                    ok = False
                    break
            if ok:
                yield a, b


@lru_cache(maxsize=None)
def naive_solutions(field, m):
    """`iter_factor_solutions_naive` as a tuple, shared by the tests that
    compare against it."""
    return tuple(iter_factor_solutions_naive(field, m))


def count_points_naive(system, field, d_constraint):
    """Points of the coupled system by the nested loop over every factor's
    naive solutions, with the d-expressions forced equal."""
    mults = system.multiplicities
    total = 0
    iters = [list(iter_factor_solutions_naive(field, m)) for m in mults]

    def rec(idx, d):
        nonlocal total
        if idx == len(mults):
            if d_constraint == "any":
                total += 1
            elif d_constraint == "zero":
                total += d == 0
            elif d_constraint == "nonzero":
                total += d != 0
            else:
                total += d == d_constraint
            return
        for a, b in iters[idx]:
            d_here = field.mul(a[0], b[0])
            if idx > 0 and d_here != d:
                continue
            rec(idx + 1, d_here)

    rec(0, None)
    return total


# ---------------------------------------------------------------------------
# equation systems
# ---------------------------------------------------------------------------


def test_build_system_m1():
    sys1 = build_system([1])
    assert sys1.factor_equations(1) == []
    assert sys1.equations_text() == []


def test_build_system_m2_single_equation():
    sys2 = build_system([2])
    assert sys2.equations_text() == ["a[-2]*b[1] + a[-1]*b[0] = 0"]


def test_build_system_m3_text():
    sys3 = build_system([3])
    assert sys3.equations_text() == [
        "a[-3]*b[1] + a[-2]*b[0] = 0",
        "a[-3]*b[2] + a[-2]*b[1] + a[-1]*b[0] = 0",
    ]


def test_build_system_fiber_product_coupling():
    sys11 = build_system([1, 1])
    assert sys11.equations_text() == ["a1[-1]*b1[0] = a2[-1]*b2[0]"]


def test_build_system_rejects_bad_input():
    with pytest.raises(ValueError):
        build_system([])
    with pytest.raises(ValueError):
        build_system([0, 2])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_hyperbola_counts(field):
    q = field.q
    sys1 = build_system([1])
    assert count_points(sys1, field, "nonzero") == (q - 1) ** 2
    assert count_points(sys1, field, "zero") == 2 * q - 1
    for c in range(1, q):
        assert count_points(sys1, field, c) == q - 1
    assert count_points(sys1, field, "any") == q * q


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_quadric_cone_counts(field):
    q = field.q
    sys2 = build_system([2])
    assert count_points(sys2, field, "any") == q**3 + q**2 - q
    assert count_points(sys2, field, "zero") == 3 * q**2 - 2 * q
    # the [1,1] fiber product over the d-line gives the same polynomial
    sys11 = build_system([1, 1])
    assert count_points(sys11, field, "any") == q**3 + q**2 - q


@pytest.mark.parametrize("field", [F2, F3])
def test_optimized_matches_naive(field):
    for mults in ([1], [2], [3], [1, 1], [2, 1]):
        system = build_system(mults)
        for constraint in ("any", "zero", "nonzero", 1):
            assert count_points(system, field, constraint) == count_points_naive(
                system, field, constraint
            ), (mults, constraint)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F9])
def test_factor_iterators_agree(field):
    # order-exact: a-code outer, then the b-codes the naive loop accepts
    q = field.q
    m = 1
    while q ** (2 * m) <= 5 * 10**5:
        fast = list(iter_factor_solutions(field, m))
        assert fast == list(naive_solutions(field, m)), m
        assert len(fast) == q ** (m + 1) + (m - 1) * (q - 1) * q ** (m - 1)
        m += 1


def d_tally(field, solutions):
    return dict(sorted(Counter(field.mul(a[0], b[0]) for a, b in solutions).items()))


def defect_tally(field, m, solutions):
    return dict(sorted(Counter(
        factor_defect(field, m, a, b) for a, b in solutions if not field.mul(a[0], b[0])
    ).items()))


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F9, F8_ALT, F9_ALT])
def test_pivot_cell_kernels_match_solution_tallies(field):
    # the kernels count each b-fiber by its pivot cell; both iterators list it
    q = field.q
    m = 1
    while q ** (2 * m) <= 5 * 10**5:
        for solutions in (list(iter_factor_solutions(field, m)), naive_solutions(field, m)):
            assert factor_d_table(field, m) == d_tally(field, solutions), m
            assert strata_counts(m, field) == defect_tally(field, m, solutions), m
        m += 1


@pytest.mark.parametrize("q, max_m", [(q, 5) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(1021, 2), (1031, 2)])
def test_factor_d_table_is_written_from_the_torus(q, max_m, monkeypatch):
    # the torus (lambda, mu) sends d to lambda mu d, so every d != 0 entry is
    # one point of each pivot-0 line; no entry takes a field product, not
    # even above the table limit (1031)
    field = field_from_q(q)
    calls = [0]
    for name in ("mul", "_mul_slow"):
        def counted(self, a, b, method=getattr(PrimePowerField, name)):
            calls[0] += 1
            return method(self, a, b)

        monkeypatch.setattr(PrimePowerField, name, counted)
    for m in range(1, max_m + 1):
        line = (q - 1) * q ** (m - 1)
        table = factor_d_table.__wrapped__(field, m)
        assert dict(table) == {0: q**m + m * line, **dict.fromkeys(range(1, q), line)}, m
    assert calls[0] == 0


@st.composite
def coupled_systems(draw):
    field = draw(st.sampled_from([F2, F3, F4, F5]))
    q = field.q
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    # the naive coupled loop pays the product of the factor solution counts
    size = 1
    for m in mults:
        size *= q ** (m + 1) + (m - 1) * (q - 1) * q ** (m - 1)
    assume(size <= 2 * 10**4)
    constraint = draw(st.one_of(st.sampled_from(["any", "zero", "nonzero"]),
                                st.integers(0, q - 1)))
    return field, build_system(mults), constraint


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(coupled_systems())
def test_count_points_matches_naive_loop(case):
    field, system, constraint = case
    assert count_points(system, field, constraint) == count_points_naive(
        system, field, constraint
    )


def test_table_free_field_counts_in_linear_memory():
    # q = 1031 is above the table limit: the kernel writes the d != 0 entries
    # from the torus and keeps O(q) memory, never a q x q table
    field = build_field(1031, 1)
    q = field.q
    start = time.perf_counter()
    system = build_system([1])
    assert count_points(system, field, "zero") == 2 * q - 1
    assert all(count_points(system, field, c) == q - 1 for c in range(1, q))
    assert time.perf_counter() - start < 2
    tracemalloc.start()
    try:
        table = factor_d_table.__wrapped__(field, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == factor_d_table(field, 1)
    assert peak < 10**6  # the q x q table's row pointers alone take 8.5 MB


def test_factorization_in_families_literal():
    # coupled count at d = c equals the product of per-factor d = c counts,
    # verified against the naive coupled enumeration
    for field in (F2, F3):
        t1 = factor_d_table(field, 1)
        t2 = factor_d_table(field, 2)
        system = build_system([2, 1])
        for c in range(field.q):
            assert count_points_naive(system, field, c) == t2.get(c, 0) * t1.get(c, 0)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        count_points(build_system([4]), F5, "any", budget=1000)


def test_factor_d_table_one_cache_entry_per_call_shape():
    # keyword calls would key a second cache entry, so they are refused
    before = factor_d_table.cache_info()
    tables = [factor_d_table(F9, 2) for _ in range(3)]
    after = factor_d_table.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 2
    assert all(t is tables[0] for t in tables)
    with pytest.raises(TypeError):
        factor_d_table(F9, m=2)
    with pytest.raises(TypeError):
        factor_d_table(field=F9, m=2)


def test_factor_d_table_is_read_only():
    with pytest.raises(TypeError):
        factor_d_table(F9, 1)[0] = 999
    assert count_points(build_system([1]), F9, "zero") == 17


def test_factor_d_table_cache_is_bounded():
    assert factor_d_table.cache_info().maxsize is not None


def test_enumeration_cost_counts_a_codes_and_points():
    for field in (F2, F3, F4, F5):
        q = field.q
        for m in (1, 2, 3, 4):
            points = list(iter_factor_solutions(field, m))
            a_codes = len({a for a, _ in points})
            assert enumeration_cost(q, (m,)) == a_codes + len(points)
        assert enumeration_cost(q, (2, 1, 2)) == enumeration_cost(
            q, (2,)
        ) + enumeration_cost(q, (1,))


def test_budget_charges_the_path_taken_not_the_cache():
    system = build_system([3])
    cost = enumeration_cost(5, (3,))
    for _ in range(2):  # cold, then with the d-table cached
        assert count_points(system, F5, "any", budget=cost) == 5**4 + 2 * 4 * 25
        with pytest.raises(BudgetExceededError):
            count_points(system, F5, "any", budget=cost - 1)
        assert sum(strata_counts(3, F5, budget=cost).values()) > 0
        with pytest.raises(BudgetExceededError):
            strata_counts(3, F5, budget=cost - 1)
        assert per_fiber_uniformity(3, F5, budget=cost)
        with pytest.raises(BudgetExceededError):
            per_fiber_uniformity(3, F5, budget=cost - 1)


@pytest.mark.parametrize("enumerate_fiber", [strata_counts, per_fiber_uniformity])
def test_huge_degree_is_refused_before_its_size_is_computed(enumerate_fiber):
    # q^(n+1) for n = 10^6 has about 300,000 digits: formatting it in the
    # message would raise, and computing it costs time
    with pytest.raises(BudgetExceededError, match=r"at least 2\^1000000 "):
        enumerate_fiber(10**6, F2, budget=10)


def test_g_locus_count_many_points_within_default_budget():
    assert g_locus_count(F9, (1, 1, 1, 1, 1)) == 8**6


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------


INF = float("inf")


class DefectProfile(namedtuple("DefectProfile", "per_factor")):
    """Per-factor defects of a B-locus point."""

    __slots__ = ()

    @property
    def total(self):
        return sum(self.per_factor)


def factor_defect(field, m, a, b):
    """Oracle for `pivot_defect`: the defect of a single-factor B-locus
    point as the minimum of m and the t-adic valuations of the matrix
    entries f, g t^m and the polynomial part of -g f (whose first surviving
    coefficient is scanned directly)."""
    ord_f = next((j for j in range(m) if b[j]), INF)
    ord_g = next((i for i in range(m) if a[i]), INF)
    if ord_f is INF and ord_g is INF:
        return m
    # first r >= 0 with a nonzero coefficient sum_{(i+m)+j = r+m} a_i b_j
    ord_gf = INF
    for r in range(2 * m - 1):
        acc = 0
        for ai in range(m):
            j = r + m - ai
            if 0 <= j < m:
                acc = field.add(acc, field.mul(a[ai], b[j]))
        if acc != 0:
            ord_gf = r
            break
    return int(min(m, ord_f, ord_g, ord_gf))


def defect_profile(system, field, factors):
    """Per-factor defects of a B-locus point, given as its factor pairs
    ((a_{-m}, ..., a_{-1}), (b_0, ..., b_{m-1})).  Raises off the system and
    on the G-locus."""
    mults = system.multiplicities
    if len(factors) != len(mults) or any(
            (a, b) not in naive_solutions(field, m) for (a, b), m in zip(factors, mults)):
        raise ValueError("point does not lie on the system")
    if any(field.mul(a[0], b[0]) for a, b in factors):
        raise ValueError("defect is defined on the B-locus only (d = 0)")
    per = [factor_defect(field, m, a, b) for (a, b), m in zip(factors, mults)]
    return DefectProfile(per_factor=tuple(per))


def snf_defect_oracle(field, m, a, b):
    """Independent route: valuation at t of the gcd of the entries of the
    2x2 matrix [[t^m, f], [-g t^m, -g f]], computed with polynomial gcds
    over F_q[t] (the first invariant factor of the Smith normal form)."""
    f_poly = poly_normalize(b)
    g_poly = poly_normalize(a)  # already multiplied by t^m in these coords
    entries = [(0,) * m + (1,), f_poly, tuple(field.neg(c) for c in g_poly)]
    prod = poly_mul(field, g_poly, f_poly)
    if prod:
        assert all(c == 0 for c in prod[:m])  # the defining equations
        entries.append(tuple(field.neg(c) for c in prod[m:]))
    g = ()
    for e in entries:
        g = poly_gcd(field, g, e)
    ord_t = next(i for i, c in enumerate(g) if c)
    return ord_t


def test_defect_examples():
    # the all-zero point of a multiplicity-m factor has defect m
    assert factor_defect(F3, 2, (0, 0), (0, 0)) == 2
    assert factor_defect(F3, 3, (0, 0, 0), (0, 0, 0)) == 3
    # [1]: a nonzero, b = 0 is on an axis, defect 0
    assert factor_defect(F3, 1, (2,), (0,)) == 0
    # [2]: a = (0, 1), b = (0, 1) has defect 0 (constant term of -g f is 1)
    assert factor_defect(F3, 2, (0, 1), (0, 1)) == 0


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_defect_matches_snf_oracle(field):
    for m in (1, 2, 3):
        for a, b in iter_factor_solutions(field, m):
            if field.mul(a[0], b[0]) != 0:
                continue
            assert factor_defect(field, m, a, b) == snf_defect_oracle(field, m, a, b)


def test_defect_profile_and_errors():
    system = build_system([2, 1])
    prof = defect_profile(system, F3, [((0, 0), (0, 0)), ((0,), (1,))])
    assert prof.per_factor == (2, 0)
    assert prof.total == 2
    with pytest.raises(ValueError):  # the G-locus
        defect_profile(system, F3, [((1, 0), (1, 0)), ((1,), (1,))])
    with pytest.raises(ValueError):  # d-expressions 1 and 2 disagree
        defect_profile(system, F3, [((1, 0), (1, 0)), ((1,), (2,))])
    with pytest.raises(ValueError):  # off the equation a[-2]*b[1] + a[-1]*b[0] = 0
        defect_profile(system, F3, [((1, 1), (0, 1)), ((0,), (0,))])


def test_defect_zero_locus_is_open_complement():
    # defect 0 <=> not (a_{-n} = 0 and b_0 = 0 and sum_{i+j=0} a_i b_j = 0)
    for field in (F2, F3):
        for n in (1, 2, 3):
            for a, b in iter_factor_solutions(field, n):
                if field.mul(a[0], b[0]) != 0:
                    continue
                c0 = 0
                for ai in range(n):
                    j = n - ai
                    if 0 <= j < n:
                        c0 = field.add(c0, field.mul(a[ai], b[j]))
                removed = a[0] == 0 and b[0] == 0 and c0 == 0
                assert (factor_defect(field, n, a, b) == 0) == (not removed)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


def test_strata_n1():
    for field in (F2, F3, F5):
        q = field.q
        assert strata_counts(1, field) == {0: 2 * (q - 1), 1: 1}


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_strata_match_closed_form(field):
    q = field.q
    for n in (1, 2, 3):
        counts = strata_counts(n, field)
        expected = expected_strata_counts(n, q)
        assert counts == {k: v for k, v in expected.items() if v}
        # totals partition the B-locus
        assert sum(counts.values()) == count_points(build_system([n]), field, "zero")


def strata_counts_naive(n, field):
    """Every factor point, G-locus dropped, classified by `factor_defect`."""
    counts = {}
    for a, b in iter_factor_solutions(field, n):
        if field.mul(a[0], b[0]) == 0:
            k = factor_defect(field, n, a, b)
            counts[k] = counts.get(k, 0) + 1
    return dict(sorted(counts.items()))


def test_pivot_defect_matches_factor_defect():
    # every B-locus point with q <= 7, m <= 5 and q^(2m) <= 4 * 10^5
    points = 0
    for field in (F2, F3, F4, F5, F7):
        q = field.q
        for m in range(1, 6):
            if q ** (2 * m) > 4 * 10**5:
                continue
            for a, b in iter_factor_solutions(field, m):
                if field.mul(a[0], b[0]):
                    continue
                s = next((i for i, x in enumerate(a) if x), m)
                assert pivot_defect(m, s, b) == factor_defect(field, m, a, b), (q, a, b)
                points += 1
    assert points == 7422


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7])
def test_strata_match_factor_defect_oracle(field):
    for n in range(1, 5):
        assert strata_counts(n, field) == strata_counts_naive(n, field)


def test_strata_n2_formula():
    for field in (F2, F3, F5):
        q = field.q
        counts = strata_counts(2, field)
        assert counts[0] == 2 * (q**2 - q) + (q - 1) ** 2
        assert counts[1] == 2 * (q - 1)
        assert counts[2] == 1


# ---------------------------------------------------------------------------
# uniformity, contraction orbit, omega identity
# ---------------------------------------------------------------------------


def test_per_fiber_uniformity():
    assert per_fiber_uniformity(1, F3)
    assert per_fiber_uniformity(2, F3)
    assert per_fiber_uniformity(3, F3)
    t = factor_d_table(F3, 2)
    assert all(t[c] == 3 * 2 for c in range(1, 3))  # q(q-1) at n=2


def test_gm_orbit_exhaustive():
    # every lambda, mu in F_q^x at every solution of the naive loop, also
    # over F_5, where c^4 = 1 and a scaling by (c^2, c^2) never moves d
    for field in (F2, F3, F4, F5):
        mul = field.mul
        for m in (1, 2):
            solutions = set(naive_solutions(field, m))
            for a, b in solutions:
                for lam in range(1, field.q):
                    for mu in range(1, field.q):
                        moved_a = tuple(mul(lam, x) for x in a)
                        moved_b = tuple(mul(mu, x) for x in b)
                        assert (moved_a, moved_b) in solutions
                        assert mul(moved_a[0], moved_b[0]) == mul(mul(lam, mu),
                                                                  mul(a[0], b[0]))


def test_omega_identity_examples():
    x3 = rational_point(F3, 0)
    d = EffectiveDivisor.from_pairs([(x3, 1)])
    assert g_locus_count(F3, (1,)) == 4  # (q-1)^2 = 3*2*(2/3)
    assert omega_point_count(1, d, F3) == (4, 4, 4)

    x2 = rational_point(F2, 0)
    d2 = EffectiveDivisor.from_pairs([(x2, 2)])
    assert g_locus_count(F2, (2,)) == 2  # 4 * 1 * (1/2)
    assert omega_point_count(2, d2, F2) == (2, 2, 2)

    y1, y2 = rational_point(F3, 0), rational_point(F3, 1)
    dsplit = EffectiveDivisor.from_pairs([(y1, 1), (y2, 1)])
    assert g_locus_count(F3, (1, 1)) == 8  # 9 * 2 * (4/9)
    assert omega_point_count(2, dsplit, F3) == (8, 8, 8)


def test_omega_identity_rejects_irrational_support():
    from vinbun.arith import enumerate_closed_points

    y = [p for p in enumerate_closed_points(F2, 2) if p.degree == 2][0]
    d = EffectiveDivisor.from_pairs([(y, 1)])
    with pytest.raises(ValueError):
        omega_point_count(2, d, F2)


def test_open_zastava_count_vs_omega_trace():
    # q^n * omega-trace equals the defect-free count with d = 1 (the open
    # Zastava fiber), factor by factor
    for field in (F2, F3):
        q = field.q
        for n in (1, 2, 3):
            x = rational_point(field, 0)
            d = EffectiveDivisor.from_pairs([(x, n)])
            trace = trace_omega_tilde(n, d).at_q(q)
            assert Fraction(q**n) * trace == factor_d_table(field, n)[1]
