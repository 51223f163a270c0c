import itertools
import math
import random
from collections import Counter

import pytest
from divisor_utils import (
    boundary_product,
    factored_defect_divisor,
    rational_point,
    scaled_hom,
)
from hom_sweep import flat_coordinates, is_zero, iter_hom_matrices, swept_value

from vinbun import arith
from vinbun.arith import (
    INFINITY,
    EffectiveDivisor,
    Laurent,
    build_field,
    closed_point,
    poly_deg,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_sub,
)
from vinbun.budget import BudgetExceededError
from vinbun.drinfeld import (
    HomMatrix,
    defect_divisor_of_hom,
    drinfeld_value,
    entry_bounds,
    h0_dim,
    hom_space_dims,
    iter_hom_lines,
    rank_one_value,
    sl2_isom_count,
)
from vinbun.kcalc import BOUNDARY, evaluate

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)


def test_split_bundle():
    # E1 = O(2) + O(-2) into E2 = O + O: entry (i, j) has degree 0 - (+-2)
    assert entry_bounds(2, 0) == (-2, 2, -2, 2)
    assert entry_bounds(1, 3) == (2, 4, -4, -2)
    for a1, a2 in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="need a >= 0"):
            entry_bounds(a1, a2)


def test_hom_space_dims():
    assert hom_space_dims(0, 0) == (1, 1, 1, 1)
    assert hom_space_dims(1, 1) == (1, 3, 0, 1)
    assert hom_space_dims(1, 0) == (0, 2, 0, 2)
    assert sum(hom_space_dims(1, 1)) == 5


def test_hom_enumeration_size():
    mats = list(iter_hom_matrices(F2, 1, 0))
    assert len(mats) == 2**4
    assert sum(1 for m in mats if is_zero(m)) == 1
    # each entry is listed normalized, with no trailing zero
    assert all(poly_normalize(e) == e for m in mats for e in m.entries)


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_line_walk_takes_one_map_per_line(field):
    # (q^N - 1)/(q - 1) maps, each with first nonzero coordinate 1, whose
    # F_q^x multiples are the nonzero maps of the literal sweep, each once
    q = field.q
    for a1, a2 in itertools.product(range(3), repeat=2):
        n = sum(hom_space_dims(a1, a2))
        if q**n > 5000:
            continue
        lines = list(iter_hom_lines(field, a1, a2))
        assert len(lines) == (q**n - 1) // (q - 1)
        for phi in lines:
            assert next(filter(None, flat_coordinates(phi))) == 1, phi
            assert all(poly_normalize(e) == e for e in phi.entries)
        multiples = Counter(scaled_hom(field, phi, c) for phi in lines for c in range(1, q))
        nonzero = Counter(phi for phi in iter_hom_matrices(field, a1, a2) if not is_zero(phi))
        assert multiples == nonzero


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_det_matches_the_polynomial_determinant_on_the_sweeps(field):
    # det phi = e11 e22 - e12 e21 as polynomials is the constant det(field)
    for a1, a2 in itertools.product(range(3), repeat=2):
        for phi in iter_hom_matrices(field, a1, a2):
            e = phi.entries
            full = poly_sub(field, poly_mul(field, e[0], e[3]), poly_mul(field, e[1], e[2]))
            assert full == poly_normalize((phi.det(field),)), phi


def test_isom_counts_against_closed_form():
    # the sweep counts the Hom matrices with det identically 1
    for field in (F2, F3, F4):
        assert drinfeld_value(0, 0, field).isom == sl2_isom_count(0, 0, field.q)
    for field in (F2, F3):
        assert drinfeld_value(1, 1, field).isom == sl2_isom_count(1, 1, field.q)
    assert drinfeld_value(1, 0, F3).isom == sl2_isom_count(1, 0, 3) == 0


# ---------------------------------------------------------------------------
# defect divisors
# ---------------------------------------------------------------------------


def test_constant_rank1_matrix_has_empty_divisor():
    phi = HomMatrix(a1=0, a2=0, entries=((1,), (1,), (1,), (1,)))
    assert phi.det(F3) == 0
    assert defect_divisor_of_hom(F3, phi).degree == 0


def test_common_linear_factor_gives_rational_point():
    # second column (s, s) with s = t over E1 = O(1) + O(-1) -> E2 = O + O
    phi = HomMatrix(a1=1, a2=0, entries=((), (0, 1), (), (0, 1)))
    d = defect_divisor_of_hom(F2, phi)
    assert d.degree == 1
    assert d.parts[0][0] == rational_point(F2, 0)


def test_constant_section_of_o1_vanishes_at_infinity():
    # s = 1 in H^0(O(1)) has divisor = the point at infinity
    phi = HomMatrix(a1=1, a2=0, entries=((), (1,), (), (1,)))
    d = defect_divisor_of_hom(F2, phi)
    assert d.degree == 1
    assert d.parts[0][0].is_infinity


def test_coprime_entries_empty_divisor():
    phi = HomMatrix(a1=1, a2=0, entries=((), (0, 1), (), (1, 1)))  # t, t+1
    assert defect_divisor_of_hom(F2, phi).degree == 0


def test_defect_divisor_preconditions():
    zero = HomMatrix(a1=0, a2=0, entries=((), (), (), ()))
    with pytest.raises(ValueError):
        defect_divisor_of_hom(F2, zero)


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_defect_divisor_matches_trial_division_on_the_sweeps(field):
    # every map with det = 0 of the sweeps with a1, a2 <= 2: the sieve
    # lookup against factoring the gcd by trial division
    for a1, a2 in itertools.product(range(3), repeat=2):
        for phi in iter_hom_matrices(field, a1, a2):
            if not is_zero(phi) and not phi.det(field):
                assert defect_divisor_of_hom(field, phi) \
                    == factored_defect_divisor(field, phi), phi


def test_sweep_builds_each_sieve_about_once():
    # the (6, 6) sweep over F_2 reads gcds of degree up to 12 off the
    # sieves; a cache that thrashed would rebuild them map after map
    for value in vars(arith).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    drinfeld_value(6, 6, F2)
    assert arith._sieve.cache_info().misses <= 24


def test_defect_divisor_constant_on_scaling_orbits():
    for field in (F2, F3):
        for phi in iter_hom_matrices(field, 1, 0):
            if is_zero(phi):
                continue
            d = defect_divisor_of_hom(field, phi)
            for c in range(1, field.q):
                assert defect_divisor_of_hom(field, scaled_hom(field, phi, c)) == d


def poly_add(field, f, g):
    """f + g, coefficientwise."""
    total = [field.add(a, b) for a, b in itertools.zip_longest(f, g, fillvalue=0)]
    return poly_normalize(total)


def compose(field, psi, phi):
    """Matrix product psi . phi for phi: E(a1) -> E(a2), psi: E(a2) -> E(a3)."""
    if psi.a1 != phi.a2:
        raise ValueError("middle bundles disagree")
    p, s = phi.entries, psi.entries
    out = []
    for i in range(2):
        for j in range(2):
            acc = ()
            for l in range(2):
                acc = poly_add(field, acc, poly_mul(field, s[2 * i + l], p[2 * l + j]))
            out.append(acc)
    for e, d in zip(out, hom_space_dims(phi.a1, psi.a2)):
        if len(e) > d:
            raise AssertionError("degree bound violated by composition")
    return HomMatrix(a1=phi.a1, a2=psi.a2, entries=tuple(out))


def random_automorphism(field, a, rng):
    """A random vector-bundle automorphism of O(a) + O(-a): an invertible
    constant matrix at a = 0, otherwise upper triangular with unit diagonal
    entries and a random off-diagonal form of degree <= 2a."""
    if a == 0:
        while True:
            entries = tuple(poly_normalize((rng.randrange(field.q),)) for _ in range(4))
            phi = HomMatrix(a1=0, a2=0, entries=entries)
            if phi.det(field):
                return phi
    alpha = rng.randrange(1, field.q)
    delta = rng.randrange(1, field.q)
    beta = poly_normalize(rng.randrange(field.q) for _ in range(2 * a + 1))
    return HomMatrix(a1=a, a2=a, entries=((alpha,), beta, (), (delta,)))


def test_defect_divisor_invariant_under_automorphisms():
    rng = random.Random(5)
    for field in (F2, F3):
        boundary = [
            phi
            for phi in iter_hom_matrices(field, 1, 1)
            if not is_zero(phi) and not phi.det(field)
        ]
        sample = rng.sample(boundary, min(25, len(boundary)))
        for phi in sample:
            d = defect_divisor_of_hom(field, phi)
            for _ in range(3):
                pre = random_automorphism(field, 1, rng)
                post = random_automorphism(field, 1, rng)
                twisted = compose(field, post, compose(field, phi, pre))
                assert defect_divisor_of_hom(field, twisted) == d


# ---------------------------------------------------------------------------
# the function itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_drinfeld_value_diagonal(field):
    q = field.q
    res = drinfeld_value(0, 0, field)
    assert res.isom == q**3 - q
    assert res.value == 1 - q**2
    # every nonzero singular constant matrix contributes an empty product
    assert res.boundary_sum == q**3 + q**2 - q - 1
    # the alternative convention differs exactly by the nonunit isomorphisms
    assert res.value_including_nonunit_isos == res.value - (q - 2) * (q**3 - q)


F7, F8, F9 = build_field(7, 1), build_field(2, 3), build_field(3, 2)


def literal_sweep_grid():
    """Every (a1, a2) with q^(dim Hom) <= 2 * 10^5 over F_2 .. F_9, both
    characteristic 2 and odd q."""
    for field in (F2, F3, F4, F5, F7, F8, F9):
        for a1, a2 in itertools.product(range(8), repeat=2):
            if field.q ** sum(hom_space_dims(a1, a2)) <= 2 * 10**5:
                yield field, a1, a2


@pytest.mark.parametrize("field,a1,a2", list(literal_sweep_grid()),
                         ids=lambda v: getattr(v, "q", v))
def test_line_rule_matches_the_literal_sweep(field, a1, a2):
    """isom, boundary_sum, nonunit_isoms and the histogram, map by map.

    Over F_2 a line is one map, and both sides take each map's defect
    divisor from `defect_divisor_of_hom` and its factor from BOUNDARY, so an
    F_2 row can only catch a fault of the walk.  Above 2^12 maps it checks
    the walk alone: for N the sum of `hom_space_dims`, 2^N - 1 distinct
    nonzero maps with coordinates in F_2, each entry normalized within its
    length, are every nonzero map."""
    dims = hom_space_dims(a1, a2)
    if field.q > 2 or sum(dims) <= 12:
        assert drinfeld_value(a1, a2, field, histogram=True) == swept_value(a1, a2, field)
        return
    walked = set()
    for n, phi in enumerate(iter_hom_lines(field, a1, a2), 1):
        assert all(poly_normalize(e) == e and len(e) <= d for e, d in zip(phi.entries, dims))
        walked.add(bytes(flat_coordinates(phi)))
    assert n == len(walked) == 2 ** sum(dims) - 1
    assert bytes(sum(dims)) not in walked and max(b"".join(walked)) == 1


def test_drinfeld_value_1_0_q2():
    res = drinfeld_value(1, 0, F2, histogram=True)
    assert res.isom == 0
    # 6 coprime pairs contribute +1, 9 pairs with a linear gcd contribute 1-q
    assert res.boundary_sum == 6 * 1 + 9 * (1 - 2)
    assert res.value == 3
    hist = dict(res.histogram)
    assert hist[()] == 6
    assert hist[((1, 1),)] == 9


def test_sweep_reads_each_boundary_factor_once_per_type(monkeypatch):
    # the tally by divisor type specializes one trace per type, not per map
    calls = []
    at_q = Laurent.at_q
    monkeypatch.setattr(Laurent, "at_q", lambda self, q: calls.append(q) or at_q(self, q))
    res = drinfeld_value(3, 3, F2, histogram=True)
    assert sum(n for _, n in res.histogram) > 100  # maps with det = 0
    assert 0 < len(calls) <= len(res.histogram)


def test_drinfeld_value_budget():
    with pytest.raises(BudgetExceededError):
        drinfeld_value(1, 1, F5, budget=100)


def boundary_factor(q, divisor):
    """The boundary factor `drinfeld_value` adds for a map with this defect
    divisor."""
    return int(evaluate(BOUNDARY, divisor.degree, divisor).at_q(q))


def test_boundary_factor():
    x = rational_point(F2, 0)
    y = closed_point(F2, (1, 1, 1))
    d = EffectiveDivisor.from_pairs([(x, 2), (y, 1)])
    # multiplicities do not enter: distinct points only
    assert boundary_factor(2, d) == (1 - 2) * (1 - 4)
    assert boundary_factor(2, EffectiveDivisor.from_pairs([(INFINITY, 3)])) == -1


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_boundary_factor_matches_integer_oracle_on_the_sweeps(field):
    # every defect divisor of the (0, 0) and (1, 1) sweeps; the (1, 1) ones
    # include the point at infinity
    seen = set()
    for a in (0, 1):
        for phi in iter_hom_matrices(field, a, a):
            if not is_zero(phi) and not phi.det(field):
                d = defect_divisor_of_hom(field, phi)
                seen.update(pt for pt, _ in d)
                assert boundary_factor(field.q, d) == boundary_product(field.q, d), d
    assert INFINITY in seen


# ---------------------------------------------------------------------------
# the rank-one sum and its closed form
# ---------------------------------------------------------------------------


def saturated_pairs(x, y, q):
    """Sat(x, y): pairs of binary forms of degrees (x, y) over F_q with no
    common zero on P^1, by Moebius inversion of the nonzero pairs over their
    gcd against 1/Z_{P^1}(t) = (1 - t)(1 - qt)."""

    def nonzero_pairs(x, y):
        return q ** (h0_dim(x) + h0_dim(y)) - 1

    return (nonzero_pairs(x, y) - (1 + q) * nonzero_pairs(x - 1, y - 1)
            + q * nonzero_pairs(x - 2, y - 2))


def saturated_pairs_naive(field, x, y):
    """Pairs of forms of degrees (x, y), as polynomials in t of degree <= x
    and <= y, with constant gcd and not both vanishing at infinity."""
    total = 0
    forms = [
        [poly_normalize(c) for c in itertools.product(field.elements(), repeat=d + 1)]
        if d >= 0 else [()]
        for d in (x, y)
    ]
    for f, g in itertools.product(*forms):
        if not (f or g) or poly_deg(poly_gcd(field, f, g)) > 0:
            continue
        if (not f or poly_deg(f) < x) and (not g or poly_deg(g) < y):
            continue  # common zero at infinity
        total += 1
    return total


@pytest.mark.parametrize("field", [F2, F3])
def test_saturated_pairs_against_enumeration(field):
    for x in range(-2, 4):
        for y in range(-2, 4):
            assert saturated_pairs(x, y, field.q) == saturated_pairs_naive(field, x, y)


def saturated_pairs_closed(x, y, q):
    """Lemma 1 of the certificate: Sat(x, y) piecewise."""
    if x < 0 or y < 0:
        return (q - 1) * (max(x, y) == 0)
    if x == y == 0:
        return q * q - 1
    if x == 0 or y == 0:
        return (q - 1) * q ** (x + y + 1)
    return (q - 1) ** 2 * (q + 1) * q ** (x + y - 1)


def inner_sum_closed(c, a1, q):
    """Lemma 2: R(c) for -a1 <= c."""
    if a1 == 0 and c == 0:
        return q * q - 1
    if a1 >= 1 and c == -a1:
        return q - 1
    if a1 >= 1 and c == a1:
        return (q - 1) * (q ** (2 * a1 + 1) - q * q + 1)
    return -(q - 1) * (q * q - 1)


def outer_factor_closed(c, a2, q):
    """Lemma 3: S(c) for c <= a2."""
    if c == a2 == 0:
        return q * q - 1
    if c == a2:
        return q - 1
    if c == -a2:
        return (q - 1) * q ** (2 * a2 + 1)
    if c < -a2:
        return (q - 1) ** 2 * (q + 1) * q ** (-2 * c - 1)
    return 0


def test_rank_one_sum_is_the_closed_form():
    """The boundary sum is 2 #Isom_SL2 - (q-1)(q^2-1) for every q and every
    (a1, a2) >= 0, which `rank_one_value` returns.

    The rank-one sum.  A nonzero map phi: E1 -> E2 with det = 0 has rank one,
    so it factors as E1 -> O(c) -> E2 with the second map u saturated (its
    two entries have no common zero), uniquely up to a scalar in F_q^x.
    The defect divisor of phi is then the divisor of the first map w.
    Writing w = g w' with w' saturated and div(g) = D of degree e,

        (q-1) boundary = sum_{c=-a1..a2} S(c) R(c),
        S(c) = Sat(a2 - c, -a2 - c),
        R(c) = sum_{e=0..c+a1} B(e) H(c - e),  H(k) = Sat(k - a1, k + a1),

    where B(e), the sum over the degree-e divisors D of prod_{x in supp D}
    (1 - q^deg x), is the t^e coefficient of Z(t)/Z(qt) = (1 - q^2 t)/(1 - t):
    1 at e = 0 and 1 - q^2 after.  So R(c) = H(c) + (1 - q^2) sum_{-a1 <= k
    < c} H(k).  Sat(x, y) = T(x, y) - (1+q) T(x-1, y-1) + q T(x-2, y-2) with
    T(x, y) = q^(h0(x) + h0(y)) - 1, the nonzero pairs.  The sweep checks
    this derivation on small pairs (`test_rank_one_value_matches_sweep`).

    Lemma 1 (`saturated_pairs_closed`).  With h0(m) = max(m + 1, 0):
    Sat(x, y) = 0 when x, y < 0, since every T vanishes.  When x < 0 <= y,
    the T's are q^(y+1) - 1, q^y - 1 and q^max(y-1, 0) - 1: the sum is
    q - 1 at y = 0 and 0 for y >= 1; symmetrically in x.  Sat(0, 0) = T(0, 0)
    = q^2 - 1.  When x = 0 < y: q^(y+2) - (1+q) q^y + q q^(y-1) plus the
    constants -1 + (1+q) - q = 0, which is (q-1) q^(y+1).  When x, y >= 1:
    q^(x+y-1) (q^3 - q^2 - q + 1) = (q-1)^2 (q+1) q^(x+y-1).

    Lemma 2 (`inner_sum_closed`).  For a1 >= 1, Lemma 1 gives H(-a1) = q - 1,
    H(k) = 0 for -a1 < k < a1, H(a1) = (q-1) q^(2a1+1) and H(k) = (q-1)(q^2-1)
    q^(2k-1) for k > a1.  So R(-a1) = q - 1, R(c) = -(q-1)(q^2-1) for
    -a1 < c < a1, and R(a1) = (q-1)(q^(2a1+1) - q^2 + 1).  For c > a1 the
    geometric sum of the H(k), a1 < k < c, is (q-1)(q^(2c-1) - q^(2a1+1)), so
    sum_{k<c} H(k) = (q-1)(1 + q^(2c-1)) and R(c) = (q-1)(q^2-1) q^(2c-1) -
    (q^2-1)(q-1)(1 + q^(2c-1)) = -(q-1)(q^2-1).  For a1 = 0, H(0) = q^2 - 1 =
    R(0) and H(k) = (q-1)(q^2-1) q^(2k-1) for k > 0, so for c > 0 sum_{k<c}
    H(k) = q^2 - 1 + (q-1)(q^(2c-1) - q) = (q-1)(1 + q^(2c-1)) again, and
    R(c) = -(q-1)(q^2-1).

    Lemma 3 (`outer_factor_closed`).  S(c) has x = a2 - c >= 0 and y = -a2
    - c.  By Lemma 1 it is q - 1 at c = a2 >= 1 (x = 0 > y), 0 for -a2 < c
    < a2 (x > 0 > y), (q-1) q^(2a2+1) at c = -a2 <= -1 (y = 0 < x), q^2 - 1
    at c = a2 = 0, and (q-1)^2 (q+1) q^(-2c-1) for c < -a2 (x, y >= 1).

    The sum.  Write K = (q-1)^2 (q^2-1).  If a1 < a2, every c >= -a1 > -a2,
    so only c = a2 contributes: (q-1) R(a2) = -K, as a2 is none of the
    exceptions of Lemma 2.  If a1 > a2 >= 1, R = -(q-1)(q^2-1) at c = a2,
    at c = -a2 and for -a1 < c < -a2, and R(-a1) = q - 1.  The terms are
    -K at c = a2, -K q^(2a2+1) at c = -a2, K q^(2a1-1) at c = -a1, and
    -K (q^2-1) q^(-2c-1) for -a1 < c < -a2, whose sum is -K (q^(2a1-1) -
    q^(2a2+1)).  All but the first cancel, leaving -K.  If a1 > a2 = 0, the
    terms are (q^2-1) R(0) = -K (q+1) at c = 0, K q^(2a1-1) at c = -a1 and
    -K (q^(2a1-1) - q) over -a1 < c < 0: their sum is K (q - q - 1) = -K.
    If a1 = a2 = a >= 1, two terms remain:
    (q-1)^2 (q^(2a+1) - q^2 + 1) + (q-1)^2 q^(2a+1) = (q-1)(2 (q-1) q^(2a+1)
    - (q-1)(q^2-1)); at a = 0 the one term is (q^2-1)^2 = (q-1)(2 (q^3 - q)
    - (q-1)(q^2-1)).  So in every region (q-1) boundary = (q-1)(2 #Isom_SL2
    - (q-1)(q^2-1)), and value = #Isom_SL2 - boundary = (q-1)(q^2-1) -
    #Isom_SL2.

    Each lemma is an identity in q and q^a; the test evaluates every one
    at every integer 2 <= q <= 11, prime power or not, and a1, a2 <= 14,
    and checks that the sum equals `rank_one_value`.
    """
    span = range(15)
    for q in range(2, 12):
        for x, y in itertools.product(range(-2 * span[-1], 2 * span[-1] + 1), repeat=2):
            assert saturated_pairs(x, y, q) == saturated_pairs_closed(x, y, q), (q, x, y)
        for a1, a2 in itertools.product(span, repeat=2):
            scaled = below = 0  # (q-1) boundary; sum of H(k) for -a1 <= k < c
            for c in range(-a1, a2 + 1):
                head = saturated_pairs(c - a1, c + a1, q)
                inner = head + (1 - q * q) * below
                outer = saturated_pairs(a2 - c, -a2 - c, q)
                assert inner == inner_sum_closed(c, a1, q), (q, a1, c)
                assert outer == outer_factor_closed(c, a2, q), (q, a2, c)
                scaled += outer * inner
                below += head
            isom = sl2_isom_count(a1, a2, q)
            assert scaled == (q - 1) * (2 * isom - (q - 1) * (q * q - 1)), (q, a1, a2)
            assert rank_one_value(a1, a2, q).boundary_sum * (q - 1) == scaled


def rank_one_grid():
    """Every pair up to (5, 5) over F_2, plus the pairs with a1, a2 <= 3 and
    q^(dim Hom) <= 3000 for 3 <= q <= 5; the `rankone` suite sweeps the rest
    of a1, a2 <= 3."""
    for field in (F2, F3, F4, F5):
        top = 5 if field.q == 2 else 3
        for a1, a2 in itertools.product(range(top + 1), repeat=2):
            if field.q == 2 or field.q ** sum(hom_space_dims(a1, a2)) <= 3000:
                yield field, a1, a2


@pytest.mark.parametrize("field,a1,a2", list(rank_one_grid()),
                         ids=lambda v: getattr(v, "q", v))
def test_rank_one_value_matches_sweep(field, a1, a2):
    # every field of the result, the histogram aside
    assert rank_one_value(a1, a2, field.q) == drinfeld_value(a1, a2, field)


def test_rank_one_value_rejects_negative_a():
    with pytest.raises(ValueError):
        rank_one_value(-1, 0, 3)
    with pytest.raises(ValueError):
        rank_one_value(0, -2, 3)


def test_rank_one_value_charges_nothing():
    # the closed form sums no terms: off the diagonal every size answers
    assert rank_one_value(10**6, 0, 7).value == 288
    assert rank_one_value(0, 10**18, 7).value == 288
    # on the diagonal, q^(2a+4) bounds every count: the last pair whose
    # bound has at most 4300 digits prints, the next is refused unbuilt
    for q in (2, 3, 13):
        a = int(4300 / math.log10(q)) // 2 - 2
        assert all(len(str(abs(n))) <= 4300 for n in rank_one_value(a, a, q)[:5])
        with pytest.raises(ValueError, match="digits, too many to print"):
            rank_one_value(a + 1, a + 1, q)


def test_huge_hom_space_refused_without_its_size():
    with pytest.raises(BudgetExceededError, match="at least 2\\^"):
        next(iter_hom_lines(F2, 10**18, 10**18))
