import itertools
from fractions import Fraction

import pytest
from divisor_utils import factored_divisors, trial_division_points

from vinbun.arith import (
    EffectiveDivisor,
    Laurent,
    alternative_moduli,
    build_field,
    closed_point,
    decompositions,
    elementary_symmetric,
    enumerate_closed_points,
    enumerate_divisors,
    format_divisor,
    format_poly,
    necklace_count,
    parse_divisor,
    parse_poly,
    poly_deg,
    poly_gcd,
    poly_mul,
    rational_point,
)

ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)
    with pytest.raises(ValueError):
        build_field(2, 4)


def test_f2_and_f4_basic():
    f2 = build_field(2, 1)
    assert f2.q == 2
    assert f2.add(1, 1) == 0
    f4 = build_field(2, 2)
    # a^4 = a for every element (Frobenius fixed-point identity)
    for a in f4.elements():
        assert f4.pow(a, 4) == a


@pytest.mark.parametrize("p,e", ALL_Q)
def test_field_axioms_exhaustive(p, e):
    fld = build_field(p, e)
    q = fld.q
    els = [fld.element(a) for a in range(q)]
    zero, one = els[0], els[1]
    for a in els:
        assert (a + zero).value == a.value
        assert (a * one).value == a.value
        assert (a + (-a)).value == 0
        if a.value:
            assert (a * (a ** (q - 2))).value == 1
            assert (a / a).value == 1
    for a, b in itertools.product(els, repeat=2):
        assert (a + b).value == (b + a).value
        assert (a * b).value == (b * a).value
    # associativity and distributivity on all triples
    for a, b, c in itertools.product(els, repeat=3):
        assert ((a + b) + c).value == (a + (b + c)).value
        assert ((a * b) * c).value == (a * (b * c)).value
        assert (a * (b + c)).value == (a * b + a * c).value


def test_f9_multiplicative_group_cyclic_order_8():
    f9 = build_field(3, 2)
    orders = {}
    for a in range(1, 9):
        k, x = 1, a
        while x != 1:
            x = f9.mul(x, a)
            k += 1
        orders[a] = k
    assert all(8 % k == 0 for k in orders.values())
    # cyclic of order 8: some element has full order
    assert 8 in orders.values()
    assert sorted(orders.values()).count(8) == 4  # phi(8) generators


def test_frobenius_identity_all_fields():
    for p, e in ALL_Q:
        fld = build_field(p, e)
        for a in fld.elements():
            assert fld.pow(a, fld.q) == a


# ---------------------------------------------------------------------------
# Laurent values
# ---------------------------------------------------------------------------


def test_laurent_ring_laws():
    v = Laurent.v()
    a = v + 2 * v ** 3 - Laurent.one()
    b = v.shift(-4) - v
    c = Laurent.monomial(-2, 5) + Laurent.one()
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == Laurent.zero()
    assert Laurent.zero().coeffs == {}
    assert (a * Laurent.zero()).is_zero()


def test_laurent_constants_hash_like_ints():
    # == and hash agree: a constant Laurent value is interchangeable with its int
    assert Laurent.from_int(5) == 5 and Laurent.zero() == 0
    assert len({Laurent.from_int(5), 5}) == 1
    assert len({Laurent.zero(), 0}) == 1
    assert len({Laurent.from_int(-1), -1, Laurent.one() - 2}) == 1
    assert {Laurent.from_int(7): "seven"}[7] == "seven"
    assert hash(Laurent.from_int(3)) == hash(3)


def test_laurent_twist_and_specialize():
    one = Laurent.one()
    assert one.twist(1) == Laurent.monomial(-2)
    assert one.twist(Fraction(1, 2)) == Laurent.monomial(-1)
    x = Laurent.monomial(2, 3) + Laurent.monomial(-2, 1) + Laurent.from_int(4)
    assert x.at_q(3) == 3 * 3 + Fraction(1, 3) + 4
    with pytest.raises(ValueError):
        (Laurent.v() + Laurent.one()).at_q(2)
    # even exponents + integer q and no denominators -> integer value
    y = Laurent.monomial(4) + Laurent.monomial(2, -2)
    val = y.at_q(5)
    assert val.denominator == 1


def test_laurent_exact_div():
    v = Laurent.v()
    num = (Laurent.one() - v ** 2) * Laurent.monomial(-2)
    assert num.exact_div(Laurent.one() - v ** 2) == Laurent.monomial(-2)
    with pytest.raises(ValueError):
        (v + Laurent.one()).exact_div(v - Laurent.one())


def test_elementary_symmetric():
    v = Laurent.v()
    vi = Laurent.monomial(-1)
    assert elementary_symmetric([v, vi], 0) == Laurent.one()
    assert elementary_symmetric([v, vi], 1) == v + vi
    assert elementary_symmetric([v, vi], 2) == Laurent.one()
    assert elementary_symmetric([v, vi], 3) == Laurent.zero()


# ---------------------------------------------------------------------------
# closed points (necklace counts) and divisors
# ---------------------------------------------------------------------------


def test_closed_points_small_cases():
    f2 = build_field(2, 1)
    pts2 = [p for p in enumerate_closed_points(f2, 2) if p.degree == 2]
    assert len(pts2) == 1 and pts2[0].poly == (1, 1, 1)  # t^2+t+1
    pts3 = [p for p in enumerate_closed_points(f2, 3) if p.degree == 3]
    assert len(pts3) == 2
    f3 = build_field(3, 1)
    assert len([p for p in enumerate_closed_points(f3, 1)]) == 3


@pytest.mark.parametrize("p,e", ALL_Q)
def test_necklace_formula(p, e):
    fld = build_field(p, e)
    q = fld.q
    max_d = 6 if q <= 3 else 3
    pts = enumerate_closed_points(fld, max_d)
    for d in range(1, max_d + 1):
        assert sum(1 for pt in pts if pt.degree == d) == necklace_count(q, d)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_divisor_counts_match_q_power(p, e):
    fld = build_field(p, e)
    q = fld.q
    for n in range(0, 4):
        assert len(enumerate_divisors(fld, n)) == q**n


def test_divisors_degree_two_over_f2():
    f2 = build_field(2, 1)
    divs = enumerate_divisors(f2, 2)
    assert len(divs) == 4
    x0, x1 = rational_point(f2, 0), rational_point(f2, 1)
    shapes = sorted(
        tuple(sorted((pt.degree, m) for pt, m in d.parts)) for d in divs
    )
    # 2*x0, 2*x1, x0+x1, one degree-2 point
    assert shapes == [((1, 1), (1, 1)), ((1, 2),), ((1, 2),), ((2, 1),)]
    assert EffectiveDivisor.from_pairs([(x0, 1), (x1, 1)]) in divs


# (p, e, degree up to which the factoring oracles stay cheap)
ORACLE_GRID = [(2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3)]


@pytest.mark.parametrize("p,e,max_d", ORACLE_GRID)
def test_divisors_match_factoring_oracle(p, e, max_d):
    # same divisors in the same order as factoring every monic polynomial
    fld = build_field(p, e)
    for n in range(max_d + 1):
        assert enumerate_divisors(fld, n) == factored_divisors(fld, n)


@pytest.mark.parametrize("p,e,max_d", ORACLE_GRID)
def test_closed_point_sieve_matches_trial_division(p, e, max_d):
    fld = build_field(p, e)
    pts = enumerate_closed_points(fld, max_d)
    assert pts == trial_division_points(fld, max_d)
    for d in range(1, max_d + 1):
        assert sum(1 for pt in pts if pt.degree == d) == necklace_count(fld.q, d)


def test_divisor_caches_are_bounded():
    for fn in (enumerate_divisors, enumerate_closed_points):
        assert fn.cache_info().maxsize is not None


def test_counts_invariant_under_modulus_choice():
    # q = 8 and q = 9 admit several defining moduli; q = 4 only one.
    for p, e in [(2, 3), (3, 2)]:
        mods = alternative_moduli(p, e)
        assert len(mods) >= 2
        counts = []
        for mod in mods[:2]:
            fld = build_field(p, e, modulus=mod)
            counts.append(
                tuple(
                    sum(1 for pt in enumerate_closed_points(fld, 3) if pt.degree == d)
                    for d in (1, 2, 3)
                )
                + (len(enumerate_divisors(fld, 2)),)
            )
        assert counts[0] == counts[1]
    assert len(alternative_moduli(2, 2)) == 1


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


def test_decompositions_basic():
    f3 = build_field(3, 1)
    x = rational_point(f3, 0)
    d2x = EffectiveDivisor.from_pairs([(x, 2)])
    pairs = decompositions(d2x, "none", (1, 1))
    assert len(pairs) == 1
    d1, d2 = pairs[0]
    assert d1.degree == 1 and d2.degree == 1 and d1 == d2

    x1, x2 = rational_point(f3, 1), rational_point(f3, 2)
    dsum = EffectiveDivisor.from_pairs([(x1, 1), (x2, 1)])
    assert len(decompositions(dsum, "none", (1, 1))) == 2


def test_decompositions_total_count_product_formula():
    # unconstrained count over all splits = prod (n_k + 1)
    f2 = build_field(2, 1)
    x0, x1 = rational_point(f2, 0), rational_point(f2, 1)
    d = EffectiveDivisor.from_pairs([(x0, 3), (x1, 2)])
    total = sum(
        len(decompositions(d, "none", (d.degree - j, j)))
        for j in range(d.degree + 1)
    )
    assert total == (3 + 1) * (2 + 1)


def test_decompositions_multiplicity_free_constraint():
    f2 = build_field(2, 1)
    x = rational_point(f2, 0)
    d = EffectiveDivisor.from_pairs([(x, 2)])
    assert decompositions(d, "secondMultiplicityFree", (0, 2)) == []
    free = decompositions(d, "secondMultiplicityFree", (1, 1))
    assert len(free) == 1


# ---------------------------------------------------------------------------
# divisor text format
# ---------------------------------------------------------------------------


def test_poly_parse_format_roundtrip():
    f3 = build_field(3, 1)
    for text, coeffs in [("t^2+t+1", (1, 1, 1)), ("t", (0, 1)), ("2t+1", (1, 2))]:
        assert parse_poly(f3, text) == coeffs
        assert parse_poly(f3, format_poly(f3, coeffs)) == coeffs
    assert parse_poly(f3, "t-1") == (2, 1)


def test_parse_divisor():
    f2 = build_field(2, 1)
    d = parse_divisor(f2, "t:2")
    assert d.degree == 2 and d.parts[0][1] == 2
    d = parse_divisor(f2, "t^2+t+1:1")
    assert d.degree == 2 and d.parts[0][0].degree == 2
    d = parse_divisor(f2, "t:1,t+1:1")
    assert d.degree == 2 and len(d.parts) == 2
    with pytest.raises(ValueError):
        parse_divisor(f2, "t^2+1:1")  # (t+1)^2 is reducible
    with pytest.raises(ValueError):
        parse_divisor(f2, "t::")
    with pytest.raises(ValueError):
        parse_divisor(f2, "inf:1")  # only valid on P^1
    assert parse_divisor(f2, "inf:2", allow_infinity=True).degree == 2
    rt = format_divisor(f2, d)
    assert parse_divisor(f2, rt) == d


def test_closed_point_validation():
    f2 = build_field(2, 1)
    with pytest.raises(ValueError):
        closed_point(f2, (1, 0, 1))  # t^2+1 = (t+1)^2
    pt = closed_point(f2, (1, 1, 1))
    assert pt.degree == 2


def test_poly_gcd_and_mul():
    f5 = build_field(5, 1)
    f = poly_mul(f5, (1, 1), (2, 1))  # (t+1)(t+2)
    g = poly_mul(f5, (1, 1), (3, 1))
    assert poly_gcd(f5, f, g) == (1, 1)
    assert poly_deg(f) == 2
