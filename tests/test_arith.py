import gc
import itertools
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from divisor_utils import (
    alternative_moduli,
    factored_divisors,
    rational_point,
    trial_division_points,
)

from vinbun import arith, symrep
from vinbun.arith import (
    EffectiveDivisor,
    Laurent,
    build_field,
    closed_point,
    decompositions,
    divisor_count,
    divisor_count_exponent,
    divisor_of,
    enumerate_closed_points,
    enumerate_divisors,
    format_divisor,
    format_poly,
    MAX_Q,
    PrimePowerField,
    field_from_q,
    is_irreducible,
    is_prime,
    monic_polys,
    necklace_count,
    parse_divisor,
    parse_poly,
    poly_deg,
    poly_gcd,
    poly_mul,
    prime_power,
)

ALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(1, 1)
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)
    with pytest.raises(ValueError):
        build_field(2, 4)


def least_prime_factor(n):
    """The least prime factor of n >= 2, by trial division up to sqrt(n):
    the oracle for `is_prime` and `prime_power`."""
    return next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)


def test_least_prime_factor():
    assert [least_prime_factor(n) for n in (2, 9, 15, 49, 97)] == [2, 3, 3, 7, 97]


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == (n >= 2 and least_prime_factor(n) == n)
               for n in range(-3, 30000))
    assert is_prime(2**31 - 19) == (least_prime_factor(2**31 - 19) == 2**31 - 19)


# the least strong pseudoprime to the witnesses 2, then 2 and 3, and so on up
# to 2..37 (OEIS A014233): each is caught only by a later witness
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461)


def test_is_prime_on_large_numbers():
    for p in (2**31 - 1, 2**61 - 1, 10**9 + 7, 998244353, 2**79 - 67):
        assert is_prime(p)
    for n in STRONG_PSEUDOPRIMES + ((2**31 - 1) * (10**9 + 7), (10**9 + 7) ** 2):
        assert not is_prime(n), n
    assert MAX_Q < 3317044064679887385961981  # the first that fools all 13 witnesses
    with pytest.raises(ValueError):
        is_prime(MAX_Q + 1)


def test_prime_power_matches_trial_division():
    def oracle(q):
        p = least_prime_factor(q)
        return next(((p, e) for e in (1, 2, 3) if p**e == q), None)

    assert all(prime_power(q) == oracle(q) for q in range(2, 20000))
    p = 10**6 + 3
    assert [prime_power(p**e) for e in (1, 2, 3, 4)] == [(p, 1), (p, 2), (p, 3), None]
    assert prime_power((2**31 - 1) * (2**31 - 19)) is None
    with pytest.raises(ValueError):
        prime_power(MAX_Q + 1)


def test_field_from_large_q_is_fast():
    # primality is decided by Miller-Rabin, so neither a large prime nor a
    # product of two large primes is factored by trial division
    assert field_from_q(2**61 - 1).p == 2**61 - 1
    assert field_from_q((2**31 - 1) ** 2).e == 2
    with pytest.raises(ValueError, match="not a prime power"):
        field_from_q((2**31 - 1) * (2**31 - 19))
    with pytest.raises(ValueError, match="limit"):
        field_from_q(2**89 - 1)
    with pytest.raises(ValueError, match="limit"):
        build_field(2**89 - 1, 1)


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
    add, mul = fld.add, fld.mul
    for a in range(q):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, fld.neg(a)) == 0
        if a:
            assert mul(a, fld.pow(a, q - 2)) == 1
            assert mul(a, fld.inv(a)) == 1
    for a, b in itertools.product(range(q), repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    # associativity and distributivity on all triples
    for a, b, c in itertools.product(range(q), repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


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


def digit_add(fld, a, b, sign=1):
    """a + sign * b in F_{p^e} through the base-p digits of `to_coeffs` and
    `from_coeffs`: the oracle for `add` (sign 1) and `sub` (sign -1)."""
    return fld.from_coeffs([x + sign * y for x, y in zip(fld.to_coeffs(a), fld.to_coeffs(b))])


# every extension field F_{p^e}, e > 1, with q <= 81: F_4, F_8, F_9, F_25, F_27, F_49
EXTENSION_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,e", EXTENSION_FIELDS)
def test_extension_add_sub_neg_match_the_digits(p, e):
    fld = build_field(p, e)
    for a, b in itertools.product(fld.elements(), repeat=2):
        assert fld.add(a, b) == digit_add(fld, a, b)
        assert fld.sub(a, b) == digit_add(fld, a, b, -1)
    for a in fld.elements():
        assert fld.neg(a) == fld.from_coeffs([-x for x in fld.to_coeffs(a)])


def check_tables_against_slow_products(fld, rows):
    """The products and the inverses against `_mul_slow`, the polynomial
    product the log/antilog lists replace."""
    q = fld.q
    for a in rows:
        slow = [fld._mul_slow(a, b) for b in range(q)]
        assert [fld.mul(a, b) for b in range(q)] == slow, (fld, a)
        if a:
            assert fld._mul_slow(a, fld.inv(a)) == 1, (fld, a)


# every field the tables cover with q <= 81 (e <= 3), over every modulus
SMALL_TABLE_FIELDS = [
    (p, e) for p in range(2, 82) if is_prime(p) for e in (1, 2, 3) if p**e <= 81
]


@pytest.mark.parametrize("p,e", SMALL_TABLE_FIELDS)
def test_log_tables_match_slow_products_on_every_modulus(p, e):
    for modulus in alternative_moduli(p, e):
        fld = build_field(p, e, modulus)
        check_tables_against_slow_products(fld, range(fld.q))


@pytest.mark.parametrize("p,e", [(7, 3), (31, 2)])
def test_log_tables_of_large_fields(p, e, monkeypatch):
    # O(q) slow products build the tables, where the full table takes q^2/2
    calls = [0]
    slow = PrimePowerField._mul_slow

    def counted(self, a, b):
        calls[0] += 1
        return slow(self, a, b)

    monkeypatch.setattr(PrimePowerField, "_mul_slow", counted)
    fld = build_field(p, e)
    assert calls[0] <= 8 * fld.q
    monkeypatch.undo()
    check_tables_against_slow_products(fld, [0, 1, *random.Random(0).sample(range(2, fld.q), 12)])


def test_product_above_the_tables_inverts_no_monic_modulus(monkeypatch):
    # above the table limit inv is a (q - 2)-th power; a product reduces by
    # the monic modulus, in F_1031 as in F_1031^2, and needs none
    fld = build_field(1031, 2, (1, 0, 1))  # t^2 = -1

    def refused(self, x):
        raise AssertionError(f"inv({x}) in {self}")

    monkeypatch.setattr(PrimePowerField, "inv", refused)
    product = fld.mul(fld.from_coeffs((3, 5)), fld.from_coeffs((7, 11)))
    assert product == fld.from_coeffs((21 - 55, 33 + 35))


def test_largest_table_field_holds_linear_memory():
    # two O(q) lists of logs and powers; a q x q product table took 8.4 MB
    tracemalloc.start()
    try:
        fld = field_from_q(1021)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    check_tables_against_slow_products(fld, [0, 1, 2, 1020])
    assert held < 10**6


def test_frobenius_identity_all_fields():
    for p, e in ALL_Q:
        fld = build_field(p, e)
        for a in fld.elements():
            assert fld.pow(a, fld.q) == a


# ---------------------------------------------------------------------------
# Laurent values
# ---------------------------------------------------------------------------


def test_laurent_ring_laws():
    v = Laurent.monomial(1)
    a = v + Laurent.monomial(3, 2) - Laurent({0: 1})
    b = Laurent.monomial(-3) - v
    c = Laurent.monomial(-2, 5) + Laurent({0: 1})
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == Laurent()
    assert Laurent().terms == {}
    assert not (a * Laurent()).terms


def test_laurent_constants_hash_like_ints():
    # a constant Laurent value equals only a Laurent value, never its int; it
    # is mutable, so where the int hashes it refuses, and a set or dict cannot
    # mix the two up; its value at q is a number again, and hashes as the int
    # does
    assert Laurent({0: 5}) != 5 and Laurent() != 0
    assert Laurent({0: -1}) == Laurent({0: 1}) - Laurent({0: 2})
    assert Laurent({0: 5}).at_q(2) == 5 and Laurent().at_q(2) == 0
    assert hash(Laurent({0: 3}).at_q(2)) == hash(3)
    with pytest.raises(TypeError, match="unsupported operand"):
        Laurent({0: 1}) - 2
    for value in (Laurent({0: 5}), Laurent(), Laurent({0: -1})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    with pytest.raises(TypeError, match="unhashable"):
        {Laurent({0: 7}): "seven"}


def test_laurent_twist_and_specialize():
    x = Laurent.monomial(2, 3) + Laurent.monomial(-2, 1) + Laurent({0: 4})
    assert x.at_q(3) == 3 * 3 + Fraction(1, 3) + 4
    with pytest.raises(ValueError):
        (Laurent.monomial(1) + Laurent({0: 1})).at_q(2)
    # even exponents + integer q and no denominators -> integer value
    y = Laurent.monomial(4) + Laurent.monomial(2, -2)
    val = y.at_q(5)
    assert type(val) is int and val == 5**2 - 2 * 5


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


# (p, e, degree up to which the factoring oracles stay cheap); F_8 and F_9
# at degree 4 take about 1 and 3 s
ORACLE_GRID = [(2, 1, 6), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3),
               (2, 3, 4), (3, 2, 4)]


@pytest.mark.parametrize("p,e,max_d", ORACLE_GRID)
def test_divisors_match_factoring_oracle(p, e, max_d):
    # same divisors in the same order as factoring every monic polynomial
    fld = build_field(p, e)
    for n in range(max_d + 1):
        assert enumerate_divisors(fld, n) == factored_divisors(fld, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_divisor_of_matches_factoring_oracle(q):
    # the sieve lookup finds each monic polynomial's own divisor
    fld = field_from_q(q)
    for n in range(4):
        found = tuple(divisor_of(fld, f) for f in monic_polys(fld, n))
        assert found == factored_divisors(fld, n), n


@pytest.mark.parametrize("q", [2, 3, 4])
def test_bounded_divisors_are_the_filtered_full_list(q):
    # same divisors in the same order as dropping those with a deep point
    # and divisor_count counts them without building them, at least
    # 2^divisor_count_exponent of them
    fld = field_from_q(q)
    for n in range(6):
        full = enumerate_divisors(fld, n)
        assert divisor_count(q, n) == len(full)
        assert 2 ** divisor_count_exponent(q, n) <= len(full)
        for max_degree in range(1, n + 2):
            kept = tuple(d for d in full if all(pt.degree <= max_degree for pt, _ in d))
            assert enumerate_divisors(fld, n, max_degree) == kept, (n, max_degree)
            assert divisor_count(q, n, max_degree) == len(kept), (n, max_degree)
            assert 2 ** divisor_count_exponent(q, n, max_degree) <= len(kept)


@pytest.mark.parametrize("p,e,max_d", ORACLE_GRID)
def test_closed_point_sieve_matches_trial_division(p, e, max_d):
    fld = build_field(p, e)
    pts = enumerate_closed_points(fld, max_d)
    assert pts == trial_division_points(fld, max_d)
    for d in range(1, max_d + 1):
        assert sum(1 for pt in pts if pt.degree == d) == necklace_count(fld.q, d)


@pytest.mark.parametrize("p,e,max_d", [(2, 1, 8), (3, 1, 6), (2, 2, 5)])
def test_is_irreducible_matches_closed_point_sieve(p, e, max_d):
    fld = build_field(p, e)
    points = {pt.poly for pt in enumerate_closed_points(fld, max_d)}
    for d in range(1, max_d + 1):
        for f in monic_polys(fld, d):
            assert is_irreducible(fld, f) == (f in points)


def test_irreducibility_test_is_polynomial_in_the_degree():
    # trial division would try every monic divisor up to degree 63 or 31
    f2 = build_field(2, 1)
    trinomial = (1, 1) + (0,) * 125 + (1,)  # t^127+t+1, above what parse_poly reads
    assert closed_point(f2, trinomial).degree == 127
    with pytest.raises(ValueError, match="degree 127 is above the limit 64"):
        parse_poly(f2, "t^127+t+1")
    a, b = parse_poly(f2, "t^31+t^3+1"), parse_poly(f2, "t^31+t^13+1")
    assert is_irreducible(f2, a) and is_irreducible(f2, b)
    with pytest.raises(ValueError, match="reducible"):
        closed_point(f2, poly_mul(f2, a, b))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_monic_polys_order_matches_product_oracle(q):
    fld = field_from_q(q)
    for d in range(4 if q < 7 else 3):
        expected = [tail + (1,) for tail in itertools.product(range(q), repeat=d)]
        assert list(monic_polys(fld, d)) == expected


def test_monic_polys_yields_before_touching_the_field():
    # a generator that first copied the q elements would not finish here
    fld = build_field(2**61 - 1, 1)
    start = time.perf_counter()
    polys = monic_polys(fld, 2)
    assert next(polys) == (0, 0, 1)
    assert next(polys) == (0, 1, 1)
    assert time.perf_counter() - start < 1


def test_one_sieve_pass_per_degree(monkeypatch):
    # the sieve of degree n gives both the points of degree n and the
    # divisors of degree n, so asking for both multiplies out each degree once
    for value in vars(arith).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    degrees = Counter()
    point_multisets = arith._point_multisets

    def counted(field, points, n):
        degrees[n] += 1
        return point_multisets(field, points, n)

    monkeypatch.setattr(arith, "_point_multisets", counted)
    f4 = field_from_q(4)
    divisors = enumerate_divisors(f4, 5)
    points = enumerate_closed_points(f4, 5)
    assert degrees == {n: 1 for n in range(1, 6)}
    # a bound at or above the degree is the same sieve
    assert enumerate_divisors(f4, 5, 5) is enumerate_divisors(f4, 5, 7) is divisors
    assert degrees == {n: 1 for n in range(1, 6)}
    assert len(divisors) == 4**5
    assert [pt for d in divisors for pt, m in d if len(d) == 1 and pt.degree == 5] \
        == [pt for pt in points if pt.degree == 5]


def test_point_multisets_leave_no_reference_cycle():
    # the walk recurses through a closure that refers to itself; a cycle
    # left per sieve would be kept until exit by the CLI, which pauses the
    # collector
    f4 = field_from_q(4)
    points = enumerate_closed_points(f4, 3)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(arith._point_multisets(f4, points, 5)) == divisor_count(4, 5, 3)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("q", [4, 8])
def test_char_two_poly_mul_matches_field_products(q):
    # the XOR-and-logs path against the sum of the polynomial products
    fld = field_from_q(q)
    rng = random.Random(q)
    for _ in range(300):
        f, g = (tuple(rng.randrange(q) for _ in range(rng.randrange(7)))
                for _ in range(2))
        expected = [0] * max(0, len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                expected[i + j] = fld.add(expected[i + j], fld._mul_slow(x, y))
        while expected and not expected[-1]:
            expected.pop()
        assert poly_mul(fld, f, g) == tuple(expected), (f, g)


def test_divisor_caches_are_bounded():
    # and the symmetric-group caches, which `character-table --k 14` fills
    # with 22,292 entries
    for fn in (enumerate_divisors, enumerate_closed_points,
               symrep.murnaghan_nakayama, symrep.partitions):
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


def product_decompositions(divisor, constraint, j):
    """Oracle for `decompositions`: every choice of a multiplicity on D2 for
    each point, in `itertools.product` order, kept when deg D2 = j."""
    pts = divisor.parts
    caps = [min(m, 1) if constraint == "secondMultiplicityFree" else m for _, m in pts]
    out = []
    for choice in itertools.product(*(range(cap + 1) for cap in caps)):
        if sum(pt.degree * c for (pt, _), c in zip(pts, choice)) == j:
            out.append((
                EffectiveDivisor.from_pairs((pt, m - c) for (pt, m), c in zip(pts, choice)),
                EffectiveDivisor.from_pairs((pt, c) for (pt, _), c in zip(pts, choice)),
            ))
    return out


@pytest.mark.parametrize("p,e,max_d", [(2, 1, 4), (3, 1, 4), (2, 2, 3)])
def test_decompositions_match_product_oracle(p, e, max_d):
    # same splittings in the same order, under both constraints and every split
    fld = build_field(p, e)
    for n in range(max_d + 1):
        for d in enumerate_divisors(fld, n):
            for constraint in ("none", "secondMultiplicityFree"):
                for j in range(n + 1):
                    assert (decompositions(d, constraint, (n - j, j))
                            == product_decompositions(d, constraint, j))


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
    for text in ("inf:1", "t:1,inf:2"):  # only valid on P^1
        with pytest.raises(ValueError, match="the point at infinity is only valid on P\\^1"):
            parse_divisor(f2, text)
    # a sign that no term carries is refused, naming the text, not dropped
    for text in ("+", "-", "t+", "++t", "t++1", "t+-1", "t-"):
        with pytest.raises(ValueError, match=re.escape(f"malformed polynomial {text!r}")):
            parse_divisor(f2, f"{text}:1")
    f3 = build_field(3, 1)
    assert parse_divisor(f3, "t-1:1") == parse_divisor(f3, "t+2:1")
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
