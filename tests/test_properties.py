"""Property-based tests: field axioms over every defining modulus, Laurent
ring laws, the group laws that Laurent values and K-elements share,
specialization at q and the omega prediction made with it, hashing, the
divisor text round trip, the boundary trace against its integer product, the
multiplicativity of the traces over disjoint supports, K-element difference
and twist, the K-element reconstruction solver against its descending-loop
oracle, and the decomposition of virtual characters."""

import random
from fractions import Fraction

import pytest
from divisor_utils import (alternative_moduli, boundary_product, random_disjoint_pair,
                           rational_point)
from hypothesis import given, settings
from hypothesis import strategies as st

from vinbun.arith import (
    INFINITY,
    EffectiveDivisor,
    Laurent,
    build_field,
    enumerate_closed_points,
    field_from_q,
    format_divisor,
    parse_divisor,
)
from vinbun.cli import prime_powers_up_to
from vinbun.kcalc import (
    BOUNDARY,
    KElement,
    ReconstructionError,
    evaluate,
    reconstruct_from_difference,
    symbol,
    trace_gr_psi,
    trace_omega_tilde,
    trace_plo,
)
from vinbun.localmodel import omega_point_count
from vinbun.symrep import (
    decompose_class_function,
    murnaghan_nakayama,
    partitions,
)

# small and derandomized, so the suite stays fast and repeatable
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-4, 4), max_size=4
).map(Laurent)
ints = st.integers(-(10**20), 10**20)
# a small domain, so that equal pairs come up often
small_values = st.one_of(
    st.integers(-2, 2),
    st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(Laurent),
)

FIELDS = [build_field(2, 1), build_field(3, 1), build_field(2, 2)]

# closed points of degree <= 3 (<= 2 over F8 and F9) for random divisors
DIVISOR_FIELDS = [
    (field, enumerate_closed_points(field, 3 if field.q <= 5 else 2))
    for field in (build_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)))
]


# every defining modulus of these fields; 37^2 and 11^3 are above the table
# limit, so they multiply per call through the polynomial code
AXIOM_MODULI = {
    (p, e): alternative_moduli(p, e)
    for p, e in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (37, 2), (11, 3))
}


@st.composite
def field_element_triples(draw):
    p, e = draw(st.sampled_from(sorted(AXIOM_MODULI)))
    field = build_field(p, e, draw(st.sampled_from(AXIOM_MODULI[p, e])))
    a, b, c = (draw(st.integers(0, field.q - 1)) for _ in range(3))
    return field, a, b, c


@PROPERTY_SETTINGS
@given(field_element_triples())
def test_field_axioms_over_every_modulus(case):
    field, a, b, c = case
    add, mul = field.add, field.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    if a:
        assert mul(a, field.inv(a)) == 1
    assert field.pow(a, field.q) == a


@st.composite
def divisors_over_small_fields(draw):
    field, points = draw(st.sampled_from(DIVISOR_FIELDS))
    pairs = draw(st.dictionaries(st.sampled_from(points), st.integers(1, 4), max_size=4))
    at_infinity = draw(st.integers(0, 2))
    return field, EffectiveDivisor.from_pairs([*pairs.items(), (INFINITY, at_infinity)])


@PROPERTY_SETTINGS
@given(divisors_over_small_fields())
def test_parse_divisor_inverts_format_divisor(case):
    field, divisor = case
    text = format_divisor(field, divisor)
    if INFINITY in dict(divisor.parts):
        with pytest.raises(ValueError, match="the point at infinity is only valid on P"):
            parse_divisor(field, text)
    else:
        assert parse_divisor(field, text) == divisor


@PROPERTY_SETTINGS
@given(divisors_over_small_fields())
def test_boundary_trace_matches_integer_product(case):
    field, divisor = case
    value = evaluate(BOUNDARY, divisor.degree, divisor).at_q(field.q)
    assert value == boundary_product(field.q, divisor)


@PROPERTY_SETTINGS
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Laurent() == a
    assert a * Laurent({0: 1}) == a
    assert not (a - a).terms
    assert a - b == -(b - a)


def at_q_fraction_sum(x, q):
    """Oracle for `Laurent.at_q`: the term-by-term `Fraction` sum."""
    total = Fraction(0)
    for e, c in x.terms.items():
        if e % 2:
            raise ValueError(f"odd v-exponent {e}")
        total += c * Fraction(q) ** (e // 2)
    return total


# even exponents down to v^-20, so that most values have a q-denominator
even_laurents = st.dictionaries(
    st.integers(-10, 6).map(lambda k: 2 * k), ints, max_size=5
).map(Laurent)


@PROPERTY_SETTINGS
@given(st.one_of(even_laurents, laurents), st.integers(-30, 1031).filter(bool))
def test_at_q_matches_the_fraction_sum(x, q):
    try:
        expected = at_q_fraction_sum(x, q)
    except ValueError:
        with pytest.raises(ValueError, match="odd v-exponent"):
            x.at_q(q)
        return
    value = x.at_q(q)
    assert type(value) is (int if expected.denominator == 1 else Fraction)
    assert value == expected


def test_omega_prediction_is_the_int_fraction_sum():
    # `omega_point_count` specializes v^(2n) * omega-trace in Z: its
    # prediction is an int, q^n (q - 1) times the Fraction sum of the
    # omega-trace, at one divisor of each rational-support type of degree
    # <= 4 over every q <= 7, and at one point over every q of the wide-q grid
    cases = [(q, lam) for q in prime_powers_up_to(7) for n in range(1, 5)
             for lam in partitions(n) if len(lam) <= q]
    cases += [(q, (1,)) for q in prime_powers_up_to(1021)]
    for q, lam in cases:
        field = field_from_q(q)
        divisor = EffectiveDivisor.from_pairs(
            [(rational_point(field, c), m) for c, m in enumerate(lam)])
        n = divisor.degree
        _, predicted, _ = omega_point_count(n, divisor, field)
        assert type(predicted) is int
        assert predicted == q**n * (q - 1) * at_q_fraction_sum(
            trace_omega_tilde(n, divisor), q)


@PROPERTY_SETTINGS
@given(small_values, small_values)
def test_equal_values_hash_equal(x, y):
    # equal values never hash apart: ints hash alike, and a Laurent value,
    # mutable, refuses to hash at all; an int and a Laurent value are never
    # equal
    if isinstance(x, int) is not isinstance(y, int):
        assert x != y and y != x
    if x == y:
        for value in (x, y):
            if isinstance(value, Laurent):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(value)
        if isinstance(x, int) and isinstance(y, int):
            assert hash(x) == hash(y)


@PROPERTY_SETTINGS
@given(laurents, ints)
def test_copies_and_constants_hash_equal(a, n):
    # a copy equals its original, and the constant n is the value {0: n},
    # which is not the int n but specializes to it; neither Laurent hashes
    assert Laurent(dict(a.terms)) == a
    assert Laurent({0: n}) != n and Laurent({0: n}).at_q(2) == n
    for value in (a, Laurent(dict(a.terms)), Laurent({0: n})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@PROPERTY_SETTINGS
@given(ints)
def test_k_element_values_are_unhashable(n):
    # a KElement is mutable too, so it does not hash; the immutable IC
    # symbols that key it still do
    s = symbol(2, "sign", 1)
    assert {s: 1}[symbol(2, "sign", 1)] == 1
    for value in (KElement(), KElement({s: n or 1})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(FIELDS),
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_traces_multiply_over_disjoint_supports(field, n, n1, seed):
    n1 = min(n1, n - 1)
    n2 = n - n1
    d1, d2 = random_disjoint_pair(random.Random(seed), field, n1, n2)
    d = d1 + d2
    assert trace_omega_tilde(n, d) == trace_omega_tilde(n1, d1) * trace_omega_tilde(n2, d2)
    assert trace_gr_psi(n, d) == trace_gr_psi(n1, d1) * trace_gr_psi(n2, d2)
    assert trace_plo(n, d) == trace_plo(n1, d1) * trace_plo(n2, d2)


def reconstruct_descending(delta):
    """Oracle for `reconstruct_from_difference`: work up the weight grading
    (lowest weight, so highest twist, first), move each extremal term of the
    remainder into G and subtract its (-1) twist.  A remainder that survives
    above the original support can never clear, and the input was not a
    difference."""
    if not delta.terms:
        return KElement()
    ceiling = max(s.weight for s in delta.terms)
    g = KElement()
    remainder = delta
    while remainder.terms:
        bottom = min(s.weight for s in remainder.terms)
        if bottom > ceiling:
            raise ReconstructionError("input is not a difference G - G(-1)", remainder)
        batch = KElement({s: c for s, c in remainder.terms.items()
                          if s.weight == bottom})
        g = g + batch
        remainder = remainder - (batch - batch.twisted(-1))
    return g


def _k_element(raw):
    terms = {}
    for k, rep_index, half_twist, c in raw:
        reps = partitions(k)
        sym = symbol(k, reps[rep_index % len(reps)], Fraction(half_twist, 2))
        terms[sym] = terms.get(sym, 0) + c
    return KElement(terms)


# k <= 4, every S_k irreducible, integral and half-integral twists mixed in
# one element, and zero coefficients among the terms
k_elements = st.lists(
    st.tuples(
        st.integers(1, 4), st.integers(0, 4), st.integers(-8, 8), st.integers(-3, 3)
    ),
    max_size=8,
).map(_k_element)
differences = k_elements.map(lambda g: g - g.twisted(-1))


def _class_sums(element):
    sums = {}
    for s, c in element.terms.items():
        cls = (s.k, s.rep, s.weight % 2)
        sums[cls] = sums.get(cls, 0) + c
    return {cls: total for cls, total in sums.items() if total}


@PROPERTY_SETTINGS
@given(st.one_of(k_elements, differences))
def test_reconstruction_matches_descending_oracle(delta):
    try:
        expected = reconstruct_descending(delta)
    except ReconstructionError:
        with pytest.raises(ReconstructionError):
            reconstruct_from_difference(delta)
    else:
        assert reconstruct_from_difference(delta) == expected


# two values of one type: Laurent values or K-elements
same_type_pairs = st.one_of(
    st.tuples(laurents, laurents), st.tuples(k_elements, k_elements)
)


@PROPERTY_SETTINGS
@given(same_type_pairs)
def test_combinations_are_a_group_that_keeps_no_zero_and_its_own_type(pair):
    x, y = pair
    assert x + y == y + x
    assert (x + y) - y == x
    assert -(-x) == x
    own = x * y if isinstance(x, Laurent) else x.twisted(-1)
    for value in (x, y, x + y, x - y, x - x, -x, own):
        assert type(value) is type(x)
        assert 0 not in value.terms.values(), value.terms
    # a value equals neither an int (its coefficients and 0 included) nor the
    # other type with the same dict, and adds to neither
    other = KElement(x.terms) if isinstance(x, Laurent) else Laurent(x.terms)
    assert x != other and other != x
    for n in {0, 1, *x.terms.values()}:
        assert x != n and n != x
        with pytest.raises(TypeError, match="unsupported operand"):
            x + n
    with pytest.raises(TypeError, match="unsupported operand"):
        x - other


@PROPERTY_SETTINGS
@given(k_elements, k_elements)
def test_k_element_difference_is_the_sum_with_the_negative(a, b):
    diff = a - b
    assert diff == a + KElement({s: -c for s, c in b.terms.items()})
    assert diff.terms == {
        s: a.terms.get(s, 0) - b.terms.get(s, 0)
        for s in a.terms.keys() | b.terms.keys()
        if a.terms.get(s, 0) != b.terms.get(s, 0)
    }
    assert not (a - a).terms


# integral m as an int and half-integral m as a Fraction
twist_shifts = st.integers(-12, 12).map(
    lambda h: h // 2 if h % 2 == 0 else Fraction(h, 2)
)


@PROPERTY_SETTINGS
@given(k_elements, twist_shifts)
def test_twisting_by_m_and_back_is_the_identity(g, m):
    shifted = g.twisted(m)
    assert shifted.twisted(-m) == g
    # an int m and the equal Fraction give the same element, of int weights
    assert shifted == g.twisted(Fraction(m))
    assert all(type(s.weight) is int for s in shifted.terms)


@PROPERTY_SETTINGS
@given(k_elements)
def test_reconstruction_inverts_the_difference(g):
    assert reconstruct_from_difference(g - g.twisted(-1)) == g


@PROPERTY_SETTINGS
@given(k_elements)
def test_reconstruction_residual_holds_the_nonzero_class_sums(delta):
    sums = _class_sums(delta)
    if not sums:
        reconstruct_from_difference(delta)
        return
    with pytest.raises(ReconstructionError) as err:
        reconstruct_from_difference(delta)
    residual = err.value.residual
    assert residual.terms
    assert _class_sums(residual) == sums
    for s, c in residual.terms.items():
        cls = (s.k, s.rep, s.weight % 2)
        highest = max(t.weight for t in delta.terms
                      if (t.k, t.rep, t.weight % 2) == cls)
        assert (s.weight, c) == (highest + 2, sums[cls])


@st.composite
def virtual_characters(draw):
    """k <= 6 and a multiplicity for every S_k irreducible, zero and
    negative ones included."""
    k = draw(st.integers(1, 6))
    return k, {lam: draw(st.integers(-3, 3)) for lam in partitions(k)}


@PROPERTY_SETTINGS
@given(virtual_characters())
def test_decomposition_returns_exactly_the_nonzero_multiplicities(case):
    k, mults = case
    values = {
        c: sum(m * murnaghan_nakayama(lam, c) for lam, m in mults.items())
        for c in partitions(k)
    }
    assert decompose_class_function(values, k) == {
        lam: m for lam, m in mults.items() if m
    }
