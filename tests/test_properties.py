"""Property-based tests: Laurent ring laws, exact division, hashing, and the
multiplicativity of the traces over disjoint supports."""

import random

from divisor_utils import random_disjoint_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from vinbun.arith import Laurent, build_field
from vinbun.kcalc import SIGN_RULES, trace_gr_psi, trace_omega_tilde, trace_plo

# small and derandomized, so the suite stays fast and repeatable
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, database=None, derandomize=True
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-4, 4), max_size=4
).map(Laurent)
nonzero_laurents = laurents.filter(lambda x: not x.is_zero())
ints = st.integers(-(10**20), 10**20)
# a small domain, so that equal pairs come up often
small_values = st.one_of(
    st.integers(-2, 2),
    st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(Laurent),
)

FIELDS = [build_field(2, 1), build_field(3, 1), build_field(2, 2)]


@PROPERTY_SETTINGS
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Laurent.zero() == a
    assert a * Laurent.one() == a
    assert (a - a).is_zero()
    assert a - b == -(b - a)


@PROPERTY_SETTINGS
@given(laurents, ints)
def test_laurent_mixes_with_ints(a, n):
    assert a + n == a + Laurent.from_int(n)
    assert n * a == Laurent.from_int(n) * a
    assert n - a == Laurent.from_int(n) - a


@PROPERTY_SETTINGS
@given(laurents, nonzero_laurents)
def test_exact_div_round_trip(a, b):
    assert (a * b).exact_div(b) == a


@PROPERTY_SETTINGS
@given(small_values, small_values)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)


@PROPERTY_SETTINGS
@given(laurents, ints)
def test_copies_and_constants_hash_equal(a, n):
    assert hash(Laurent(dict(a.coeffs))) == hash(a)
    assert Laurent.from_int(n) == n
    assert hash(Laurent.from_int(n)) == hash(n)


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
    for rule in SIGN_RULES:
        assert trace_gr_psi(n, d, rule) == trace_gr_psi(n1, d1, rule) * trace_gr_psi(
            n2, d2, rule
        )
        assert trace_plo(n, d, rule) == trace_plo(n1, d1, rule) * trace_plo(n2, d2, rule)
