import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import count, islice, product
from math import factorial, prod
from operator import mul

import pytest
from divisor_utils import rational_point
from kernel_oracle import lowering_kernel_reps

from vinbun.arith import (
    ClosedPoint,
    EffectiveDivisor,
    Laurent,
    build_field,
    compositions,
    enumerate_closed_points,
    enumerate_divisors,
    is_irreducible,
    iter_decompositions,
)
from vinbun import kcalc
from vinbun.kcalc import (
    BOUNDARY,
    GR_PSI,
    OMEGA_TILDE,
    PLO,
    IcSymbol,
    KElement,
    NormLedger,
    ReconstructionError,
    boundary_stalk_trace,
    divisor_type,
    evaluate,
    ic_kernel_k_element,
    nearby_vs_boundary,
    plo_k_element,
    reconstruct_from_difference,
    symbol,
    trace_gr_psi,
    trace_k_element,
    trace_omega_tilde,
    trace_plo,
    _point_factor,
    _stalk_coefficient,
)
from vinbun.lefschetz import MAX_BRUTE_K, brute_force_schur_weyl
from vinbun.symrep import class_size, murnaghan_nakayama, partitions

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)


def point_of_degree(field, d, index=0):
    pts = [p for p in enumerate_closed_points(field, d) if p.degree == d]
    return pts[index]


def div(pairs):
    return EffectiveDivisor.from_pairs(pairs)


V = Laurent.monomial(1)
ONE = Laurent({0: 1})
ONE_MINUS_Q = ONE - Laurent.monomial(2)


# ---------------------------------------------------------------------------
# the splitting-sum definition of the traces (the evaluator's oracle)
# ---------------------------------------------------------------------------


STANDARD = (V, Laurent.monomial(-1))  # Frobenius eigenvalues of the rank-2 system
TRIVIAL = (ONE,)

# Each spec by its definition: v^(scale n) times the splitting sum over its
# slots, None for the constant sheaf and (eigenvalues, shift, twist) for an
# external exterior power shifted by [shift j] and twisted by (twist j) on
# its degree-j piece.
DEFINITIONS = {
    PLO: (((STANDARD, 1, Fraction(1, 2)),), 0),
    OMEGA_TILDE: ((None, (TRIVIAL, 1, Fraction(1))), 0),
    GR_PSI: ((None, (STANDARD, 1, Fraction(-1, 2)), None), -2),
    BOUNDARY: ((None, (TRIVIAL, 1, Fraction(-1))), 0),
}


def elementary_symmetric(values, m):
    """e_m of a list of Laurent values (e_0 = 1), by the product expansion."""
    es = [ONE] + [Laurent()] * m
    for x in values:
        for j in range(m, 0, -1):
            es[j] = es[j] + x * es[j - 1]
    return es[m]


def local_exterior_factor(degree, multiplicity, eigenvalues, sign_rule="calibrated"):
    """Frobenius trace of the m-th exterior power of a rank-r stalk at a
    degree-d point: zero for m > r, otherwise (-1)^((d+1) m), negated for
    d, m >= 2 under "flip-deep", times e_m of the d-th powers of the
    eigenvalues.  "flip-deep" is the planted fault of the nearby control
    (`test_controls.py`)."""
    if multiplicity > len(eigenvalues):
        return Laurent()
    sign = (-1) ** ((degree + 1) * multiplicity)
    if sign_rule == "flip-deep" and degree >= 2 and multiplicity >= 2:
        sign = -sign
    powered = [reduce(mul, [alpha] * degree, ONE) for alpha in eigenvalues]
    return Laurent({0: sign}) * elementary_symmetric(powered, multiplicity)


def shifted_twisted(value, shift, twist):
    """value[shift](twist): the sign (-1)^shift times v^(-2 twist)."""
    exponent = -2 * twist
    assert exponent.denominator == 1, f"twist {twist} is not a half-integer"
    return Laurent.monomial(int(exponent), (-1) ** shift) * value


def trace_ext_exterior(n, eigenvalues, divisor, shift=0, twist=0):
    """Trace of the n-th external exterior power of a local system with the
    given Frobenius eigenvalues, shifted by [shift] and twisted by (twist),
    at the divisor."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    out = Laurent({0: 1})
    for pt, m in divisor:
        out = out * local_exterior_factor(pt.degree, m, eigenvalues)
    return shifted_twisted(out, shift, twist)


def splitting_sum(spec, n, divisor):
    """A spec's trace by its definition: v^(scale n) times the sum over every
    split of n into slot degrees and every splitting of D into pieces of
    those degrees of the product of the slot traces, 1 on a constant slot
    and the exterior trace of the whole piece on an exterior slot."""
    slots, scale = DEFINITIONS[spec]
    total = Laurent()
    for degrees in compositions(n, len(slots)):
        for pieces in iter_decompositions(divisor, degrees):
            term = Laurent({0: 1})
            for slot, j, piece in zip(slots, degrees, pieces):
                if slot is not None:
                    eigenvalues, shift, twist = slot
                    term = term * trace_ext_exterior(
                        j, eigenvalues, piece, shift * j, twist * j
                    )
            total = total + term
    return Laurent.monomial(scale * n) * total


# ---------------------------------------------------------------------------
# exterior power traces
# ---------------------------------------------------------------------------


def test_ext_exterior_rank1_single_point_degree3():
    x3 = point_of_degree(F2, 3)
    val = trace_ext_exterior(3, (ONE,), div([(x3, 1)]))
    assert val == ONE  # (-1)^(3+1) * 1^3


def test_ext_exterior_rank1_vanishes_at_multiplicity():
    x = rational_point(F2, 0)
    assert not trace_ext_exterior(2, (ONE,), div([(x, 2)])).terms


def test_ext_exterior_rank2_split_pair():
    x1, x2 = rational_point(F3, 0), rational_point(F3, 1)
    val = trace_ext_exterior(2, (V, Laurent.monomial(-1)), div([(x1, 1), (x2, 1)]))
    assert val == (V + Laurent.monomial(-1)) * (V + Laurent.monomial(-1))


def test_ext_exterior_degree_mismatch():
    with pytest.raises(ValueError):
        trace_ext_exterior(2, (ONE,), div([(rational_point(F2, 0), 1)]))


# ---------------------------------------------------------------------------
# oscillator traces
# ---------------------------------------------------------------------------


def test_plo_frozen_values():
    x = rational_point(F3, 0)
    x1, x2 = rational_point(F3, 1), rational_point(F3, 2)
    assert trace_plo(1, div([(x, 1)])) == -ONE - Laurent.monomial(-2)
    assert trace_plo(2, div([(x, 2)])) == Laurent.monomial(-2)
    assert trace_plo(2, div([(x1, 1), (x2, 1)])) == (
        Laurent.monomial(-4) + Laurent.monomial(-2, 2) + ONE
    )
    y = point_of_degree(F3, 2)
    assert trace_plo(2, div([(y, 1)])) == -ONE - Laurent.monomial(-4)


def test_omega_tilde_frozen_values():
    x = rational_point(F3, 0)
    assert trace_omega_tilde(1, div([(x, 1)])) == ONE - Laurent.monomial(-2)
    assert trace_omega_tilde(2, div([(x, 2)])) == ONE - Laurent.monomial(-2)
    y = point_of_degree(F3, 2)
    assert trace_omega_tilde(2, div([(y, 1)])) == ONE - Laurent.monomial(-4)


def test_omega_tilde_specializations():
    # q * omega(1, x) = q - 1: the open Zastava fiber count over a point
    x = rational_point(F3, 0)
    val = trace_omega_tilde(1, div([(x, 1)])).at_q(3)
    assert 3 * val == 2


def test_gr_psi_frozen_values():
    x = rational_point(F3, 0)
    x1, x2 = rational_point(F3, 1), rational_point(F3, 2)
    assert trace_gr_psi(1, div([(x, 1)])) == Laurent.monomial(-2) - ONE
    assert trace_gr_psi(2, div([(x, 2)])) == Laurent.monomial(-4) - Laurent.monomial(-2)
    expected = (ONE - Laurent.monomial(-2)) * (ONE - Laurent.monomial(-2))
    assert trace_gr_psi(2, div([(x1, 1), (x2, 1)])) == expected


# ---------------------------------------------------------------------------
# the one evaluator agrees with the splitting-sum definition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_spec_ast_matches_direct_formulas(field):
    # the splitting sums of every spec are the oracle for the per-point
    # products, on every divisor
    for n in range(5):
        for d in enumerate_divisors(field, n):
            assert splitting_sum(OMEGA_TILDE, n, d) == trace_omega_tilde(n, d)
            assert ONE_MINUS_Q * splitting_sum(BOUNDARY, n, d) == boundary_stalk_trace(d)
            assert splitting_sum(GR_PSI, n, d) == trace_gr_psi(n, d)
            assert splitting_sum(PLO, n, d) == trace_plo(n, d)


def plo_closed_form(k, divisor):
    """trace_plo from its stated values, without the exterior-power code: a
    point of degree d with multiplicity m contributes s (v^d + v^-d) at m = 1,
    s at m = 2 and 0 beyond the rank, with s = (-1)^((d+1) m); the whole is
    scaled by (-1)^k v^-k."""
    out = Laurent.monomial(-k, (-1) ** k)
    for pt, m in divisor:
        d = pt.degree
        if m > 2:
            return Laurent()
        sign = (-1) ** ((d + 1) * m)
        if m == 1:
            out = out * Laurent({d: sign, -d: sign})
        else:
            out = out * Laurent({0: sign})
    return out


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_plo_matches_closed_form_oracle(field):
    for k in range(6 if field.q < 4 else 5):
        for d in enumerate_divisors(field, k):
            assert trace_plo(k, d) == plo_closed_form(k, d), (k, d)


def composition_factor(spec, degree, multiplicity, sign_rule="calibrated"):
    """Oracle for `_point_factor`: the sum over every composition of m into
    the slots, constant slots included, of the product of the slot factors."""
    slots, _ = DEFINITIONS[spec]
    total = Laurent()
    for parts in compositions(multiplicity, len(slots)):
        term = Laurent({0: 1})
        for slot, b in zip(slots, parts):
            if slot is None or not b:
                continue
            eigenvalues, shift, twist = slot
            factor = local_exterior_factor(degree, b, eigenvalues, sign_rule)
            term = term * shifted_twisted(factor, shift * degree * b, twist * degree * b)
        total = total + term
    return total


def test_point_factor_matches_composition_oracle():
    for spec in (PLO, OMEGA_TILDE, GR_PSI, BOUNDARY):
        for d in range(1, 6):
            for m in range(10):
                assert _point_factor(spec, d, m) == composition_factor(spec, d, m), (
                    spec, d, m)


def test_point_factor_is_affine_in_the_multiplicity():
    # the rank-2 slot takes at most 2 of m, so L(d, m) is affine in m once
    # m >= 2
    for d in range(1, 5):
        step = _point_factor(GR_PSI, d, 3) - _point_factor(GR_PSI, d, 2)
        for m in (4, 7, 100, 12345):
            assert _point_factor(GR_PSI, d, m) == (
                _point_factor(GR_PSI, d, 2) + Laurent({0: m - 2}) * step), (d, m)


@pytest.mark.parametrize("spec", [PLO, OMEGA_TILDE, GR_PSI, BOUNDARY])
def test_point_factor_is_the_degree_one_factor_at_v_to_the_d(spec):
    # base change: Frob_q on the stalk at a degree-d point has the trace of
    # Frob_(q^d) at one of its geometric points, so v becomes v^d
    for m in range(9):
        one = _point_factor(spec, 1, m)
        for d in range(1, 7):
            expected = Laurent({d * e: c for e, c in one.terms.items()})
            assert _point_factor(spec, d, m) == expected, (d, m)


def test_traces_do_not_alias_cached_factors():
    x = rational_point(F3, 0)
    d = div([(x, 1)])
    for trace in (lambda: trace_omega_tilde(1, d), lambda: boundary_stalk_trace(d),
                  lambda: trace_gr_psi(1, d), lambda: trace_plo(1, d)):
        before = trace()
        trace().terms[0] = 99
        assert trace() == before


def per_point_product(spec, n, divisor):
    """A spec's trace as the product of its per-point factors, one divisor
    at a time: the oracle for the per-type evaluator."""
    out = Laurent.monomial(spec.scale * n)
    for pt, m in divisor:
        out = out * _point_factor(spec, pt.degree, m)
    return out


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_evaluate_matches_per_point_product_oracle(field):
    for n in range(5):
        for d in enumerate_divisors(field, n):
            for spec in (PLO, OMEGA_TILDE, GR_PSI, BOUNDARY):
                assert evaluate(spec, n, d) == per_point_product(spec, n, d)


def test_evaluate_depends_on_the_divisor_type_only():
    # two divisors of type ((1, 1), (2, 2)) over F_3, with no point in common
    x, y = rational_point(F3, 0), rational_point(F3, 1)
    u, w = point_of_degree(F3, 2, 0), point_of_degree(F3, 2, 1)
    d1, d2 = div([(x, 1), (u, 2)]), div([(y, 1), (w, 2)])
    assert divisor_type(d1) == divisor_type(d2) == ((1, 1), (2, 2))
    with pytest.raises(ValueError, match="degree mismatch"):
        evaluate(PLO, 4, d1)
    assert nearby_vs_boundary(5, d1) == nearby_vs_boundary(5, d2)


def test_nearby_sides_do_not_alias_the_cache():
    y = point_of_degree(F3, 2)
    d = div([(rational_point(F3, 0), 1), (y, 2)])
    before = nearby_vs_boundary(5, d)
    for side in nearby_vs_boundary(5, d):
        side.terms[0] = 99
    assert nearby_vs_boundary(5, d) == before


# ---------------------------------------------------------------------------
# factorization over disjoint divisors
# ---------------------------------------------------------------------------


def test_traces_multiplicative_on_disjoint_divisors():
    from divisor_utils import random_disjoint_pair

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 4)
        n1 = rng.randint(1, n - 1)
        d1, d2 = random_disjoint_pair(rng, F3, n1, n - n1)
        d = d1 + d2
        assert trace_plo(n, d) == trace_plo(n1, d1) * trace_plo(n - n1, d2)
        assert trace_omega_tilde(n, d) == trace_omega_tilde(n1, d1) * trace_omega_tilde(
            n - n1, d2
        )
        assert trace_gr_psi(n, d) == trace_gr_psi(n1, d1) * trace_gr_psi(n - n1, d2)


# ---------------------------------------------------------------------------
# the boundary identity and its certificate
# ---------------------------------------------------------------------------


def certificate_failures(max_degree=8, max_multiplicity=64):
    """The (spec, d, m) on the grid where the local factor of GR_PSI or
    BOUNDARY is not 1 - u^2, u = v^d, each with the factor found there.  It
    reads `kcalc._point_factor`, where `tests/test_controls.py` plants the
    negated deep sign."""
    return {
        (spec, d, m): found
        for spec in (GR_PSI, BOUNDARY)
        for d in range(1, max_degree + 1)
        for m in range(1, max_multiplicity + 1)
        if (found := kcalc._point_factor(spec, d, m)) != ONE - Laurent.monomial(2 * d)
    }


def test_nearby_and_boundary_local_factors_are_one_minus_u_squared():
    """The certificate of the nearby identity: at every point, of any degree
    d and multiplicity m >= 1, GR_PSI and BOUNDARY have the local factor
    1 - u^2 with u = v^d.  So (1 - q) tr(grPsi) = v^(-2n) (boundary stalk)
    at every divisor of degree n over every F_q: both sides are v^(scale n)
    of GR_PSI times (1 - q) times one product of local factors.

    The grid below proves it for all d and m:
    * For m >= 2 the shares b run over 0..rank whatever m is, and the share
      b has the coefficient (-1)^b C(m - b + c - 1, m - b): m - b + 1 for
      GR_PSI (c = 2) and 1 for BOUNDARY (c = 1).  Each coefficient is affine
      in m, so m = 2 and m = 3 settle every m >= 2; m = 1 is its own case.
    * Every exponent of `_point_factor` is a multiple of d (weight d b, and
      weight d b +- d at b = 1 on rank 2), and the sign is (-1)^b whatever
      d is.  So the factor at d is the factor at d = 1 with v replaced by
      v^d, and d = 1 settles every d."""
    assert certificate_failures() == {}


def test_calibration_constant():
    ledger = NormLedger.calibrated()
    assert ledger.c(1) == Laurent.monomial(-2)
    assert ledger.c(3) == Laurent.monomial(-6)


def test_nearby_vs_boundary_small_cases():
    x = rational_point(F3, 0)
    y = point_of_degree(F3, 2)
    for n, d in ((1, div([(x, 1)])), (2, div([(x, 2)])), (2, div([(y, 1)]))):
        lhs, rhs = nearby_vs_boundary(n, d)
        assert lhs == rhs, d


def test_nearby_vs_boundary_numeric_example():
    # n=1, q=3: both sides equal (1-q)^2 / q
    x = rational_point(F3, 0)
    lhs = trace_gr_psi(1, div([(x, 1)])).at_q(3)
    assert lhs == Fraction((1 - 3), 3)
    assert boundary_stalk_trace(div([(x, 1)])).at_q(3) == (1 - 3) * (1 - 3)


def test_boundary_product_over_distinct_points_only():
    # Pi runs over distinct points: 2x and x give the same product factor
    x = rational_point(F2, 0)
    assert boundary_stalk_trace(div([(x, 2)])) == boundary_stalk_trace(div([(x, 1)]))


# ---------------------------------------------------------------------------
# K-elements: golden reconstruction, oscillator expansion, stalks
# ---------------------------------------------------------------------------


def s2_sign(t):
    return symbol(2, "sign", t)


def s2_triv(t):
    return symbol(2, "trivial", t)


def twisted(s, m):
    """The symbol s(m): its weight minus 2m."""
    return IcSymbol(s.k, s.rep, s.weight - 2 * m)


def test_plo_k_element_k2_matches_golden_expansion():
    expected = KElement(
        {s2_sign(1): 1, s2_sign(0): 1, s2_sign(-1): 1, s2_triv(0): 1}
    )
    assert plo_k_element(2) == expected


def test_plo_k_element_k1():
    rho = symbol(1, (1,), Fraction(1, 2))
    rho2 = symbol(1, (1,), Fraction(-1, 2))
    assert plo_k_element(1) == KElement({rho: 1, rho2: 1})


def test_ic_kernel_k_element():
    assert ic_kernel_k_element(2) == KElement({s2_sign(1): 1, s2_triv(0): 1})


def test_ic_symbol_twists_compare_and_hash_across_types():
    # the weight -2t is stored as an int, whether the twist came as an int or
    # a Fraction, so the symbols built either way are the same symbol
    a = symbol(2, "sign", 1)
    b = IcSymbol(2, (1, 1), -2)
    same = [a, b, twisted(a, 0), twisted(b, 0), symbol(2, "sign", Fraction(1)),
            symbol(2, "sign", Fraction(2, 2))]
    for x in same:
        for y in same:
            assert x == y
            assert hash(x) == hash(y)
    assert {a: 5}[b] == 5
    assert {b: 7}[twisted(a, 0)] == 7
    assert len(set(same)) == 1
    assert KElement({a: 1}) == KElement({b: 1})
    half = Fraction(1, 2)
    assert twisted(a, half) == symbol(2, "sign", Fraction(3, 2))
    assert twisted(twisted(a, half), half) == symbol(2, "sign", 2)
    g = KElement({a: 1, symbol(1, (1,), half): 2})
    elements = [g, g.twisted(half), g.twisted(-3), g.twisted(Fraction(7, 2)),
                plo_k_element(4), ic_kernel_k_element(3)]
    assert all(type(s.weight) is int for el in elements for s in el.terms)


def test_ic_symbol_repr_unchanged():
    assert repr(plo_k_element(1)) == "Ql(1/2) + Ql(-1/2)"
    assert repr(ic_kernel_k_element(3)) == "sign(3/2) + IC(2, 1)(1/2)"
    assert repr(symbol(2, "sign", -2)) == "sign(-2)"
    assert repr(IcSymbol(2, (2,), 6)) == "Ql(-3)"
    assert repr(IcSymbol(2, (2,), 0)) == "Ql(0)"
    assert repr(twisted(symbol(1, (1,), Fraction(-1, 2)), -1)) == "Ql(-3/2)"


def test_reconstruction_golden_case():
    delta = KElement(
        {s2_triv(0): 1, s2_triv(-1): -1, s2_sign(1): 1, s2_sign(-2): -1}
    )
    g = reconstruct_from_difference(delta)
    assert g == KElement(
        {s2_sign(1): 1, s2_sign(0): 1, s2_sign(-1): 1, s2_triv(0): 1}
    )


def test_reconstruction_zero():
    assert reconstruct_from_difference(KElement()) == KElement()


def test_reconstruction_random_roundtrips():
    rng = random.Random(1234)
    reps = [(2,), (1, 1)]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 10)):
            sym = symbol(2, rng.choice(reps), Fraction(rng.randint(-5, 5)))
            terms[sym] = terms.get(sym, 0) + rng.randint(-3, 3)
        g = KElement(terms)
        delta = g - g.twisted(-1)
        assert reconstruct_from_difference(delta) == g


def test_reconstruction_rejects_non_difference():
    with pytest.raises(ReconstructionError) as err:
        reconstruct_from_difference(KElement({s2_triv(0): 1}))
    assert err.value.residual.terms


def test_trace_k_element_diagonal_rules():
    x = rational_point(F2, 0)
    d2x = div([(x, 2)])
    assert trace_k_element(KElement({s2_triv(0): 1}), d2x) == Laurent.monomial(-2)
    assert not trace_k_element(KElement({s2_sign(1): 1}), d2x).terms


def test_trace_k_element_at_deep_stalks():
    x, y = rational_point(F2, 0), rational_point(F2, 1)
    deep = div([(x, 3)])
    # <s_(1,1,1), h_3> = 0: the sign sheaf on X^(3) vanishes at 3x
    assert not trace_k_element(KElement({symbol(3, "sign", 0): 1}), deep).terms
    # <s_(2,1), h_2 h_1> = 1 at 2x + y
    ic21 = KElement({symbol(3, (2, 1), 0): 1})
    assert trace_k_element(ic21, div([(x, 2), (y, 1)])) == Laurent.monomial(-3, -1)
    # the constant sheaf is 1 at every divisor
    const = KElement({symbol(3, "trivial", 0): 1})
    assert trace_k_element(const, deep) == Laurent.monomial(-3, -1)


def test_trace_k_element_degree_mismatch():
    x = rational_point(F2, 0)
    with pytest.raises(ValueError):
        trace_k_element(KElement({s2_triv(0): 1}), div([(x, 1)]))


def test_trace_k_element_refuses_a_twist_off_the_half_integers():
    # v^(-2t) needs 2t integral: symbol() and twisted() refuse any other
    # twist, so no such symbol reaches a trace at any kind of divisor
    x, y = rational_point(F2, 0), rational_point(F2, 1)
    for t in (Fraction(1, 3), Fraction(-5, 4)):
        for d in (div([(x, 1), (y, 1)]), div([(x, 2)])):
            with pytest.raises(ValueError, match=f"twist {t} is not a half-integer"):
                trace_k_element(KElement({symbol(2, "trivial", t): 1}), d)
            with pytest.raises(ValueError, match=f"twist {t} is not a half-integer"):
                trace_k_element(KElement({symbol(2, "trivial", 0): 1}).twisted(t), d)


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_plo_k_element_traces_match_plo(field):
    # both traces read a divisor only through its type, so one divisor of
    # each type is checked: every type at k <= 8 for q <= 3, multiple points
    # included, and at k <= 2 for q = 5
    for k in range(1, 9 if field.q <= 3 else 3):
        el = plo_k_element(k)
        one_of_each = {divisor_type(d): d for d in enumerate_divisors(field, k)}
        for d in one_of_each.values():
            assert trace_k_element(el, d) == trace_plo(k, d), (k, d)


def divisor_types(k, least=(1, 1)):
    """Every divisor type of degree k whose pairs are all >= least: the
    sorted tuples of (deg x, m) with the sum of deg x * m equal to k."""
    if k == 0:
        yield ()
        return
    for d in range(least[0], k + 1):
        for m in range(least[1] if d == least[0] else 1, k // d + 1):
            for rest in divisor_types(k - d * m, (d, m)):
                yield ((d, m),) + rest


def plethysm_by_power_sums(rep, dtype):
    """Oracle for `_stalk_coefficient`: h_m = sum over mu |- m of p_mu / z_mu,
    so prod h_m[p_d] sums p_c / prod z_(mu^x) over one mu^x per point, with
    c the union of the parts d mu^x, and <s_rep, p_c> = chi_rep(c)."""
    total = Fraction(0)
    for mus in product(*(partitions(m) for _, m in dtype)):
        cycle = sorted((d * part for (d, _), mu in zip(dtype, mus) for part in mu),
                       reverse=True)
        z = prod(factorial(sum(mu)) // class_size(mu) for mu in mus)
        total += Fraction(murnaghan_nakayama(rep, tuple(cycle)), z)
    return total


def test_stalk_coefficient_matches_the_power_sum_plethysm():
    pairs = 0
    for k in range(8):
        for dtype in divisor_types(k):
            for rep in partitions(k):
                assert _stalk_coefficient(rep, dtype) == plethysm_by_power_sums(
                    rep, dtype), (rep, dtype)
                pairs += 1
    assert pairs == 1351


def test_plo_k_element_traces_match_plo_at_every_divisor_type():
    # the first 10 // d points of each degree d over F_11 realize every type
    # of degree <= 10.  The constant term varies fastest: `monic_polys`
    # varies the t^(d-1) coefficient fastest, so it reaches a nonzero
    # constant term, and so an irreducible, only after 11^(d-1) polynomials
    f11 = build_field(11, 1)
    points = {}
    for d in range(1, 11):
        polys = (tuple(n // 11**i % 11 for i in range(d)) + (1,) for n in count())
        irreducible = (f for f in polys if is_irreducible(f11, f))
        points[d] = [ClosedPoint(degree=d, poly=f) for f in islice(irreducible, 10 // d)]
    types = 0
    for k in range(11):
        el = plo_k_element(k)
        for dtype in divisor_types(k):
            used = Counter()
            pairs = []
            for d, m in dtype:
                pairs.append((points[d][used[d]], m))
                used[d] += 1
            divisor = div(pairs)
            assert divisor_type(divisor) == dtype
            assert trace_k_element(el, divisor) == trace_plo(k, divisor), dtype
            types += 1
    assert types == 607


# ---------------------------------------------------------------------------
# the K-elements against the brute-force Schur-Weyl layer
# ---------------------------------------------------------------------------


def ladder_k_element(birep):
    """Oracle for `plo_k_element`: each summand U_m (x) rho of a bimodule
    gives rho at the twists m/2, m/2 - 1, ..., -m/2."""
    terms = {}
    for (lam, m), mult in birep.mults:
        for i in range(m + 1):
            sym = symbol(birep.k, lam, Fraction(m, 2) - i)
            terms[sym] = terms.get(sym, 0) + mult
    return KElement(terms)


def test_plo_k_element_matches_brute_force_schur_weyl():
    for k in range(1, MAX_BRUTE_K + 1):
        assert plo_k_element(k) == ladder_k_element(brute_force_schur_weyl(k)), k


def test_plo_k_element_is_reconstructed_from_its_difference():
    for k in range(1, MAX_BRUTE_K + 1):
        p_k = plo_k_element(k)
        assert reconstruct_from_difference(p_k - p_k.twisted(-1)) == p_k, k


def test_ic_kernel_k_element_matches_matrix_kernel():
    # ker(f) in the h-weight -m layer is the lowest weight line of U_m,
    # which carries twist m/2
    for k in range(1, MAX_BRUTE_K + 1):
        terms = {}
        for m, rep in lowering_kernel_reps(k).items():
            for lam, mult in rep.items():
                sym = symbol(k, lam, Fraction(m, 2))
                terms[sym] = terms.get(sym, 0) + mult
        assert ic_kernel_k_element(k) == KElement(terms), k
