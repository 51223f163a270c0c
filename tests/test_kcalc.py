import random
from fractions import Fraction

import pytest

from vinbun.arith import (
    EffectiveDivisor,
    Laurent,
    build_field,
    enumerate_closed_points,
    enumerate_divisors,
    rational_point,
)
from vinbun.kcalc import (
    SIGN_RULES,
    IcSymbol,
    KElement,
    NormLedger,
    ReconstructionError,
    StalkNotDeterminedError,
    boundary_stalk_trace,
    default_ledger,
    evaluate_spec,
    gr_psi_spec,
    ic_kernel_k_element,
    nearby_vs_boundary_check,
    omega_tilde_spec,
    plo_k_element,
    plo_spec,
    reconstruct_from_difference,
    spec_degree,
    symbol,
    trace_ext_exterior,
    trace_gr_psi,
    trace_k_element,
    trace_omega_tilde,
    trace_plo,
    _gr_psi_factor,
    _omega_tilde_factor,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)


def point_of_degree(field, d, index=0):
    pts = [p for p in enumerate_closed_points(field, d) if p.degree == d]
    return pts[index]


def div(pairs):
    return EffectiveDivisor.from_pairs(pairs)


V = Laurent.v()
ONE = Laurent.one()


# ---------------------------------------------------------------------------
# exterior power traces
# ---------------------------------------------------------------------------


def test_ext_exterior_rank1_single_point_degree3():
    x3 = point_of_degree(F2, 3)
    val = trace_ext_exterior(3, (ONE,), div([(x3, 1)]))
    assert val == ONE  # (-1)^(3+1) * 1^3


def test_ext_exterior_rank1_vanishes_at_multiplicity():
    x = rational_point(F2, 0)
    assert trace_ext_exterior(2, (ONE,), div([(x, 2)])).is_zero()


def test_ext_exterior_rank2_split_pair():
    x1, x2 = rational_point(F3, 0), rational_point(F3, 1)
    val = trace_ext_exterior(2, (V, Laurent.v(-1)), div([(x1, 1), (x2, 1)]))
    assert val == (V + Laurent.v(-1)) ** 2


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
    expected = (ONE - Laurent.monomial(-2)) ** 2
    assert trace_gr_psi(2, div([(x1, 1), (x2, 1)])) == expected


# ---------------------------------------------------------------------------
# trace specification AST agrees with the direct formulas
# ---------------------------------------------------------------------------


def test_spec_degrees():
    assert spec_degree(omega_tilde_spec(3)) == 3
    assert spec_degree(gr_psi_spec(2)) == 2
    assert spec_degree(plo_spec(4)) == 4


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_spec_ast_matches_direct_formulas(field):
    # the splitting sums of the spec AST are the oracle for the per-point
    # products, on every divisor and under both sign rules
    for n in range(5):
        omega = omega_tilde_spec(n)
        psi = gr_psi_spec(n)
        plo = plo_spec(n)
        for d in enumerate_divisors(field, n):
            assert evaluate_spec(omega, d) == trace_omega_tilde(n, d)
            for rule in SIGN_RULES:
                assert evaluate_spec(psi, d, rule) == trace_gr_psi(n, d, rule)
                assert evaluate_spec(plo, d, rule) == trace_plo(n, d, rule)


def test_per_point_factor_caches_are_bounded():
    for fn in (_gr_psi_factor, _omega_tilde_factor):
        assert fn.cache_info().maxsize is not None


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
# the boundary identity and its calibration
# ---------------------------------------------------------------------------


def test_calibration_constant():
    ledger = NormLedger.calibrated()
    assert ledger.c(1) == Laurent.monomial(-2)
    assert ledger.c(3) == Laurent.monomial(-6)
    assert ledger.ic_shift_twist(2) == (1, Laurent.monomial(-2))
    assert ledger.ic_shift_twist(3)[0] == -1
    assert ledger.triangle_factor == Laurent.monomial(1, -1)


def test_nearby_vs_boundary_small_cases():
    x = rational_point(F3, 0)
    assert nearby_vs_boundary_check(1, div([(x, 1)]))
    assert nearby_vs_boundary_check(2, div([(x, 2)]))
    y = point_of_degree(F3, 2)
    assert nearby_vs_boundary_check(2, div([(y, 1)]))


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


def test_flip_deep_sign_rule_breaks_the_identity():
    # the m >= 2, d >= 2 sign is pinned by divisors containing 2*(degree-2 point)
    y = point_of_degree(F2, 2)
    d = div([(y, 2)])
    assert nearby_vs_boundary_check(4, d, sign_rule="calibrated")
    assert not nearby_vs_boundary_check(4, d, sign_rule="flip-deep")
    # and is invisible on the divisors the paper fixes directly
    x = rational_point(F2, 0)
    assert trace_plo(2, div([(x, 2)]), sign_rule="flip-deep") == trace_plo(
        2, div([(x, 2)])
    )


# ---------------------------------------------------------------------------
# K-elements: golden reconstruction, oscillator expansion, stalks
# ---------------------------------------------------------------------------


def s2_sign(t):
    return symbol(2, "sign", t)


def s2_triv(t):
    return symbol(2, "trivial", t)


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


def test_reconstruction_golden_case():
    delta = KElement(
        {s2_triv(0): 1, s2_triv(-1): -1, s2_sign(1): 1, s2_sign(-2): -1}
    )
    g = reconstruct_from_difference(delta)
    assert g == KElement(
        {s2_sign(1): 1, s2_sign(0): 1, s2_sign(-1): 1, s2_triv(0): 1}
    )


def test_reconstruction_zero():
    assert reconstruct_from_difference(KElement.zero()) == KElement.zero()


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
    assert not err.value.residual.is_zero()


def test_trace_k_element_diagonal_rules():
    x = rational_point(F2, 0)
    d2x = div([(x, 2)])
    assert trace_k_element(KElement.of(s2_triv(0)), d2x) == Laurent.monomial(-2)
    assert trace_k_element(KElement.of(s2_sign(1)), d2x).is_zero()


def test_trace_k_element_refuses_deep_stalks():
    f2 = F2
    x = rational_point(f2, 0)
    deep = div([(x, 3)])
    el = KElement.of(symbol(3, "sign", 0))
    with pytest.raises(StalkNotDeterminedError):
        trace_k_element(el, deep)
    # but the constant sheaf is defined everywhere
    const = KElement.of(symbol(3, "trivial", 0))
    assert trace_k_element(const, deep) == Laurent.monomial(-3, -1)


def test_trace_k_element_degree_mismatch():
    x = rational_point(F2, 0)
    with pytest.raises(ValueError):
        trace_k_element(KElement.of(s2_triv(0)), div([(x, 1)]))


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_plo_k_element_traces_match_plo(field):
    el = plo_k_element(2)
    for d in enumerate_divisors(field, 2):
        assert trace_k_element(el, d) == trace_plo(2, d)


def test_k_element_weight_grading():
    s = s2_sign(1)
    assert s.weight == -2
    assert symbol(1, (1,), Fraction(1, 2)).weight == -1


def test_default_ledger_is_cached():
    assert default_ledger() is default_ledger()
