"""Acceptance criteria A1..A12.

Every comparison is exact (integer or formal Laurent equality); each test
prints one pass/fail line (run with -s to see them on success).  Stated
runtime bounds are asserted where the criteria pin them.
"""

import itertools
import random
import time
from fractions import Fraction

from divisor_utils import alternative_moduli, random_disjoint_pair, scaled_hom
from hom_sweep import is_zero, iter_hom_matrices
from kernel_oracle import lowering_kernel_reps

from vinbun.arith import (
    EffectiveDivisor,
    Laurent,
    build_field,
    enumerate_closed_points,
    enumerate_divisors,
)
from vinbun.cli import field_from_q
from vinbun.drinfeld import defect_divisor_of_hom, drinfeld_value
from vinbun.kcalc import (
    KElement,
    NormLedger,
    ic_kernel_k_element,
    nearby_vs_boundary,
    reconstruct_from_difference,
    symbol,
    trace_gr_psi,
    trace_omega_tilde,
    trace_plo,
)
from vinbun.lefschetz import (
    brute_force_schur_weyl,
    predicted_schur_weyl,
)
from vinbun.localmodel import (
    build_system,
    count_points,
    expected_strata_counts,
    omega_point_count,
    strata_counts,
)


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def all_rational_divisors(field, n):
    points = [p for p in enumerate_closed_points(field, 1)]
    for combo in itertools.combinations_with_replacement(points, n):
        yield EffectiveDivisor.from_pairs((pt, 1) for pt in combo)


def test_a1_picard_lefschetz_counts():
    start = time.perf_counter()
    sys1 = build_system([1])
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_from_q(q)
        assert count_points(sys1, field, "zero") == 2 * q - 1
        for c in range(1, q):
            assert count_points(sys1, field, c) == q - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"A1 took {elapsed:.2f}s"
    report("A1", True,
           f"hyperbola counts q-1 / 2q-1 for q in 2..9 ({elapsed:.2f}s)")


def test_a2_omega_point_count_identity():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        for n in range(1, 5):
            for d in all_rational_divisors(field, n):
                count, predicted, closed_form = omega_point_count(n, d, field)
                assert count == predicted == closed_form, (q, d)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"A2 took {elapsed:.1f}s"
    report("A2", True,
           f"G-locus fiber counts match q^n(q-1)*omega on {checked} "
           f"all-rational divisors, n<=4, q<=5 ({elapsed:.1f}s)")


def test_a3_strata_counts():
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        for n in (1, 2, 3):
            counts = strata_counts(n, field)
            expected = {
                k: v for k, v in expected_strata_counts(n, q).items() if v
            }
            assert counts == expected, (q, n)
        assert count_points(build_system([2]), field, "zero") == 3 * q**2 - 2 * q
    report("A3", True,
           "defect strata over n*x match sum c(n1)c(n2); zero-d total 3q^2-2q")


def test_a4_schur_weyl():
    start = time.perf_counter()
    for k in range(1, 7):
        brute = brute_force_schur_weyl(k)
        assert brute == predicted_schur_weyl(k), k
        assert brute.total_dimension() == 1 << k
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"A4 took {elapsed:.1f}s"
    report("A4", True,
           f"sign-twisted Schur-Weyl brute force = closed form, k<=6 "
           f"({elapsed:.2f}s)")


def test_a5_kernel_of_n():
    for k in range(1, 7):
        closed = ic_kernel_k_element(k)
        # ker(f) in the h-weight -m layer, at the lowest weight twist m/2
        literal = KElement({
            symbol(k, lam, Fraction(m, 2)): mult
            for m, rep in lowering_kernel_reps(k).items()
            for lam, mult in rep.items()
        })
        assert len(closed.terms) == k // 2 + 1
        assert closed == literal, k
    expected = KElement({symbol(2, "sign", 1): 1, symbol(2, "trivial", 0): 1})
    assert ic_kernel_k_element(2) == expected
    report("A5", True,
           "kernel of the monodromy operator matches the matrix kernel, k<=6; "
           "icKernel(2) = sign(1) + Ql(0)")


def test_a6_reconstruction():
    delta = KElement(
        {
            symbol(2, "trivial", 0): 1,
            symbol(2, "trivial", -1): -1,
            symbol(2, "sign", 1): 1,
            symbol(2, "sign", -2): -1,
        }
    )
    golden = KElement(
        {
            symbol(2, "sign", 1): 1,
            symbol(2, "sign", 0): 1,
            symbol(2, "sign", -1): 1,
            symbol(2, "trivial", 0): 1,
        }
    )
    assert reconstruct_from_difference(delta) == golden
    rng = random.Random(42)
    reps = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    for _ in range(1000):
        k_choice = rng.choice([2, 3])
        usable = [r for r in reps if sum(r) == k_choice]
        terms = {}
        for _ in range(rng.randint(1, 10)):
            sym = symbol(k_choice, rng.choice(usable), rng.randint(-6, 6))
            terms[sym] = terms.get(sym, 0) + rng.randint(-4, 4)
        g = KElement(terms)
        assert reconstruct_from_difference(g - g.twisted(-1)) == g
    report("A6", True, "golden reconstruction + 1000 random round-trips")


def test_a7_subset_identity():
    # sum over subsets S of (-1)^|S| q^(sum of degrees in S) equals
    # prod (1 - q^(d_k)), as polynomials in q
    checked = 0
    for m in range(1, 9):
        for degrees in itertools.combinations_with_replacement(range(1, 6), m):
            lhs = Laurent()
            for bits in range(1 << m):
                s = sum(degrees[i] for i in range(m) if bits >> i & 1)
                size = bin(bits).count("1")
                lhs = lhs + Laurent({s: (-1) ** size})
            rhs = Laurent({0: 1})
            for d in degrees:
                rhs = rhs * (Laurent({0: 1}) - Laurent.monomial(d))
            assert lhs == rhs, degrees
            checked += 1
    report("A7", True,
           f"subset sum = elementary-symmetric product on {checked} "
           "degree multisets (m<=8, d<=5)")


def test_a8_drinfeld_function():
    start = time.perf_counter()
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        res = drinfeld_value(0, 0, field)
        assert res.value == 1 - q * q, q
    res = drinfeld_value(1, 0, field_from_q(2))
    assert res.value == 3
    # boundary factors are constant along scaling orbits of each phi
    for (a1, a2, q) in ((0, 0, 3), (1, 0, 2)):
        field = field_from_q(q)
        for phi in iter_hom_matrices(field, a1, a2):
            if is_zero(phi) or phi.det(field):
                continue
            d = defect_divisor_of_hom(field, phi)
            for c in range(1, q):
                assert defect_divisor_of_hom(field, scaled_hom(field, phi, c)) == d
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"A8 took {elapsed:.1f}s"
    report("A8", True,
           f"drinfeldValue(0,0,q) = 1-q^2 for q<=5; (1,0,2) = 3; factors "
           f"constant on scaling orbits ({elapsed:.2f}s)")


def test_a9_quadric_cone():
    sys2 = build_system([2])
    assert sys2.equations_text() == ["a[-2]*b[1] + a[-1]*b[0] = 0"]
    sys11 = build_system([1, 1])
    for q in (2, 3, 4, 5, 7):
        field = field_from_q(q)
        expected = q**3 + q**2 - q
        assert count_points(sys2, field, "any") == expected, q
        assert count_points(sys11, field, "any") == expected, q
    report("A9", True,
           "quadric cone: one equation; count q^3+q^2-q for q<=7; "
           "fiber product [1,1] agrees")


def test_a10_nearby_vs_boundary():
    ledger = NormLedger.calibrated()  # c(1) = v^(GR_PSI.scale), no anchor search
    assert ledger.c1 == Laurent.monomial(-2)
    checked = 0
    for q in (2, 3, 4):
        field = field_from_q(q)
        for n in (1, 2, 3):
            for d in enumerate_divisors(field, n):
                if any(pt.degree > 2 for pt, _ in d):
                    continue
                lhs, rhs = nearby_vs_boundary(n, d)
                assert lhs == rhs, (q, d)
                checked += 1
    report("A10", True,
           f"nearby-cycles trace = c(n) * boundary product on {checked} "
           "divisors (residue degrees <= 2, n <= 3, q in 2..4)")


def test_a11_determinism():
    # identical counts and traces across defining moduli (q = 4 admits a
    # single monic irreducible modulus, so the comparison is over q = 8, 9
    # plus two independently built copies of F_4)
    for p, e in ((2, 2), (2, 3), (3, 2)):
        mods = alternative_moduli(p, e)
        pair = mods[:2] if len(mods) >= 2 else [mods[0], mods[0]]
        results = []
        for mod in pair:
            field = build_field(p, e, modulus=mod)
            traces = sorted(
                repr(trace_plo(2, d)) for d in enumerate_divisors(field, 2)
            )
            results.append(
                (
                    count_points(build_system([2]), field, "any"),
                    strata_counts(2, field),
                    len(enumerate_closed_points(field, 3)),
                    traces,
                )
            )
        assert results[0] == results[1], (p, e)
    report("A11", True,
           "counts and traces identical across field moduli for q in {4,8,9}")


def test_a12_factorization():
    rng = random.Random(99)
    field = field_from_q(3)
    total = 0
    for n in (1, 2, 3, 4):
        for _ in range(200):
            n1 = rng.randint(0, n - 1) if n > 1 else 0
            d1, d2 = random_disjoint_pair(rng, field, n1, n - n1)
            d = d1 + d2
            assert trace_plo(n, d) == trace_plo(n1, d1) * trace_plo(n - n1, d2)
            assert trace_omega_tilde(n, d) == trace_omega_tilde(
                n1, d1
            ) * trace_omega_tilde(n - n1, d2)
            assert trace_gr_psi(n, d) == trace_gr_psi(n1, d1) * trace_gr_psi(
                n - n1, d2
            )
            total += 1
    report("A12", True,
           f"oscillator, omega and nearby-cycles traces multiplicative on "
           f"{total} random disjoint pairs (n <= 4)")
