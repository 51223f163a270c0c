from fractions import Fraction

import pytest
from kernel_oracle import kernel_traces, lowering_kernel_reps, lowering_matrix, weight_layers

from vinbun import lefschetz
from vinbun.kcalc import PLO, KElement, ic_kernel_k_element, symbol
from vinbun.lefschetz import (
    MAX_BRUTE_K,
    GradedBiRep,
    brute_force_schur_weyl,
    perm_from_cycle_type,
    perm_sign,
    predicted_schur_weyl,
    weight_of_index,
)
from vinbun.symrep import hook_length_dimension, murnaghan_nakayama, partitions


# integer matrices as nested tuples, as the module builds them


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def commutator(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s))
                 for r, s in zip(matmul(a, b), matmul(b, a)))


def diagonal(mat):
    return [mat[i][i] for i in range(len(mat))]


def raising_matrix(k):
    """e on V^(tensor k): the transpose of f."""
    return tuple(zip(*lowering_matrix(k)))


def cartan_matrix(k):
    n = 1 << k
    return tuple(
        tuple(weight_of_index(i, k) if i == j else 0 for j in range(n))
        for i in range(n)
    )


def permutation_matrix(k, perm):
    """The sign-twisted action of a permutation on V^(tensor k): slot
    perm[i] of the image holds the letter from slot i, times sign(perm)."""
    n = 1 << k
    mat = [[0] * n for _ in range(n)]
    for idx in range(n):
        out = sum(1 << p for i, p in enumerate(perm) if (idx >> i) & 1)
        mat[out][idx] = perm_sign(perm)
    return tuple(map(tuple, mat))


def test_standard_rep_relations():
    # V is the first tensor power: e sends y to x, f sends x to y
    e, f, h = raising_matrix(1), lowering_matrix(1), cartan_matrix(1)
    assert (e, f) == (((0, 1), (0, 0)), ((0, 0), (1, 0)))
    assert commutator(e, f) == h
    assert sorted(diagonal(h)) == [-1, 1]
    assert PLO.rank == 2  # the oscillator's exterior powers are those of V


def test_weight_layers():
    layers = weight_layers(3)
    assert sorted(layers) == [-3, -1, 1, 3]
    assert [len(layers[w]) for w in (3, 1, -1, -3)] == [1, 3, 3, 1]


def test_perm_sign_and_representatives():
    assert perm_sign((1, 0)) == -1
    assert perm_sign(perm_from_cycle_type((3,))) == 1
    assert perm_sign(perm_from_cycle_type((2, 1))) == -1


def test_signed_permutation_trace_oracle():
    # trace of the signed permutation on a weight layer equals
    # sign(perm) * number of masks in the layer fixed by the slot permutation
    for k in (2, 3, 4):
        layers = weight_layers(k)
        for c in partitions(k):
            perm = perm_from_cycle_type(c)
            mat = permutation_matrix(k, perm)
            sign = perm_sign(perm)
            for w, idxs in layers.items():
                fixed = 0
                for idx in idxs:
                    out = 0
                    for s in range(k):
                        if (idx >> perm.index(s)) & 1:
                            out |= 1 << s
                    if out == idx:
                        fixed += 1
                assert sum(mat[i][i] for i in idxs) == sign * fixed


def test_actions_commute():
    # on the adjacent transpositions, which generate S_k
    for k in (2, 3, 4):
        ops = (raising_matrix(k), lowering_matrix(k), cartan_matrix(k))
        for i in range(k - 1):
            p = permutation_matrix(k, (*range(i), i + 1, i, *range(i + 2, k)))
            assert all(matmul(p, op) == matmul(op, p) for op in ops)


def test_sl2_relations_on_tensor_power():
    for k in (2, 3):
        e, f, h = raising_matrix(k), lowering_matrix(k), cartan_matrix(k)
        assert commutator(e, f) == h
        assert commutator(h, e) == scale(2, e)
        assert commutator(h, f) == scale(-2, f)


def test_brute_force_k1():
    assert dict(brute_force_schur_weyl(1).mults) == {((1,), 1): 1}


def test_brute_force_k2():
    # U_0 (x) trivial  +  U_2 (x) sign, i.e. the sign twist exchanges the
    # S_2 labels of the symmetric/antisymmetric summands
    expected = {((2,), 0): 1, ((1, 1), 2): 1}
    assert dict(brute_force_schur_weyl(2).mults) == expected
    assert dict(predicted_schur_weyl(2).mults) == expected


def test_brute_force_k3():
    expected = {((1, 1, 1), 3): 1, ((2, 1), 1): 1}
    assert dict(brute_force_schur_weyl(3).mults) == expected


def test_brute_force_matches_prediction():
    for k in range(1, 7):
        brute = brute_force_schur_weyl(k)
        assert brute == predicted_schur_weyl(k)
        assert brute.total_dimension() == 1 << k


def test_brute_force_reads_one_sign_per_cycle_type(monkeypatch):
    calls = []

    def counted(perm):
        calls.append(perm)
        return perm_sign(perm)

    monkeypatch.setattr(lefschetz, "perm_sign", counted)
    for k in range(1, MAX_BRUTE_K + 1):
        calls.clear()
        lefschetz.brute_force_schur_weyl(k)
        assert calls == [perm_from_cycle_type(c) for c in partitions(k)], k


@pytest.mark.slow
def test_brute_force_matches_prediction_k7_k8():
    for k in (7, 8):
        assert brute_force_schur_weyl(k) == predicted_schur_weyl(k)


def test_dimension_identity_up_to_8():
    # sum over r of (k - 2r + 1) * dim rho_(k-r,r) == 2^k
    for k in range(1, 9):
        assert predicted_schur_weyl(k).total_dimension() == 1 << k


def test_brute_force_range_check():
    with pytest.raises(ValueError):
        brute_force_schur_weyl(0)
    with pytest.raises(ValueError):
        brute_force_schur_weyl(9)


def test_graded_birep_rejects_negative():
    with pytest.raises(ValueError):
        GradedBiRep.from_dict(2, {((2,), 0): -1})


def test_kernel_of_n_closed_form():
    # one copy of each two-column irreducible (2^r, 1^(k-2r)), at twist k/2 - r
    assert ic_kernel_k_element(1) == KElement({symbol((1,), Fraction(1, 2)): 1})
    assert ic_kernel_k_element(2) == KElement(
        {symbol((1, 1), 1): 1, symbol((2,), 0): 1}
    )
    # k=4: three summands with twists 2, 1, 0
    assert ic_kernel_k_element(4) == KElement(
        {symbol((1, 1, 1, 1), 2): 1, symbol((2, 1, 1), 1): 1,
         symbol((2, 2), 0): 1}
    )


def test_lowering_kernel_matches_closed_form():
    # ker(f) within the h-weight -(k-2r) layer carries exactly one copy of
    # the (k-r, r) two-column irreducible and nothing else
    for k in range(1, 9):
        reps = lowering_kernel_reps(k)
        for r in range(k // 2 + 1):
            m = k - 2 * r
            assert reps[m] == {(2,) * r + (1,) * (k - 2 * r): 1}, (k, r)


def test_lowest_line_signs_read_off_the_bimodule():
    # each summand U_m (x) rho of the bimodule at k = 2 has dim rho = 1, so
    # the transposition acts on the lowest weight line of U_m by the
    # character of rho: +1 on U_0 and -1 on U_2 under the sign-twisted action
    mults = brute_force_schur_weyl(2).mults
    assert all(hook_length_dimension(rho) == 1 for (rho, _), _ in mults)
    assert {m: murnaghan_nakayama(rho, (2,)) for (rho, m), _ in mults} == {0: 1, 2: -1}


def test_lowest_line_signs_match_the_kernel():
    # by row reduction: ker(f) meets the h-weight -m space in one line, and
    # the transposition's trace on it is its sign
    for (rho, m), _ in brute_force_schur_weyl(2).mults:
        assert kernel_traces(2, -m, ((0, 1), (1, 0))) == [1, murnaghan_nakayama(rho, (2,))]


def test_transposition_trace_via_matrices():
    mat = permutation_matrix(2, (1, 0))
    assert len(mat) == 4 and all(len(row) == 4 for row in mat)
    # full-space trace agrees with the bimodule character:
    # dim(U_0) * chi_triv + dim(U_2) * chi_sign = 1 - 3
    assert sum(diagonal(mat)) == -2
    # on ker(f) = M_0 + M_2 the signs +1 and -1 cancel
    assert sum(kernel_traces(2, -m, ((1, 0),))[0] for m in (0, 2)) == 0


def test_weight_of_index():
    assert weight_of_index(0, 3) == 3
    assert weight_of_index(0b111, 3) == -3
    assert weight_of_index(0b101, 3) == -1
