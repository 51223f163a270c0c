import gc
from math import factorial

import pytest

from vinbun.symrep import (
    character_table,
    class_size,
    conjugate,
    decompose_class_function,
    hook_length_dimension,
    murnaghan_nakayama,
    partitions,
    sign_partition,
    trivial_partition,
)


def sign_character(cycle_type):
    """Oracle: each even cycle is an odd permutation."""
    return (-1) ** sum(1 for c in cycle_type if c % 2 == 0)


def two_column_dimension(k, r):
    """Oracle: the closed form k! (k-2r+1) / (r! (k-r+1)!)."""
    num = factorial(k) * (k - 2 * r + 1)
    den = factorial(r) * factorial(k - r + 1)
    assert num % den == 0
    return num // den


def test_partitions_and_conjugate():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_partitions_leave_no_reference_cycle():
    # on a cold cache the walk recurses through a closure that refers to
    # itself, and the CLI pauses the collector
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(partitions.__wrapped__(12)) == 77
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def two_column(k, r):
    """The two-column partition (2^r, 1^(k-2r))."""
    return (2,) * r + (1,) * (k - 2 * r)


def test_two_column_dimensions():
    assert hook_length_dimension(two_column(2, 0)) == 1  # sign
    assert hook_length_dimension(two_column(2, 1)) == 1  # trivial
    assert hook_length_dimension(two_column(4, 1)) == 3


def test_dimension_against_hook_lengths_and_identity_character():
    # three independent routes to the dimension must agree
    for k in range(1, 9):
        for r in range(k // 2 + 1):
            lam = two_column(k, r)
            d_formula = two_column_dimension(k, r)
            d_hooks = hook_length_dimension(lam)
            d_char = murnaghan_nakayama(lam, (1,) * k)
            assert d_formula == d_hooks == d_char


def test_sign_and_trivial_characters():
    assert murnaghan_nakayama(sign_partition(3), (3,)) == sign_character((3,)) == 1
    assert murnaghan_nakayama(sign_partition(3), (2, 1)) == sign_character((2, 1)) == -1
    for k in range(1, 7):
        for c in partitions(k):
            # the MN value of the single-column partition equals the closed form
            assert murnaghan_nakayama(sign_partition(k), c) == sign_character(c)
            assert murnaghan_nakayama(trivial_partition(k), c) == 1


def test_character_example_k3():
    assert murnaghan_nakayama(two_column(3, 1), (1, 1, 1)) == 2


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        murnaghan_nakayama(two_column(3, 1), (2, 2))


def test_column_orthogonality():
    for k in range(1, 9):
        cts = partitions(k)
        for ci in cts:
            for cj in cts:
                total = sum(
                    murnaghan_nakayama(lam, ci) * murnaghan_nakayama(lam, cj)
                    for lam in partitions(k)
                )
                if ci == cj:
                    assert total * class_size(ci) == factorial(k)
                else:
                    assert total == 0


def test_sum_of_squares_of_dimensions():
    for k in range(1, 7):
        assert sum(hook_length_dimension(lam) ** 2 for lam in partitions(k)) == factorial(k)


def test_transposition_flips_by_sign():
    # character of the conjugate diagram = sign * character, checked on the
    # two-column / two-row pairs
    for k in range(1, 8):
        for r in range(k // 2 + 1):
            lam = two_column(k, r)
            two_row = (k - r, r) if r else (k,)
            assert conjugate(lam) == two_row
            for c in partitions(k):
                lhs = murnaghan_nakayama(two_row, c)
                rhs = sign_character(c) * murnaghan_nakayama(lam, c)
                assert lhs == rhs


def test_decompose_regular_representation():
    for k in (2, 3, 4):
        values = {c: 0 for c in partitions(k)}
        values[(1,) * k] = factorial(k)
        rep = decompose_class_function(values, k)
        for lam, m in rep.items():
            assert m == hook_length_dimension(lam)
        assert set(rep) == set(partitions(k))


def test_decompose_sign_character():
    for k in (2, 3, 4, 5):
        values = {c: sign_character(c) for c in partitions(k)}
        rep = decompose_class_function(values, k)
        assert rep == {sign_partition(k): 1}


def test_decompose_s2_example():
    rep = decompose_class_function({(1, 1): 4, (2,): 0}, 2)
    assert rep == {(2,): 2, (1, 1): 2}


def test_decompose_rejects_non_character():
    with pytest.raises(ValueError):
        decompose_class_function({(1, 1): 1, (2,): 0}, 2)
    with pytest.raises(ValueError):
        decompose_class_function({(1, 1): 4}, 2)


def test_character_table_shape():
    parts, rows = character_table(4)
    assert len(parts) == len(rows) == 5
    # the identity's column lists the dimensions
    idx = parts.index((1, 1, 1, 1))
    for lam, row in zip(parts, rows):
        assert row[idx] == hook_length_dimension(lam)
