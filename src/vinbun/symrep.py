"""Symmetric group combinatorics: partitions, hook-length dimensions,
Murnaghan-Nakayama characters, and class-function decomposition.

Partitions are tuples of positive parts sorted descending; a cycle type of
S_k is just a partition of k.  The trace theorems only ever quote irreducibles
attached to two-column diagrams, the partitions (2^r, 1^(k-2r)), but the
Murnaghan-Nakayama recursion leaves that family immediately, so general
partitions are supported throughout.

Character values are computed by border-strip (rim hook) removal in the
beta-number picture: a partition corresponds to its set of first-column hook
lengths, removing a strip of length t means replacing some b in the set by
b - t, and the sign is (-1)^(number of set elements jumped over).
"""

from functools import lru_cache
from math import factorial


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def normalize_partition(parts):
    parts = tuple(sorted((p for p in parts if p), reverse=True))
    if any(p < 0 for p in parts):
        raise ValueError("negative part in partition")
    return parts


@lru_cache(maxsize=1 << 15)
def partitions(k):
    """All partitions of k, descending parts, reverse-lex order."""
    if k == 0:
        return ((),)
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(k, k, [])
    del rec  # it refers to itself: a cycle the collector would have to find
    return tuple(out)


def conjugate(partition):
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p > i) for i in range(partition[0])
    )


def hook_length_dimension(partition):
    """Dimension of the irreducible attached to a partition, by hook lengths."""
    n = sum(partition)
    conj = conjugate(partition)
    dim = factorial(n)
    for i, row in enumerate(partition):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            dim //= hook
    return dim


def trivial_partition(k):
    return (k,) if k else ()


def sign_partition(k):
    return (1,) * k


# ---------------------------------------------------------------------------
# cycle types and characters
# ---------------------------------------------------------------------------


def class_size(cycle_type):
    """Size of the conjugacy class with the given cycle type."""
    k = sum(cycle_type)
    denom = 1
    mult = {}
    for c in cycle_type:
        denom *= c
        mult[c] = mult.get(c, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(k) // denom


def _beta_set(partition):
    ell = len(partition)
    return frozenset(partition[i] + (ell - 1 - i) for i in range(ell))


def _partition_from_beta(beta):
    vals = sorted(beta, reverse=True)
    ell = len(vals)
    return normalize_partition(vals[i] - (ell - 1 - i) for i in range(ell))


@lru_cache(maxsize=1 << 15)
def murnaghan_nakayama(partition, cycle_type):
    """Character of the irreducible S_k representation `partition` at
    `cycle_type`, both partitions of the same k."""
    if sum(partition) != sum(cycle_type):
        raise ValueError(
            f"size mismatch: |{partition}| = {sum(partition)}, "
            f"|cycle type| = {sum(cycle_type)}"
        )
    if not cycle_type:
        return 1
    t = cycle_type[0]
    rest = cycle_type[1:]
    beta = _beta_set(partition)
    total = 0
    for b in beta:
        b2 = b - t
        if b2 < 0 or b2 in beta:
            continue
        height = sum(1 for x in beta if b2 < x < b)
        new_partition = _partition_from_beta((beta - {b}) | {b2})
        total += (-1) ** height * murnaghan_nakayama(new_partition, rest)
    return total


# ---------------------------------------------------------------------------
# class-function decomposition
# ---------------------------------------------------------------------------


def decompose_class_function(values, k):
    """Express an integer class function as a Z-combination of irreducible
    characters, via the inner product with class sizes: the dict
    {partition: multiplicity} of its nonzero multiplicities.

    `values` must assign an integer to every cycle type of k.  Raises
    ValueError when some multiplicity comes out non-integral (the input was
    not a virtual character).
    """
    values = {normalize_partition(c): v for c, v in values.items()}
    missing = [c for c in partitions(k) if c not in values]
    if missing:
        raise ValueError(f"class function misses cycle types {missing}")
    order = factorial(k)
    mults = {}
    for lam in partitions(k):
        total = 0
        for c in partitions(k):
            total += class_size(c) * murnaghan_nakayama(lam, c) * values[c]
        if total % order:
            raise ValueError(
                f"non-integral multiplicity for {lam}: inconsistent class function"
            )
        if total:
            mults[lam] = total // order
    # reconstruction must reproduce the input exactly
    for c in partitions(k):
        recon = sum(m * murnaghan_nakayama(lam, c) for lam, m in mults.items())
        if recon != values[c]:
            raise ValueError(
                f"class function is not a virtual character (mismatch at {c})"
            )
    return mults


# The table has p(k)^2 Murnaghan-Nakayama entries: p(14) = 135 takes a few
# tenths of a second, p(20) = 627 several seconds.
MAX_TABLE_K = 14


def character_table(k):
    """(partitions, matrix) with matrix[i][j] = chi_{lam_i}(c_j) for
    1 <= k <= MAX_TABLE_K, where lam_i and c_j both run over `partitions(k)`."""
    if not 1 <= k <= MAX_TABLE_K:
        raise ValueError(f"k must be >= 1 and <= {MAX_TABLE_K}, got {k}")
    parts = partitions(k)
    rows = [[murnaghan_nakayama(lam, c) for c in parts] for lam in parts]
    return parts, rows
