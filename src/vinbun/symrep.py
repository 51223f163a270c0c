"""Symmetric group combinatorics: two-column Young diagrams, hook-length
dimensions, Murnaghan-Nakayama characters, and class-function
decomposition.

Partitions are tuples of positive parts sorted descending; a cycle type of
S_k is just a partition of k.  The trace theorems only ever quote irreducibles
attached to two-column diagrams, but the Murnaghan-Nakayama recursion leaves
that family immediately, so general partitions are supported throughout and
the two-column diagrams are a thin layer on top.

Character values are computed by border-strip (rim hook) removal in the
beta-number picture: a partition corresponds to its set of first-column hook
lengths, removing a strip of length t means replacing some b in the set by
b - t, and the sign is (-1)^(number of set elements jumped over).
"""

from functools import lru_cache
from math import factorial

from vinbun.frozen import FrozenValue


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def normalize_partition(parts):
    parts = tuple(sorted((p for p in parts if p), reverse=True))
    if any(p < 0 for p in parts):
        raise ValueError("negative part in partition")
    return parts


@lru_cache(maxsize=None)
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
# two-column diagrams
# ---------------------------------------------------------------------------


class TwoColumnDiagram(FrozenValue):
    """Young diagram with k - r boxes in the first column and r in the second
    (so 0 <= r <= k/2).  As a partition of row lengths this is (2^r, 1^(k-2r))."""

    __slots__ = ("k", "r")

    def __init__(self, k, r):
        if not (0 <= 2 * r <= k):
            raise ValueError(f"invalid two-column diagram k={k}, r={r}")
        self._init(k, r)

    @property
    def partition(self):
        return (2,) * self.r + (1,) * (self.k - 2 * self.r)

    def __repr__(self):
        return f"rho({self.k - self.r},{self.r})"


# ---------------------------------------------------------------------------
# cycle types and characters
# ---------------------------------------------------------------------------


def cycle_types(k):
    return partitions(k)


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


@lru_cache(maxsize=None)
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
# virtual representations and class-function decomposition
# ---------------------------------------------------------------------------


class VirtualRep:
    """Finitely supported Z-combination of S_k irreducibles (by partition)."""

    __slots__ = ("k", "mults")

    def __init__(self, k, mults=None):
        self.k = k
        clean = {}
        if mults:
            for lam, m in mults.items():
                lam = normalize_partition(lam)
                if sum(lam) != k:
                    raise ValueError(f"{lam} is not a partition of {k}")
                if m:
                    clean[lam] = clean.get(lam, 0) + m
        self.mults = {lam: m for lam, m in clean.items() if m}

    def __eq__(self, other):
        return (
            isinstance(other, VirtualRep)
            and self.k == other.k
            and self.mults == other.mults
        )

    def __hash__(self):
        return hash((self.k, frozenset(self.mults.items())))

    def __repr__(self):
        if not self.mults:
            return "0"
        bits = []
        for lam in sorted(self.mults, reverse=True):
            m = self.mults[lam]
            name = _irrep_name(lam)
            bits.append(name if m == 1 else f"{m}*{name}")
        return " + ".join(bits)


def _irrep_name(lam):
    k = sum(lam)
    if lam == trivial_partition(k):
        return "triv"
    if lam == sign_partition(k):
        return "sign"
    return f"S{lam}"


def decompose_class_function(values, k):
    """Express an integer class function as a Z-combination of irreducible
    characters, via the inner product with class sizes.

    `values` must assign an integer to every cycle type of k.  Raises
    ValueError when some multiplicity comes out non-integral (the input was
    not a virtual character).
    """
    values = {normalize_partition(c): v for c, v in values.items()}
    missing = [c for c in cycle_types(k) if c not in values]
    if missing:
        raise ValueError(f"class function misses cycle types {missing}")
    order = factorial(k)
    mults = {}
    for lam in partitions(k):
        total = 0
        for c in cycle_types(k):
            total += class_size(c) * murnaghan_nakayama(lam, c) * values[c]
        if total % order:
            raise ValueError(
                f"non-integral multiplicity for {lam}: inconsistent class function"
            )
        mults[lam] = total // order
    rep = VirtualRep(k, mults)
    # reconstruction must reproduce the input exactly
    for c in cycle_types(k):
        recon = sum(
            m * murnaghan_nakayama(lam, c) for lam, m in rep.mults.items()
        )
        if recon != values[c]:
            raise ValueError(
                f"class function is not a virtual character (mismatch at {c})"
            )
    return rep


# The table has p(k)^2 Murnaghan-Nakayama entries: p(14) = 135 takes a few
# tenths of a second, p(20) = 627 several seconds.
MAX_TABLE_K = 14


def character_table(k):
    """(cycle_types, partitions, matrix) with matrix[i][j] = chi_{lam_i}(c_j),
    for 1 <= k <= MAX_TABLE_K."""
    if not 1 <= k <= MAX_TABLE_K:
        raise ValueError(f"k must be >= 1 and <= {MAX_TABLE_K}, got {k}")
    cts = cycle_types(k)
    lams = partitions(k)
    rows = [[murnaghan_nakayama(lam, c) for c in cts] for lam in lams]
    return cts, lams, rows
