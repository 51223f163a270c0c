"""Brute-force sign-twisted Schur-Weyl decomposition of V^(tensor k).

V is the 2-dimensional standard representation: basis x (Cartan weight +1,
Frobenius eigenvalue v) and y (weight -1, eigenvalue v^-1), with sl2 acting
through e (y -> x), f (x -> y) and h = [e, f].  On V^(tensor k) the symmetric
group acts by permuting tensor slots *times the sign of the permutation*,
and sl2 acts diagonally; the two actions commute.

Everything here is exact integer arithmetic in the standard tensor basis
(basis vectors indexed by bit masks, bit j set = letter y in slot j).  A
permutation sends a mask to a signed mask, so its trace on an h-weight
space W_m is its sign times the number of masks it fixes there.  The sl2
multiplicity of U_m is dim W_m - dim W_{m+2}, and the symmetric-group
content of each multiplicity space comes from decomposing these layer
traces - no eigenvalue numerics, no explicit highest-weight vectors.
ker(f) by rational row reduction is the tests' check of
`kcalc.ic_kernel_k_element` (`tests/kernel_oracle.py`).
"""

from collections import namedtuple
from itertools import combinations

from vinbun.symrep import (
    decompose_class_function,
    hook_length_dimension,
    partitions,
)

MAX_BRUTE_K = 8


# ---------------------------------------------------------------------------
# operators on tensor powers
# ---------------------------------------------------------------------------


def weight_of_index(idx, k):
    """h-eigenvalue of a tensor basis vector: (#x) - (#y)."""
    ones = bin(idx).count("1")
    return k - 2 * ones


def _act(perm, idx):
    """The image mask of a tensor basis vector under a permutation: slot
    perm[i] of the image holds the letter from slot i.  The sign-twisted
    action multiplies it by `perm_sign(perm)`, which callers read once per
    permutation."""
    out = 0
    for i, p in enumerate(perm):
        if (idx >> i) & 1:
            out |= 1 << p
    return out


def perm_sign(perm):
    """(-1)^(number of inversions)."""
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def perm_from_cycle_type(cycle_type):
    """A representative permutation with the given cycle type (0-indexed)."""
    perm = []
    start = 0
    for c in cycle_type:
        perm.extend([start + (i + 1) % c for i in range(c)])
        start += c
    return tuple(perm)


# ---------------------------------------------------------------------------
# bimodule decompositions
# ---------------------------------------------------------------------------


class GradedBiRep(namedtuple("GradedBiRep", "k mults")):
    """Multiplicities of (S_k irreducible, sl2 highest weight) pairs inside a
    bimodule of total dimension 2^k; mults is the sorted tuple of
    ((partition, highest_weight), multiplicity)."""

    __slots__ = ()

    @staticmethod
    def from_dict(k, d):
        clean = {key: m for key, m in d.items() if m}
        if any(m < 0 for m in clean.values()):
            raise ValueError(f"negative bimodule multiplicity in {clean}")
        return GradedBiRep(k=k, mults=tuple(sorted(clean.items())))

    def total_dimension(self):
        return sum(
            m * hook_length_dimension(lam) * (weight + 1)
            for (lam, weight), m in self.mults
        )

    def describe(self):
        bits = []
        for (lam, weight), m in sorted(self.mults, key=lambda t: -t[0][1]):
            term = f"U_{weight} (x) S{lam}"
            bits.append(term if m == 1 else f"{m} * {term}")
        return "  +  ".join(bits) if bits else "0"


def brute_force_schur_weyl(k):
    """Decompose V^(tensor k) under the commuting (sign-twisted S_k, sl2)
    actions by explicit signed permutations of the tensor basis.

    Returns the exact bimodule multiplicities, computed from h-weight space
    dimensions (U_m multiplicity = dim W_m - dim W_{m+2}) and from the
    S_k-character of each weight layer.
    """
    if not 1 <= k <= MAX_BRUTE_K:
        raise ValueError(f"k = {k} out of range (1..{MAX_BRUTE_K})")
    layer_traces = {}  # cycle type -> {weight: trace of signed permutation}
    for c in partitions(k):
        perm = perm_from_cycle_type(c)
        sign = perm_sign(perm)
        traces = layer_traces[c] = {}
        for idx in range(1 << k):
            if _act(perm, idx) == idx:
                w = weight_of_index(idx, k)
                traces[w] = traces.get(w, 0) + sign
    out = {}
    for m in range(k % 2, k + 1, 2):
        # class function of the multiplicity space of U_m
        values = {}
        for c in partitions(k):
            tr = layer_traces[c].get(m, 0) - layer_traces[c].get(m + 2, 0)
            values[c] = tr
        for lam, mult in decompose_class_function(values, k).items():
            out[(lam, m)] = mult
    # from_dict rejects a negative multiplicity; the verify suite checks
    # the total dimension against 2^k
    return GradedBiRep.from_dict(k, out)


def predicted_schur_weyl(k):
    """The k-th oscillator bimodule in closed form, and the one list of its
    summands: U_{k-2r} tensor the two-column irreducible (2^r, 1^(k-2r))
    for 0 <= r <= k/2, so U_0 tensor the trivial S_0 at k = 0.  These
    partitions ascend with r, so mults is ordered by r.  The K-elements of
    `kcalc` read it, the kernel of monodromy `ic_kernel_k_element` among them."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return GradedBiRep.from_dict(
        k, {((2,) * r + (1,) * (k - 2 * r), k - 2 * r): 1 for r in range(k // 2 + 1)}
    )
