"""Brute-force sign-twisted Schur-Weyl decomposition of V^(tensor k) and the
kernel of the lowering operator.

V is the 2-dimensional standard representation: basis x (Cartan weight +1,
Frobenius eigenvalue v) and y (weight -1, eigenvalue v^-1), with sl2 acting
through e (y -> x), f (x -> y) and h = [e, f].  On V^(tensor k) the symmetric
group acts by permuting tensor slots *times the sign of the permutation*,
and sl2 acts diagonally; the two actions commute.

Everything here is exact integer and rational arithmetic in the standard
tensor basis (basis vectors indexed by bit masks, bit j set = letter y in
slot j); matrices are nested tuples of ints.  A permutation sends a mask to
a signed mask, so its trace on an h-weight space W_m is its sign times the
number of masks it fixes there.  The sl2 multiplicity of U_m is
dim W_m - dim W_{m+2}, and the symmetric-group content of each multiplicity
space comes from decomposing these layer traces - no eigenvalue numerics,
no explicit highest-weight vectors.  ker(f) is found by row reduction.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from vinbun.symrep import decompose_class_function, hook_length_dimension, partitions

MAX_BRUTE_K = 8


# ---------------------------------------------------------------------------
# operators on tensor powers
# ---------------------------------------------------------------------------


def weight_of_index(idx, k):
    """h-eigenvalue of a tensor basis vector: (#x) - (#y)."""
    ones = bin(idx).count("1")
    return k - 2 * ones


def weight_layers(k):
    """Map h-weight -> sorted list of basis indices."""
    layers = {}
    for idx in range(1 << k):
        layers.setdefault(weight_of_index(idx, k), []).append(idx)
    return layers


def _act(perm, idx):
    """A permutation on one tensor basis vector under the sign-twisted
    action: (sign(perm), image mask).  Slot perm[i] of the image holds the
    letter from slot i."""
    out = 0
    for i, p in enumerate(perm):
        if (idx >> i) & 1:
            out |= 1 << p
    return perm_sign(perm), out


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


def lowering_matrix(k):
    """f acting diagonally (the monodromy operator on the associated
    graded): the sum over the slots j of the operator that flips an x in
    slot j to y and kills a y there."""
    n = 1 << k
    mat = [[0] * n for _ in range(n)]
    for idx in range(n):
        for j in range(k):
            if not (idx >> j) & 1:
                mat[idx | (1 << j)][idx] += 1
    return tuple(map(tuple, mat))


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
        traces = layer_traces[c] = {}
        for idx in range(1 << k):
            sign, out = _act(perm, idx)
            if out == idx:
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
    # from_dict rejects a negative multiplicity
    result = GradedBiRep.from_dict(k, out)
    if result.total_dimension() != 1 << k:
        raise AssertionError("bimodule dimensions do not add up to 2^k")
    return result


def predicted_schur_weyl(k):
    """The k-th oscillator bimodule in closed form, and the one list of its
    summands: U_{k-2r} tensor the two-column irreducible (2^r, 1^(k-2r))
    for 0 <= r <= k/2.  These partitions ascend with r, so mults is ordered
    by r.  The K-elements of `kcalc` read it, the kernel of monodromy
    `ic_kernel_k_element` among them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return GradedBiRep.from_dict(
        k, {((2,) * r + (1,) * (k - 2 * r), k - 2 * r): 1 for r in range(k // 2 + 1)}
    )


# ---------------------------------------------------------------------------
# kernel of the lowering operator
# ---------------------------------------------------------------------------


def _kernel_traces(k, w, perms):
    """Traces of permutations on ker(f) intersected with the h-weight w
    space (which every permutation preserves, as the actions commute).

    The block of f from layer w to layer w - 2 is brought to reduced row
    echelon form over the rationals, once for all perms.  Its nullspace
    basis vector b_s has 1 on free column s and 0 on the other free
    columns, so the coefficient of b_s in P b_s is (P b_s)[s] and the
    trace of P is the sum of these.
    """
    layers, f = weight_layers(k), lowering_matrix(k)
    cols = layers[w]
    pos = {idx: j for j, idx in enumerate(cols)}
    rows = [[Fraction(f[i][j]) for j in cols] for i in layers.get(w - 2, [])]
    pivots = []  # pivots[i] = pivot column of reduced row i
    for c in range(len(cols)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y if y else x for x, y in zip(row, rows[r])]
        pivots.append(c)
    free = [s for s in range(len(cols)) if s not in pivots]
    traces = []
    for perm in perms:
        inverse = tuple(sorted(range(k), key=perm.__getitem__))
        trace = 0
        for s in free:
            # (P b_s)[s] = sign * b_s[j] for the column j that P sends onto s
            sign, pre = _act(inverse, cols[s])
            j = pos[pre]
            if j == s:
                trace += sign
            elif j in pivots:
                trace -= sign * rows[pivots.index(j)][s]
        if trace.denominator != 1:
            raise AssertionError("non-integral trace on kernel subspace")
        traces.append(int(trace))
    return traces


def lowering_kernel_reps(k):
    """Literal matrix kernel of f on V^(tensor k), decomposed under S_k layer
    by layer: maps each highest weight m = k - 2r to the S_k content of
    ker(f) intersected with the h-weight -m space."""
    if not 1 <= k <= MAX_BRUTE_K:
        raise ValueError(f"k = {k} out of range (1..{MAX_BRUTE_K})")
    cts = partitions(k)
    perms = [perm_from_cycle_type(c) for c in cts]
    return {
        m: decompose_class_function(dict(zip(cts, _kernel_traces(k, -m, perms))), k)
        for m in range(k, -1, -2)
    }


def sign_on_lowest_lines():
    """How the transposition acts on the lowest weight lines M_0 of U_0 and
    M_2 of U_2 inside V tensor V under the sign-twisted action:
    {0: +1, 2: -1}.  The plain permutation action would flip both signs;
    `tests/test_controls.py` plants it as a fault."""
    out = {}
    for m in (0, 2):
        # the identity's trace is the kernel's dimension; on a line the
        # transposition's trace is its eigenvalue
        dim, out[m] = _kernel_traces(2, -m, ((0, 1), (1, 0)))
        assert dim == 1
    return out
