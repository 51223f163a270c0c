"""The literal kernel of the lowering operator, the tests' oracle for
`kcalc.ic_kernel_k_element`.

f acts diagonally on V^(tensor k), the monodromy operator on the associated
graded.  Its kernel is found by row reduction over the rationals, weight
layer by weight layer, in the standard tensor basis of `vinbun.lefschetz`
(bit j set = letter y in slot j), and each layer is decomposed under the
sign-twisted S_k action.  Matrices are nested tuples of ints.
"""

from fractions import Fraction

from vinbun.lefschetz import MAX_BRUTE_K, _act, perm_from_cycle_type, weight_of_index
from vinbun.symrep import decompose_class_function, partitions


def weight_layers(k):
    """Map h-weight -> sorted list of basis indices."""
    layers = {}
    for idx in range(1 << k):
        layers.setdefault(weight_of_index(idx, k), []).append(idx)
    return layers


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


def kernel_traces(k, w, perms):
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
        m: decompose_class_function(dict(zip(cts, kernel_traces(k, -m, perms))), k)
        for m in range(k, -1, -2)
    }
