"""The literal Hom sweep: oracle for `drinfeld.iter_hom_lines` and for the
line rule of `drinfeld.drinfeld_value`.

`iter_hom_matrices` lists every map of Hom(E1, E2)(F_q), the zero map
included, and `swept_value` evaluates Drinfeld's function map by map: each
map's own det, and for each nonzero map of det 0 its own defect divisor and
its integer boundary factor (`divisor_utils.boundary_product`)."""

import itertools
from collections import Counter

from divisor_utils import boundary_product

from vinbun.arith import poly_normalize
from vinbun.drinfeld import DrinfeldResult, HomMatrix, defect_divisor_of_hom, hom_space_dims
from vinbun.kcalc import divisor_type


def iter_hom_matrices(field, a1, a2):
    """Every map of Hom(E1, E2)(F_q), each entry normalized."""
    spaces = [
        [poly_normalize(c) for c in itertools.product(field.elements(), repeat=d)]
        for d in hom_space_dims(a1, a2)
    ]
    for quad in itertools.product(*spaces):
        yield HomMatrix(a1=a1, a2=a2, entries=quad)


def is_zero(phi):
    return not any(phi.entries)


def flat_coordinates(phi):
    """The flat coefficient vector of phi: entries row-major, each entry's
    coefficients in order, padded to its `hom_space_dims` length."""
    dims = hom_space_dims(phi.a1, phi.a2)
    return tuple(c for e, d in zip(phi.entries, dims) for c in e + (0,) * (d - len(e)))


def swept_value(a1, a2, field):
    """The `drinfeld_value(a1, a2, field, histogram=True)` result, one map at
    a time."""
    isom = nonunit = boundary = 0
    tally = Counter()
    for phi in iter_hom_matrices(field, a1, a2):
        det = phi.det(field)
        if det == 1:
            isom += 1
        elif det:
            nonunit += 1
        elif not is_zero(phi):
            d = defect_divisor_of_hom(field, phi)
            tally[divisor_type(d)] += 1
            boundary += boundary_product(field.q, d)
    return DrinfeldResult(isom, boundary, isom - boundary, nonunit,
                          isom - boundary - nonunit, tuple(sorted(tally.items())))
