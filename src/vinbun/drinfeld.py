"""Drinfeld's function on pairs of split SL2-bundles over P^1.

Every SL2-bundle on the projective line splits as O(a) + O(-a), so pairs of
non-negative integers (a1, a2) exhaust the F_q-points of the double moduli.
A homomorphism between two such bundles is a 2x2 matrix whose (i, j) entry
is a global section of O(e2_i - e1_j), realized here as a polynomial in t of
bounded degree; the valuation of an entry at the point at infinity is the
degree bound minus the actual degree.

The function itself is the closed formula

    value(E1, E2) = #Isom_SL2(E1, E2)(F_q)
                    - sum over nonzero non-isomorphisms phi of
                      prod_k (1 - q^(d_k))

where the d_k are the residue degrees of the distinct points of the defect
divisor of phi, read off as the divisor of the gcd of the matrix entries
(the first determinantal divisor).  "Isomorphism" means vector-bundle
isomorphism: maps whose determinant is a nonzero constant are excluded from
the boundary sum even when that constant is not 1.  The alternative
convention (counting nonunit-determinant isomorphisms into the sum with an
empty defect divisor) is reported alongside.

`drinfeld_value` sweeps Hom(E1, E2)(F_q) one line F_q^x phi at a time: scaling
by c keeps the defect divisor and multiplies det by c^2, so each line's q - 1
maps are counted from one (the line rule, proved in its docstring).
`rank_one_value` gives the same result in closed form, enumerating no map:

    boundary = 2 #Isom_SL2 - (q-1)(q^2-1),  value = (q-1)(q^2-1) - #Isom_SL2,

where #Isom_SL2 is #Aut_SL2(E1) = (q-1) q^(2a+1) (q^3 - q at a = 0) when
a1 = a2 = a, and 0 otherwise.  A nonzero map with det = 0 has rank one and
factors through a line bundle O(c), so the boundary sum is a sum over c of
counts of coprime pairs of binary forms; that sum closes to the line above
for every q and (a1, a2), as proved in the docstring of
tests/test_drinfeld.py::test_rank_one_sum_is_the_closed_form.  Composing
with diag(c^-1, 1) maps the isomorphisms of determinant c one to one onto
those of determinant 1, so there are (q-2) #Aut_SL2 of nonunit determinant.
"""

import itertools
import math
from collections import Counter, namedtuple

from vinbun.arith import (
    INFINITY,
    EffectiveDivisor,
    divisor_of,
    poly_deg,
    poly_gcd,
    poly_normalize,
)
from vinbun.budget import HOM_ENUM_BUDGET, check_power_budget
from vinbun.kcalc import BOUNDARY, divisor_type, type_trace


def h0_dim(m):
    """dim H^0(P^1, O(m)) = m + 1 for m >= 0, else 0."""
    return m + 1 if m >= 0 else 0


def entry_bounds(a1, a2):
    """Degree bound of entry (i, j): deg_i(E2) - deg_j(E1), row-major, for
    the summand degrees (a, -a) of E = O(a) + O(-a)."""
    if a1 < 0 or a2 < 0:
        raise ValueError("need a >= 0")
    return (a2 - a1, a2 + a1, -a2 - a1, a1 - a2)


def hom_space_dims(a1, a2):
    """Dimensions of the four entry spaces, row-major (11, 12, 21, 22)."""
    return tuple(h0_dim(b) for b in entry_bounds(a1, a2))


class HomMatrix(namedtuple("HomMatrix", "a1 a2 entries")):
    """2x2 matrix of bounded-degree polynomials in t, row-major entries.
    Entry k is a normalized coefficient tuple (no trailing zeros) of length
    at most hom_space_dims(a1, a2)[k]."""

    __slots__ = ()

    @property
    def bounds(self):
        return entry_bounds(self.a1, self.a2)

    def det(self, field):
        """det phi in F_q.  Both bundles have trivial determinant, so det phi
        is a constant: in e11 e22 and in e12 e21 the degree bounds sum to 0,
        so an entry whose partner is nonzero has bound 0 and is a constant."""
        a, b, c, d = (e[0] if e else 0 for e in self.entries)
        return field.sub(field.mul(a, d), field.mul(b, c))


def iter_hom_lines(field, a1, a2, budget=None):
    """One nonzero map on each line F_q^x phi of Hom(E1, E2)(F_q): the one
    whose flat coefficient vector (entries row-major, each entry's
    coefficients in order) has first nonzero coordinate 1, so (q^N - 1)/(q - 1)
    maps for N = sum of `hom_space_dims`.  The budget is charged q^N, the
    size of the whole space."""
    dims = hom_space_dims(a1, a2)
    total = sum(dims)
    check_power_budget(total, lambda: field.q**total, budget, HOM_ENUM_BUDGET,
                       f"hom space ({a1},{a2}) over F_{field.q}")
    spaces = [
        [poly_normalize(c) for c in itertools.product(field.elements(), repeat=d)]
        for d in dims
    ]
    for k, space in enumerate(spaces):
        # entry k holds the first nonzero coordinate: the entries before it are
        # zero, its lowest nonzero coefficient is 1, the entries after it are free
        heads = [f for f in space if f and next(filter(None, f)) == 1]
        for rest in itertools.product(heads, *spaces[k + 1:]):
            yield HomMatrix(a1=a1, a2=a2, entries=((),) * k + rest)


# ---------------------------------------------------------------------------
# defect divisors on P^1
# ---------------------------------------------------------------------------


def defect_divisor_of_hom(field, phi):
    """The first determinantal divisor of a nonzero phi, which must have
    det = 0 (the caller has taken it): at each closed point the minimum of
    the entry valuations.  The finite part is the divisor of the gcd of the
    entries, read off the sieve; the point at infinity gets the least of
    the degree bound minus the degree."""
    nonzero = [(poly, bound) for poly, bound in zip(phi.entries, phi.bounds) if poly]
    if not nonzero:
        raise ValueError("defect divisor of the zero map is undefined")
    gcd = ()
    for poly, _ in nonzero:
        gcd = poly_gcd(field, gcd, poly)
    divisor = divisor_of(field, gcd)
    inf_val = min(bound - poly_deg(poly) for poly, bound in nonzero)
    if inf_val > 0:
        divisor += EffectiveDivisor.from_pairs([(INFINITY, inf_val)])
    return divisor


# ---------------------------------------------------------------------------
# the function
# ---------------------------------------------------------------------------


class DrinfeldResult(namedtuple("DrinfeldResult", [
        "isom", "boundary_sum", "value", "nonunit_isoms",
        "value_including_nonunit_isos", "histogram"])):
    __slots__ = ()


def _result(isom, boundary, nonunit, histogram=None):
    """The DrinfeldResult of the three counts: the value excludes the
    nonunit-determinant isomorphisms from the boundary sum, the alternative
    reading counts each with the empty divisor's factor 1."""
    return DrinfeldResult(isom, boundary, isom - boundary, nonunit,
                          isom - (boundary + nonunit), histogram)


def _line_shares(field):
    """shares[d] for each det d in F_q of a line F_q^x phi: (s, q - 1 - s),
    where s of the line's q - 1 maps have det 1 and the other q - 1 - s do
    not.  s = #{c in F_q^x : c^2 d = 1}, which is 0 at d = 0."""
    ones = [0] * field.q
    for c in range(1, field.q):
        ones[field.inv(field.mul(c, c))] += 1
    return [(s, field.q - 1 - s) for s in ones]


def drinfeld_value(a1, a2, field, budget=None, histogram=False):
    """The closed formula, from one map on each line of Hom(E1, E2)(F_q).

    Maps with det = 0 (and phi != 0) contribute their boundary factor, the
    `kcalc.BOUNDARY` trace prod_x (1 - q^deg x) at their defect divisor, read
    once per type off a tally by divisor type, which is the `histogram`.
    Maps with det a nonzero constant are vector-bundle isomorphisms, excluded
    from the sum (those with det = 1 are the Isom term).  The result also
    reports both readings of "is not an isomorphism".

    The line rule.  The nonzero maps fall into the lines F_q^x phi of q - 1
    maps each, and `iter_hom_lines` gives one map of each.  Scaling by c in
    F_q^x multiplies every entry by c, which keeps the gcd of the entries and
    each entry's degree, so the defect divisor of c phi is that of phi; and
    det(c phi) = c^2 det phi, as det is a quadratic form in the entries.  So
    a line of det 0 adds q - 1 maps to its defect type's tally, and a line of
    det d != 0 holds r(d) = #{c : c^2 d = 1} maps of det 1 and q - 1 - r(d) of
    nonunit det (`_line_shares`).  In characteristic 2 squaring is a
    bijection of F_q^x, so r(d) = 1; for odd q, c^2 = 1/d has 0 or 2 roots.
    """
    shares = _line_shares(field)
    isom = nonunit = 0
    tally = Counter()
    for phi in iter_hom_lines(field, a1, a2, budget):
        det = phi.det(field)
        ones, others = shares[det]
        if det:
            isom += ones
            nonunit += others
        else:
            tally[divisor_type(defect_divisor_of_hom(field, phi))] += others
    boundary = sum(n * type_trace(BOUNDARY, t).at_q(field.q) for t, n in tally.items())
    return _result(isom, boundary, nonunit,
                   tuple(sorted(tally.items())) if histogram else None)


def sl2_isom_count(a1, a2, q):
    """#Isom_SL2(E1, E2)(F_q): zero unless a1 = a2, and then |Aut_SL2(E1)|,
    which is |SL_2(F_q)| = q^3 - q at a1 = 0, else (q-1) q^(2 a1 + 1)."""
    if a1 != a2:
        return 0
    return q**3 - q if a1 == 0 else (q - 1) * q ** (2 * a1 + 1)


def rank_one_value(a1, a2, q):
    """The `drinfeld_value` result (without histogram) from the closed form
    of the module docstring, enumerating no map.  A diagonal pair is
    refused before any power is taken when q^(2a+4), which bounds each of
    its counts, has more than 4300 digits, CPython's limit for printing an
    int."""
    entry_bounds(a1, a2)  # checks a1, a2 >= 0
    digits = (2 * a1 + 4) * math.log10(q)
    if a1 == a2 and digits > 4300:
        raise ValueError(f"the counts at a1 = a2 = {a1} over F_{q} run to about "
                         f"{int(digits)} digits, too many to print")
    isom = sl2_isom_count(a1, a2, q)
    return _result(isom, 2 * isom - (q - 1) * (q * q - 1), (q - 2) * isom)
