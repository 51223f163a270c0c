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

`drinfeld_value` sweeps all of Hom(E1, E2)(F_q); `rank_one_value` gives the
same result without enumerating a map.  A nonzero map with det = 0 has rank
one, so it factors as E1 -> O(c) -> E2 with the second map u saturated (its
two entries have no common zero), uniquely up to a scalar in F_q^x.  The
defect divisor is then the divisor of the first map w, and writing
w = g * w' with w' saturated and div(g) = D of degree e gives

    boundary = 1/(q-1) sum_{c=-a1..a2} Sat(a2-c, -a2-c)
                       sum_{e=0..c+a1} B(e) Sat(c-e-a1, c-e+a1).

Sat(x, y) counts the pairs of binary forms of degrees (x, y) with no common
zero on P^1: by Moebius inversion against 1/Z_{P^1}(t) = (1-t)(1-qt) it is
T(x, y) - (1+q) T(x-1, y-1) + q T(x-2, y-2), where T(x, y) =
q^(h0(x) + h0(y)) - 1 counts the nonzero pairs.  B(e), the sum over the
degree-e divisors D of prod_{x in supp D} (1 - q^deg x), is the t^e
coefficient of Z(t)/Z(qt) = (1 - q^2 t)/(1 - t): 1 at e = 0 and 1 - q^2
after, so the sum over e is one running sum over c.  The determinant-1
isomorphisms are #Aut_SL2, read off the shape of the Hom matrix, and
composing with diag(c^-1, 1) maps the isomorphisms of determinant c one to
one onto those of determinant 1, so there are (q-2) #Aut_SL2 of nonunit
determinant.
"""

import itertools
from collections import namedtuple

from vinbun.arith import (
    INFINITY,
    EffectiveDivisor,
    divisor_of,
    poly_deg,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_sub,
)
from vinbun.budget import HOM_ENUM_BUDGET, check_budget, check_power_budget
from vinbun.kcalc import BOUNDARY, divisor_type, evaluate


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

    def is_zero(self):
        return not any(self.entries)

    def det(self, field):
        e = self.entries
        return poly_sub(field, poly_mul(field, e[0], e[3]), poly_mul(field, e[1], e[2]))


def iter_hom_matrices(field, a1, a2, budget=None):
    """Exhaustive enumeration of Hom(E1, E2)(F_q)."""
    dims = hom_space_dims(a1, a2)
    total = sum(dims)
    check_power_budget(total, lambda: field.q**total, budget, HOM_ENUM_BUDGET,
                       f"hom space ({a1},{a2}) over F_{field.q}")
    spaces = [
        [poly_normalize(c) for c in itertools.product(field.elements(), repeat=d)]
        for d in dims
    ]
    for quad in itertools.product(*spaces):
        yield HomMatrix(a1=a1, a2=a2, entries=quad)


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


def drinfeld_value(a1, a2, field, budget=None, histogram=False):
    """Full enumeration of Hom(E1, E2)(F_q) and the closed formula.

    Maps with det = 0 (and phi != 0) contribute their boundary factor, the
    `kcalc.BOUNDARY` trace prod_x (1 - q^deg x) at their defect divisor; maps
    with det a nonzero constant are vector-bundle isomorphisms and are
    excluded from the sum (those with det = 1 are the Isom term).  The
    result also reports both readings of "is not an isomorphism".
    """
    q = field.q
    isom = 0
    nonunit = 0
    boundary = 0
    hist = {}
    for phi in iter_hom_matrices(field, a1, a2, budget):
        if phi.is_zero():
            continue
        det = phi.det(field)
        if det:
            if det == (1,):
                isom += 1
            else:
                nonunit += 1
            continue
        divisor = defect_divisor_of_hom(field, phi)
        boundary += int(evaluate(BOUNDARY, divisor.degree, divisor).at_q(q))
        if histogram:
            profile = divisor_type(divisor)
            hist[profile] = hist.get(profile, 0) + 1
    return _result(isom, boundary, nonunit,
                   tuple(sorted(hist.items())) if histogram else None)


def saturated_pairs(x, y, q):
    """Pairs of binary forms of degrees (x, y) over F_q with no common zero
    on P^1, by Moebius inversion of the nonzero pairs over their gcd."""

    def nonzero_pairs(x, y):
        return q ** (h0_dim(x) + h0_dim(y)) - 1

    return (nonzero_pairs(x, y) - (1 + q) * nonzero_pairs(x - 1, y - 1)
            + q * nonzero_pairs(x - 2, y - 2))


def sl2_isom_count(a1, a2, q):
    """#Isom_SL2(E1, E2)(F_q): zero unless a1 = a2, and then |Aut_SL2(E1)|,
    which is |SL_2(F_q)| = q^3 - q at a1 = 0, else (q-1) q^(2 a1 + 1)."""
    if a1 != a2:
        return 0
    return q**3 - q if a1 == 0 else (q - 1) * q ** (2 * a1 + 1)


def rank_one_value(a1, a2, q, budget=None):
    """The `drinfeld_value` result (without histogram) from the rank-one sum
    of the module docstring, enumerating no map.  Charged the (c, e) terms
    of the double sum, which one running sum over c evaluates."""
    entry_bounds(a1, a2)  # checks a1, a2 >= 0
    span = a1 + a2 + 1  # values of c
    check_budget(span * (span + 1) // 2, budget, HOM_ENUM_BUDGET,
                 f"rank-one sum ({a1},{a2}) over F_{q}")
    scaled = 0  # (q - 1) * boundary
    below = 0  # sum of Sat(k - a1, k + a1) over -a1 <= k < c
    for c in range(-a1, a2 + 1):
        head = saturated_pairs(c - a1, c + a1, q)
        scaled += saturated_pairs(a2 - c, -a2 - c, q) * (head + (1 - q * q) * below)
        below += head
    boundary, rest = divmod(scaled, q - 1)
    if rest:
        raise AssertionError("rank-one sum not divisible by q - 1")
    isom = sl2_isom_count(a1, a2, q)
    return _result(isom, boundary, (q - 2) * isom)


def closed_form_value(a1, a2, q):
    """Observed closed form (q-1)(q^2-1) - #Isom_SL2(E1, E2) of the value;
    found on grids of q and (a1, a2), not derived."""
    return (q - 1) * (q * q - 1) - sl2_isom_count(a1, a2, q)
