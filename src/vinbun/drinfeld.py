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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from vinbun.arith import (
    INFINITY,
    ClosedPoint,
    EffectiveDivisor,
    poly_add,
    poly_deg,
    poly_factor,
    poly_gcd,
    poly_mul,
    poly_normalize,
    poly_sub,
)
from vinbun.budget import HOM_ENUM_BUDGET, check_budget


@dataclass(frozen=True)
class SplitBundle:
    """O(a) + O(-a) with trivialized determinant."""

    a: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("need a >= 0")

    @property
    def summand_degrees(self):
        return (self.a, -self.a)


def h0_dim(m):
    """dim H^0(P^1, O(m)) = m + 1 for m >= 0, else 0."""
    return m + 1 if m >= 0 else 0


def entry_bounds(a1, a2):
    """Degree bound of entry (i, j): deg_i(E2) - deg_j(E1), row-major."""
    e1 = SplitBundle(a1).summand_degrees
    e2 = SplitBundle(a2).summand_degrees
    return tuple(e2[i] - e1[j] for i in range(2) for j in range(2))


def hom_space_dims(a1, a2):
    """Dimensions of the four entry spaces, row-major (11, 12, 21, 22)."""
    return tuple(h0_dim(b) for b in entry_bounds(a1, a2))


@dataclass(frozen=True)
class HomMatrix:
    """2x2 matrix of bounded-degree polynomials in t, row-major entries.
    Entry k is a coefficient tuple of length hom_space_dims(a1, a2)[k]."""

    a1: int
    a2: int
    entries: tuple

    @property
    def bounds(self):
        return entry_bounds(self.a1, self.a2)

    def entry(self, k):
        return poly_normalize(self.entries[k])

    def is_zero(self):
        return all(not self.entry(k) for k in range(4))

    def det(self, field):
        e = [self.entry(k) for k in range(4)]
        return poly_sub(field, poly_mul(field, e[0], e[3]), poly_mul(field, e[1], e[2]))

    def scaled(self, field, c):
        return HomMatrix(
            self.a1,
            self.a2,
            tuple(tuple(field.mul(c, x) for x in e) for e in self.entries),
        )


def iter_hom_matrices(field, a1, a2, budget=None):
    """Exhaustive enumeration of Hom(E1, E2)(F_q)."""
    dims = hom_space_dims(a1, a2)
    total = sum(dims)
    check_budget(field.q**total, budget, HOM_ENUM_BUDGET,
                 f"hom space ({a1},{a2}) over F_{field.q}")
    spaces = [
        list(itertools.product(field.elements(), repeat=d)) for d in dims
    ]
    for quad in itertools.product(*spaces):
        yield HomMatrix(a1=a1, a2=a2, entries=tuple(quad))


def compose(field, psi, phi):
    """Matrix product psi . phi for phi: E(a1) -> E(a2), psi: E(a2) -> E(a3)."""
    if psi.a1 != phi.a2:
        raise ValueError("middle bundles disagree")
    p = [phi.entry(k) for k in range(4)]
    s = [psi.entry(k) for k in range(4)]
    out = []
    for i in range(2):
        for j in range(2):
            acc = ()
            for l in range(2):
                acc = poly_add(field, acc, poly_mul(field, s[2 * i + l], p[2 * l + j]))
            out.append(acc)
    dims = hom_space_dims(phi.a1, psi.a2)
    for e, d in zip(out, dims):
        if len(e) > d:
            raise AssertionError("degree bound violated by composition")
    padded = tuple(
        tuple(e[k] if k < len(e) else 0 for k in range(d))
        for e, d in zip(out, dims)
    )
    return HomMatrix(a1=phi.a1, a2=psi.a2, entries=padded)


# ---------------------------------------------------------------------------
# defect divisors on P^1
# ---------------------------------------------------------------------------


def defect_divisor_of_hom(field, phi):
    """The first determinantal divisor of a nonzero phi with det = 0: at
    each closed point the minimum of the entry valuations, collected over
    the irreducibles in t plus the point at infinity."""
    if phi.is_zero():
        raise ValueError("defect divisor of the zero map is undefined")
    if phi.det(field):
        raise ValueError("defect divisor requires det(phi) = 0")
    nonzero = [
        (phi.entry(k), phi.bounds[k]) for k in range(4) if phi.entry(k)
    ]
    gcd = ()
    for poly, _ in nonzero:
        gcd = poly_gcd(field, gcd, poly)
    pairs = []
    if poly_deg(gcd) > 0:
        for factor, mult in poly_factor(field, gcd).items():
            pairs.append((ClosedPoint(degree=poly_deg(factor), poly=factor), mult))
    inf_val = min(bound - poly_deg(poly) for poly, bound in nonzero)
    if inf_val > 0:
        pairs.append((INFINITY, inf_val))
    return EffectiveDivisor.from_pairs(pairs)


def boundary_factor(q, divisor):
    """prod over the distinct points of the defect divisor of (1 - q^deg)."""
    out = 1
    for pt, _ in divisor:
        out *= 1 - q**pt.degree
    return out


# ---------------------------------------------------------------------------
# the function
# ---------------------------------------------------------------------------


def isom_count(a1, a2, field, budget=None):
    """Number of determinant-1 bundle isomorphisms E1 -> E2: zero unless
    a1 = a2, and then the count of Hom matrices with det identically 1."""
    if a1 != a2:
        return 0
    total = 0
    for phi in iter_hom_matrices(field, a1, a2, budget):
        if phi.det(field) == (1,):
            total += 1
    return total


def expected_isom_count(a, q):
    """Closed form: |SL_2(F_q)| = q^3 - q at a = 0, else (q-1) q^(2a+1)."""
    return q**3 - q if a == 0 else (q - 1) * q ** (2 * a + 1)


@dataclass(frozen=True)
class DrinfeldResult:
    isom: int
    boundary_sum: int
    value: int
    nonunit_isoms: int
    value_including_nonunit_isos: int
    histogram: tuple | None


def drinfeld_value(a1, a2, field, budget=None, histogram=False):
    """Full enumeration of Hom(E1, E2)(F_q) and the closed formula.

    Maps with det = 0 (and phi != 0) contribute their boundary factor; maps
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
        boundary += boundary_factor(q, divisor)
        if histogram:
            profile = tuple(sorted((pt.degree, m) for pt, m in divisor))
            hist[profile] = hist.get(profile, 0) + 1
    return DrinfeldResult(
        isom=isom,
        boundary_sum=boundary,
        value=isom - boundary,
        nonunit_isoms=nonunit,
        value_including_nonunit_isos=isom - (boundary + nonunit),
        histogram=tuple(sorted(hist.items())) if histogram else None,
    )


def random_automorphism(field, a, rng):
    """A random vector-bundle automorphism of O(a) + O(-a): an invertible
    constant matrix at a = 0, otherwise upper triangular with unit diagonal
    entries and a random off-diagonal form of degree <= 2a."""
    if a == 0:
        while True:
            entries = tuple((rng.randrange(field.q),) for _ in range(4))
            phi = HomMatrix(a1=0, a2=0, entries=entries)
            if phi.det(field):
                return phi
    alpha = rng.randrange(1, field.q)
    delta = rng.randrange(1, field.q)
    beta = tuple(rng.randrange(field.q) for _ in range(2 * a + 1))
    return HomMatrix(a1=a, a2=a, entries=((alpha,), beta, (), (delta,)))
