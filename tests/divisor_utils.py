"""Shared divisor helpers for the test suite: every defining modulus of a
field, rational points, randomized divisors (seeded by callers), the
trial-division factoring oracle for divisor enumeration and for defect
divisors, the integer oracle for the boundary product, and the scalar
multiples of a Hom matrix, along whose orbits the defect divisor is
constant."""

from functools import lru_cache

from vinbun.arith import (
    INFINITY,
    ClosedPoint,
    EffectiveDivisor,
    PrimePowerField,
    enumerate_closed_points,
    is_irreducible,
    monic_polys,
    poly_deg,
    poly_gcd,
    poly_monic,
)
from vinbun.drinfeld import HomMatrix


def alternative_moduli(p, e):
    """All monic irreducibles of degree e over F_p in lexicographic order of
    (constant term, ..., leading term); the first is the default modulus.
    The others re-run checks with a different defining modulus."""
    base = PrimePowerField(p, 1)
    return [f for f in monic_polys(base, e) if is_irreducible(base, f)]


def rational_point(field, c):
    """The degree-1 point t = c."""
    return ClosedPoint(degree=1, poly=(field.neg(c), 1))


def exact_quotient(field, f, g):
    """f / g for a monic g that divides f, else None: schoolbook division
    from the top coefficient down."""
    f = list(f)
    quot = [0] * max(0, len(f) - len(g) + 1)
    for shift in reversed(range(len(quot))):
        c = quot[shift] = f[shift + len(g) - 1]
        for i, x in enumerate(g):
            f[shift + i] = field.sub(f[shift + i], field.mul(c, x))
    return None if any(f) else tuple(quot)


def poly_factor(field, f):
    """Factor a nonzero polynomial into monic irreducibles: {poly: mult}.
    The unit leading coefficient is discarded.  Trial division by the monic
    polynomials in order of increasing degree: once every factor of lower
    degree is divided out, a monic divisor of degree d is irreducible."""
    f = poly_monic(field, f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    out = {}
    d = 1
    while poly_deg(f) > 0:
        if 2 * d > poly_deg(f):
            # whatever is left is irreducible
            out[f] = out.get(f, 0) + 1
            break
        for g in monic_polys(field, d):
            while (quot := exact_quotient(field, f, g)) is not None:
                out[g] = out.get(g, 0) + 1
                f = quot
            if poly_deg(f) == 0:
                break
        d += 1
    return out


# the oracle grid factors each field's polynomials once for both oracles
@lru_cache(maxsize=None)
def _factorizations(field, n):
    """(f, its factorization by trial division) for every monic f of degree
    n, in `monic_polys` order."""
    return tuple((f, poly_factor(field, f)) for f in monic_polys(field, n))


def factored_divisors(field, n):
    """Oracle for `enumerate_divisors`: factor every monic polynomial of
    degree n by trial division, in `monic_polys` order."""
    return tuple(
        EffectiveDivisor.from_pairs(
            (ClosedPoint(degree=poly_deg(g), poly=g), m) for g, m in factors.items()
        )
        for _, factors in _factorizations(field, n)
    )


def trial_division_points(field, max_degree):
    """Oracle for `enumerate_closed_points` and `is_irreducible`: every
    monic polynomial of degree <= max_degree that trial division leaves as
    its own only factor."""
    return tuple(
        ClosedPoint(degree=d, poly=f)
        for d in range(1, max_degree + 1)
        for f, factors in _factorizations(field, d)
        if factors == {f: 1}
    )


def factored_defect_divisor(field, phi):
    """Oracle for `defect_divisor_of_hom`: the trial-division factors of the
    gcd of the nonzero entries, plus the point at infinity with the least
    valuation there."""
    nonzero = [(f, bound) for f, bound in zip(phi.entries, phi.bounds) if f]
    gcd = ()
    for f, _ in nonzero:
        gcd = poly_gcd(field, gcd, f)
    return EffectiveDivisor.from_pairs(
        [*_factor_points(field, gcd),
         (INFINITY, min(bound - poly_deg(f) for f, bound in nonzero))])


@lru_cache(maxsize=None)
def _factor_points(field, f):
    """(point, multiplicity) for each factor of f, by trial division once
    per f."""
    return tuple((ClosedPoint(degree=poly_deg(g), poly=g), m)
                 for g, m in poly_factor(field, f).items())


class DeadEnd(Exception):
    pass


def random_divisor(rng, field, n, forbidden=()):
    """A random effective divisor of degree n avoiding the forbidden points.
    Points may repeat (multiplicities).  Raises DeadEnd when the remaining
    degree cannot be filled."""
    if n == 0:
        return EffectiveDivisor.empty()
    pts = [p for p in enumerate_closed_points(field, n) if p not in forbidden]
    d = EffectiveDivisor.empty()
    while d.degree < n:
        cands = [p for p in pts if p.degree <= n - d.degree]
        if not cands:
            raise DeadEnd
        pt = rng.choice(cands)
        d = d + EffectiveDivisor.from_pairs([(pt, 1)])
    return d


def random_disjoint_pair(rng, field, n1, n2):
    """Two random divisors of degrees n1, n2 with disjoint support."""
    while True:
        try:
            d1 = random_divisor(rng, field, n1)
            d2 = random_divisor(rng, field, n2, forbidden={pt for pt, _ in d1})
            return d1, d2
        except DeadEnd:
            continue


def scaled_hom(field, phi, c):
    """The Hom matrix c * phi."""
    return HomMatrix(phi.a1, phi.a2,
                     tuple(tuple(field.mul(c, x) for x in e) for e in phi.entries))


def boundary_product(q, divisor):
    """Oracle for `kcalc.BOUNDARY` at v^2 = q: the integer product of
    (1 - q^deg x) over the distinct points x of the divisor."""
    out = 1
    for pt, _ in divisor:
        out *= 1 - q**pt.degree
    return out
