"""Shared divisor helpers for the test suite: randomized divisors (seeded by
callers) and the factoring oracle for divisor enumeration."""

from vinbun.arith import (
    ClosedPoint,
    EffectiveDivisor,
    enumerate_closed_points,
    is_irreducible,
    monic_polys,
    poly_deg,
    poly_factor,
)


def factored_divisors(field, n):
    """Oracle for `enumerate_divisors`: factor every monic polynomial of
    degree n by trial division, in `monic_polys` order."""
    return tuple(
        EffectiveDivisor.from_pairs(
            (ClosedPoint(degree=poly_deg(g), poly=g), m)
            for g, m in poly_factor(field, f).items()
        )
        for f in monic_polys(field, n)
    )


def trial_division_points(field, max_degree):
    """Oracle for `enumerate_closed_points`: every monic polynomial of
    degree <= max_degree that trial division finds irreducible."""
    return tuple(
        ClosedPoint(degree=d, poly=f)
        for d in range(1, max_degree + 1)
        for f in monic_polys(field, d)
        if is_irreducible(field, f)
    )


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
            d2 = random_divisor(rng, field, n2, forbidden=set(d1.support()))
            return d1, d2
        except DeadEnd:
            continue
