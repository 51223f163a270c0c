"""Exact arithmetic: finite fields F_q, Laurent trace values, divisors.

Field elements are encoded as plain integers 0..q-1.  For a prime field the
encoding is the residue itself; for q = p^e the base-p digits of the integer
are the coefficients of the residue polynomial (least significant digit =
constant term).  All hot loops work on these integer codes through the
field's tables, so enumeration never pays object overhead.

Frobenius traces live in Z[v, v^-1] with v standing for q^(1/2): a Tate
twist (m) contributes v^(-2m) and a cohomological shift [s] contributes
(-1)^s.  Keeping traces formal avoids both floating point and premature
choices of sqrt(q).

Divisors on the affine line are multisets of closed points, i.e. monic
irreducible polynomials in t; the distinguished point at infinity is allowed
so that the projective-line module can reuse the same type.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Laurent values
# ---------------------------------------------------------------------------


class Laurent:
    """An element of Z[v, v^-1], stored as {exponent: coefficient}.

    The universal carrier of Frobenius traces: specializing v^2 = q turns a
    Laurent value into the corresponding point-count rational.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    d[int(e)] = int(c)
        self.coeffs = d

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return Laurent()

    @staticmethod
    def one():
        return Laurent({0: 1})

    @staticmethod
    def from_int(n):
        return Laurent({0: n})

    @staticmethod
    def monomial(exponent, coefficient=1):
        return Laurent({int(exponent): coefficient})

    @staticmethod
    def v(exponent=1):
        """The monomial v^exponent."""
        return Laurent.monomial(exponent)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
        return Laurent(d)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_as_laurent(other))

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        other = _as_laurent(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent(d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers: invert exponents explicitly")
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.from_int(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # constants compare equal to ints, so they must hash like them
        if not self.coeffs:
            return hash(0)
        if len(self.coeffs) == 1 and 0 in self.coeffs:
            return hash(self.coeffs[0])
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    # -- structure ----------------------------------------------------------

    def valuation(self):
        if not self.coeffs:
            raise ValueError("zero has no valuation")
        return min(self.coeffs)

    def degree(self):
        if not self.coeffs:
            raise ValueError("zero has no degree")
        return max(self.coeffs)

    def shift(self, k):
        """Multiply by v^k."""
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    def twist(self, m):
        """Apply a Tate twist (m): multiply by v^(-2m).  m may be a half-integer
        as long as 2m is integral."""
        k = -2 * Fraction(m)
        if k.denominator != 1:
            raise ValueError(f"twist {m} does not give an integral v-exponent")
        return self.shift(int(k))

    def exact_div(self, other):
        """Exact division in Z[v, v^-1]; raises ValueError if not divisible."""
        other = _as_laurent(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent value")
        if self.is_zero():
            return Laurent.zero()
        # shift both to valuation 0 and long-divide top-down over Z
        a = {e - self.valuation(): c for e, c in self.coeffs.items()}
        b = {e - other.valuation(): c for e, c in other.coeffs.items()}
        deg_b = max(b)
        lead_b = b[deg_b]
        quot = {}
        while a:
            deg_a = max(a)
            if deg_a < deg_b:
                raise ValueError("not exactly divisible")
            c, rem = divmod(a[deg_a], lead_b)
            if rem:
                raise ValueError("not exactly divisible over Z")
            k = deg_a - deg_b
            quot[k] = c
            for e, cb in b.items():
                e2 = e + k
                a[e2] = a.get(e2, 0) - c * cb
                if a[e2] == 0:
                    del a[e2]
        shift = self.valuation() - other.valuation()
        return Laurent({e + shift: c for e, c in quot.items()})

    def at_q(self, q):
        """Specialize v^2 = q.  Defined only when all exponents are even;
        returns a Fraction (an integer-valued one whenever q is an integer
        and no negative exponents survive denominators)."""
        total = Fraction(0)
        for e, c in self.coeffs.items():
            if e % 2:
                raise ValueError(
                    f"odd v-exponent {e}: value is not a rational function of q"
                )
            total += c * Fraction(q) ** (e // 2)
        return total

    def to_json_map(self):
        return {str(e): self.coeffs[e] for e in sorted(self.coeffs)}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}v^{e}" if e != 1 else f"{mag}v"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


def _as_laurent(x):
    if isinstance(x, Laurent):
        return x
    if isinstance(x, int):
        return Laurent.from_int(x)
    raise TypeError(f"cannot coerce {x!r} to Laurent")


def elementary_symmetric(values, m):
    """e_m of a list of Laurent values (e_0 = 1), by the product expansion."""
    if m < 0 or m > len(values):
        return Laurent.zero()
    # coefficients of prod (1 + x_i T) up to T^m
    es = [Laurent.one()] + [Laurent.zero()] * m
    for x in values:
        for j in range(min(m, len(values)), 0, -1):
            es[j] = es[j] + x * es[j - 1]
    return es[m]


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

_TABLE_LIMIT = 1 << 10  # build q x q tables only for small fields


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimePowerField:
    """The field F_q, q = p^e, with integer-encoded elements.

    Equality and hashing go by (p, e, modulus) so fields can key caches.
    The multiplication/addition tables are read-only shared data; every
    operation is pure, so field objects are safe to use from concurrent
    workers.
    """

    def __init__(self, p, e, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= e <= 3:
            raise ValueError(f"extension degree {e} out of range (need 1 <= e <= 3)")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = (0, 1) if modulus is None else tuple(modulus)
            if modulus is not None and (len(self.modulus) != 2 or self.modulus[1] != 1):
                raise ValueError("prime field modulus must be linear and monic")
        else:
            if modulus is None:
                modulus = _default_modulus(p, e)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            if not _fp_poly_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- encoding -----------------------------------------------------------

    def to_coeffs(self, a):
        """Base-p digits of the code a: the residue-polynomial coefficients."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs):
        a = 0
        for c in reversed(coeffs):
            a = a * self.p + (c % self.p)
        return a

    def elements(self):
        return range(self.q)

    # -- arithmetic on integer codes ----------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        p = self.p
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        red = _fp_poly_mod(tuple(prod), self.modulus, p)
        return self.from_coeffs(red + (0,) * (self.e - len(red)))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if a == 0:
            return 1 if n == 0 else 0
        n %= self.q - 1
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def _build_tables(self):
        q = self.q
        self._mul_table = [[0] * q for _ in range(q)]
        for a in range(q):
            row = self._mul_table[a]
            for b in range(a, q):
                v = self._mul_slow(a, b)
                row[b] = v
                self._mul_table[b][a] = v
        self._inv_table = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul_table[a][b] == 1:
                    self._inv_table[a] = b
                    break

    # -- conveniences -------------------------------------------------------

    def element(self, a):
        return FieldElement(self, a % self.q if self.e == 1 else a)

    def __eq__(self, other):
        return (
            isinstance(other, PrimePowerField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q}<{format_poly(self, self.modulus)}>"


def _fp_poly_mod(f, g, p):
    """f mod g over F_p, coefficient tuples, g monic."""
    f = list(f)
    dg = len(g) - 1
    while len(f) >= len(g):
        lead = f[-1] % p
        if lead:
            shift = len(f) - len(g)
            for i in range(dg + 1):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
        f.pop()
    while f and f[-1] % p == 0:
        f.pop()
    return tuple(c % p for c in f)


def _fp_poly_mul(f, g, p):
    if not f or not g:
        return ()
    prod = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                prod[i + j] = (prod[i + j] + x * y) % p
    return tuple(prod)


def _fp_poly_irreducible(f, p):
    """Trial division over F_p (degrees here are at most 3)."""
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    # degree 2 or 3: irreducible iff no roots in F_p
    for a in range(p):
        val = 0
        for c in reversed(f):
            val = (val * a + c) % p
        if val == 0:
            return False
    return True


def _default_modulus(p, e):
    """Smallest monic irreducible of degree e over F_p in lexicographic order
    of (constant term, ..., leading term)."""
    for tail in itertools.product(range(p), repeat=e):
        f = tuple(tail) + (1,)
        if _fp_poly_irreducible(f, p):
            return f
    raise AssertionError("no irreducible modulus found")


def build_field(p, e, modulus=None):
    """Construct F_{p^e}.  Raises ValueError for composite p or e outside 1..3."""
    return PrimePowerField(p, e, modulus)


def alternative_moduli(p, e):
    """All monic irreducibles of degree e over F_p (to re-run suites with a
    different defining modulus)."""
    out = []
    for tail in itertools.product(range(p), repeat=e):
        f = tuple(tail) + (1,)
        if _fp_poly_irreducible(f, p):
            out.append(f)
    return out


@dataclass(frozen=True)
class FieldElement:
    """Operator-overloaded wrapper around an integer-encoded field element."""

    field: PrimePowerField
    value: int

    def _check(self, other):
        if isinstance(other, int):
            other = FieldElement(self.field, other % self.field.q)
        if self.field != other.field:
            raise ValueError("field mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.value, n))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"F{self.field.q}({self.value})"


# ---------------------------------------------------------------------------
# Polynomials over F_q (coefficient tuples of integer codes, no trailing 0s)
# ---------------------------------------------------------------------------


def poly_normalize(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_deg(f):
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_add(field, f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i in range(n):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        out[i] = field.add(a, b)
    return poly_normalize(out)


def poly_sub(field, f, g):
    return poly_add(field, f, tuple(field.neg(c) for c in g))


def poly_mul(field, f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_normalize(out)


def poly_divmod(field, f, g):
    g = poly_normalize(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(poly_normalize(f))
    dg = poly_deg(g)
    inv_lead = field.inv(g[-1])
    quot = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = field.mul(f[-1], inv_lead)
        shift = len(f) - 1 - dg
        quot[shift] = c
        for i in range(dg + 1):
            f[shift + i] = field.sub(f[shift + i], field.mul(c, g[i]))
        while f and f[-1] == 0:
            f.pop()
    return poly_normalize(quot), poly_normalize(f)


def poly_mod(field, f, g):
    return poly_divmod(field, f, g)[1]


def poly_monic(field, f):
    f = poly_normalize(f)
    if not f:
        return f
    inv = field.inv(f[-1])
    return tuple(field.mul(c, inv) for c in f)


def poly_gcd(field, f, g):
    f, g = poly_normalize(f), poly_normalize(g)
    while g:
        f, g = g, poly_mod(field, f, g)
    return poly_monic(field, f)


def poly_eval(field, f, x):
    out = 0
    for c in reversed(f):
        out = field.add(field.mul(out, x), c)
    return out


def monic_polys(field, degree):
    """All monic polynomials of the exact given degree (q^degree of them)."""
    if degree == 0:
        yield (1,)
        return
    for tail in itertools.product(field.elements(), repeat=degree):
        yield tuple(tail) + (1,)


def is_irreducible(field, f):
    """Trial division by lower-degree monic polynomials."""
    f = poly_normalize(f)
    d = poly_deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for g in monic_polys(field, e):
            if not poly_mod(field, f, g):
                return False
    return True


def poly_factor(field, f):
    """Factor a nonzero polynomial into monic irreducibles: {poly: mult}.
    The unit leading coefficient is discarded."""
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
            if not is_irreducible(field, g):
                continue
            while True:
                quot, rem = poly_divmod(field, f, g)
                if rem:
                    break
                out[g] = out.get(g, 0) + 1
                f = quot
            if poly_deg(f) == 0:
                break
        d += 1
    return out


# ---------------------------------------------------------------------------
# Closed points and effective divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of A^1 (a monic irreducible in t) or the point at
    infinity on P^1 (poly is None, degree 1)."""

    degree: int
    poly: tuple | None

    @property
    def is_infinity(self):
        return self.poly is None

    def sort_key(self):
        if self.poly is None:
            return (1, 1, ())
        return (0, self.degree, self.poly)

    def __repr__(self):
        return "inf" if self.poly is None else f"pt({self.poly})"


INFINITY = ClosedPoint(degree=1, poly=None)


def closed_point(field, poly):
    """Validated closed point of A^1 from a monic irreducible polynomial."""
    poly = poly_normalize(poly)
    if poly_deg(poly) < 1 or poly[-1] != 1:
        raise ValueError(f"{poly} is not monic of positive degree")
    if not is_irreducible(field, poly):
        raise ValueError(f"{poly} is reducible over {field!r}")
    return ClosedPoint(degree=poly_deg(poly), poly=poly)


def rational_point(field, c):
    """The degree-1 point t = c."""
    return ClosedPoint(degree=1, poly=(field.neg(c), 1))


@dataclass(frozen=True)
class EffectiveDivisor:
    """A multiset of closed points with positive multiplicities."""

    parts: tuple  # tuple of (ClosedPoint, multiplicity), canonically sorted

    @staticmethod
    def from_pairs(pairs):
        acc = {}
        for pt, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                acc[pt] = acc.get(pt, 0) + m
        parts = tuple(sorted(acc.items(), key=lambda pm: pm[0].sort_key()))
        return EffectiveDivisor(parts=parts)

    @staticmethod
    def empty():
        return EffectiveDivisor(parts=())

    @property
    def degree(self):
        return sum(pt.degree * m for pt, m in self.parts)

    def multiplicity(self, pt):
        for q, m in self.parts:
            if q == pt:
                return m
        return 0

    def support(self):
        return tuple(pt for pt, _ in self.parts)

    def is_multiplicity_free(self):
        return all(m == 1 for _, m in self.parts)

    def residue_degrees(self):
        """Degrees of the distinct points, sorted descending.  For a
        multiplicity-free divisor of degree n this is an S_n cycle type."""
        return tuple(sorted((pt.degree for pt, _ in self.parts), reverse=True))

    def __add__(self, other):
        return EffectiveDivisor.from_pairs(self.parts + other.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        if not self.parts:
            return "Div(0)"
        return "Div(" + " + ".join(
            (f"{m}*{pt!r}" if m > 1 else repr(pt)) for pt, m in self.parts
        ) + ")"


@lru_cache(maxsize=64)
def enumerate_closed_points(field, max_degree):
    """All closed points of A^1 of degree <= max_degree, i.e. all monic
    irreducibles, sorted by (degree, coefficients).  A sieve: a monic
    polynomial of degree d is a point exactly when it is not a product of
    points of lower degree.  Counts obey the necklace formula."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    lower = enumerate_closed_points(field, max_degree - 1) if max_degree > 1 else ()
    reducible = {poly for _, poly in _point_multisets(field, lower, max_degree)}
    return lower + tuple(
        ClosedPoint(degree=max_degree, poly=f)
        for f in monic_polys(field, max_degree)
        if f not in reducible
    )


@lru_cache(maxsize=64)
def enumerate_divisors(field, n):
    """All degree-n effective divisors on A^1 over F_q.

    These are exactly the monic degree-n polynomials (q^n of them): the
    multisets of closed points of total degree n, ordered as their products
    are by `monic_polys`.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return (EffectiveDivisor.empty(),)
    found = _point_multisets(field, enumerate_closed_points(field, n), n)
    found.sort(key=lambda parts_poly: parts_poly[1])
    return tuple(EffectiveDivisor(parts=parts) for parts, _ in found)


def _point_multisets(field, points, n):
    """(parts, product polynomial) for every multiset of the given points
    of total degree n.  points must be sorted by sort key; parts come out in
    the same canonical order."""
    out = []
    parts = []

    def extend(start, remaining, poly):
        if not remaining:
            out.append((tuple(parts), poly))
            return
        for i in range(start, len(points)):
            pt = points[i]
            if pt.degree > remaining:
                break
            power = poly
            for m in range(1, remaining // pt.degree + 1):
                power = poly_mul(field, power, pt.poly)
                parts.append((pt, m))
                extend(i + 1, remaining - m * pt.degree, power)
                parts.pop()

    extend(0, n, (1,))
    return out


def decompositions(divisor, constraint, degree_split):
    """All F_q-rational splittings divisor = D1 + D2 with deg D2 = the second
    entry of degree_split.

    constraint is "none" (any multiplicities on D2) or
    "secondMultiplicityFree" (each point enters D2 at most once).
    """
    i, j = degree_split
    if i + j != divisor.degree:
        raise ValueError(f"split {degree_split} does not sum to deg D = {divisor.degree}")
    if constraint not in ("none", "secondMultiplicityFree"):
        raise ValueError(f"unknown constraint {constraint!r}")
    out = []
    pts = divisor.parts
    ranges = []
    for pt, m in pts:
        cap = min(m, 1) if constraint == "secondMultiplicityFree" else m
        ranges.append(range(cap + 1))
    for choice in itertools.product(*ranges):
        deg2 = sum(pt.degree * c for (pt, _), c in zip(pts, choice))
        if deg2 != j:
            continue
        d2 = EffectiveDivisor.from_pairs(
            (pt, c) for (pt, _), c in zip(pts, choice) if c
        )
        d1 = EffectiveDivisor.from_pairs(
            (pt, m - c) for (pt, m), c in zip(pts, choice) if m - c
        )
        out.append((d1, d2))
    return out


def iter_decompositions(divisor, degrees):
    """All ordered splittings of divisor into len(degrees) effective pieces
    with the prescribed degrees."""
    k = len(degrees)
    if sum(degrees) != divisor.degree:
        raise ValueError("degrees do not sum to deg D")
    pts = divisor.parts
    per_point = []
    for _, m in pts:
        per_point.append(list(_compositions(m, k)))
    for choice in itertools.product(*per_point):
        degs = [0] * k
        for (pt, _), comp in zip(pts, choice):
            for slot in range(k):
                degs[slot] += pt.degree * comp[slot]
        if tuple(degs) != tuple(degrees):
            continue
        pieces = []
        for slot in range(k):
            pieces.append(
                EffectiveDivisor.from_pairs(
                    (pt, comp[slot])
                    for (pt, _), comp in zip(pts, choice)
                    if comp[slot]
                )
            )
        yield tuple(pieces)


def _compositions(m, k):
    """All ways to write m as an ordered sum of k non-negative integers."""
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _compositions(m - first, k - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Divisor text format:  comma-separated `poly:mult`, with poly a monic
# polynomial in t (e.g. `t^2+t+1`) and `inf` the point at infinity.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)?\*?(t)(?:\^(\d+))?$|^(\d+)$")


def parse_poly(field, text):
    """Parse `t^2+2t+1`-style polynomials; coefficients are integer element
    codes (base-p digit encoding for non-prime fields)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", text)
    coeffs = {}
    for term in terms:
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed term {term!r}")
        if m.group(4) is not None:
            c, e = int(m.group(4)), 0
        else:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(3)) if m.group(3) else 1
        if c >= field.q:
            raise ValueError(f"coefficient {c} out of range for F_{field.q}")
        if sign == -1:
            c = field.neg(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return poly_normalize(out)


def format_poly(field, poly):
    poly = poly_normalize(poly)
    if not poly:
        return "0"
    parts = []
    for e in range(poly_deg(poly), -1, -1):
        c = poly[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("t" if c == 1 else f"{c}t")
        else:
            parts.append(f"t^{e}" if c == 1 else f"{c}t^{e}")
    return "+".join(parts)


def parse_divisor(field, text, allow_infinity=False):
    """Parse the `poly:mult,poly:mult` divisor format.  Raises ValueError on
    malformed syntax or reducible polynomials."""
    text = text.strip()
    if not text or text == "0":
        return EffectiveDivisor.empty()
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            poly_text, mult_text = chunk.rsplit(":", 1)
            mult = int(mult_text)
        else:
            poly_text, mult = chunk, 1
        if mult < 1:
            raise ValueError(f"multiplicity {mult} must be positive")
        if poly_text.strip() == "inf":
            if not allow_infinity:
                raise ValueError("the point at infinity is only valid on P^1")
            pairs.append((INFINITY, mult))
            continue
        pairs.append((closed_point(field, parse_poly(field, poly_text)), mult))
    return EffectiveDivisor.from_pairs(pairs)


def format_divisor(field, divisor):
    if not divisor.parts:
        return "0"
    chunks = []
    for pt, m in divisor.parts:
        name = "inf" if pt.is_infinity else format_poly(field, pt.poly)
        chunks.append(f"{name}:{m}")
    return ",".join(chunks)


def necklace_count(q, d):
    """Number of degree-d monic irreducibles over F_q: (1/d) sum mu(d/e) q^e."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(d // e) * q**e
    assert total % d == 0
    return total // d


def _mobius(n):
    if n == 1:
        return 1
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out
