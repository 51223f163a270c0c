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

Polynomials over F_q are coefficient tuples of integer codes, handled by
one set of `poly_*` functions; F_{p^e} itself multiplies residues with them
over its prime field.  Irreducibility is Ben-Or's test.

Divisors on the affine line are multisets of closed points, i.e. monic
irreducible polynomials in t; the distinguished point at infinity is allowed
so that the projective-line module can reuse the same type.
"""

import itertools
import math
import re
from collections import namedtuple
from functools import lru_cache


# ---------------------------------------------------------------------------
# Z-combinations and Laurent values
# ---------------------------------------------------------------------------


class Combination:
    """A finitely supported Z-combination, stored as {key: coefficient} with
    no zero coefficient: the additive group that `Laurent` and
    `kcalc.KElement` share.  A value equals, adds to and subtracts only a
    value of its own type.  A subclass prints its terms through two hooks:
    `_key_order()`, its keys in print order, and `_term(key, magnitude)`."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _of_nonzero(cls, terms):
        """Wrap a dict that holds no zero coefficient, without copying it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._of_nonzero({k: -c for k, c in self.terms.items()})

    def _combine(self, other, sign):
        """self + sign * other in one pass over other's terms."""
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self.terms)
        for k, c in other.terms.items():
            c = d.get(k, 0) + sign * c
            if c:
                d[k] = c
            else:
                del d[k]
        return self._of_nonzero(d)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        bits = []
        for key in self._key_order():
            c = self.terms[key]
            term = self._term(key, abs(c))
            if not bits:
                bits.append(term if c > 0 else "-" + term)
            else:
                bits.append(("+ " if c > 0 else "- ") + term)
        return " ".join(bits) or "0"


class Laurent(Combination):
    """An element of Z[v, v^-1], stored as {exponent: coefficient}.

    The universal carrier of Frobenius traces: specializing v^2 = q turns a
    Laurent value into the corresponding point-count rational.
    """

    __slots__ = ()

    @staticmethod
    def monomial(exponent):
        return Laurent({exponent: 1})

    def __mul__(self, other):
        if type(other) is not Laurent:
            return NotImplemented
        d = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent(d)

    def at_q(self, q):
        """Specialize v^2 = q, for an integer q.  Defined only when all
        exponents are even.  Exact in integers: the q-exponents are shifted
        up by the lowest negative one, summed, and divided once.  Returns
        the int quotient when the division is exact, as it is for a point
        count or any value with no negative exponent, and a Fraction only
        when the value has a q-denominator."""
        odd = next((e for e in self.terms if e % 2), None)
        if odd is not None:
            raise ValueError(
                f"odd v-exponent {odd}: value is not a rational function of q"
            )
        low = min(min(self.terms, default=0) // 2, 0)
        total = sum(c * q ** (e // 2 - low) for e, c in self.terms.items())
        den = q**-low
        if total % den == 0:
            return total // den
        from fractions import Fraction  # only a value with a q-denominator
        return Fraction(total, den)

    def to_json_map(self):
        return {str(e): self.terms[e] for e in sorted(self.terms)}

    def _key_order(self):  # highest power of v first
        return sorted(self.terms, reverse=True)

    @staticmethod
    def _term(e, magnitude):
        if e == 0:
            return str(magnitude)
        power = "v" if e == 1 else f"v^{e}"
        return power if magnitude == 1 else f"{magnitude}*{power}"


# ---------------------------------------------------------------------------
# Finite fields
# ---------------------------------------------------------------------------

_TABLE_LIMIT = 1 << 10  # log/antilog lists up to here, slow products above
MAX_EXTENSION_DEGREE = 3
# Miller-Rabin on these witnesses is exact below 3.3 * 10^24 > MAX_Q
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_Q = 1 << 80


def is_prime(n):
    """Deterministic Miller-Rabin; n above MAX_Q is a ValueError, which
    names n by its bit length, as its digits may run to thousands."""
    if n > MAX_Q:
        raise ValueError(f"a {n.bit_length()}-bit number is above the limit MAX_Q = 2^80")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _WITNESSES:  # n - 1 = d 2^s: a^d = 1 or some a^(d 2^r) = -1
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def prime_power(q):
    """(p, e) with q = p^e, p prime and e <= 3, or None.  Only q, its
    integer square root and its integer cube root can be p.  `is_prime`
    refuses q above MAX_Q before q ** (1/3) could overflow a float."""
    if is_prime(q):
        return q, 1
    for e, p in ((2, math.isqrt(q)), (3, round(q ** (1 / 3)))):
        if p**e == q and is_prime(p):
            return p, e
    return None


class PrimePowerField:
    """The field F_q, q = p^e, with integer-encoded elements.

    Equality and hashing go by (p, e, modulus) so fields can key caches.
    For e > 1 the field holds its prime field and multiplies residue
    polynomials with the shared `poly_*` code; small fields read products
    and inverses off two O(q) lists, the logs and powers of a primitive
    element.
    """

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= e <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree {e} out of range "
                             f"(need 1 <= e <= {MAX_EXTENSION_DEGREE})")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = (0, 1) if modulus is None else tuple(modulus)
            if modulus is not None and (len(self.modulus) != 2 or self.modulus[1] != 1):
                raise ValueError("prime field modulus must be linear and monic")
        else:
            self.prime_field = base = PrimePowerField(p, 1)
            if modulus is None:
                # the first irreducible of monic_polys(base, e), found lazily from
                # f(0) = 1 on (x divides the others), so F_p is never listed
                tails = (self.to_coeffs(c)[::-1] for c in range(p ** (e - 1), self.q))
                modulus = next(t + (1,) for t in tails if is_irreducible(base, t + (1,)))
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            if not is_irreducible(base, modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._log = self._exp = None
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
        return self._digit_sum(a, b, 1)

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._digit_sum(a, b, -1)

    def neg(self, a):
        return self.sub(0, a)

    def _digit_sum(self, a, b, sign):
        """a + sign * b in F_{p^e}, e > 1: base-p digit by digit, mod p."""
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a + sign * b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul(self, a, b):
        log = self._log
        if log is not None:
            return self._exp[log[a] + log[b]]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        base = self.prime_field
        product = poly_mul(base, self.to_coeffs(a), self.to_coeffs(b))
        return self.from_coeffs(poly_mod(base, product, self.modulus))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self.pow(a, self.q - 2)

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
        """The logs and powers of one primitive element g, so that
        a*b = g^(log a + log b) and 1/a = g^(q - 1 - log a); only the walks
        g, g^2, ... of the candidates for g take slow products.  log 0 points
        past the powers into a run of zeros, so a product with 0 reads 0."""
        q = self.q
        for g in range(1, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._mul_slow(x, g)
            if len(powers) == q - 1:
                break
        log = [2 * (q - 1)] * q
        for k, x in enumerate(powers):
            log[x] = k
        self._log = log
        self._exp = powers * 2 + [0] * (2 * q - 1)  # g^k for k < 2(q - 1)

    # -- conveniences -------------------------------------------------------

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
        return f"F_{self.q}<{format_poly(self.modulus)}>"


def build_field(p, e, modulus=None):
    """Construct F_{p^e}.  Raises ValueError for composite p or e outside 1..3."""
    return PrimePowerField(p, e, modulus)


def field_from_q(q):
    """F_q from the prime power q (q = p^e with e <= 3 and q <= MAX_Q)."""
    found = prime_power(q) if q >= 2 else None
    if found is None:
        raise ValueError(f"{q} is not a prime power p^e with e <= 3")
    return build_field(*found)


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


def poly_sub(field, f, g):
    diff = [field.sub(a, b) for a, b in itertools.zip_longest(f, g, fillvalue=0)]
    return poly_normalize(diff)


def poly_mul(field, f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    if field.e == 1:  # sum the integer products, then reduce once
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g, i):
                    out[j] += x * y
        p = field.p
        return poly_normalize([c % p for c in out])
    if field.p == 2:  # F_4 and F_8: multiply by logs, add by XOR
        log, exp = field._log, field._exp
        for i, x in enumerate(f):
            if x:
                lx = log[x]
                for j, y in enumerate(g, i):
                    out[j] ^= exp[lx + log[y]]
        return poly_normalize(out)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_normalize(out)


def poly_mod(field, f, g):
    """The remainder of f on division by a nonzero g; no quotient is built."""
    g = poly_normalize(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(poly_normalize(f))
    dg = len(g) - 1
    inv_lead = 1 if g[-1] == 1 else field.inv(g[-1])  # inv is a slow power above _TABLE_LIMIT
    while len(f) > dg:
        c = field.mul(f.pop(), inv_lead)  # the top coefficient cancels
        shift = len(f) - dg
        for i in range(dg):
            f[shift + i] = field.sub(f[shift + i], field.mul(c, g[i]))
        while f and f[-1] == 0:
            f.pop()
    return tuple(f)


def poly_monic(field, f):
    f = poly_normalize(f)
    if not f:
        return f
    inv = field.inv(f[-1])
    return tuple(field.mul(c, inv) for c in f)


def poly_gcd(field, f, g):
    f, g = poly_normalize(f), poly_normalize(g)
    while len(g) > 1:
        f, g = g, poly_mod(field, f, g)
    return (1,) if g else poly_monic(field, f)  # a nonzero constant g is a unit


def monic_polys(field, degree):
    """All monic polynomials of the exact given degree (q^degree of them),
    counted out lazily as base-q numerals whose most significant digit is
    the constant term: the t^(degree-1) coefficient varies fastest."""
    top = field.q - 1
    f = [0] * degree + [1]
    while True:
        yield tuple(f)
        i = degree - 1
        while i >= 0 and f[i] == top:
            f[i] = 0
            i -= 1
        if i < 0:
            return
        f[i] += 1


def poly_powmod(field, f, n, g):
    """f^n mod g, by repeated squaring."""
    out, f = (1,), poly_mod(field, f, g)
    while n:
        if n & 1:
            out = poly_mod(field, poly_mul(field, out, f), g)
        f = poly_mod(field, poly_mul(field, f, f), g)
        n >>= 1
    return out


def is_irreducible(field, f):
    """Ben-Or's test: f of degree d is irreducible iff
    gcd(t^(q^i) - t mod f, f) = 1 for every 1 <= i <= d/2, i.e. iff f has
    no irreducible factor of degree i <= d/2."""
    f = poly_normalize(f)
    if poly_deg(f) <= 0:
        return False
    t = power = (0, 1)
    for _ in range(poly_deg(f) // 2):
        power = poly_powmod(field, power, field.q, f)
        if poly_deg(poly_gcd(field, poly_sub(field, power, t), f)) > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Closed points and effective divisors
# ---------------------------------------------------------------------------


class ClosedPoint(namedtuple("ClosedPoint", "degree poly")):
    """A closed point of A^1 (a monic irreducible in t) or the point at
    infinity on P^1 (poly is None, degree 1)."""

    __slots__ = ()

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
        raise ValueError(f"{format_poly(poly)} is not monic of positive degree")
    if not is_irreducible(field, poly):
        raise ValueError(f"{format_poly(poly)} is reducible over {field!r}")
    return ClosedPoint(degree=poly_deg(poly), poly=poly)


class EffectiveDivisor:
    """A multiset of closed points with positive multiplicities.  Not a
    tuple: iterating and adding go over the parts.  Immutable: assigning or
    deleting `parts` raises AttributeError.  Equal only to an
    EffectiveDivisor with equal parts, and hashed as the 1-tuple (parts,)."""

    __slots__ = ("parts",)  # tuple of (ClosedPoint, multiplicity), canonically sorted

    def __init__(self, parts):
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__
        return EffectiveDivisor, (self.parts,)

    def __eq__(self, other):
        if other.__class__ is not EffectiveDivisor:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))

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

    def is_multiplicity_free(self):
        return all(m == 1 for _, m in self.parts)

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


@lru_cache(maxsize=8)
def enumerate_closed_points(field, max_degree):
    """All closed points of A^1 of degree <= max_degree, i.e. all monic
    irreducibles, sorted by (degree, coefficients): those of lower degree,
    then the one-point divisors of the sieve of degree max_degree.  Counts
    obey Gauss's identity q^d = sum over e | d of e * #(degree-e points)."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    lower = enumerate_closed_points(field, max_degree - 1) if max_degree > 1 else ()
    return lower + tuple(
        parts[0][0]
        for parts in (d.parts for d in _sieve(field, max_degree))
        if len(parts) == 1 and parts[0][0].degree == max_degree
    )


@lru_cache(maxsize=8)
def enumerate_divisors(field, n, max_degree=None):
    """All degree-n effective divisors on A^1 over F_q, or only those whose
    points have degree <= max_degree, ordered as their products are by
    `monic_polys`.  With no bound (max_degree None or >= n) they are the
    sieve of degree n, all q^n monic polynomials; below the degree, the
    multisets of the points of degree <= max_degree, sorted by product.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return (EffectiveDivisor.empty(),)
    if max_degree is None or max_degree >= n:
        return _sieve(field, n)
    found = _point_multisets(field, enumerate_closed_points(field, max_degree), n)
    found.sort(key=lambda parts_poly: parts_poly[1])
    return tuple(EffectiveDivisor(parts=parts) for parts, _ in found)


def divisor_of(field, f):
    """The divisor of the monic polynomial f, read off the sieve of its
    degree at f's place in `monic_polys` order, whose most significant digit
    is the constant term."""
    index = 0
    for c in f[:-1]:
        index = index * field.q + c
    return enumerate_divisors(field, poly_deg(f))[index]


@lru_cache(maxsize=8)
def _sieve(field, n):
    """The sieve of degree n >= 1, shared by `enumerate_closed_points` and
    `enumerate_divisors`: every monic polynomial of degree n as a divisor,
    in `monic_polys` order.  Each product of points of lower degree is
    marked with its parts, and each polynomial left unmarked is a point."""
    lower = enumerate_closed_points(field, n - 1) if n > 1 else ()
    reducible = {poly: parts for parts, poly in _point_multisets(field, lower, n)}
    return tuple(
        EffectiveDivisor(parts=reducible.get(f) or ((ClosedPoint(n, f), 1),))
        for f in monic_polys(field, n)
    )


def _point_multisets(field, points, n):
    """(parts, product polynomial) for every multiset of the given points
    of total degree n >= 1.  points must be sorted by sort key, so by degree;
    parts come out in the same canonical order.  A branch is entered only
    when the points after it can make up the degree it leaves, and each
    point's powers are multiplied out once."""
    # sums[d]: bit r is set when r is a sum of degrees >= d of the points
    sums = {}
    mask = 1
    for d in sorted({pt.degree for pt in points}, reverse=True):
        for r in range(d, n + 1):
            mask |= (mask >> (r - d) & 1) << r
        sums[d] = mask
    # afters[i]: the degrees the points after points[i] can make up
    afters = [sums[pt.degree] for pt in points[1:]] + [1]
    powers = [[pt.poly] for pt in points]  # [its poly, squared, ...]
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
            after, power = afters[i], powers[i]
            for m in range(1, remaining // pt.degree + 1):
                rest = remaining - m * pt.degree
                if not after >> rest & 1:
                    continue
                while len(power) < m:
                    power.append(poly_mul(field, power[-1], pt.poly))
                parts.append((pt, m))
                # the first point's power is the product: nothing to multiply
                extend(i + 1, rest,
                       power[m - 1] if poly is None else poly_mul(field, poly, power[m - 1]))
                parts.pop()

    extend(0, n, None)
    del extend  # it refers to itself: a cycle the collector would have to find
    return out


def decompositions(divisor, constraint, degree_split):
    """All F_q-rational splittings divisor = D1 + D2 with deg D2 = the second
    entry of degree_split, in increasing order of the multiplicities on D2
    (the first point varying slowest).

    constraint is "none" (any multiplicities on D2) or
    "secondMultiplicityFree" (each point enters D2 at most once).
    """
    i, j = degree_split
    if i + j != divisor.degree:
        raise ValueError(f"split {degree_split} does not sum to deg D = {divisor.degree}")
    if constraint not in ("none", "secondMultiplicityFree"):
        raise ValueError(f"unknown constraint {constraint!r}")
    free = constraint == "secondMultiplicityFree"
    return [
        pair
        for pair in reversed(list(iter_decompositions(divisor, degree_split)))
        if not free or pair[1].is_multiplicity_free()
    ]


def iter_decompositions(divisor, degrees):
    """All ordered splittings of divisor into len(degrees) effective pieces
    with the prescribed degrees."""
    k = len(degrees)
    if sum(degrees) != divisor.degree:
        raise ValueError("degrees do not sum to deg D")
    pts = divisor.parts
    per_point = []
    for _, m in pts:
        per_point.append(list(compositions(m, k)))
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


def compositions(m, k):
    """All ways to write m as an ordered sum of k non-negative integers."""
    if k == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in compositions(m - first, k - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Divisor text format:  comma-separated `poly:mult`, with poly a monic
# polynomial in t (e.g. `t^2+t+1`) and `inf` the point at infinity.
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)?\*?(t)(?:\^(\d+))?$|^(\d+)$")
MAX_GRID_N = 64  # the largest point degree parsed, and of verify's --max-n
_MAX_DIGITS = 100  # per integer field; int() itself refuses past 4,300 digits
_INT_RE = re.compile(r"[+-]?[0-9]+")  # int() also reads 1_0, spaces, non-ASCII digits


def _parse_int(text, what):
    """The integer an optionally signed run of ASCII digits spells.  Longer
    text is refused first, with a short error instead of int's own; any
    other text is refused naming the field."""
    if len(text) > _MAX_DIGITS:
        raise ValueError(f"{what} of {len(text)} digits is above the limit of "
                         f"{_MAX_DIGITS} digits")
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(text)


def parse_poly(field, text):
    """Parse `t^2+2t+1`-style polynomials; coefficients are integer element
    codes (base-p digit encoding for non-prime fields)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms, which must spell out the whole text: a stray
    # sign, as in `+`, `t+` or `t+-1`, is refused rather than dropped
    terms = re.findall(r"[+-]?[^+-]+", text)
    if "".join(terms) != text:
        raise ValueError(f"malformed polynomial {text!r}")
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
            c, e = _parse_int(m.group(4), "coefficient"), 0
        else:
            c = _parse_int(m.group(1), "coefficient") if m.group(1) else 1
            e = _parse_int(m.group(3), "exponent") if m.group(3) else 1
        if c >= field.q:
            raise ValueError(f"coefficient {c} out of range for F_{field.q}")
        if e > MAX_GRID_N:
            raise ValueError(f"polynomial degree {e} is above the limit {MAX_GRID_N}")
        if sign == -1:
            c = field.neg(c)
        coeffs[e] = field.add(coeffs.get(e, 0), c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return poly_normalize(out)


def format_poly(poly):
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


def parse_divisor(field, text):
    """Parse the `poly:mult,poly:mult` divisor format.  Raises ValueError on
    malformed syntax, reducible polynomials or the point at infinity."""
    text = text.strip()
    if not text or text == "0":
        return EffectiveDivisor.empty()
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            poly_text, mult_text = chunk.rsplit(":", 1)
            mult = _parse_int(mult_text.strip(), "multiplicity")
        else:
            poly_text, mult = chunk, 1
        if mult < 1:
            raise ValueError(f"multiplicity {mult} must be positive")
        if poly_text.strip() == "inf":
            raise ValueError("the point at infinity is only valid on P^1")
        pairs.append((closed_point(field, parse_poly(field, poly_text)), mult))
    return EffectiveDivisor.from_pairs(pairs)


def format_divisor(divisor, names=None):
    """The `poly:mult,...` text of the divisor.  names, when given, is a dict
    from each point already named to its text, filled in as points are met:
    a caller formatting many divisors names each point once."""
    if not divisor.parts:
        return "0"
    if names is None:
        names = {}
    chunks = []
    for pt, m in divisor.parts:
        name = names.get(pt)
        if name is None:
            name = names[pt] = "inf" if pt.is_infinity else format_poly(pt.poly)
        chunks.append(f"{name}:{m}")
    return ",".join(chunks)


def necklace_count(q, d):
    """Number of degree-d monic irreducibles over F_q, by Gauss's identity
    q^d = sum over e | d of e * necklace_count(q, e)."""
    return (q**d - sum(e * necklace_count(q, e) for e in range(1, d) if d % e == 0)) // d


def divisor_count(q, n, max_degree=None):
    """Number of degree-n effective divisors over F_q whose points have
    degree <= max_degree, computed without building one: the t^n
    coefficient of the product over d <= max_degree of
    (1 - t^d)^(-necklace_count(q, d)).  It is q^n when max_degree >= n."""
    bound = n if max_degree is None else min(n, max_degree)
    if bound >= n:
        return q**n
    series = [1] + [0] * n
    for d in range(1, bound + 1):
        points = necklace_count(q, d)
        # (1 - t^d)^(-points) has coefficient C(points + j - 1, j) at t^(d j)
        weights = [math.comb(points + j - 1, j) for j in range(n // d + 1)]
        series = [
            sum(weights[j] * series[i - d * j] for j in range(i // d + 1))
            for i in range(n + 1)
        ]
    return series[n]


def divisor_count_exponent(q, n, max_degree=None):
    """An e with 2^e <= `divisor_count(q, n, max_degree)`, read off a closed
    form: the count is q^n when max_degree >= n and otherwise at least the
    number of multisets of n rational points."""
    if max_degree is None or max_degree >= n:
        return n * (q.bit_length() - 1)
    return math.comb(n + q - 1, n).bit_length() - 1

