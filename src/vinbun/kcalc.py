"""Trace-function calculus on symmetric powers.

Everything here evaluates weight-graded Grothendieck-group classes as
functions of effective divisors, with values in Z[v, v^-1] (v^2 = q).

A trace class is a `Spec` (constants, rank, weight, scale): c constant
sheaves and one external exterior power of the rank-2 standard system
(Frobenius eigenvalues v, v^-1) or of the rank-1 trivial system, shifted
by [1] and multiplied by v^weight on each degree, all times v^(scale n).
The class on X^(n) sums, over every split of n among the c + 1 pieces, the
add_* pushforward of their external product.  It is factorizable: its
trace at D is v^(scale n) times a product of local factors, one per point
x of D taken with multiplicity m, so `evaluate` caches it by the type of
D, the multiset of the pairs (deg x, m).  The specs:

* `PLO`, the oscillator: rank 2 with [1](1/2) per degree, so weight -1;
* `OMEGA_TILDE`, the open Zastava pushforward: one constant, then rank 1
  with [1](1); its local factor is 1 - v^(-2 deg x);
* `GR_PSI`, the three-stratum nearby cycles: two constants around the
  oscillator, with each stratum's v^(-2(n-k)) folded into weight 1;
* `BOUNDARY`, the boundary stalk before its (1 - q): `OMEGA_TILDE` with
  weight 2, so its local factor is 1 - q^(deg x).

At a point of degree d the exterior piece's share b carries the sign
(-1)^b: the Frobenius sign (-1)^((d+1) b) times the shift sign (-1)^(d b).
So each local factor is one polynomial in u = v^d, whatever d.  The sign is
a constant of the calculus, with no second value to choose.  At m >= 2,
d >= 2 the nearby-vs-boundary identity pins it on divisors containing a
degree-2 point with multiplicity 2: `tests/test_controls.py` plants the
negated sign there and shows that the nearby suite fails.

The boundary comparison needs no calibration: GR_PSI and BOUNDARY have the
same local factor 1 - u^2 at every point (`tests/test_kcalc.py` certifies
it for every d and m), so the normalization c(n) = q^(-n) is v^(scale n) of
GR_PSI.  The tests keep the
splitting-sum definition of each spec as the evaluator's oracle.  The rest
of the module holds formal IC symbols (S_k representation, Tate twist),
the closed-form reconstruction of G from G - G(-1), and their partial
stalk evaluation.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import comb
from operator import itemgetter

from vinbun.arith import Laurent, v_exponent
from vinbun.lefschetz import predicted_schur_weyl
from vinbun.symrep import (
    murnaghan_nakayama,
    normalize_partition,
    sign_partition,
    trivial_partition,
)


class ReconstructionError(ValueError):
    """The input of the reconstruction solver is not a difference G - G(-1)."""

    def __init__(self, message, residual):
        super().__init__(f"{message}; offending residual: {residual}")
        self.residual = residual


class StalkNotDeterminedError(ValueError):
    """Stalk value requested outside the region the theorems determine."""


# ---------------------------------------------------------------------------
# trace specs and their one evaluator
# ---------------------------------------------------------------------------

class Spec(namedtuple("Spec", "constants rank weight scale")):
    """v^(scale n) times the sum over splittings of D into c + 1 pieces of
    the product of the piece traces: 1 on each of the c constant pieces,
    and on the other the external exterior power of the rank-1 trivial or
    rank-2 standard system, shifted by [1] and multiplied by v^weight per
    degree."""

    __slots__ = ()


PLO = Spec(constants=0, rank=2, weight=-1, scale=0)
OMEGA_TILDE = Spec(constants=1, rank=1, weight=-2, scale=0)
GR_PSI = Spec(constants=2, rank=2, weight=1, scale=-2)
BOUNDARY = Spec(constants=1, rank=1, weight=2, scale=0)


def divisor_type(divisor):
    """The sorted tuple of (deg x, m) over the points x of D with multiplicity
    m: every factorizable trace at D depends on D only through it."""
    return tuple(sorted((pt.degree, m) for pt, m in divisor))


def evaluate(spec, n, divisor):
    """Trace of the spec on X^(n) at the divisor: v^(scale n) times the
    product of the local factors over the points of D, cached by type."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    return Laurent(_type_trace(spec, divisor_type(divisor)).coeffs)


# The cache holds Laurent values, whose coefficient dicts are mutable: no
# cached value reaches a caller, who gets a copy or a fresh product.
@lru_cache(maxsize=1024)
def _type_trace(spec, dtype):
    out = Laurent.monomial(spec.scale * sum(d * m for d, m in dtype))
    for d, m in dtype:
        out = out * _point_factor(spec, d, m)
    return out


def _point_factor(spec, degree, multiplicity):
    """Local factor of the spec at a point of degree d with multiplicity m.

    The exterior piece takes a share b <= min(m, rank) of m, and the c
    constant pieces share the rest in C(m - b + c - 1, m - b) ways.  The
    share contributes (-1)^b e_b v^(weight d b), where e_1 = v^d + v^-d at
    rank 2 and e_b = 1 otherwise: the trace of the b-th exterior power,
    with the sign (-1)^((d+1) b) of the degree-d Frobenius times the sign
    (-1)^(d b) of the shift [d b].  The sign is fixed; the control that
    negates it at b >= 2, d >= 2 is a planted fault in
    `tests/test_controls.py`."""
    constants, rank, weight, _ = spec
    coeffs = {}
    for b in range(min(multiplicity, rank) + 1):
        rest = multiplicity - b
        if constants:
            ways = comb(rest + constants - 1, rest)
        elif rest:
            continue
        else:
            ways = 1
        if b % 2:
            ways = -ways
        top = weight * degree * b
        for e in ((top + degree, top - degree) if b == 1 and rank == 2 else (top,)):
            coeffs[e] = coeffs.get(e, 0) + ways
    return Laurent(coeffs)


def trace_plo(k, divisor):
    """Trace of the k-th Picard-Lefschetz oscillator: the external exterior
    power of the standard rank-2 system (eigenvalues v, v^-1) normalized by
    [k](k/2)."""
    return evaluate(PLO, k, divisor)


def trace_omega_tilde(n, divisor):
    """Trace of the compactly-supported pushforward class of the open Zastava
    space (`OMEGA_TILDE`): the sum over splittings D = D1 + D2 with D2
    multiplicity-free factors over the points of D as

        prod over distinct x in D of (1 - v^(-2 deg x)),

    each point either staying in D1 or entering D2 once with the weight
    (-1)^(deg x) v^(-2 deg x) (-1)^(deg x + 1)."""
    return evaluate(OMEGA_TILDE, n, divisor)


def trace_gr_psi(n, divisor):
    """Trace of the weight-graded nearby-cycles class on the fiber over the
    divisor (`GR_PSI`): the sum over strata triples (n1, k, n2) and
    splittings D = D1 + D'' + D2 of v^(-2(n-k)) times the oscillator trace
    at D''.  It factors over the points of D as

        v^(-2n) * prod over (x, m) in D of L(deg x, m),
        L(d, m) = sum_{b=0}^{min(m, 2)} (m - b + 1) (-1)^b e_b v^(d b),

    with e_1 = v^d + v^-d and e_0 = e_2 = 1 the rank-2 exterior factors at
    x taken b times in D''; m - b + 1 counts the ways to share the rest of
    the multiplicity between D1 and D2."""
    return evaluate(GR_PSI, n, divisor)


# ---------------------------------------------------------------------------
# normalization ledger and the boundary identity
# ---------------------------------------------------------------------------

_ONE_MINUS_Q = Laurent.one() - Laurent.monomial(2)  # 1 - q at v^2 = q


class NormLedger(namedtuple("NormLedger", "c1")):
    """The normalization c(n) = c(1)^n of the boundary identity, with c(1)
    the monomial v^(scale) of GR_PSI.  `nearby_vs_boundary` reads the scale
    directly; the ledger is kept for demo 05 and for the benchmark, which
    traces `NormLedger.calibrated`, until its traced names are revised
    (ROADMAP item 1, like `arith.iter_decompositions`)."""

    __slots__ = ()

    @staticmethod
    def calibrated():
        return NormLedger(c1=Laurent.monomial(GR_PSI.scale))

    def c(self, n):
        """c(1)^n, read off the monomial c(1)."""
        ((exponent, coeff),) = self.c1.coeffs.items()
        return Laurent.monomial(exponent * n, coeff**n)


def nearby_vs_boundary(n, divisor):
    """Both sides of the headline identity, (lhs, rhs): (1-q) times the
    grPsi trace, and c(n) = v^(-2n), the scale of GR_PSI, times the boundary
    stalk trace.  Both are fresh products of the traces cached by divisor
    type.  The identity holds iff lhs == rhs, which the local factors of
    GR_PSI and BOUNDARY, both 1 - u^2, make true at every divisor."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    dtype = divisor_type(divisor)
    lhs = _ONE_MINUS_Q * _type_trace(GR_PSI, dtype)
    c_n = Laurent.monomial(GR_PSI.scale * n)
    return lhs, c_n * _ONE_MINUS_Q * _type_trace(BOUNDARY, dtype)


def boundary_stalk_trace(divisor):
    """(1-q) * prod over distinct points of (1 - q^(deg x)), as a Laurent
    value: the *-stalk trace of the extension of the constant sheaf at a
    maximal-defect point, before the c(n) normalization."""
    return _ONE_MINUS_Q * evaluate(BOUNDARY, divisor.degree, divisor)


# ---------------------------------------------------------------------------
# formal IC symbols and the reconstruction solver
# ---------------------------------------------------------------------------


def _twist_value(t):
    """A Tate twist as stored in symbols: an int when integral, otherwise a
    Fraction (ints hash and compare like the equal Fractions)."""
    if type(t) is int:
        return t
    t = Fraction(t)
    return t.numerator if t.denominator == 1 else t


class IcSymbol(namedtuple("IcSymbol", "k rep twist")):
    """IC-extension symbol on X^(k): an S_k irreducible (by partition) with a
    Tate twist.  The Weil weight of the symbol is -2 * twist."""

    __slots__ = ()

    def __repr__(self):
        if self.rep == trivial_partition(self.k):
            name = "Ql"
        elif self.rep == sign_partition(self.k) and self.k > 1:
            name = "sign"
        else:
            name = f"IC{self.rep}"
        return f"{name}({self.twist})"


# builds an IcSymbol from a (k, rep, twist) tuple, skipping the namedtuple's
# Python-level __new__
_new_symbol = partial(tuple.__new__, IcSymbol)


def symbol(k, rep, twist):
    if rep == "trivial":
        rep = trivial_partition(k)
    elif rep == "sign":
        rep = sign_partition(k)
    rep = normalize_partition(rep)
    if sum(rep) != k:
        raise ValueError(f"{rep} is not a partition of {k}")
    return IcSymbol(k=k, rep=rep, twist=_twist_value(twist))


class KElement:
    """Finitely supported Z-combination of IC symbols, graded by Weil weight."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {s: c for s, c in terms.items() if c} if terms else {}

    @staticmethod
    def _of_nonzero(terms):
        """Wrap a dict that holds no zero coefficient, without copying it."""
        out = object.__new__(KElement)
        out.terms = terms
        return out

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other in one pass over other's terms."""
        d = dict(self.terms)
        for s, c in other.terms.items():
            c = d.get(s, 0) + sign * c
            if c:
                d[s] = c
            else:
                del d[s]
        return KElement._of_nonzero(d)

    def twisted(self, m):
        """G(m): add m to every Tate twist."""
        return KElement._of_nonzero({
            _new_symbol((k, rep, _twist_value(t + m))): c
            for (k, rep, t), c in self.terms.items()
        })

    def __eq__(self, other):
        return isinstance(other, KElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        def key(item):
            s, _ = item
            return (-s.twist, s.rep)
        bits = []
        for s, c in sorted(self.terms.items(), key=key):
            term = repr(s) if abs(c) == 1 else f"{abs(c)}*{s!r}"
            if not bits:
                bits.append(term if c > 0 else "-" + term)
            else:
                bits.append(("+ " if c > 0 else "- ") + term)
        return " ".join(bits)


def plo_k_element(k):
    """Weight-line expansion of the k-th oscillator class: each summand
    U_m tensor rho of `predicted_schur_weyl(k)` contributes rho with the
    ladder of twists m/2, m/2 - 1, ..., -m/2."""
    return KElement({
        IcSymbol(k, lam, _twist_value(Fraction(m, 2) - i)): mult
        for (lam, m), mult in predicted_schur_weyl(k).mults
        for i in range(m + 1)
    })


def ic_kernel_k_element(k):
    """Kernel-of-monodromy class: the lowest weight line of each summand
    U_m tensor rho of `predicted_schur_weyl(k)`, so one copy of each
    two-column irreducible rho.  A line of Cartan weight -m has Tate twist
    m/2."""
    return KElement({
        IcSymbol(k, lam, _twist_value(Fraction(m, 2))): mult
        for (lam, m), mult in predicted_schur_weyl(k).mults
    })


def reconstruct_from_difference(delta):
    """Solve G - G(-1) = delta for the unique finitely supported G.

    Symbols that differ by an integral twist form a class (k, rep, twist
    mod 1), and within a class G is the prefix sum from the top:

        G[t] = sum over j >= 0 of delta[t + j],

    constant across the gaps between the twists of delta.  G is finitely
    supported iff every class sums to 0; otherwise the input was not a
    difference, and the residual holds each nonzero class total one step
    below that class's lowest twist.
    """
    classes = {}
    for s, c in delta.terms.items():
        k, rep, t = s
        classes.setdefault((k, rep, t % 1), []).append((t, c, s))
    terms = {}
    residual = {}
    for (k, rep, _), column in classes.items():
        column.sort(key=itemgetter(0), reverse=True)
        running = 0
        above = None
        for t, c, s in column:
            if running:
                gap = above - 1
                while gap > t:
                    terms[_new_symbol((k, rep, gap))] = running
                    gap -= 1
            running += c
            if running:
                terms[s] = running
            above = t
        if running:
            residual[_new_symbol((k, rep, above - 1))] = running
    if residual:
        raise ReconstructionError(
            "input is not a difference G - G(-1)", KElement._of_nonzero(residual)
        )
    return KElement._of_nonzero(terms)


# ---------------------------------------------------------------------------
# partial stalk evaluation of K-elements
# ---------------------------------------------------------------------------


def trace_k_element(element, divisor):
    """Frobenius trace of a K-element at a divisor.

    Fully defined at multiplicity-free divisors, where the symbol (rho, t)
    contributes (-1)^k v^(-k) v^(-2t) chi_rho(residue cycle type).  At deeper
    points only the constant-sheaf symbols (defined everywhere) and the k=2
    diagonal rule (sign vanishes, trivial is constant) are determined; any
    other request raises StalkNotDeterminedError.
    """
    if element.is_zero():
        return Laurent.zero()
    ks = {s.k for s in element.terms}
    if ks != {divisor.degree}:
        raise ValueError(
            f"degree mismatch: symbols on X^({ks}), divisor of degree {divisor.degree}"
        )
    k = divisor.degree
    # the IC normalization [k](k/2): the sign (-1)^k and v^(-k)
    top, unit = -k, (-1) ** k
    multiplicity_free = divisor.is_multiplicity_free()
    cycle_type = divisor.residue_degrees() if multiplicity_free else None
    # the symbol (rho, t) adds its weight times unit at v^(top - 2t)
    coeffs = {}
    for s, c in element.terms.items():
        if multiplicity_free:
            c *= murnaghan_nakayama(s.rep, cycle_type)
        elif k == 2 and s.rep == sign_partition(2):
            continue  # sign symbol vanishes on the diagonal of X^(2)
        elif s.rep != trivial_partition(k):
            raise StalkNotDeterminedError(
                f"stalk of {s!r} at the non-multiplicity-free divisor "
                f"{divisor!r} is not determined"
            )
        e = top + v_exponent(s.twist)
        coeffs[e] = coeffs.get(e, 0) + c * unit
    return Laurent(coeffs)
