"""Trace-function calculus on symmetric powers.

Everything here evaluates weight-graded Grothendieck-group classes as
functions of effective divisors, with values in Z[v, v^-1] (v^2 = q).

A trace class is a `Spec`: a tuple of slots and an overall power
v^(scale n).  A slot is the constant sheaf, or an external exterior power
of a local system with prescribed Frobenius eigenvalues, shifted by
[shift j] and twisted by (twist j) on its degree-j piece.  The class on
X^(n) sums, over every split of n among the slots, the add_* pushforward of
the external product of the slots.  It is factorizable: its trace at D is
v^(scale n) times a product of cached local factors, one per point x of D
taken with multiplicity m, so `evaluate` caches it by the type of D, the
multiset of the pairs (deg x, m).  The specs:

* `PLO`, the oscillator: eigenvalues (v, v^-1) with [1](1/2) per degree;
* `OMEGA_TILDE`, the open Zastava pushforward: constant, then rank 1 with
  [1](1); its local factor is 1 - v^(-2 deg x);
* `GR_PSI`, the three-stratum nearby cycles: constant, oscillator,
  constant, with each stratum's v^(-2(n-k)) folded into the middle twist;
* `BOUNDARY`, the boundary stalk before its (1 - q): `OMEGA_TILDE` with
  twist -1, so its local factor is 1 - q^(deg x).

The boundary comparison calibrates the normalization constant
c(n) = q^(-n) at n = 1 and then freezes it.  The tests keep the
splitting-sum definition of each spec as the evaluator's oracle.  The rest
of the module holds formal IC symbols (S_k representation, Tate twist),
the closed-form reconstruction of G from G - G(-1), and their partial
stalk evaluation.

The m >= 2, d >= 2 Frobenius sign in the local factor is a calibrated
convention, pinned by requiring the nearby-vs-boundary identity to hold on
divisors containing a degree-2 point with multiplicity 2; alternative sign
rules are kept around so the suite can demonstrate that they fail.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb
from operator import itemgetter

from vinbun.arith import (
    EffectiveDivisor,
    ClosedPoint,
    Laurent,
    elementary_symmetric,
    v_exponent,
)
from vinbun.lefschetz import predicted_schur_weyl
from vinbun.symrep import (
    murnaghan_nakayama,
    normalize_partition,
    sign_partition,
    trivial_partition,
)
from vinbun.frozen import Frozen


class CalibrationError(RuntimeError):
    """The n = 1 anchor for the boundary identity failed."""


class ReconstructionError(ValueError):
    """The input of the reconstruction solver is not a difference G - G(-1)."""

    def __init__(self, message, residual):
        super().__init__(f"{message}; offending residual: {residual}")
        self.residual = residual


class StalkNotDeterminedError(ValueError):
    """Stalk value requested outside the region the theorems determine."""


# ---------------------------------------------------------------------------
# external exterior power factors
# ---------------------------------------------------------------------------

def _calibrated_sign(d, m):
    return -1 if ((d + 1) * m) % 2 else 1


def _flip_deep_sign(d, m):
    s = _calibrated_sign(d, m)
    if d >= 2 and m >= 2:
        s = -s
    return s


SIGN_RULES = {
    "calibrated": _calibrated_sign,
    "flip-deep": _flip_deep_sign,  # control: must break the boundary identity
}


def local_exterior_factor(degree, multiplicity, eigenvalues, sign_rule="calibrated"):
    """Frobenius trace of the m-th exterior power of a rank-r stalk at a
    degree-d point: zero for m > r, otherwise the signed elementary symmetric
    polynomial in the d-th powers of the eigenvalues."""
    rule = SIGN_RULES[sign_rule]
    if multiplicity > len(eigenvalues):
        return Laurent.zero()
    powered = [alpha**degree for alpha in eigenvalues]
    return rule(degree, multiplicity) * elementary_symmetric(powered, multiplicity)


# ---------------------------------------------------------------------------
# trace specs and their one evaluator
# ---------------------------------------------------------------------------

# Specs and slots hash by identity, so a cache lookup costs nothing.

CONSTANT = None  # the constant-sheaf slot: local factor 1 at every multiplicity


class Exterior(Frozen):
    """External exterior power slot of a local system with the given
    Frobenius eigenvalues, shifted by [shift j] and twisted by (twist j) on
    its degree-j piece."""

    __slots__ = ("eigenvalues", "shift", "twist")

    def __init__(self, eigenvalues, shift, twist):
        self._init(eigenvalues, shift, twist)


class Spec(Frozen):
    """v^(scale n) times the sum over splittings D = D_1 + ... + D_s, of any
    degrees, of the product of the slot traces at the pieces."""

    __slots__ = ("slots", "scale")

    def __init__(self, slots, scale=0):
        self._init(slots, scale)


_STANDARD_EIGENVALUES = (Laurent.monomial(1), Laurent.monomial(-1))
_TRIVIAL_EIGENVALUE = (Laurent.one(),)

PLO = Spec((Exterior(_STANDARD_EIGENVALUES, 1, Fraction(1, 2)),))
OMEGA_TILDE = Spec((CONSTANT, Exterior(_TRIVIAL_EIGENVALUE, 1, Fraction(1))))
GR_PSI = Spec(
    (CONSTANT, Exterior(_STANDARD_EIGENVALUES, 1, Fraction(-1, 2)), CONSTANT),
    scale=-2,
)
BOUNDARY = Spec((CONSTANT, Exterior(_TRIVIAL_EIGENVALUE, 1, Fraction(-1))))


def divisor_type(divisor):
    """The sorted tuple of (deg x, m) over the points x of D with multiplicity
    m: every factorizable trace at D depends on D only through it."""
    return tuple(sorted((pt.degree, m) for pt, m in divisor))


def evaluate(spec, n, divisor, sign_rule="calibrated"):
    """Trace of the spec on X^(n) at the divisor: v^(scale n) times the
    product of the local factors over the points of D, cached by type."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    return Laurent(_type_trace(spec, divisor_type(divisor), sign_rule).coeffs)


# The caches hold Laurent values, whose coefficient dicts are mutable: no
# cached value reaches a caller, who gets a copy or a fresh product.
@lru_cache(maxsize=1024)
def _type_trace(spec, dtype, sign_rule):
    out = Laurent.monomial(spec.scale * sum(d * m for d, m in dtype))
    for d, m in dtype:
        out = out * _point_factor(spec, d, m, sign_rule)
    return out


@lru_cache(maxsize=512)
def _point_factor(spec, degree, multiplicity, sign_rule):
    """Local factor of the spec at a point of degree d with multiplicity m:
    the sum over the compositions of m into the slots of the product of
    the slot factors.  A constant slot contributes 1; an exterior slot that
    takes b of m contributes the exterior factor times
    (-1)^(shift d b) v^(-2 twist d b), and 0 for b above its rank.  So the
    sum runs over the exterior shares b <= rank alone, each weighted by the
    C(rest + c - 1, rest) ways for the c constant slots to share the rest
    of m."""
    exterior = [slot for slot in spec.slots if slot is not CONSTANT]
    c = len(spec.slots) - len(exterior)
    total = Laurent.zero()
    for shares in product(*(range(min(multiplicity, len(slot.eigenvalues)) + 1)
                            for slot in exterior)):
        rest = multiplicity - sum(shares)
        if rest < 0 or (rest and not c):
            continue
        term = Laurent.from_int(comb(rest + c - 1, rest) if c else 1)
        for slot, b in zip(exterior, shares):
            if b:
                factor = local_exterior_factor(degree, b, slot.eigenvalues, sign_rule)
                factor = factor.twist(slot.twist * degree * b)
                term = term * (-factor if slot.shift * degree * b % 2 else factor)
        total = total + term
    return total


def trace_plo(k, divisor, sign_rule="calibrated"):
    """Trace of the k-th Picard-Lefschetz oscillator: the external exterior
    power of the standard rank-2 system (eigenvalues v, v^-1) normalized by
    [k](k/2)."""
    return evaluate(PLO, k, divisor, sign_rule)


def trace_omega_tilde(n, divisor):
    """Trace of the compactly-supported pushforward class of the open Zastava
    space (`OMEGA_TILDE`): the sum over splittings D = D1 + D2 with D2
    multiplicity-free factors over the points of D as

        prod over distinct x in D of (1 - v^(-2 deg x)),

    each point either staying in D1 or entering D2 once with the weight
    (-1)^(deg x) v^(-2 deg x) (-1)^(deg x + 1)."""
    return evaluate(OMEGA_TILDE, n, divisor)


def trace_gr_psi(n, divisor, sign_rule="calibrated"):
    """Trace of the weight-graded nearby-cycles class on the fiber over the
    divisor (`GR_PSI`): the sum over strata triples (n1, k, n2) and
    splittings D = D1 + D'' + D2 of v^(-2(n-k)) times the oscillator trace
    at D''.  It factors over the points of D as

        v^(-2n) * prod over (x, m) in D of L(deg x, m),
        L(d, m) = sum_{b=0}^{min(m, 2)} (m - b + 1) (-v)^(d b) e_b(d),

    with e_b(d) the rank-2 exterior factor `local_exterior_factor(d, b)`
    at x taken b times in D''; m - b + 1 counts the ways to share the rest
    of the multiplicity between D1 and D2."""
    return evaluate(GR_PSI, n, divisor, sign_rule)


# ---------------------------------------------------------------------------
# normalization ledger and the boundary identity
# ---------------------------------------------------------------------------

_ONE_MINUS_Q = Laurent.one() - Laurent.monomial(2)  # 1 - q at v^2 = q


class NormLedger(namedtuple("NormLedger", "c1")):
    """Normalization bookkeeping: the calibration constant c(1) from which
    c(n) = c(1)^n is frozen."""

    __slots__ = ()

    @staticmethod
    def calibrated():
        """Fix c(1) from the n = 1 anchor: the degree-1 fiber trace divided
        by the one-point boundary factor.  Must divide exactly; anything else
        is a calibration failure."""
        anchor = EffectiveDivisor.from_pairs(
            [(ClosedPoint(degree=1, poly=(0, 1)), 1)]
        )
        lhs = trace_gr_psi(1, anchor)
        try:
            c1 = lhs.exact_div(_ONE_MINUS_Q)
        except ValueError as exc:
            raise CalibrationError(f"n=1 anchor is not divisible: {exc}") from exc
        if len(c1.coeffs) != 1:
            raise CalibrationError(f"c(1) = {c1} is not a monomial")
        return NormLedger(c1=c1)

    def c(self, n):
        """c(1)^n, read off the monomial c(1)."""
        ((exponent, coeff),) = self.c1.coeffs.items()
        return Laurent.monomial(exponent * n, coeff**n)


@lru_cache(maxsize=1)
def default_ledger():
    return NormLedger.calibrated()


def nearby_vs_boundary(n, divisor, ledger=None, sign_rule="calibrated"):
    """Both sides of the headline identity, (lhs, rhs): (1-q) times the
    grPsi trace, and c(n) times the boundary stalk trace, with c(n) frozen
    from the n=1 anchor.  Both are fresh products of the traces cached by
    divisor type.  The identity holds iff lhs == rhs."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    if ledger is None:
        ledger = default_ledger()
    dtype = divisor_type(divisor)
    lhs = _ONE_MINUS_Q * _type_trace(GR_PSI, dtype, sign_rule)
    return lhs, ledger.c(n) * _ONE_MINUS_Q * _type_trace(BOUNDARY, dtype, "calibrated")


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
