"""Trace-function calculus on symmetric powers.

Everything here evaluates weight-graded Grothendieck-group classes as
functions of effective divisors, with values in Z[v, v^-1] (v^2 = q):

* external exterior powers of a local system with prescribed Frobenius
  eigenvalues, whose local factor at a closed point of degree d taken with
  multiplicity m is (-1)^((d+1) m) e_m(alpha_1^d, ..., alpha_r^d) - zero
  beyond the rank, the signed power sum at m = 1;
* the pushforward class of the open Zastava spaces (a sum over splittings
  D = D1 + D2 with D2 multiplicity-free);
* the oscillator trace and the three-stratum nearby-cycles trace built from
  it, together with the boundary-stalk comparison that calibrates the
  normalization constant c(n) = q^(-n) at n = 1 and then freezes it;
* formal IC symbols (S_k representation, Tate twist) with the closed-form
  reconstruction of G from G - G(-1), and their partial stalk evaluation.

The trace classes above are factorizable: each trace at D is a product of
local factors over the closed points x of D, taken with multiplicity m (the
Zastava and nearby-cycles factors are cached):

* oscillator:      the exterior factor above, times (-1)^k v^(-k) overall;
* open Zastava:    prod over distinct x of (1 - v^(-2 deg x));
* nearby cycles:   v^(-2n) prod over (x, m) of L(deg x, m), where
  L(d, m) = sum_{b=0}^{min(m, 2)} (m - b + 1) (-v)^(d b) e_b(d) and e_b(d)
  is the rank-2 exterior factor with eigenvalues (v, v^-1).

The splitting sums they come from survive as the spec AST (`evaluate_spec`
of `omega_tilde_spec` / `gr_psi_spec`), which the tests use as the oracle.

The m >= 2, d >= 2 Frobenius sign in the local factor is a calibrated
convention, pinned by requiring the nearby-vs-boundary identity to hold on
divisors containing a degree-2 point with multiplicity 2; alternative sign
rules are kept around so the suite can demonstrate that they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from vinbun.arith import (
    EffectiveDivisor,
    ClosedPoint,
    Laurent,
    elementary_symmetric,
    iter_decompositions,
)
from vinbun.symrep import (
    murnaghan_nakayama,
    normalize_partition,
    sign_partition,
    trivial_partition,
)


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
# external exterior power traces
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


def trace_ext_exterior(n, eigenvalues, divisor, shift=0, twist=0, sign_rule="calibrated"):
    """Trace of the n-th external exterior power of a local system with the
    given Frobenius eigenvalues, shifted by [shift] and twisted by (twist),
    at the divisor."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    eigenvalues = [e if isinstance(e, Laurent) else Laurent.from_int(e) for e in eigenvalues]
    out = Laurent.one()
    for pt, m in divisor:
        factor = local_exterior_factor(pt.degree, m, eigenvalues, sign_rule)
        if factor.is_zero():
            return Laurent.zero()
        out = out * factor
    scale = Laurent.one().twist(twist)
    if shift % 2:
        scale = -scale
    return out * scale


_STANDARD_EIGENVALUES = (Laurent.v(1), Laurent.v(-1))
_ONE_MINUS_Q = Laurent.one() - Laurent.monomial(2)  # 1 - q at v^2 = q


def trace_plo(k, divisor, sign_rule="calibrated"):
    """Trace of the k-th Picard-Lefschetz oscillator: the external exterior
    power of the standard rank-2 system (eigenvalues v, v^-1) normalized by
    [k](k/2)."""
    return trace_ext_exterior(
        k,
        _STANDARD_EIGENVALUES,
        divisor,
        shift=k,
        twist=Fraction(k, 2),
        sign_rule=sign_rule,
    )


def trace_omega_tilde(n, divisor):
    """Trace of the compactly-supported pushforward class of the open Zastava
    space (`omega_tilde_spec`): the sum over splittings D = D1 + D2 with D2
    multiplicity-free factors over the points of D as

        prod over distinct x in D of (1 - v^(-2 deg x)),

    each point either staying in D1 or entering D2 once with the weight
    (-1)^(deg x) v^(-2 deg x) (-1)^(deg x + 1)."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    out = Laurent.one()
    for pt, _ in divisor:
        out = out * _omega_tilde_factor(pt.degree)
    return out


def trace_gr_psi(n, divisor, sign_rule="calibrated"):
    """Trace of the weight-graded nearby-cycles class on the fiber over the
    divisor (`gr_psi_spec`): the sum over strata triples (n1, k, n2) and
    splittings D = D1 + D'' + D2 of v^(-2(n-k)) times the oscillator trace
    at D''.  It factors over the points of D as

        v^(-2n) * prod over (x, m) in D of L(deg x, m),
        L(d, m) = sum_{b=0}^{min(m, 2)} (m - b + 1) (-v)^(d b) e_b(d),

    with e_b(d) the rank-2 exterior factor `local_exterior_factor(d, b)`
    at x taken b times in D''; m - b + 1 counts the ways to share the rest
    of the multiplicity between D1 and D2."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    out = Laurent.monomial(-2 * n)
    for pt, m in divisor:
        out = out * _gr_psi_factor(pt.degree, m, sign_rule)
    return out


# The cached factors are Laurent values, whose coefficient dicts are
# mutable: they never reach a caller, since every trace is a fresh product.
@lru_cache(maxsize=64)
def _omega_tilde_factor(degree):
    return Laurent.one() - Laurent.monomial(-2 * degree)


@lru_cache(maxsize=256)
def _gr_psi_factor(degree, multiplicity, sign_rule):
    total = Laurent.zero()
    for b in range(min(multiplicity, 2) + 1):
        sign = (-1) ** (degree * b)
        weight = Laurent.monomial(degree * b, sign * (multiplicity - b + 1))
        total = total + weight * local_exterior_factor(
            degree, b, _STANDARD_EIGENVALUES, sign_rule
        )
    return total


# ---------------------------------------------------------------------------
# trace specifications (the Grothendieck-group classes as an AST)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """Constant sheaf class on X^(n), shifted/twisted."""

    n: int
    shift: int = 0
    twist: Fraction = Fraction(0)


@dataclass(frozen=True)
class ExtExterior:
    """External exterior power class on X^(n) with given eigenvalues."""

    n: int
    eigenvalues: tuple
    shift: int = 0
    twist: Fraction = Fraction(0)


@dataclass(frozen=True)
class PushforwardAdd:
    """add_* of an external product: degrees are additive."""

    specs: tuple


@dataclass(frozen=True)
class Scale:
    factor: Laurent
    spec: object


@dataclass(frozen=True)
class TraceSum:
    specs: tuple


def spec_degree(spec):
    if isinstance(spec, (Constant, ExtExterior)):
        return spec.n
    if isinstance(spec, PushforwardAdd):
        return sum(spec_degree(s) for s in spec.specs)
    if isinstance(spec, Scale):
        return spec_degree(spec.spec)
    if isinstance(spec, TraceSum):
        degrees = {spec_degree(s) for s in spec.specs}
        if len(degrees) != 1:
            raise ValueError(f"summands of mixed degree {degrees}")
        return degrees.pop()
    raise TypeError(f"not a trace spec: {spec!r}")


def evaluate_spec(spec, divisor, sign_rule="calibrated"):
    """Evaluate a trace specification at an effective divisor."""
    if isinstance(spec, Constant):
        if divisor.degree != spec.n:
            raise ValueError("degree mismatch")
        out = Laurent.one().twist(spec.twist)
        return -out if spec.shift % 2 else out
    if isinstance(spec, ExtExterior):
        return trace_ext_exterior(
            spec.n, spec.eigenvalues, divisor, spec.shift, spec.twist, sign_rule
        )
    if isinstance(spec, PushforwardAdd):
        degrees = tuple(spec_degree(s) for s in spec.specs)
        total = Laurent.zero()
        for pieces in iter_decompositions(divisor, degrees):
            term = Laurent.one()
            for sub, piece in zip(spec.specs, pieces):
                term = term * evaluate_spec(sub, piece, sign_rule)
                if term.is_zero():
                    break
            total = total + term
        return total
    if isinstance(spec, Scale):
        return spec.factor * evaluate_spec(spec.spec, divisor, sign_rule)
    if isinstance(spec, TraceSum):
        total = Laurent.zero()
        for sub in spec.specs:
            total = total + evaluate_spec(sub, divisor, sign_rule)
        return total
    raise TypeError(f"not a trace spec: {spec!r}")


def plo_spec(k):
    return ExtExterior(
        n=k,
        eigenvalues=(Laurent.v(1), Laurent.v(-1)),
        shift=k,
        twist=Fraction(k, 2),
    )


def omega_tilde_spec(n):
    """sum over i + j = n of add_*(constant on X^(i) x Lambda^(j)[j](j)).
    The multiplicity-free support condition of the direct formula emerges
    here from the rank-1 vanishing of the exterior factor."""
    terms = []
    for j in range(n + 1):
        terms.append(
            PushforwardAdd(
                (
                    Constant(n - j),
                    ExtExterior(j, (Laurent.one(),), shift=j, twist=Fraction(j)),
                )
            )
        )
    return TraceSum(tuple(terms))


def gr_psi_spec(n):
    """sum over (n1, k, n2) of add_*(constant x oscillator x constant)
    shifted by [2n-2k] and twisted by (n-k)."""
    terms = []
    for n1 in range(n + 1):
        for k in range(n - n1 + 1):
            n2 = n - n1 - k
            terms.append(
                Scale(
                    Laurent.monomial(-2 * (n - k)),
                    PushforwardAdd((Constant(n1), plo_spec(k), Constant(n2))),
                )
            )
    return TraceSum(tuple(terms))


# ---------------------------------------------------------------------------
# normalization ledger and the boundary identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormLedger:
    """Normalization bookkeeping: IC shift/twist per dimension, the factor of
    the [-1](-1/2) triangle renormalization, and the calibration constant
    c(1) from which c(n) = c(1)^n is frozen."""

    c1: Laurent

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
        return self.c1**n

    @staticmethod
    def ic_shift_twist(dim):
        """Shift sign and twist monomial of the pure IC normalization on a
        dim-dimensional space: [dim](dim/2)."""
        return ((-1) ** dim, Laurent.monomial(-dim))

    @property
    def triangle_factor(self):
        """[-1](-1/2) contributes a sign flip and one power of v."""
        return Laurent.monomial(1, -1)


_LEDGER = None


def default_ledger():
    global _LEDGER
    if _LEDGER is None:
        _LEDGER = NormLedger.calibrated()
    return _LEDGER


def nearby_vs_boundary(n, divisor, ledger=None, sign_rule="calibrated"):
    """Both sides of the headline identity, (lhs, rhs): (1-q) times the
    grPsi trace, and c(n) times the boundary stalk trace, with c(n) frozen
    from the n=1 anchor.  The identity holds iff lhs == rhs."""
    if divisor.degree != n:
        raise ValueError(f"degree mismatch: deg D = {divisor.degree}, expected {n}")
    if ledger is None:
        ledger = default_ledger()
    lhs = _ONE_MINUS_Q * trace_gr_psi(n, divisor, sign_rule)
    return lhs, ledger.c(n) * boundary_stalk_trace(divisor)


def boundary_stalk_trace(divisor):
    """(1-q) * prod over distinct points of (1 - q^(deg x)), as a Laurent
    value: the *-stalk trace of the extension of the constant sheaf at a
    maximal-defect point, before the c(n) normalization."""
    out = _ONE_MINUS_Q
    for pt, _ in divisor:
        out = out * (Laurent.one() - Laurent.monomial(2 * pt.degree))
    return out


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


@dataclass(frozen=True)
class IcSymbol:
    """IC-extension symbol on X^(k): an S_k irreducible (by partition) with a
    Tate twist.  The Weil weight of the symbol is -2 * twist."""

    k: int
    rep: tuple
    twist: int | Fraction

    @property
    def weight(self):
        return -2 * self.twist

    def twisted(self, m):
        t = self.twist + m if type(m) is int else _twist_value(self.twist + Fraction(m))
        return IcSymbol(self.k, self.rep, t)

    def __repr__(self):
        if self.rep == trivial_partition(self.k):
            name = "Ql"
        elif self.rep == sign_partition(self.k) and self.k > 1:
            name = "sign"
        else:
            name = f"IC{self.rep}"
        return f"{name}({self.twist})"


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
    def zero():
        return KElement()

    @staticmethod
    def of(sym, coeff=1):
        return KElement({sym: coeff})

    def __add__(self, other):
        d = dict(self.terms)
        for s, c in other.terms.items():
            d[s] = d.get(s, 0) + c
        return KElement(d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return KElement({s: c * m for s, m in self.terms.items()})

    def twisted(self, m):
        """G(m): add m to every Tate twist."""
        return KElement({s.twisted(m): c for s, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, KElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def max_twist(self):
        return max(s.twist for s in self.terms)

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
    """Weight-line expansion of the k-th oscillator class: each two-column
    irreducible contributes its full ladder of twists (k-2r)/2 - i."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = {}
    for r in range(k // 2 + 1):
        rep = (2,) * r + (1,) * (k - 2 * r)
        m = k - 2 * r
        for i in range(m + 1):
            terms[IcSymbol(k, rep, _twist_value(Fraction(m, 2) - i))] = 1
    return KElement(terms)


def ic_kernel_k_element(k):
    """Kernel-of-monodromy class: one symbol per two-column irreducible,
    twisted by k/2 - r."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = {}
    for r in range(k // 2 + 1):
        rep = (2,) * r + (1,) * (k - 2 * r)
        terms[IcSymbol(k, rep, _twist_value(Fraction(k, 2) - r))] = 1
    return KElement(terms)


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
        classes.setdefault((s.k, s.rep, s.twist % 1), []).append((s.twist, c, s))
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
                    terms[IcSymbol(k, rep, gap)] = running
                    gap -= 1
            running += c
            if running:
                terms[s] = running
            above = t
        if running:
            residual[IcSymbol(k, rep, above - 1)] = running
    if residual:
        raise ReconstructionError(
            "input is not a difference G - G(-1)", KElement(residual)
        )
    return KElement(terms)


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
    ic_sign, ic_twist = NormLedger.ic_shift_twist(k)
    base = ic_twist if ic_sign == 1 else -ic_twist
    total = Laurent.zero()
    if divisor.is_multiplicity_free():
        cycle_type = divisor.residue_degrees()
        for s, c in element.terms.items():
            chi = murnaghan_nakayama(s.rep, cycle_type)
            total = total + (c * chi) * base.twist(s.twist)
        return total
    for s, c in element.terms.items():
        if s.rep == trivial_partition(k):
            total = total + c * base.twist(s.twist)
        elif k == 2 and s.rep == sign_partition(2):
            continue  # sign symbol vanishes on the diagonal of X^(2)
        else:
            raise StalkNotDeterminedError(
                f"stalk of {s!r} at the non-multiplicity-free divisor "
                f"{divisor!r} is not determined"
            )
    return total
