"""The headline identity: nearby-cycles traces against boundary stalks.

The weight-graded nearby-cycles class over a degree-n divisor is a sum over
strata triples (n1, k, n2) of twisted oscillator traces.  Up to the
normalization c(n) = q^(-n) = v^(-2n), the scale of GR_PSI, it reproduces
the boundary-stalk product (1 - q) prod over distinct points (1 - q^(deg x)):
at every point both classes have the local factor 1 - u^2, u = v^(deg x).

The identity also pins the Frobenius sign of the deep exterior-power stalks,
at points of degree >= 2 taken with multiplicity >= 2: it holds on the
divisor 2 * (degree-2 point) below.  Flipping that sign breaks it there; the
`deep-sign-negated` row of tests/test_controls.py plants the flip as a
fault and shows that the nearby suite fails.
"""

from vinbun.arith import enumerate_divisors, format_divisor
from vinbun.cli import field_from_q
from vinbun.kcalc import NormLedger, nearby_vs_boundary

ledger = NormLedger.calibrated()
print(f"c(n) = v^(-2n), the scale of GR_PSI: c(1) = {ledger.c1!r}")
print()

total = 0
for q in (2, 3, 4):
    field = field_from_q(q)
    for n in (1, 2, 3):
        divisors = enumerate_divisors(field, n, 2)
        for d in divisors:
            lhs, rhs = nearby_vs_boundary(d)
            assert lhs == rhs
        total += len(divisors)
    print(f"q = {q}: identity holds on all divisors with residue degrees <= 2")
print(f"({total} divisors checked in total)")

print()
field = field_from_q(2)
example = [d for d in enumerate_divisors(field, 2)
           if len(d.parts) == 1 and d.parts[0][0].degree == 2][0]
lhs, rhs = nearby_vs_boundary(example)
print(f"sample, D = {format_divisor(example)} over F_2:")
print(f"  (1-q) * grPsi trace  = {lhs!r}")
print(f"  c(2) * boundary stalk = {rhs!r}")

print()
deep = [d for d in enumerate_divisors(field, 4)
        if len(d.parts) == 1 and d.parts[0][0].degree == 2][0]
print(f"sign convention experiment on D = {format_divisor(deep)}:")
lhs, rhs = nearby_vs_boundary(deep)
print("  fixed sign rule :", lhs == rhs)
