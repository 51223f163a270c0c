"""Closed points, effective divisors, and Laurent-valued traces.

Divisors on the affine line over F_q are multisets of monic irreducibles in
t; there are exactly q^n of degree n, and the number of degree-d points
follows the necklace formula.  Frobenius traces live in Z[v, v^-1] with v a
formal square root of q, so half-integer Tate twists stay exact.
"""

from vinbun.arith import (
    Laurent,
    enumerate_closed_points,
    enumerate_divisors,
    format_divisor,
    necklace_count,
    parse_divisor,
)
from vinbun.cli import field_from_q
from vinbun.kcalc import trace_omega_tilde, trace_plo

field = field_from_q(3)

print("closed points of A^1 over F_3 up to degree 3:")
for d in (1, 2, 3):
    pts = [p for p in enumerate_closed_points(field, 3) if p.degree == d]
    print(f"  degree {d}: {len(pts)} points (necklace formula: "
          f"{necklace_count(3, d)})")

print()
divs = enumerate_divisors(field, 2)
print(f"degree-2 divisors over F_3: {len(divs)} = q^2")
for d in divs:
    print(f"  {format_divisor(field, d):14}  "
          f"plo trace = {trace_plo(2, d)!r:24}  "
          f"omega trace = {trace_omega_tilde(2, d)!r}")

print()
# traces factor over disjoint divisors
d1 = parse_divisor(field, "t:1")
d2 = parse_divisor(field, "t+1:2,t^2+1:1")
both = d1 + d2
lhs = trace_plo(5, both)
rhs = trace_plo(1, d1) * trace_plo(4, d2)
print(f"factorization: plo({format_divisor(field, both)}) = {lhs!r}")
print(f"             = plo(t) * plo(t+1:2,t^2+1)          = {rhs!r}")
assert lhs == rhs

# specializing v^2 = q turns the omega trace into the open Zastava count;
# the twist v^(2n) = q^n clears its q-denominator first, so the count is an
# int computed in Z
q = 3
for n in (1, 2, 3):
    d = parse_divisor(field, f"t:{n}")
    count = (Laurent.monomial(2 * n) * trace_omega_tilde(n, d)).at_q(q)
    print(f"open fiber count over {n}*x: q^{n} * omega|_(v^2=q) = {count}")
