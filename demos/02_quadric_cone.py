"""The n = 2 fiber is the affine quadric cone XY + ZW = 0 in A^4.

Its single equation couples the four coordinates (a_{-2}, a_{-1}, b_0, b_1);
the vertex of the cone is the stratum of maximal defect.  The same point
count arises from the [1, 1] fiber product of two hyperbola families glued
over the d-line: factorization in families, at the level of raw counts.
"""

import random

from vinbun.cli import field_from_q
from vinbun.localmodel import (
    build_system,
    count_points,
    expected_strata_counts,
    iter_factor_solutions,
    strata_counts,
)

cone = build_system([2])
print("equation of the [2] fiber:", cone.equations_text()[0])
product = build_system([1, 1])
print("coupling of the [1,1] fiber product:", product.equations_text()[0])
print()

for q in (2, 3, 4, 5, 7):
    field = field_from_q(q)
    total = count_points(cone, field, "any")
    coupled = count_points(product, field, "any")
    print(f"q = {q}:  #cone = {total} = q^3+q^2-q = {q**3 + q**2 - q},  "
          f"#fiber-product = {coupled}")
    assert total == coupled == q**3 + q**2 - q

print()
print("defect strata of the cone's B-locus (closed form sum c(n1)c(n2)):")
for q in (2, 3, 5):
    field = field_from_q(q)
    got = strata_counts(2, field)
    expected = {k: v for k, v in expected_strata_counts(2, q).items() if v}
    print(f"  q = {q}: {got}  (expected {expected})")
    assert got == expected

# the torus (a, b) -> (lambda a, mu b) scales d by lambda mu; check every
# lambda, mu in F_5^x on a few random solutions over F_5
field = field_from_q(5)
mul = field.mul
rng = random.Random(0)
solutions = list(iter_factor_solutions(field, 2))
on_cone = set(solutions)
for a, b in rng.sample(solutions, 5):
    for lam in range(1, 5):
        for mu in range(1, 5):
            moved = (tuple(mul(lam, x) for x in a), tuple(mul(mu, x) for x in b))
            assert moved in on_cone
            assert mul(moved[0][0], moved[1][0]) == mul(mul(lam, mu), mul(a[0], b[0]))
print()
print("the torus (a, b) -> (lambda a, mu b) preserves the cone and scales d "
      "by lambda mu: OK")
