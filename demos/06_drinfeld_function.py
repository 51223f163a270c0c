"""Drinfeld's function on pairs of split SL2-bundles over P^1.

For a pair (O(a1) + O(-a1), O(a2) + O(-a2)) the value is the number of
determinant-1 isomorphisms minus, over every nonzero non-isomorphism phi,
the product of (1 - q^d) over the residue degrees d of the distinct points
of the defect divisor of phi (the divisor of the gcd of its matrix entries,
including the point at infinity).

At (0, 0) the value is 1 - q^2.  Every pair fits the proved form
(q - 1)(q^2 - 1) - #Isom_SL2(E1, E2) (`drinfeld.rank_one_value`): -5 at
(1, 1) over F_2.  Off the diagonal there are no isomorphisms and the
boundary sum carries everything.
"""

from vinbun.cli import field_from_q
from vinbun.drinfeld import drinfeld_value, hom_space_dims

print("Hom-space entry dimensions (rows: target summand, cols: source):")
for pair in ((0, 0), (1, 1), (1, 0), (2, 1)):
    print(f"  (a1, a2) = {pair}: {hom_space_dims(*pair)}")

print()
for q in (2, 3, 4, 5):
    field = field_from_q(q)
    res = drinfeld_value(0, 0, field)
    print(f"q = {q}:  isom = {res.isom} (= q^3 - q),  boundary sum = "
          f"{res.boundary_sum},  value = {res.value} (= 1 - q^2)")
    assert res.isom == q**3 - q
    assert res.value == 1 - q * q

print()
field = field_from_q(2)
res = drinfeld_value(1, 0, field, histogram=True)
print("off-diagonal pair (1, 0) over F_2:")
print(f"  value = {res.value}, boundary sum = {res.boundary_sum}")
print("  maps per defect-divisor profile ((degree, multiplicity), ...):")
for profile, count in res.histogram:
    print(f"    {profile or '(empty divisor)'}: {count}")

print()
res3 = drinfeld_value(1, 1, field_from_q(2), histogram=True)
print("diagonal pair (1, 1) over F_2:")
print(f"  isom = {res3.isom} (= (q-1) q^3), value = {res3.value}")
print(f"  nonunit-determinant isomorphisms = {res3.nonunit_isoms}; counting "
      f"them into the sum would give {res3.value_including_nonunit_isos}")
