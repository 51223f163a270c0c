"""Sign-twisted Schur-Weyl duality and the kernel of the monodromy operator.

V is the 2-dimensional standard sl2 representation with Frobenius
eigenvalues v and v^-1.  The symmetric group acts on V^(tensor k) by
permutations times the sign character; decomposing by explicit integer
matrices recovers one copy of U_{k-2r} tensor the two-column irreducible
with columns (k-r, r) for each r, and the kernel of the lowering operator
picks out the lowest weight line of each summand, carrying twist k/2 - r.
The sign character is part of the action, not an option: the plain
permutation action flips the transposition's sign on both lowest weight
lines and breaks the schurweyl suite, which the `plain-permutation-action`
row of tests/test_controls.py shows as a planted fault.
"""

from vinbun.arith import enumerate_divisors
from vinbun.cli import field_from_q
from vinbun.kcalc import ic_kernel_k_element, plo_k_element, trace_k_element, trace_plo
from vinbun.lefschetz import brute_force_schur_weyl, predicted_schur_weyl
from vinbun.symrep import murnaghan_nakayama

for k in range(1, 7):
    brute = brute_force_schur_weyl(k)
    predicted = predicted_schur_weyl(k)
    verdict = "ok" if brute == predicted else "MISMATCH"
    print(f"k = {k}: {brute.describe()}   [{verdict}]")
    assert brute == predicted

print()
print("kernel of the monodromy operator, irreducible(Tate twist):")
for k in (1, 2, 3, 4):
    print(f"  k = {k}: {ic_kernel_k_element(k)}")

print()
print("transposition on the lowest weight lines of U_0 and U_2:")
# each summand U_m (x) rho at k = 2 has dim rho = 1, so the transposition
# acts on the lowest weight line of U_m by the character of rho
signs = {m: murnaghan_nakayama(rho, (2,)) for (rho, m), _ in brute_force_schur_weyl(2).mults}
print("  sign-twisted action :", dict(sorted(signs.items())))

print()
# the weight-line expansion of the k = 2 oscillator evaluates to its trace
print("k = 2 oscillator as weight lines:", plo_k_element(2))
field = field_from_q(5)
for d in enumerate_divisors(field, 2):
    assert trace_k_element(plo_k_element(2), d) == trace_plo(2, d)
print("symbol-by-symbol stalk traces match the oscillator trace over F_5: OK")
