"""Point counts on local models of the SL2 bundle degeneration, checked
against symmetric-group / Lefschetz-sl2 trace predictions.

The package has three layers:

* exact arithmetic (`arith`): finite fields F_q, Laurent trace values in
  Z[v, v^-1] with v^2 = q, and effective divisors on the line;
* representation theory (`symrep`, `lefschetz`, `kcalc`): two-column Young
  diagrams, sign-twisted Schur-Weyl decompositions, and the trace calculus
  on symmetric powers that predicts the point counts;
* geometry by enumeration (`localmodel`, `drinfeld`): explicit bilinear
  equation systems for the local-model fibers, exhaustive F_q-point counts,
  defect stratification, and the closed formula for Drinfeld's function on
  pairs of split bundles over P^1.

Every identity the suite checks is exact (integer or formal Laurent
equality); see `vinbun.cli` for the batch verification driver.
"""

__version__ = "0.1.0"
