"""Negative controls: every verify suite fails on a planted fault.

A verifier whose checks cannot fail shows nothing.  Each row of `CONTROLS`
plants one fault in the library, runs the suites in-process on each of its
grids and asserts the exact set of suites that fail there: mutation testing
(DeMillo, Lipton and Sayward, "Hints on test data selection", 1978).  The
library keeps one value of each sign: the negated deep Frobenius sign and
the plain permutation action are faults here, not options of `kcalc` or
`lefschetz`.

A fault is patched where its name is read: `drinfeld` imports `BOUNDARY`
and `kcalc` imports `predicted_schur_weyl` by name, so a patch of the
defining module alone would miss those readers.  Every `lru_cache` in
vinbun is cleared before and after each fault, so no value cached before
a fault hides it and no value computed under it outlives it.
"""

import sys
from collections import namedtuple

import pytest
from divisor_utils import rational_point
from kernel_oracle import kernel_traces
from test_kcalc import certificate_failures, composition_factor

from vinbun import drinfeld, kcalc, lefschetz, localmodel
from vinbun.arith import EffectiveDivisor, Laurent, enumerate_closed_points, field_from_q
from vinbun.cli import ALL_SUITES, DEFAULT_SUITES, RunConfig, run_suite
from vinbun.lefschetz import GradedBiRep
from vinbun.symrep import murnaghan_nakayama

# verify's grids, as RunConfig arguments
GRIDS = {
    "default": {},
    # the smallest deep divisor, twice a degree-2 point, has degree 4
    "nearby --max-n 4": {"suites": ("nearby",), "max_n": 4},
    "rankone --max-q 2": {"suites": ("rankone",), "max_q": 2},
}


def failing_suites(grid):
    report = run_suite(RunConfig(**GRIDS[grid]))
    return {c.suite for c in report["checks"] if c.status == "fail"}


def clear_vinbun_caches():
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "vinbun":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def planted():
    """A monkeypatch whose patches hold for one test, with every vinbun
    cache cleared before the fault is planted and after it is removed."""
    clear_vinbun_caches()
    with pytest.MonkeyPatch.context() as mp:
        yield mp
    clear_vinbun_caches()


# ---------------------------------------------------------------------------
# the faults
# ---------------------------------------------------------------------------


def negate_deep_sign(mp):
    # the splitting-sum oracle's local factor, with the sign of the shares
    # b >= 2 at points of degree >= 2 negated
    mp.setattr(kcalc, "_point_factor",
               lambda spec, d, m: composition_factor(spec, d, m, "flip-deep"))


def deep_identity_breaks():
    field = field_from_q(2)
    y = next(pt for pt in enumerate_closed_points(field, 2) if pt.degree == 2)
    lhs, rhs = kcalc.nearby_vs_boundary(4, EffectiveDivisor.from_pairs([(y, 2)]))
    assert lhs != rhs
    # a rational double point, which the paper fixes directly, does not see it
    x = EffectiveDivisor.from_pairs([(rational_point(field, 0), 2)])
    assert kcalc.trace_plo(2, x) == Laurent.monomial(-2)
    # the certificate fails too: 1 - 3u^2, u = v^2, at a degree-2 point of
    # multiplicity 2
    assert certificate_failures()[kcalc.GR_PSI, 2, 2] == Laurent({0: 1, 4: -3})


def plain_permutation_action(mp):
    mp.setattr(lefschetz, "perm_sign", lambda perm: 1)


def lowest_lines_flip():
    # the transposition's sign on the lowest weight lines of U_0 and U_2,
    # read off the bimodule and off ker(f), flips on both
    for (rho, m), _ in lefschetz.brute_force_schur_weyl(2).mults:
        sign = {0: -1, 2: 1}[m]
        assert murnaghan_nakayama(rho, (2,)) == sign
        assert kernel_traces(2, -m, ((1, 0),)) == [sign]


def pivot_defect_plus_one(mp):
    original = localmodel.pivot_defect
    mp.setattr(localmodel, "pivot_defect", lambda m, s, b: original(m, s, b) + 1)


def patch_d_tables(mp, change):
    """Apply `change` to a copy of every factor d-table the library reads."""
    original = localmodel.factor_d_table

    def changed(field, m):
        table = dict(original(field, m))
        change(table, field.q)
        return table

    mp.setattr(localmodel, "factor_d_table", changed)


def extra_zero_point(mp):
    def change(table, q):
        table[0] = table.get(0, 0) + 1

    patch_d_tables(mp, change)


def point_moved_to_d2(mp):
    def change(table, q):
        if q > 2:
            table[1] -= 1
            table[2] = table.get(2, 0) + 1

    patch_d_tables(mp, change)


def extra_schur_weyl_summand(mp):
    original = lefschetz.predicted_schur_weyl

    def with_extra(k):
        mults = dict(original(k).mults)
        mults[((k,), k)] = mults.get(((k,), k), 0) + 1
        return GradedBiRep.from_dict(k, mults)

    for module in (lefschetz, kcalc):
        mp.setattr(module, "predicted_schur_weyl", with_extra)


def twist_off_by_one(mp):
    original = kcalc.KElement.twisted
    mp.setattr(kcalc.KElement, "twisted", lambda self, m: original(self, m + 1))


def isom_count_plus_one(mp):
    original = drinfeld.sl2_isom_count
    mp.setattr(drinfeld, "sl2_isom_count",
               lambda a1, a2, q: original(a1, a2, q) + (a1 == a2 == 0))


def closed_form_off_by_one(mp):
    # the boundary sum of the closed form, one too large off the diagonal
    original = drinfeld.rank_one_value

    def shifted(a1, a2, q):
        res = original(a1, a2, q)
        return drinfeld._result(res.isom, res.boundary_sum + (a1 != a2),
                                res.nonunit_isoms)

    mp.setattr(drinfeld, "rank_one_value", shifted)


def infinity_dropped(mp):
    original = drinfeld.defect_divisor_of_hom

    def finite_part(field, phi):
        return EffectiveDivisor.from_pairs(
            [(pt, m) for pt, m in original(field, phi) if not pt.is_infinity])

    mp.setattr(drinfeld, "defect_divisor_of_hom", finite_part)


def det_zero_line_weighted_once(mp):
    # each line of det 0 in the Hom sweep counted as one map, not q - 1
    original = drinfeld._line_shares

    def once(field):
        shares = original(field)
        shares[0] = (0, 1)
        return shares

    mp.setattr(drinfeld, "_line_shares", once)


# fault: its name; plant: patches the library; failing: grid -> the exact set
# of suites that fail there; holds: asserts what else the fault changes
Control = namedtuple("Control", "fault plant failing holds", defaults=(None,))

CONTROLS = [
    Control("none", lambda mp: None, {grid: set() for grid in GRIDS}),
    Control("deep-sign-negated", negate_deep_sign,
            {"default": set(), "nearby --max-n 4": {"nearby"}}, deep_identity_breaks),
    Control("point-moved-to-d2", point_moved_to_d2,
            {"default": {"omega", "quadric", "uniformity"}}),
    Control("pivot-defect-plus-one", pivot_defect_plus_one, {"default": {"strata"}}),
    Control("plain-permutation-action", plain_permutation_action,
            {"default": {"schurweyl"}}, lowest_lines_flip),
    Control("extra-schur-weyl-summand", extra_schur_weyl_summand,
            {"default": {"schurweyl"}}),
    Control("twist-off-by-one", twist_off_by_one, {"default": {"reconstruct"}}),
    Control("infinity-dropped", infinity_dropped, {"default": {"drinfeld"}}),
    Control("extra-zero-point", extra_zero_point, {"default": {"quadric", "strata"}}),
    Control("isom-count-plus-one", isom_count_plus_one,
            {"default": set(), "rankone --max-q 2": {"rankone"}}),
    Control("closed-form-off-by-one", closed_form_off_by_one,
            {"default": set(), "rankone --max-q 2": {"rankone"}}),
    # the rankone grid at --max-q 2 sweeps only over F_2, where q - 1 = 1
    Control("det-zero-line-weighted-once", det_zero_line_weighted_once,
            {"default": {"drinfeld"}, "rankone --max-q 2": set()}),
]


@pytest.mark.parametrize("control", CONTROLS, ids=lambda c: c.fault)
def test_planted_fault_fails_exactly_its_suites(planted, control):
    control.plant(planted)
    assert {grid: failing_suites(grid) for grid in control.failing} == control.failing
    if control.holds:
        control.holds()


def test_every_suite_fails_on_some_fault():
    caught = set().union(*(s for c in CONTROLS for s in c.failing.values()))
    assert caught == set(ALL_SUITES)
    # one row per default suite, two for the opt-in rankone (a fault in the
    # sweep's isom count, one in the closed form), one for the line rule of
    # the sweep, and the clean run
    assert len(CONTROLS) == len(DEFAULT_SUITES) + 4
