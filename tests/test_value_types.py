"""The value types: namedtuple records and slotted classes.

Each keeps the behaviour a frozen record had: field access, positional and
keyword construction, equality and hashing by field values, validation, and
immutability."""

import copy
import pickle
from fractions import Fraction

import pytest
from divisor_utils import rational_point
from test_localmodel import DefectProfile

from vinbun.arith import (
    INFINITY,
    ClosedPoint,
    EffectiveDivisor,
    enumerate_divisors,
    field_from_q,
)
from vinbun.cli import RunConfig
from vinbun.drinfeld import DrinfeldResult, HomMatrix
from vinbun.kcalc import PLO, NormLedger, Spec, evaluate, symbol
from vinbun.lefschetz import GradedBiRep
from vinbun.localmodel import build_system

F3 = field_from_q(3)


def frozen_instances():
    """One instance of every immutable value type."""
    return [
        rational_point(F3, 1),
        EffectiveDivisor.from_pairs([(rational_point(F3, 1), 2)]),
        symbol((1, 1), Fraction(1, 2)),
        NormLedger.calibrated(),
        HomMatrix(0, 0, ((1,), (), (), (1,))),
        DrinfeldResult(1, 2, 3, 4, 5, None),
        GradedBiRep.from_dict(2, {((2,), 2): 1}),
        build_system([2, 1]),
        DefectProfile((0, 1)),
        PLO,
    ]


def field_names(obj):
    return getattr(type(obj), "_fields", None) or type(obj).__slots__


def field_values(obj):
    return tuple(getattr(obj, n) for n in field_names(obj))


@pytest.mark.parametrize("obj", frozen_instances(), ids=lambda o: type(o).__name__)
def test_fields_cannot_be_assigned_deleted_or_added(obj):
    for name in field_names(obj):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("obj", frozen_instances(), ids=lambda o: type(o).__name__)
def test_copy_and_pickle_rebuild_the_value(obj):
    assert field_values(copy.copy(obj)) == field_values(obj)
    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj)
        assert clone == obj


def test_keyword_construction():
    assert ClosedPoint(degree=1, poly=None) == INFINITY
    assert EffectiveDivisor(parts=()) == EffectiveDivisor.empty()
    spec = Spec(constants=0, rank=2, weight=-1, scale=0)
    assert spec == PLO and (spec.rank, spec.weight) == (2, -1)
    config = RunConfig(suites=("quadric",), max_n=2, max_q=3, max_degree=1,
                       max_k=2, budget=10)
    assert (config.suites, config.max_n, config.budget) == (("quadric",), 2, 10)


def test_specs_compare_and_hash_by_value():
    divisor = EffectiveDivisor.from_pairs([(rational_point(F3, 0), 2)])
    twin = Spec(*PLO)
    assert twin == PLO and hash(twin) == hash(PLO) and len({PLO, twin}) == 1
    # the per-type cache keys on the spec's fields, so a twin shares its entries
    assert evaluate(twin, divisor) == evaluate(PLO, divisor)


def test_validation_still_raises():
    with pytest.raises(ValueError):
        RunConfig(max_n=0)
    config = RunConfig()
    config.max_n = 5  # RunConfig is mutable, but has no room for new fields
    with pytest.raises(AttributeError):
        config.max_m = 5


def test_value_equality_is_by_class_and_fields():
    assert symbol((2,), 0) == symbol((2,), Fraction(0))
    assert hash(symbol((2,), 0)) == hash(((2,), 0))


def test_effective_divisor_equality_and_hash_match_the_field_tuple():
    # a frozen record with the single field `parts` was equal exactly when
    # the parts were, and hashed as the 1-tuple (parts,)
    grid = [d for q in (2, 3, 4) for n in range(4)
            for d in enumerate_divisors(field_from_q(q), n)]
    assert len(grid) == 15 + 40 + 85  # q^0 + ... + q^3 monic polynomials each
    for d in grid:
        assert hash(d) == hash((d.parts,))
        rebuilt = EffectiveDivisor(d.parts)
        assert rebuilt == d and hash(rebuilt) == hash(d)
        assert d != d.parts and tuple(d) == d.parts and len(d) == len(d.parts)
    for d1 in grid:
        for d2 in grid:
            assert (d1 == d2) == (d1.parts == d2.parts)
            assert (d1 != d2) == (d1.parts != d2.parts)
