"""The record classes keep a frozen data class's contract: constructor,
repr, ==, hash, immutability and pickling all follow the field tuple."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from calclab.cli import ResultTable
from calclab.combinat import Permutation
from calclab.diffcalc import CriticalReport
from calclab.dynamics import ChargeConfig, Grid1D, OrbitState
from calclab.hydrogen import BohrEnergy, PhysicalConstants, QuantumNumbers
from calclab.prob import Law, SnFixedPointResult
from calclab.quad import SphereMomentKey
from calclab.rng import RandomSource
from calclab.series import PowerSeries

# (class, every field's value in order, the defaults of the trailing fields);
# values are hashable and picklable, so that every class runs every check
RECORDS = [
    (ResultTable, (("a", "b"), ((1, "x"),), "note"), {"note": ""}),
    (Permutation, ((2, 3, 1),), {}),
    (PowerSeries, (float, 0.25), {"radius": math.inf}),
    (Law, (((0.5, 0.25),), math.exp, (0.0, 0.5, 1.0)), {"atoms": (), "density": None, "support": None}),
    (SnFixedPointResult, (Law(((1.0, 1.0),)), True, 0), {}),
    (RandomSource, (7,), {}),
    (PhysicalConstants, (1.0, 2.0, 1.0, 3.0, 4.0, 2.0 * math.pi), {}),
    (QuantumNumbers, (3, 1, -1), {}),
    (BohrEnergy, (-2.0, -0.5), {}),
    (SphereMomentKey, ((2, 0, 1), "complex"), {"field": "real"}),
    (CriticalReport, ((0.0, 0.0), 1e-9, (2.0, -2.0), "saddle"), {}),
    (OrbitState, (1.0, 0.0, 0.0, 1.0, 1.0, 0.5), {"time": 0.0}),
    (Grid1D, ((0.0, 1.0, 0.0), -1.0, 1.0, 2.0), {"time": 0.0}),
    (ChargeConfig, (((1.0, (0.0, 0.0, 0.0)), (-1.0, (1.0, 0.0, 0.0))), 2.0), {"k": 1.0}),
]


def _twin(cls, values):
    """A frozen data class with the record's name and fields: the contract's reference."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)(*values)


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_keep_the_frozen_data_class_contract(cls, values, defaults):
    names = cls.__slots__
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    required = len(values) - len(defaults)
    if defaults:
        bare = cls(*values[:required])
        assert {name: getattr(bare, name) for name in names[required:]} == defaults

    twin = _twin(cls, values)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin) == hash(values)
    assert record != twin and twin != record
    assert cls(*values) == record and not cls(*values) != record

    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls and restored == record



def test_random_source_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed >= 0"):
        RandomSource(-1)
    assert RandomSource(0).seed == 0


def test_random_source_takes_integers_only_and_checks_them_when_built():
    for seed in (1.5, "3", None, 2.0):
        with pytest.raises(TypeError):
            RandomSource(seed)
    with pytest.raises(ValueError, match="seed >= 0"):
        RandomSource(np.int64(-4))
    assert RandomSource(np.int64(4)) == RandomSource(4) and type(RandomSource(np.int64(4)).seed) is int
    assert RandomSource(True) == RandomSource(1)
