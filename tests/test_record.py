"""The seven records against frozen dataclasses.

``IntegratorSettings``, ``Trajectory``, ``ShootingResult``, ``Grid``,
``ComparisonReport``, ``HpmConfig`` and ``HpmSeries`` were frozen
dataclasses, or behaved as such, and stay compatible with one: each is
checked against a ``dataclasses.make_dataclass`` twin declared here from
the fields the dataclasses had.  Only ``dataclasses``, ``copy`` and
``pickle`` are used, no numpy, so the module runs on every Python the
project declares.
"""

import copy
import dataclasses
import pickle
from array import array
from fractions import Fraction

import pytest

from flatplate._record import _Record
from flatplate.hpm import HpmConfig, build_series
from flatplate.report import ComparisonReport, Grid
from flatplate.shooting import IntegratorSettings, ShootingResult, Trajectory

MISSING = dataclasses.MISSING

# The fields, in order, with their defaults: those of the frozen dataclass twin.
DECLARED = {
    "IntegratorSettings": [("eta_max", 10.0), ("step", 1.0e-3), ("shoot_tol", 1.0e-8)],
    "Trajectory": [("eta", MISSING), ("f", MISSING), ("fp", MISSING), ("fpp", MISSING)],
    "ShootingResult": [("s_star", MISSING), ("trajectory", MISSING), ("residual", MISSING),
                       ("iterations", MISSING)],
    "Grid": [("start", 0.0), ("stop", 12.0), ("step", 0.05)],
    "ComparisonReport": [("rows", MISSING), ("max_dev_inside", MISSING),
                         ("dev_at_probe", MISSING), ("probe_eta", MISSING),
                         ("s_numerical", MISSING), ("s_hpm_exact", MISSING),
                         ("domain_length", MISSING), ("extrapolated_from", MISSING)],
    "HpmConfig": [("order", MISSING), ("L", Fraction(5)), ("epsilon", Fraction(1))],
    "HpmSeries": [("f_corrections", MISSING), ("theta_corrections", MISSING),
                  ("config", MISSING)],
}

TRAJECTORY = Trajectory(array("d", [0.0, 1.0]), array("d", [0.0, 0.16]),
                        array("d", [0.0, 0.33]), array("d", [0.332, 0.323]))
SAMPLES = {
    "IntegratorSettings": IntegratorSettings(eta_max=2.0, step=0.01),
    "Trajectory": TRAJECTORY,
    "ShootingResult": ShootingResult(0.332, TRAJECTORY, 2.5e-9, 2),
    "Grid": Grid(0.0, 5.0, 0.5),
    "ComparisonReport": ComparisonReport(
        rows=[(0.0, 0.0, 0.0), (1.0, 0.33, 0.35)], max_dev_inside=0.02, dev_at_probe=None,
        probe_eta=10.0, s_numerical=0.332, s_hpm_exact=Fraction(349, 1000),
        domain_length=5.0, extrapolated_from=None),
    "HpmConfig": HpmConfig(3, "7/2"),
    "HpmSeries": build_series(HpmConfig(1)),
}

records = pytest.mark.parametrize("name", DECLARED)


def twin_of(record):
    """The record as an instance of a frozen dataclass with the declared fields."""
    name = type(record).__name__
    spec = [field if default is MISSING else (field, "typing.Any", default)
            for field, default in DECLARED[name]]
    twin = dataclasses.make_dataclass(name, spec, frozen=True)
    return twin(*(getattr(record, field) for field, _ in DECLARED[name]))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as error:  # an array or list field, as in Trajectory
        return type(error)


@records
def test_fields_names_order_and_defaults(name):
    record = SAMPLES[name]
    for fields in (dataclasses.fields(record), dataclasses.fields(type(record))):
        assert [(f.name, f.default) for f in fields] == DECLARED[name]
    # built once, then cached on the class
    assert vars(type(record))["__dataclass_fields__"] is type(record).__dataclass_fields__


@records
def test_repr_equality_and_hash_match_the_twin(name):
    record, twin = SAMPLES[name], twin_of(SAMPLES[name])
    values = [getattr(record, field) for field, _ in DECLARED[name]]
    assert repr(record) == repr(twin)
    assert record == type(record)(*values) and record == dataclasses.replace(record)
    assert record != twin and twin != record  # another class, as between dataclasses
    assert hash_or_error(record) == hash_or_error(twin)


@records
def test_asdict_astuple_and_is_dataclass(name):
    record, twin = SAMPLES[name], twin_of(SAMPLES[name])
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)
    assert dataclasses.astuple(record) == dataclasses.astuple(twin)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(type(record))


def test_the_base_is_no_dataclass():
    assert not dataclasses.is_dataclass(_Record)


@records
def test_assignment_raises_attribute_error(name):
    record, twin = SAMPLES[name], twin_of(SAMPLES[name])
    for field, _ in DECLARED[name]:
        with pytest.raises(AttributeError) as info:
            setattr(record, field, None)
        assert type(info.value) is AttributeError  # not FrozenInstanceError
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, field, None)
    assert repr(record) == repr(twin)


@records
def test_copy_and_pickle_round_trips(name):
    record = SAMPLES[name]
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record) and again == record


@pytest.mark.parametrize("record, change, message", [
    (IntegratorSettings(), {"step": 0.0}, "step must satisfy 0 < step <= eta_max, got 0.0"),
    (Grid(), {"stop": -1.0}, "grid must satisfy start < stop, got 0.0..-1.0"),
])
def test_replace_checks_the_new_record(record, change, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(record, **change)


def test_replace_makes_a_record_of_the_same_class():
    shot = SAMPLES["ShootingResult"]
    short = Trajectory(*(array("d", [x]) for x in (0.0, 0.0, 0.0, 0.332)))
    again = dataclasses.replace(shot, trajectory=short)
    assert type(again) is ShootingResult and again.trajectory is short
    assert (again.s_star, again.residual, again.iterations) == (0.332, 2.5e-9, 2)
