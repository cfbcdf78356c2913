"""The records every lindeg module hands out: immutable slotted values that
compare, hash and print as frozen dataclasses of the same fields would,
without lindeg importing ``dataclasses`` at all."""

import copy
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lindeg
from lindeg import (
    GF,
    CensusResult,
    Decomposition,
    DimVector,
    Interval,
    PointAnalysis,
    ProjectionTuple,
    RankSequence,
    RankTable,
    RepMatrices,
    SigmaReport,
    SingularInfo,
    SubrepPoint,
    classify,
    coordinate_subspace,
    flat_flags,
    singular_model,
)
from lindeg.cli import Problem
from lindeg.linalg import Matrix, _Record, _unchecked
from lindeg.verification import SuiteResult

MODULES = [
    "linalg",
    "representations",
    "orbits",
    "classifier",
    "enumeration",
    "verification",
    "cli",
]

FLAG = DimVector(3, (1, 2))
ORBIT = RankSequence.two_step(3, 2)

# one sample per record class; a new record class needs one here
SAMPLES = {
    "Field": GF(3),
    "Matrix": Matrix.from_rows(GF(3), [[1, 2], [0, 1]]),
    "Subspace": coordinate_subspace(GF(2), 3, [0, 2]),
    "Interval": Interval(1, 2),
    "DimVector": FLAG,
    "Decomposition": Decomposition(2, ((Interval(1, 1), 1), (Interval(1, 2), 2))),
    "RankTable": RankTable(2, ((3, 2), (3,))),
    "RepMatrices": RepMatrices.identity_tuple(GF(2), 2, 2),
    "SubrepPoint": SubrepPoint.from_coordinates(GF(2), (2, 2), [[1], [1, 2]]),
    "RankSequence": ORBIT,
    "ProjectionTuple": ProjectionTuple(3, (frozenset({1}),)),
    "FlatFlags": flat_flags(ORBIT, FLAG),
    "SingularModel": singular_model(DimVector(4, (1, 2)), 1),
    "SingularInfo": SingularInfo("exact", 3, 3, 3, 0, singular_model(FLAG, 1)),
    "DegenerationReport": classify(ORBIT, FLAG),
    "PointAnalysis": PointAnalysis(3, 1),
    "CensusResult": CensusResult(7, 1, 6),
    "SigmaReport": SigmaReport(2, 2, True),
    "SuiteResult": SuiteResult("roundtrips", False, 2, ("one failed",)),
    "Problem": Problem(FLAG, GF(2), ProjectionTuple(3, (frozenset({1}),)), "0" * 64),
}


def record_classes():
    """Every _Record subclass that a lindeg module binds, by name."""
    found = {}
    for name in MODULES:
        for value in vars(importlib.import_module(f"lindeg.{name}")).values():
            if isinstance(value, type) and issubclass(value, _Record) and value is not _Record:
                found[value.__name__] = value
    return found


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def plain(value):
    """What dataclasses.asdict makes of a value: records become dicts of
    their fields, also inside tuples."""
    if isinstance(value, _Record):
        return {name: plain(v) for name, v in zip(value._fields, values(value))}
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return value


def test_every_record_class_has_a_sample():
    assert set(record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 20


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestContract:
    def test_fields_are_frozen(self, name):
        record = SAMPLES[name]
        assert not hasattr(record, "__dict__")
        for field in (*record._fields, "undeclared"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_equality_is_by_class_and_fields(self, name):
        record = SAMPLES[name]
        cls = type(record)
        assert cls(*values(record)) == record == _unchecked(cls, *values(record))
        other = type("Other", (_Record,), {"__slots__": cls._fields})
        twin = _unchecked(other, *values(record))
        assert values(twin) == values(record)
        assert twin != record and record != twin
        assert record.__eq__(twin) is NotImplemented

    def test_hash_and_repr_are_the_dataclass_ones(self, name):
        record = SAMPLES[name]
        frozen = dataclasses.make_dataclass(name, record._fields, frozen=True)(*values(record))
        assert hash(record) == hash(values(record)) == hash(frozen)
        assert repr(record) == repr(frozen)

    def test_asdict_follows_the_fields(self, name):
        record = SAMPLES[name]
        assert list(record._asdict()) == list(record._fields)
        assert record._asdict() == plain(record)

    def test_copies_keep_fields_and_extras(self, name):
        record = SAMPLES[name]
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)
            for slot in type(record).__slots__:
                assert hasattr(twin, slot) == hasattr(record, slot), slot

    def test_unchecked_refuses_an_undeclared_name(self, name):
        cls = type(SAMPLES[name])
        with pytest.raises(AttributeError):
            _unchecked(cls, *values(SAMPLES[name]), undeclared=1)


def test_nested_records_become_dicts():
    assert SAMPLES["Decomposition"]._asdict() == {
        "n": 2,
        "items": (({"start": 1, "end": 1}, 1), ({"start": 1, "end": 2}, 2)),
    }
    model = SAMPLES["SingularInfo"]._asdict()["model"]
    assert model["module"] == {"n": 2, "items": (({"start": 1, "end": 2}, 2),)}


def test_intervals_order_as_tuples():
    intervals = [Interval(a, b) for a in range(1, 4) for b in range(a, 4)]
    shuffled = intervals[::2] + intervals[1::2]
    assert sorted(shuffled) == intervals
    for x in intervals:
        for y in intervals:
            key_x, key_y = (x.start, x.end), (y.start, y.end)
            assert (x < y, x <= y, x > y, x >= y) == (
                key_x < key_y, key_x <= key_y, key_x > key_y, key_x >= key_y
            )
    with pytest.raises(TypeError):
        Interval(1, 2) < (1, 3)


def test_a_kept_extra_survives_a_pickle():
    orbit = pickle.loads(pickle.dumps(RankSequence.two_step(3, 1)))
    assert orbit.leq(ORBIT) and not ORBIT.leq(orbit)
    table = SAMPLES["RankTable"]
    assert pickle.loads(pickle.dumps(table)).entries_flat() == table.entries_flat()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S keeps site-packages' start-up hooks out, so only lindeg's own
    # imports count
    src = str(Path(lindeg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, lindeg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_report_hashes_do_not_follow_none_s_address():
    """Reports hold None for what is unknown, and Python 3.11 hashes None by
    its address, which changes from process to process; a nullable record
    hashes a fixed int in its place, so at a fixed PYTHONHASHSEED two
    processes agree.  Equality is unchanged."""
    src = str(Path(lindeg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    code = (
        "from lindeg import DimVector, SingularInfo, classify, enumerate_orbits\n"
        "reports = [classify(rs, DimVector(3, (1, 2))) for rs in enumerate_orbits(3, 2)]\n"
        "assert any(r.dimension is None or r.singular is None for r in reports)\n"
        "print([hash(r) for r in reports], hash(SingularInfo('empty', 3)))"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    report = SingularInfo("bounded", 5, 2, None)
    assert report == SingularInfo("bounded", 5, 2)
    assert hash(report) == hash(SingularInfo("bounded", 5, 2))
    assert report != SingularInfo("bounded", 5, 2, 0xFCA86420)
