"""The contracts of the package's six records, and what importing the package loads."""
import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from npcount import (
    AsymptoticBreakdown,
    CountSeries,
    ExpansionCheck,
    PrecisionContext,
    RhoTable,
    SlopeRange,
    ZetaZero,
    bundled_zeros,
    count_series,
    full_estimate,
    logf_expansion_check,
    rho_recurrence_table,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CTX = PrecisionContext(64)

#: Each record class's fields, in order.
FIELDS = {
    PrecisionContext: ("bits",),
    ZetaZero: ("t", "bits", "seed_bits"),
    CountSeries: ("slope_range", "limit", "values"),
    RhoTable: ("max_height", "rows"),
    AsymptoticBreakdown: ("tau", "log_main", "oscillation", "log_estimate"),
    ExpansionCheck: ("tau", "direct", "expansion", "residual", "terms"),
}


def make_records():
    """One record of each class, each built afresh by the code that returns it."""
    return [
        PrecisionContext(64),
        ZetaZero(mp.mpf("14.25"), 64, 64),
        count_series(SlopeRange.HALF_OPEN_01, 6),
        rho_recurrence_table(5),
        full_estimate(40, bundled_zeros()[:1], CTX),
        logf_expansion_check("0.5", (), CTX),
    ]


RECORDS = make_records()
IDS = [type(r).__name__ for r in RECORDS]


def field_values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_one_record_of_each_class():
    assert [type(r) for r in RECORDS] == list(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, again", zip(RECORDS, make_records()), ids=IDS)
def test_equal_records_hash_equal(record, again):
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_record_never_equals_a_tuple(record):
    values = field_values(record)
    assert record != values and values != record
    assert record != values[0]


def test_records_of_different_classes_never_compare_equal():
    for a, b in itertools.permutations(RECORDS, 2):
        assert a != b


def test_a_subclass_with_the_same_fields_is_not_equal():
    class Twin(PrecisionContext):
        pass

    assert PrecisionContext(64) != Twin(64) and Twin(64) != PrecisionContext(64)


def test_fields_that_differ_make_records_differ():
    assert PrecisionContext(64) != PrecisionContext(65)
    assert ZetaZero(mp.mpf(14), 64) != ZetaZero(mp.mpf(14), 65)
    assert count_series(SlopeRange.HALF_OPEN_01, 6) != count_series(SlopeRange.CLOSED_01, 6)
    # the seed's bits take no part in equality or hashing
    assert ZetaZero(mp.mpf(14), 64, 64) == ZetaZero(mp.mpf(14), 64, 200)
    assert hash(ZetaZero(mp.mpf(14), 64, 64)) == hash(ZetaZero(mp.mpf(14), 64, 200))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(record):
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record) and other == record
        assert field_values(other) == field_values(record)


@pytest.mark.parametrize("bits", [True, False, 192.0, "192"])
def test_precision_context_rejects_a_non_int(bits):
    with pytest.raises(TypeError, match="bits must be an int"):
        PrecisionContext(bits)


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this process already imports dataclasses through tests/oracles.py
    code = ("import sys, npcount, npcount.cli; npcount.bundled_zeros(); "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
