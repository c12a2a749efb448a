import pytest

import npcount.rho as rho_mod
from npcount import SlopeRange, count_series
from npcount.rho import RhoTable, rho_recurrence_table

import golden
import oracles
from oracles import admissible_segments, count_segment_multisets, rho_bruteforce


@pytest.fixture(scope="module")
def table15():
    return rho_recurrence_table(15)


def test_matches_reference_triangle(table15):
    assert table15.rows == golden.RHO_ROWS


@pytest.mark.parametrize("h,d,want", [(3, 1, 2), (7, 4, 7), (15, 6, 212), (5, 5, 0), (9, 0, 1)])
def test_spot_values(table15, h, d, want):
    assert table15.rows[h][d] == want


def test_negative_height_rejected():
    with pytest.raises(ValueError):
        rho_recurrence_table(-1)


def test_height_zero_table():
    t = rho_recurrence_table(0)
    assert t.rows == ((1,),) and t.max_height == 0
    assert list(t.entries()) == [(0, 0, 1)]


def test_bruteforce_examples():
    assert rho_bruteforce(3, 1) == 2
    for h in range(0, 12):
        assert rho_bruteforce(h, 0) == 1


def test_bruteforce_height_cap():
    with pytest.raises(ValueError):
        rho_bruteforce(41, 2)


def test_recurrence_equals_bruteforce_up_to_10():
    t = rho_recurrence_table(10)
    for h in range(11):
        for d in range(h + 1):
            assert t.rows[h][d] == rho_bruteforce(h, d), (h, d)


def test_equals_bilinear_recurrence_up_to_30():
    assert rho_recurrence_table(30).rows == oracles.rho_bilinear_reference(30)


def test_slot_overflow_raises(monkeypatch):
    # a bound a(h) = 1 gives 1-byte slots, which ρ at h = 30 overflows
    monkeypatch.setattr(rho_mod, "count_series", lambda slope_range, limit: [1] * (limit + 1))
    with pytest.raises(ArithmeticError):
        rho_recurrence_table(30)


def test_duality_up_to_10(table15):
    # counting with slopes in (0, 1] at depth h-d equals the [0, 1) count at depth d
    for h in range(1, 11):
        segs = admissible_segments(h, lambda n, m: 0 < n <= m)
        for d in range(h + 1):
            assert count_segment_multisets(segs, h, h - d) == table15.rows[h][d], (h, d)


def test_row_sums_match_count_series(table15):
    series = count_series(SlopeRange.HALF_OPEN_01, 15)
    for h in range(16):
        assert sum(table15.rows[h]) == series[h]


def test_entries_iteration_order(table15):
    entries = list(table15.entries())
    assert entries[0] == (0, 0, 1)
    assert entries[-1] == (15, 15, 0)
    assert len(entries) == 136
