import csv
import io
import json
import re

import pytest

import npcount.asymptotics as amod
from npcount import PrecisionContext, logf_expansion_check
from npcount.asymptotics import TruncationError
from npcount.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDigits:
    @pytest.mark.parametrize("digits", ["-5", "0"])
    def test_below_one_is_usage_error(self, capsys, digits):
        code, out, err = run(capsys, "compare", "-n", "10", "--digits", digits, "--k-zeros", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--digits must be >= 1" in err
        assert "Traceback" not in err


class TestLogfCheck:
    ARGV = ("logf-check", "--tau", "0.05", "--k-zeros", "0")

    def test_repeat_runs_byte_identical(self, capsys):
        first = run(capsys, *self.ARGV)
        second = run(capsys, *self.ARGV)
        assert first[0] == EXIT_OK
        assert first == second

    def test_csv_and_json_carry_the_same_numbers(self, capsys):
        code_csv, text_csv, _ = run(capsys, *self.ARGV)
        code_json, text_json, _ = run(capsys, *self.ARGV, "--format", "json")
        assert code_csv == code_json == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text_csv)))
        assert rows == json.loads(text_json)
        assert list(rows[0]) == ["tau", "direct", "expansion", "residual"]

    def test_small_tau_exits_numeric_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        code, out, err = run(capsys, "logf-check", "--tau", "0.05", "--k-zeros", "0")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "smallest tau that fits at 192 bits" in err

    def test_reported_tau_floor_is_tight(self, capsys, monkeypatch):
        ctx = PrecisionContext(192)
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        _, _, err = run(capsys, "logf-check", "--tau", "0.05", "--k-zeros", "0")
        floor = re.search(r"fits at 192 bits is (\S+)$", err.strip()).group(1)
        assert logf_expansion_check(floor, (), 0, ctx).terms <= 1000
        with pytest.raises(TruncationError):
            logf_expansion_check(float(floor) * 0.99, (), 0, ctx)
