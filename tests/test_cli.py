import argparse
import csv
import hashlib
import io
import json
import math
import re

import mpmath as mp
import pytest

import npcount.asymptotics as amod
import npcount.zeros as zmod
from npcount import (
    PrecisionContext,
    SlopeRange,
    bundled_zeros,
    count_series,
    full_estimate,
    logf_expansion_check,
    refine_catalog,
    rho_recurrence_table,
    wave_sample,
)
from npcount.asymptotics import TruncationError
from npcount.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BITS,
    MAX_COUNT_HEIGHT,
    MAX_RHO_HEIGHT,
    MAX_WAVE_SAMPLES,
    MAX_ZERO_COUNT,
    MAX_ZERO_HEIGHT,
    MissingZeroError,
    build_parser,
    check_first_zeros,
    main,
)

import golden


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

    @pytest.mark.parametrize("command", [("zeros", "dump"), ("compare", "-n", "10"),
                                         ("logf-check", "--tau", "0.5"),
                                         ("wave", "--xmin", "1", "--xmax", "10", "--samples", "2"),
                                         ("count", "--max", "5")])
    @pytest.mark.parametrize("bits,held", [(64, 20), (192, 58), (1024, 309)])
    def test_above_the_precision_is_usage_error(self, capsys, monkeypatch, command, bits, held):
        # ceil(bits log10 2) digits: a longer string only prints noise, and slowly
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --digits was checked")
        for name in ("bundled_zeros", "load_zeros", "count_series", "refine_catalog",
                     "full_estimate", "logf_expansion_check", "wave_sample"):
            monkeypatch.setattr(f"npcount.cli.{name}", forbidden)
        code, out, err = run(capsys, *command, "--bits", str(bits), "--digits", str(held + 1))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--digits must be <= {held}, the digits {bits} bits hold, got {held + 1}" in err
        assert "Traceback" not in err

    def test_the_bound_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "zeros", "dump", "--bits", "64", "--digits", "20")
        assert code == EXIT_OK
        assert out.splitlines()[2] == "2,21.022039638771554993"  # 20 digits


class TestLogfCheck:
    ARGV = ("logf-check", "--tau", "0.05", "--k-zeros", "0")

    def test_repeat_runs_byte_identical(self, capsys):
        first = run(capsys, *self.ARGV)
        second = run(capsys, *self.ARGV)
        assert first[0] == EXIT_OK
        assert first == second

    def test_low_bits_residuals_keep_their_digits(self, capsys):
        # the residual cancels the leading digits of (C/2) tau^-2, so C and K
        # must not be rounded to --bits first; these are the 192-bit values
        code, out, _ = run(capsys, "logf-check", "--tau", "0.01", "--tau", "0.001",
                           "--k-zeros", "0", "--bits", "64")
        assert code == EXIT_OK
        assert [r["residual"] for r in csv_rows(out)] == \
            ["8.06428184978536e-6", "1.12626152611503e-7"]

    def test_small_tau_exits_numeric_at_once(self, capsys, monkeypatch):
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        code, out, err = run(capsys, "logf-check", "--tau", "0.05", "--k-zeros", "0")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "smallest tau that fits at 192 bits" in err

    def test_no_tau_fits_under_the_cap(self, capsys, monkeypatch):
        # tau = 1 needs 161 terms at 192 bits
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 10)
        code, out, err = run(capsys, "logf-check", "--tau", "1", "--k-zeros", "0")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "none: even tau=1 needs more terms" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("taus", [("2",), ("0.5", "2")])
    def test_bad_tau_is_rejected_before_refinement(self, capsys, monkeypatch, taus):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --tau was checked")
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        monkeypatch.setattr("npcount.cli.logf_expansion_check", forbidden)
        argv = ["logf-check", "--k-zeros", "25"]
        for tau in taus:
            argv += ["--tau", tau]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tau must be in (0, 1], got 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tau", ["0.01_4", "abc", "1_000", " 0.5 "])
    def test_tau_that_is_not_a_plain_decimal_is_usage_error(self, capsys, monkeypatch, tau):
        # mpmath alone reads 0.01_4 as 0.0014
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --tau was checked")
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        monkeypatch.setattr("npcount.cli.logf_expansion_check", forbidden)
        code, out, err = run(capsys, "logf-check", "--tau", "0.5", "--tau", tau, "--k-zeros", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--tau must be a plain decimal number, got {tau!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tau", ["1e-80", "1e-300"])
    def test_tau_where_x_rounds_to_one_names_the_floor(self, capsys, tau):
        # e^(-tau) rounds to 1 here, so 1 - x must not be formed by subtraction
        code, out, err = run(capsys, "logf-check", "--tau", tau, "--k-zeros", "0")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "the smallest tau that fits at 192 bits is 3.63e-05" in err
        assert "Traceback" not in err

    TAUS = ("0.5", "0.05", "0.25")
    TAU_ARGS = ("--tau", "0.5", "--tau", "0.05", "--tau", "0.25")

    @staticmethod
    def count_tables(monkeypatch):
        """The term counts of the weight tables built from here on, with none kept before."""
        sizes, build = [], amod.log_derivative_weights
        monkeypatch.setattr(amod, "_weights", [])
        monkeypatch.setattr(amod, "log_derivative_weights",
                            lambda family, limit: sizes.append(limit) or build(family, limit))
        return sizes

    def test_one_weight_table_per_run(self, capsys, monkeypatch):
        sizes = self.count_tables(monkeypatch)
        assert run(capsys, "logf-check", *self.TAU_ARGS, "--k-zeros", "0")[0] == EXIT_OK
        assert sizes == [logf_expansion_check("0.05", (), PrecisionContext(192)).terms]

    def test_rows_in_input_order_as_single_runs(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "logf-check", *self.TAU_ARGS, "--k-zeros", "2")
        singles = []
        for tau in self.TAUS:
            monkeypatch.setattr(amod, "_weights", [])  # each builds a table of its own length
            single = run(capsys, "logf-check", "--tau", tau, "--k-zeros", "2")
            assert single[0] == EXIT_OK
            singles.append(single[1].splitlines()[1])
        assert code == EXIT_OK
        assert out.splitlines()[1:] == singles

    def test_taus_over_the_cap_name_the_smallest_before_any_table(self, capsys, monkeypatch):
        # 0.5 fits in 1000 terms at 192 bits, 0.05 and 0.02 do not
        sizes = self.count_tables(monkeypatch)
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        code, out, err = run(capsys, "logf-check", "--tau", "0.5", "--tau", "0.05",
                             "--tau", "0.02", "--k-zeros", "0")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "direct sum at tau=0.02 needs more than 1000 terms" in err
        assert sizes == []

    def test_tau_over_the_cap_fails_before_any_zero_is_refined(self, capsys, monkeypatch):
        # else --tau 1e-7 at 1024 bits refines 25 zeros (1.4 s) before it fails
        def forbidden(*args, **kwargs):
            raise AssertionError("zeros refined before the term cap was checked")
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        code, out, err = run(capsys, "logf-check", "--tau", "0.5", "--tau", "0.02",
                             "--tau", "0.05", "--k-zeros", "25")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "direct sum at tau=0.02 needs more than 1000 terms" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bits", [64, 192, 1024])
    def test_reported_tau_floor_is_tight(self, capsys, monkeypatch, bits):
        ctx = PrecisionContext(bits)
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 1000)
        _, _, err = run(capsys, "logf-check", "--tau", "0.05", "--k-zeros", "0", "--bits", str(bits))
        floor = re.search(rf"fits at {bits} bits is (\S+)$", err.strip()).group(1)
        assert logf_expansion_check(floor, (), ctx).terms <= 1000
        with pytest.raises(TruncationError):
            logf_expansion_check(float(floor) * 0.99, (), ctx)
        # a float root 1% low: the exact bound steps it up to the same floor
        model = amod._logf_log_tail
        monkeypatch.setattr(amod, "_logf_log_tail",
                            lambda tau, b, c=mp: model(tau * 1.01 if c is math else tau, b, c))
        _, _, skewed = run(capsys, "logf-check", "--tau", "0.05", "--k-zeros", "0", "--bits", str(bits))
        assert skewed == err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestOutput:
    # subcommand -> (argv, header)
    RUNS = {
        "count": (("count", "--max", "30"), ["n", "count"]),
        "rho": (("rho", "--max-height", "8"), ["h", "d", "rho"]),
        "compare": (("compare", "-n", "10", "-n", "50", "--k-zeros", "2", "--bits", "128"),
                    ["n", "log10_count", "log10_leading", "log10_estimate", "residual_log"]),
        "wave": (("wave", "--xmin", "1", "--xmax", "100", "--samples", "3", "--bits", "64"),
                 ["x", "y"]),
        "zeros-dump": (("zeros", "dump", "--bits", "64"), ["index", "t"]),
        "logf-check": ((*TestLogfCheck.ARGV, "--bits", "128"),
                       ["tau", "direct", "expansion", "residual"]),
    }
    INDEXES = {"n", "h", "d", "index"}

    @pytest.mark.parametrize("name", list(RUNS))
    def test_csv_and_json_carry_the_same_numbers(self, capsys, name):
        argv, header = self.RUNS[name]
        code_csv, text_csv, _ = run(capsys, *argv)
        code_json, text_json, _ = run(capsys, *argv, "--format", "json")
        assert code_csv == code_json == EXIT_OK
        rows = csv_rows(text_csv)
        objects = json.loads(text_json)
        assert rows == [{col: str(v) for col, v in obj.items()} for obj in objects]
        assert list(rows[0]) == header
        # CSV cells are joined without quoting, so none may need it
        assert not any(ch in str(v) for obj in objects for v in obj.values() for ch in ',"\n')
        # indexes are JSON numbers; counts and floating values are strings
        assert all(isinstance(v, int) if col in self.INDEXES else isinstance(v, str)
                   for obj in objects for col, v in obj.items())


class TestFrozenBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", list(golden.CLI_STDOUT_SHA256), ids=" ".join)
    def test_stdout_keeps_its_bytes(self, capsys, argv, fmt):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden.CLI_STDOUT_SHA256[argv][fmt]


class TestCount:
    @pytest.mark.parametrize("argv", [("count", "--max", "300"),
                                      ("rho", "--max-height", "20")])
    def test_repeat_runs_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == EXIT_OK
        assert first == second

    @pytest.mark.parametrize("slope_range", list(SlopeRange), ids=lambda r: f"{r.value}-{r}")
    def test_rows_equal_library_values(self, capsys, slope_range):
        for limit in (60, 0):
            code, out, _ = run(capsys, "count", "--max", str(limit), "--range", slope_range.value)
            assert code == EXIT_OK
            rows = csv_rows(out)
            assert [(int(r["n"]), int(r["count"])) for r in rows] == \
                list(enumerate(count_series(slope_range, limit).values))

    def test_rho_rows_equal_library_table(self, capsys):
        code, out, _ = run(capsys, "rho", "--max-height", "25")
        assert code == EXIT_OK
        rows = [(int(r["h"]), int(r["d"]), int(r["rho"])) for r in csv_rows(out)]
        assert rows == list(rho_recurrence_table(25).entries())


class TestBounds:
    @pytest.mark.parametrize("argv,flag", [
        (("count", "--max", "-1"), "--max"),
        (("count", "--max", str(MAX_COUNT_HEIGHT + 1)), "--max"),
        (("count", "--max", str(MAX_COUNT_HEIGHT + 1), "--range", "symmetric"), "--max"),
        (("rho", "--max-height", "-1"), "--max-height"),
        (("rho", "--max-height", str(MAX_RHO_HEIGHT + 1)), "--max-height"),
        (("compare", "-n", "0"), "-n"),
        (("compare", "-n", "10", "-n", str(MAX_COUNT_HEIGHT + 1)), "-n"),
        (("count", "--max", "5", "--bits", str(MAX_BITS + 1)), "--bits"),
        (("count", "--max", "5", "--bits", "63"), "bits"),
        (("wave", "--xmin", "1", "--xmax", "10", "--samples", "0"), "--samples"),
        (("wave", "--xmin", "1", "--xmax", "10", "--samples", str(MAX_WAVE_SAMPLES + 1)), "--samples"),
    ])
    def test_out_of_range_is_usage_error(self, capsys, monkeypatch, argv, flag):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the bound was checked")
        monkeypatch.setattr("npcount.cli.count_series", forbidden)
        monkeypatch.setattr("npcount.cli.rho_recurrence_table", forbidden)
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        monkeypatch.setattr("npcount.cli.wave_sample", forbidden)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [("zeros", "refine"),
                                         ("compare", "-n", "10", "--k-zeros", "1"),
                                         ("logf-check", "--tau", "0.5", "--k-zeros", "1")])
    def test_zero_far_over_the_height_bound_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                                           command):
        # refining t = 1e30 runs out of memory inside mpmath's ζ
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the bound was checked")
        monkeypatch.setattr("npcount.cli.count_series", forbidden)
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        path = tmp_path / "zeros.txt"
        path.write_text("1e30\n")
        code, out, err = run(capsys, *command, "--zero-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "--zero-file" in err
        assert "Traceback" not in err

    def test_zero_height_bound_reads_only_the_zeros_refined(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text(f"14.13\n{10 * MAX_ZERO_HEIGHT}\n")
        code, out, _ = run(capsys, "zeros", "dump", "--zero-file", str(path))
        assert code == EXIT_OK
        assert [float(r["t"]) for r in csv_rows(out)] == [14.13, 10 * MAX_ZERO_HEIGHT]
        code, out, _ = run(capsys, "compare", "-n", "10", "--k-zeros", "1", "--bits", "64",
                           "--zero-file", str(path))
        assert code == EXIT_OK
        assert len(csv_rows(out)) == 1

    def test_bounds_are_inclusive(self, capsys):
        code, out, _ = run(capsys, "count", "--max", "3", "--bits", str(MAX_BITS))
        assert code == EXIT_OK
        assert out == "n,count\n0,1\n1,1\n2,2\n3,4\n"


class TestWave:
    @pytest.mark.parametrize("linear", [False, True])
    def test_rows_equal_wave_sample(self, capsys, linear):
        argv = ["wave", "--xmin", "1", "--xmax", "1e6", "--samples", "5"]
        if linear:
            argv.append("--linear-x")
        first = run(capsys, *argv)
        assert first[0] == EXIT_OK
        assert run(capsys, *argv) == first
        ctx = PrecisionContext(192)
        first_zero = refine_catalog(bundled_zeros()[:1], ctx)
        want = []
        with ctx.working():
            lo, hi = mp.mpf(1), mp.mpf("1e6")
            for i in range(5):
                if linear:
                    x = lo + (hi - lo) * i / 4
                else:
                    x = lo * (hi / lo) ** (mp.mpf(i) / 4)
                want.append({"x": mp.nstr(x, 15), "y": mp.nstr(wave_sample(x, first_zero, ctx), 15)})
        assert csv_rows(first[1]) == want

    @pytest.mark.parametrize("linear", [False, True])
    def test_one_sample_is_at_xmin(self, capsys, linear):
        argv = ["wave", "--xmin", "3", "--xmax", "1e6", "--samples", "1"]
        if linear:
            argv.append("--linear-x")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        ctx = PrecisionContext(192)
        y = wave_sample(3, refine_catalog(bundled_zeros()[:1], ctx), ctx)
        assert csv_rows(out) == [{"x": "3.0", "y": mp.nstr(y, 15)}]

    @pytest.mark.parametrize("xmin,xmax,samples", [("inf", "inf", "1"),
                                                   ("1", "inf", "2"),
                                                   ("1", "1e400", "2")])
    def test_non_finite_bounds_are_usage_errors(self, capsys, monkeypatch, xmin, xmax, samples):
        def forbidden(*args, **kwargs):
            raise AssertionError("wave sampled before its bounds were checked")
        monkeypatch.setattr("npcount.cli.refine_catalog", forbidden)
        monkeypatch.setattr("npcount.cli.wave_sample", forbidden)
        code, out, err = run(capsys, "wave", "--xmin", xmin, "--xmax", xmax, "--samples", samples)
        assert code == EXIT_USAGE
        assert out == ""
        assert "need finite --xmin and --xmax" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("xmin,xmax", [("nan", "10"), ("1", "nan"), ("+inf", "10"), ("abc", "10"),
                                           ("1", "1e"), ("0x10", "20"), ("1/2", "1"), ("1_0", "20"),
                                           (" 1", "10")])
    def test_non_decimal_bounds_are_usage_errors(self, capsys, monkeypatch, xmin, xmax):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the bounds were parsed")
        for name in ("bundled_zeros", "refine_catalog", "wave_sample"):
            monkeypatch.setattr(f"npcount.cli.{name}", forbidden)
        code, out, err = run(capsys, "wave", "--xmin", xmin, "--xmax", xmax, "--samples", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "plain decimal numbers with 0 < --xmin <= --xmax" in err
        assert f"got {xmin!r} and {xmax!r}" in err
        assert "Traceback" not in err

    def test_bounds_are_read_as_decimals(self, capsys):
        # read as a double, 0.1 printed as 0.100000000000000005551115123126
        code, out, _ = run(capsys, "wave", "--xmin", "0.1", "--xmax", "0.1", "--samples", "1",
                           "--digits", "30")
        assert code == EXIT_OK
        ctx = PrecisionContext(192)
        y = wave_sample(ctx.real("0.1"), refine_catalog(bundled_zeros()[:1], ctx), ctx)
        assert csv_rows(out) == [{"x": "0.1", "y": mp.nstr(y, 30)}]


class TestZeroCount:
    @staticmethod
    def forbid_work(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --k-zeros was checked")
        for name in ("count_series", "refine_catalog", "full_estimate", "logf_expansion_check"):
            monkeypatch.setattr(f"npcount.cli.{name}", forbidden)

    @pytest.mark.parametrize("command", [("compare", "-n", "10"),
                                         ("logf-check", "--tau", "0.5")])
    @pytest.mark.parametrize("k", ["-1", str(len(bundled_zeros()) + 1)])
    def test_outside_catalog_is_usage_error(self, capsys, monkeypatch, command, k):
        self.forbid_work(monkeypatch)
        code, out, err = run(capsys, *command, "--k-zeros", k)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--k-zeros must be in [0, {len(bundled_zeros())}], got {k}" in err
        assert "Traceback" not in err

    def test_zero_file_size_is_the_bound(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("14.1347\n21.0220\n25.0109\n")
        code, out, _ = run(capsys, "compare", "-n", "10", "--k-zeros", "3", "--zero-file", str(path))
        assert code == EXIT_OK
        assert len(csv_rows(out)) == 1
        self.forbid_work(monkeypatch)
        code, out, err = run(capsys, "compare", "-n", "10", "--k-zeros", "4", "--zero-file", str(path))
        assert code == EXIT_USAGE
        assert "--k-zeros must be in [0, 3], got 4" in err

    def test_only_the_summed_seeds_are_converted(self, capsys, monkeypatch):
        made, real = [], zmod.ZetaZero

        def counting(t, bits=None, seed_bits=None):
            made.append(bits)
            return real(t, bits, seed_bits)
        monkeypatch.setattr(zmod, "ZetaZero", counting)
        code, _, _ = run(capsys, "logf-check", "--tau", "0.5", "--k-zeros", "3", "--bits", "128")
        assert code == EXIT_OK
        assert made.count(None) == 3  # seeds; the three refined zeros carry bits

    @pytest.mark.parametrize("bad,message", [("abc", "not a decimal number: 'abc'"),
                                             ("0", "t must be positive, got '0'"),
                                             ("25.0109", "values must be strictly increasing")])
    def test_zero_file_lines_past_k_are_checked(self, capsys, monkeypatch, tmp_path, bad, message):
        path = tmp_path / "zeros.txt"
        path.write_text(f"14.1347\n21.0220\n# comment\n25.0109\n{bad}\n")
        self.forbid_work(monkeypatch)
        for command in (("compare", "-n", "10", "--k-zeros", "1"),
                        ("logf-check", "--tau", "0.5", "--k-zeros", "0"), ("zeros", "dump")):
            code, out, err = run(capsys, *command, "--zero-file", str(path))
            assert code == EXIT_IO
            assert out == ""
            assert f"npcount: I/O error: {path}:5: {message}" in err

    def test_count_bound_fails_before_any_pass(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("".join(f"{100 + i}.5\n" for i in range(MAX_ZERO_COUNT + 1)))

        def forbidden(*args, **kwargs):
            raise AssertionError("a seed was converted or a pass ran before the count was checked")
        monkeypatch.setattr("npcount.special._zeta_pair", forbidden)
        monkeypatch.setattr(zmod, "ZetaZero", forbidden)
        for command in (("zeros", "refine"),
                        ("compare", "-n", "10", "--k-zeros", str(MAX_ZERO_COUNT + 1))):
            code, out, err = run(capsys, *command, "--zero-file", str(path))
            assert code == EXIT_USAGE
            assert out == ""
            assert (f"at most {MAX_ZERO_COUNT} zeros are refined in one run, "
                    f"got {MAX_ZERO_COUNT + 1}") in err
            assert "Traceback" not in err
        monkeypatch.undo()
        code, out, _ = run(capsys, "zeros", "dump", "--zero-file", str(path), "--bits", "64")
        assert code == EXIT_OK  # dump refines nothing, so no bound
        assert len(csv_rows(out)) == MAX_ZERO_COUNT + 1


class TestFirstZeros:
    """A --zero-file's first k zeros must be the first k zeros of ζ."""

    def test_bundled_hundred_are_the_first_hundred(self, catalog):
        check_first_zeros(catalog)

    @pytest.mark.parametrize("missing", [1, 3, 50])
    def test_a_gap_names_the_first_missing_index(self, catalog, missing):
        zeros = catalog[:missing - 1] + catalog[missing:60]
        with pytest.raises(MissingZeroError, match=f"zero {missing} is missing"):
            check_first_zeros(zeros)

    def test_an_empty_catalog_passes(self, monkeypatch):
        monkeypatch.setattr(mp, "nzeros", None)
        check_first_zeros([])

    def test_a_gap_exits_numeric_before_any_estimate(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "gap.txt"  # zeros 1, 2 and 4
        path.write_text("14.134725141734693790\n21.022039638771554993\n30.424876125859513210\n")
        code, out, _ = run(capsys, "compare", "-n", "1000", "--k-zeros", "2", "--zero-file", str(path))
        assert code == EXIT_OK
        for name in ("count_series", "full_estimate"):
            monkeypatch.setattr(f"npcount.cli.{name}", lambda *a, **k: pytest.fail("estimate started"))
        code, out, err = run(capsys, "compare", "-n", "1000", "--k-zeros", "3", "--zero-file", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "npcount: numeric failure: the zeros are not the first 3: zero 3 is missing" in err
        assert "Traceback" not in err

    def test_bundled_table_is_not_counted_at_run_time(self, capsys, monkeypatch):
        monkeypatch.setattr("npcount.cli.check_first_zeros", lambda *a: pytest.fail("counted"))
        code, _, _ = run(capsys, "compare", "-n", "10", "--k-zeros", "3", "--bits", "64")
        assert code == EXIT_OK


class TestKernelCommands:
    def test_zeros_refine(self, capsys):
        first = run(capsys, "zeros", "refine", "--bits", "64")
        assert first[0] == EXIT_OK
        assert run(capsys, "zeros", "refine", "--bits", "64") == first
        rows = csv_rows(first[1])
        assert len(rows) == len(bundled_zeros())
        for row, want in zip(rows, golden.ZERO_T_8DP):
            assert abs(float(row["t"]) - float(want)) < 1e-8

    def test_compare_rows_equal_library_estimates(self, capsys):
        argv = ("compare", "-n", "10", "-n", "100", "--k-zeros", "3")
        first = run(capsys, *argv)
        assert first[0] == EXIT_OK
        assert run(capsys, *argv) == first
        assert csv_rows(first[1]) == compare_rows((10, 100), 3, 192, SlopeRange.HALF_OPEN_01)

    @pytest.mark.parametrize("family", list(SlopeRange))
    def test_compare_range_rows_equal_library_estimates(self, capsys, family):
        argv = ("compare", "-n", "10", "-n", "100", "--k-zeros", "2", "--bits", "64",
                "--range", family.value)
        first = run(capsys, *argv)
        assert first[0] == EXIT_OK
        assert run(capsys, *argv) == first
        assert csv_rows(first[1]) == compare_rows((10, 100), 2, 64, family)

    def test_compare_range_defaults_to_half_open(self, capsys):
        argv = ("compare", "-n", "10", "-n", "100", "--k-zeros", "2", "--bits", "64")
        assert run(capsys, *argv) == run(capsys, *argv, "--range", "half-open")

    def test_compare_bad_range_is_usage_error(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --range was checked")
        for name in ("count_series", "refine_catalog", "full_estimate"):
            monkeypatch.setattr(f"npcount.cli.{name}", forbidden)
        with pytest.raises(SystemExit) as exc:
            main(["compare", "-n", "10", "--range", "open"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert "invalid choice: 'open'" in err

    def test_out_writes_the_stdout_bytes(self, capsys, tmp_path):
        argv = ("wave", "--xmin", "1", "--xmax", "1e6", "--samples", "5")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        path = tmp_path / "wave.csv"
        code, quiet, _ = run(capsys, *argv, "--out", str(path))
        assert code == EXIT_OK
        assert quiet == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_nonconvergence_is_numeric_failure(self, capsys, monkeypatch, tmp_path):
        # an iteration budget of zero can never meet the residual target
        monkeypatch.setattr(zmod, "MAX_NEWTON_ITERATIONS", 0)
        path = tmp_path / "zeros.txt"
        path.write_text("14.1347\n")
        code, out, err = run(capsys, "zeros", "refine", "--bits", "64", "--zero-file", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "npcount: numeric failure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [("zeros", "refine"),
                                         ("compare", "-n", "1000", "--k-zeros", "2")])
    def test_two_seeds_of_one_zero_is_numeric_failure(self, capsys, tmp_path, command):
        # both seeds converge to t1, whose oscillation compare would otherwise sum twice
        path = tmp_path / "zeros.txt"
        path.write_text("14.13\n14.14\n")
        code, out, err = run(capsys, *command, "--zero-file", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "t0=14.13 and t0=14.14 refine to t=14.1347251417347 and t=14.1347251417347" in err
        assert "Traceback" not in err

    def test_exponent_of_hundreds_of_digits_is_read(self, capsys, tmp_path):
        # an exponent of 400 digits is checked but never converted: seed_bits
        # comes from the mantissa's digits, and t from mpmath, which holds it
        path = tmp_path / "zeros.txt"
        path.write_text("1e-" + "9" * 400 + "\n")
        code, out, err = run(capsys, "zeros", "dump", "--zero-file", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert [row["index"] for row in csv_rows(out)] == ["1"]
        assert csv_rows(out)[0]["t"].endswith("e-" + "9" * 400)
        code, out, err = run(capsys, "zeros", "refine", "--zero-file", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "did not reach" in err
        assert "Traceback" not in err

    def test_mantissa_of_thousands_of_digits_is_read(self, capsys, tmp_path):
        # seed_bits reads the first 256 of 5001 digits, below int()'s limit of 4300
        path = tmp_path / "zeros.txt"
        path.write_text("1." + "0" * 5000 + "\n")
        code, out, err = run(capsys, "zeros", "dump", "--zero-file", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert [(row["index"], mp.mpf(row["t"])) for row in csv_rows(out)] == [("1", 1)]

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_mantissa_too_long_for_int_is_refused_whatever_k(self, capsys, tmp_path, k):
        # line 2 is refused before any seed is refined, and quoted by its first characters
        path = tmp_path / "zeros.txt"
        path.write_text("1.5\n2." + "1" * 5000 + "\n")
        code, out, err = run(capsys, "logf-check", "--tau", "0.5", "--bits", "64",
                             "--k-zeros", k, "--zero-file", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert f"{path}:2: over 4300 digits: '2.111" in err
        assert len(err.encode()) - len(str(path)) < 100

    @pytest.mark.parametrize("argv", [("zeros", "dump"),
                                      ("logf-check", "--tau", "0.5", "--bits", "64", "--k-zeros", "1")],
                             ids=["dump", "logf-check-k1"])
    def test_tie_at_256_bits_is_refused_whatever_k(self, capsys, tmp_path, argv):
        # two lines that round to one seed; logf-check sums only line 1
        path = tmp_path / "zeros.txt"
        path.write_text("14.1347\n14.1347" + "0" * 80 + "1\n")
        code, out, err = run(capsys, *argv, "--zero-file", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert f"{path}:2: values must be strictly increasing" in err
        assert "Traceback" not in err

    def test_unrefinable_seed_fails_before_the_series(self, capsys, monkeypatch, tmp_path):
        # Newton cannot refine t0 = 0.0001; count_series(20000) would run for seconds first
        def forbidden(*args, **kwargs):
            raise AssertionError("count_series ran before the zeros were refined")
        monkeypatch.setattr("npcount.cli.count_series", forbidden)
        path = tmp_path / "zeros.txt"
        path.write_text("0.0001\n")
        code, out, err = run(capsys, "compare", "-n", "20000", "--k-zeros", "1", "--bits", "64",
                             "--zero-file", str(path))
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "npcount: numeric failure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["abc\n", "14.13\n-2\n", "21.02\n14.13\n",
                                      b"\xff\xfe14.13\n", "14.13\ninf\n", "14.134_725\n"])
    @pytest.mark.parametrize("command", [("zeros", "refine"),
                                         ("compare", "-n", "10", "--k-zeros", "1")])
    def test_malformed_zero_file_is_io_error(self, capsys, tmp_path, text, command):
        path = tmp_path / "zeros.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, out, err = run(capsys, *command, "--zero-file", str(path))
        assert code == EXIT_IO
        assert out == ""
        assert "npcount: I/O error" in err
        assert "Traceback" not in err

    def test_zero_file_line_that_is_not_a_plain_decimal_keeps_its_message(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("14.13\n21.02_2\n")
        code, out, err = run(capsys, "zeros", "dump", "--zero-file", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"npcount: I/O error: {path}:2: not a decimal number: '21.02_2'\n"


def compare_rows(ns, k, bits, family):
    """The rows ``compare`` prints for heights ns, the first k zeros and one family, from the library."""
    ctx = PrecisionContext(bits)
    zeros = refine_catalog(bundled_zeros()[:k], ctx)
    series = count_series(family, max(ns))
    rows = []
    with ctx.working():
        ln10 = mp.log(10)
        for n in ns:
            est = full_estimate(n, zeros, ctx, slope_range=family)
            log_exact = mp.log(series[n])
            rows.append({
                "n": str(n),
                "log10_count": mp.nstr(log_exact / ln10, 15),
                "log10_leading": mp.nstr(est.log_main / ln10, 15),
                "log10_estimate": mp.nstr(est.log_estimate / ln10, 15),
                "residual_log": mp.nstr(log_exact - est.log_main, 15),
            })
    return rows


def subcommands():
    """name -> subparser, read from the parser that ``main`` dispatches through."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestSubcommandTable:
    def test_every_subcommand_has_a_row_producer(self):
        for name, parser in subcommands().items():
            assert callable(parser.get_default("rows")), name

    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_help_exits_zero(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_OK
        assert out.startswith(f"usage: npcount {name} ")
        assert err == ""
