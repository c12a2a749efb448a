import random
import re
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

import npcount.asymptotics as amod
import npcount.zeros as zmod

from npcount import (
    NonConvergenceError,
    PrecisionContext,
    ZeroFileError,
    ZetaZero,
    bundled_zeros,
    load_zeros,
    refine_catalog,
    refine_zero,
    zeta_with_derivative,
)
from npcount import special
from npcount.precision import GUARD_BITS
from npcount.zeros import _TABLE_PRECISION, _refine_history

import golden
from conftest import bundled_table


class TestLoading:
    def test_three_zero_file(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725\n21.022040\n25.010858\n")
        zs = load_zeros(f)
        assert len(zs) == 3
        assert all(z.bits is None for z in zs)
        assert float(zs[0].t) == pytest.approx(14.134725)

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("# header\n\n14.1347  # first\n21.0220\n")
        assert len(load_zeros(f)) == 2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("")
        assert load_zeros(f) == []

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("abc\n")
        with pytest.raises(ZeroFileError, match=":1:"):
            load_zeros(f)

    def test_non_monotonic_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.1\n14.1\n")
        with pytest.raises(ZeroFileError, match="increasing"):
            load_zeros(f)

    def test_nonpositive_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("-3.0\n")
        with pytest.raises(ZeroFileError):
            load_zeros(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_zeros(tmp_path / "nope.txt")

    def test_seed_bits_count_the_digits_after_the_point(self, tmp_path):
        # the largest s with 2^s <= t 10^d, d the places after the point less the
        # exponent, at most 256: at any d (a 400-digit exponent is never converted)
        # and any mantissa length (5001 digits would pass int()'s limit of 4300)
        f = tmp_path / "zeros.txt"
        f.write_text("1e-" + "9" * 400 + "\n1e-5\n1." + "0" * 5000 + "\n14.1347\n2.10220e1\n25\n")
        zs = load_zeros(f)
        assert [z.seed_bits for z in zs] == [0, 0, 256, 17, 17, 4]
        assert zs[3] == ZetaZero(zs[3].t) and hash(zs[3]) == hash(ZetaZero(zs[3].t))  # not compared

    def test_seed_bits_against_the_exact_integer(self, tmp_path):
        # oracle: N = t 10^d as a Fraction; below the cap, 2^s <= N < 2^(s+1)
        rng = random.Random(30)
        lines = {}
        for _ in range(300):
            digits = str(rng.randrange(1, 10 ** rng.randrange(1, 90))) + "0" * rng.randrange(3)
            point = rng.randrange(len(digits) + 1)
            line = digits[:point] + "." + digits[point:] if point < len(digits) else digits
            if rng.random() < 0.5:
                line += f"e{rng.randrange(-40, 41)}"
            lines.setdefault(Fraction(line), line)
        f = tmp_path / "zeros.txt"
        f.write_text("".join(lines[t] + "\n" for t in sorted(lines)))
        for t, z in zip(sorted(lines), load_zeros(f)):
            mantissa, _, exponent = lines[t].partition("e")
            d = len(mantissa.partition(".")[2]) - int(exponent or 0)
            n = t * Fraction(10) ** d
            assert n.denominator == 1, lines[t]
            s = z.seed_bits
            assert 2 ** s <= n, lines[t]
            assert s == 256 or n < 2 ** (s + 1), lines[t]

    def test_one_context_parses_as_each_line_alone(self):
        want = [_TABLE_PRECISION.real(line) for line in bundled_table()]
        assert [z.t for z in bundled_zeros()] == want
        assert min(z.seed_bits for z in bundled_zeros()) >= 245

    def test_bundled_catalog(self):
        zs = bundled_zeros()
        assert len(zs) == 100
        assert all(a.t < b.t for a, b in zip(zs, zs[1:]))
        for z, want in zip(zs, golden.ZERO_T_8DP):
            assert abs(z.t - mp.mpf(want)) < mp.mpf("1e-8")
        # they are the first 100: N(T) counts the zeros with 0 < t <= T, and
        # t_100 = 236.524... < 237.1 < t_101 = 237.770...
        assert 236.4 < zs[-1].t < 237.1
        with mp.workdps(15):
            assert mp.nzeros(236.4) == 99
            assert mp.nzeros(237.1) == 100

    @pytest.mark.parametrize("k", [0, 1, 3, 25, 99, 100])
    def test_first_k_are_the_first_k_of_the_whole_table(self, k):
        whole = bundled_zeros()
        first = bundled_zeros(k)
        assert [(z.t, z.bits, z.seed_bits) for z in first] == \
            [(z.t, z.bits, z.seed_bits) for z in whole[:k]]

    @pytest.mark.parametrize("k", [-1, 101])
    def test_k_outside_the_table_is_refused(self, k):
        with pytest.raises(ValueError, match=rf"k must be in \[0, 100\], got {k}"):
            bundled_zeros(k)

    def test_admit_sees_the_line_count_before_any_conversion(self, tmp_path, monkeypatch):
        f = tmp_path / "zeros.txt"
        f.write_text("# three\n14.1347\n\n21.0220\n25.0109\n")
        seen = []

        def forbidden(*args, **kwargs):
            raise AssertionError("a seed was converted before admit ran")

        def admit(lines):
            seen.append(lines)
            raise RuntimeError("refused")
        monkeypatch.setattr(zmod, "ZetaZero", forbidden)
        with pytest.raises(RuntimeError, match="refused"):
            load_zeros(f, 1, admit)
        assert seen == [3]

    @pytest.mark.parametrize("bad,message", [
        ("abc", "not a decimal number: 'abc'"),
        ("1e" + "9" * 5000, "not a decimal number"),  # int() reads no exponent this long
        ("-3.0", "t must be positive, got '-3.0'"),
        ("0.000e5", "t must be positive"),
        ("25.0109", "values must be strictly increasing"),
        ("2.50109e1", "values must be strictly increasing"),
    ])
    @pytest.mark.parametrize("k", [None, 0, 2, 3])
    def test_every_line_is_checked_whatever_k(self, tmp_path, bad, message, k):
        # line 5 is the fourth entry, past every k but None
        f = tmp_path / "zeros.txt"
        f.write_text(f"14.1347\n21.0220\n# comment\n25.0109\n{bad}\n")
        with pytest.raises(ZeroFileError, match=f":5: {re.escape(message)}"):
            load_zeros(f, k)

    @pytest.mark.parametrize("k", [None, 0, 1, 2])
    @pytest.mark.parametrize("first,second,read", [
        ("14.1347", "14.1347" + "0" * 80 + "1", False),
        ("9." + "9" * 89, "10", False),  # 10 - 10^-89 rounds up to 10
        ("1." + "2" * 69, "1." + "2" * 69 + "3", True),  # 70 digits agree: 2^-231 apart
        ("1." + "2" * 75, "1." + "2" * 75 + "3", True),  # 2^-251 apart: converted, no tie
    ], ids=["81-digits", "power-of-ten", "70-digits-agree", "76-digits-agree"])
    def test_a_tie_at_256_bits_is_refused_whatever_k(self, tmp_path, k, first, second, read):
        # the entries differ as decimals; a tie leaves them one 256-bit seed
        f = tmp_path / "zeros.txt"
        f.write_text(f"{first}\n{second}\n21.0220\n")
        if read:
            zs = load_zeros(f, k)
            assert len(zs) == (3 if k is None else k)
            assert all(a.t < b.t for a, b in zip(zs, zs[1:]))
            return
        with pytest.raises(ZeroFileError, match=":2: values must be strictly increasing"):
            load_zeros(f, k)

    def test_the_check_pass_converts_only_near_ties(self, tmp_path, monkeypatch):
        # with k = 0 every conversion is the check's; the bundled table crosses
        # 100 (98.83 to 101.31), which its heads compare at one exponent
        converted = []

        def spy(x):
            converted.append(x)
            return mp.mpf(x)
        monkeypatch.setattr("npcount.precision.read_real", spy)
        bundled_zeros(0)
        assert converted == []
        f = tmp_path / "zeros.txt"
        f.write_text("1." + "2" * 75 + "\n1." + "2" * 75 + "3\n")
        load_zeros(f, 0)
        assert len(converted) == 2

    @pytest.mark.parametrize("k", [None, 0, 1, 2])
    @pytest.mark.parametrize("line,read", [
        ("2" + "1" * 5000 + "e-4999", False),  # 21.11...
        ("0" * 4299 + "21.5", False),  # mpmath's int() reads the leading zeros too
        ("21." + "1" * 4298, True),
        ("21." + "1" * 4299, False),
        ("21." + "1" * 4298 + "0" * 900, True),  # mpmath drops the fraction's trailing zeros
    ], ids=["5001-digits", "leading-zeros", "4300-digits", "4301-digits", "trailing-zeros"])
    def test_a_mantissa_too_long_for_int_is_refused_whatever_k(self, tmp_path, k, line, read):
        f = tmp_path / "zeros.txt"
        f.write_text(f"14.1347\n{line}\n")
        if read:
            assert len(load_zeros(f, k)) == (2 if k is None else k)
            return
        with pytest.raises(ZeroFileError, match=":2: over 4300 digits: '") as info:
            load_zeros(f, k)
        assert len(str(info.value)) < len(str(f)) + 100

    def test_order_is_exact_on_the_decimal_digits(self, tmp_path):
        # the check compares decimals, never binary roundings of them
        rng = random.Random(5)
        texts = []
        for _ in range(400):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 6)))
            point = rng.randint(0, len(digits))
            text = "0" * rng.randint(0, 2) + digits[:point] + "." + digits[point:]
            if rng.random() < 0.5:
                text += f"e{rng.randint(-4, 4)}"
            texts.append(text)
        pairs = [(a, b) for a, b in zip(texts, texts[1:])
                 if Decimal(a) > 0 and Decimal(b) > 0]
        assert len(pairs) > 300
        for a, b in pairs:
            f = tmp_path / "pair.txt"
            f.write_text(f"{a}\n{b}\n")
            if Decimal(a) < Decimal(b):
                assert len(load_zeros(f, 0)) == 0
            else:
                with pytest.raises(ZeroFileError, match=":2: values must be strictly increasing"):
                    load_zeros(f, 0)

    def test_far_exponents_are_compared_exactly(self, tmp_path):
        # beyond the exponents decimal.Decimal holds; the zero-file bound refuses them later
        far = "e9999999999999999999999"
        f = tmp_path / "zeros.txt"
        f.write_text(f"1{far}\n1.{'0' * 68}1{far}\n")
        assert len(load_zeros(f, 0)) == 0
        # 10^-85 apart, these two round to one 256-bit seed
        f.write_text(f"1{far}\n1.{'0' * 84}1{far}\n")
        with pytest.raises(ZeroFileError, match=":2: values must be strictly increasing"):
            load_zeros(f, 0)
        f.write_text("1e9999999999999999999999\n10e9999999999999999999998\n")
        with pytest.raises(ZeroFileError, match=":2: values must be strictly increasing"):
            load_zeros(f, 0)


@pytest.fixture
def no_pass(monkeypatch):
    """Any ζ pass fails the test: the seeds must be refused before one runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a pass ran before the seeds were checked")
    monkeypatch.setattr(zmod, "zeta_with_derivative", forbidden)
    monkeypatch.setattr(zmod, "complex_zeta", forbidden)


class TestRefinement:
    @pytest.mark.parametrize("seed,want", list(zip(("14.1347", "21.0220", "25.0109"),
                                                   golden.ZERO_T_8DP)))
    def test_golden_eight_decimals(self, ctx, seed, want):
        t = refine_zero(seed, ctx)
        assert abs(t - mp.mpf(want)) < mp.mpf("1e-8")

    def test_residual_contract(self, ctx):
        t = refine_zero("14.1347", ctx)
        with ctx.working():
            z, _ = zeta_with_derivative(mp.mpc(mp.mpf(1) / 2, t), ctx)
        assert abs(z) <= mp.mpf(2) ** (24 - ctx.bits)

    def test_zero_file_entry_far_up_the_line(self, tmp_path):
        # the 3,000,000th zero: |ζ′| t ≈ 4.3e7 > 2^25, so rounding t to 64
        # bits alone leaves |ζ| above 2^(24 - 64) at the returned t
        f = tmp_path / "far.txt"
        f.write_text("1642800.2869\n")
        ctx = PrecisionContext(64)
        [z] = refine_catalog(load_zeros(f), ctx)
        with mp.workprec(200):
            want = mp.mpf("1642800.28688467210891808758040767174654127976")
            assert z.t == ctx.round(want)
            s = mp.mpc(mp.mpf(1) / 2, z.t)
            assert abs(mp.zeta(s)) > mp.mpf(2) ** (24 - ctx.bits)

    def test_check_above_the_strip_takes_zeta_alone(self, tmp_path, monkeypatch):
        # there mpmath's ζ′ is a call of its own: the check takes its δ from
        # the ζ′ of the step before it, and still returns the rounded zero
        calls = []
        for name in ("zeta_with_derivative", "complex_zeta"):
            fn = getattr(zmod, name)
            monkeypatch.setattr(zmod, name, lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
        f = tmp_path / "above.txt"
        f.write_text("2000.43451530243224677689\n")
        ctx = PrecisionContext(64)
        [seed] = load_zeros(f)
        t = refine_zero(seed.t, ctx, seed.seed_bits)
        assert calls == ["zeta_with_derivative", "complex_zeta"]
        with mp.workprec(200):
            assert t == ctx.round(mp.mpf("2000.4345153024322467768943364706327875"))

    def test_residuals_quadratic(self, ctx):
        _, residuals = _refine_history("21.0220", ctx)
        floor = mp.mpf(2) ** (40 - ctx.bits)
        above = [r for r in residuals if r > floor]
        assert len(above) >= 3
        r0, r1, r2 = above[-3:]
        assert r1 <= r0 ** mp.mpf("1.8")
        assert r2 <= r1 ** mp.mpf("1.8")

    def test_refined_is_fixed_point(self, ctx):
        t = refine_zero("25.0109", ctx)
        assert refine_zero(t, ctx) == t

    def test_nonconvergence_is_reported(self):
        # an iteration budget of zero can never meet the residual target
        import npcount.zeros as zmod
        original = zmod.MAX_NEWTON_ITERATIONS
        zmod.MAX_NEWTON_ITERATIONS = 0
        try:
            with pytest.raises(NonConvergenceError):
                refine_zero("14.1347", PrecisionContext(64))
        finally:
            zmod.MAX_NEWTON_ITERATIONS = original

    def test_catalog_refinement_marks_and_preserves_order(self, ctx):
        zs = refine_catalog(bundled_zeros()[:5], ctx)
        assert all(z.bits == ctx.bits for z in zs)
        assert all(a.t < b.t for a, b in zip(zs, zs[1:]))
        refined_again = refine_catalog(zs, ctx)
        assert refined_again == zs

    def test_two_seeds_of_one_zero_are_rejected(self):
        # 14.13 and 14.14 both converge to t1: summed, its oscillation would count twice
        seeds = [ZetaZero(mp.mpf("14.13")), ZetaZero(mp.mpf("14.14"))]
        with pytest.raises(NonConvergenceError, match=r"t0=14\.13 and t0=14\.14 refine to "
                                                      r"t=14\.1347251417347 and t=14\.1347251417347"):
            refine_catalog(seeds, PrecisionContext(64))

    @pytest.mark.parametrize("t", ["-14.134725141734693790457251983562470270784", "0"])
    def test_seed_with_t_not_above_zero_is_rejected_before_any_pass(self, monkeypatch, t):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pass ran before the seeds were checked")
        monkeypatch.setattr(zmod, "zeta_with_derivative", forbidden)
        monkeypatch.setattr(zmod, "complex_zeta", forbidden)
        seeds = bundled_zeros()[:1] + [ZetaZero(mp.mpf(t))]
        with pytest.raises(ValueError, match="t > 0"):
            refine_catalog(seeds, PrecisionContext(64))

    @pytest.mark.parametrize("t, message", [("-14.1347", "t > 0"), ("0", "t > 0"), (0, "t > 0"),
                                            (float("inf"), "finite"), (mp.inf, "finite")],
                             ids=["negative-text", "zero-text", "zero-int", "inf-float", "inf-mpf"])
    def test_refine_zero_refuses_a_seed_not_above_zero_or_not_finite(self, no_pass, t, message):
        # "-14.1347" once refined to -14.1347..., and inf raised mpmath's bare conversion error
        with pytest.raises(ValueError, match=f"zero seeds must .*{message}"):
            refine_zero(t, PrecisionContext(64))

    def test_infinite_seed_is_rejected_before_any_pass(self, no_pass):
        seeds = bundled_zeros()[:1] + [ZetaZero(mp.inf)]
        with pytest.raises(ValueError, match="zero seeds must be finite"):
            refine_catalog(seeds, PrecisionContext(64))

    @pytest.mark.parametrize("text", ["14.13_47", "0.01_4", " 14.1347 ", "inf"])
    def test_seed_text_that_is_not_a_plain_decimal_is_refused(self, text):
        # mpmath alone reads 14.13_47 as 14.1347
        with pytest.raises(ValueError, match="not a plain decimal number"):
            refine_zero(text, PrecisionContext(64))

    @pytest.mark.parametrize("seed", ["14.1347", 14.1347, 14, mp.mpf("14.1347", prec=200)])
    def test_seed_is_mpmaths_reading_at_the_working_precision(self, seed):
        ctx = PrecisionContext(64)
        with ctx.working():
            read = mp.mpf(seed)
        assert refine_zero(seed, ctx) == refine_zero(read, ctx)

    def test_refined_zeros_out_of_order_are_rejected(self, first25):
        z1, z2 = first25(64)[:2]
        with pytest.raises(NonConvergenceError, match="strictly increasing"):
            refine_catalog([z2, z1], PrecisionContext(64))


class TestLadder:
    @pytest.mark.parametrize("bits", [64, 192, 512])
    @pytest.mark.parametrize("j", [1, 2, 25])
    def test_within_one_ulp_of_zetazero(self, first25, bits, j):
        t = first25(bits)[j - 1].t
        with mp.workprec(bits + 64):
            want = mp.zetazero(j).imag
            assert abs(t - want) <= mp.ldexp(1, mp.mag(want) - bits)

    @pytest.mark.parametrize("bits", [192, 1024])
    def test_one_full_precision_step_per_zero(self, monkeypatch, bits):
        calls = []
        pair = zmod.zeta_with_derivative

        def counted(s, ctx, shifted=False):
            calls.append(("check" if shifted else "pair", ctx.bits))
            return pair(s, ctx, shifted=shifted)

        monkeypatch.setattr(zmod, "zeta_with_derivative", counted)
        ctx = PrecisionContext(bits)
        for z in bundled_zeros()[:25]:
            calls.clear()
            refine_zero(z.t, ctx, z.seed_bits)
            assert calls.count(("pair", bits)) <= 1
            assert calls.count(("check", bits)) == 1
            assert calls[-1] == ("check", bits)


class TestSeeds:
    """The seed's digits choose where refinement starts; the result never depends on them."""

    def test_zero_refined_at_more_bits_is_a_seed_that_holds_them(self, monkeypatch, first25):
        # refined at 512 bits and handed back at 192, each zero holds the
        # working precision: its one pass is the check, as for a bundled seed
        want, refined = first25(192), first25(512)
        assert [z.seed_bits for z in refined] == [512] * 25
        special._pass_cache.clear()
        tables, build = [], special._powers  # one powers table per pass
        monkeypatch.setattr(special, "_powers", lambda n, *rest: tables.append(n) or build(n, *rest))
        again = refine_catalog(refined, PrecisionContext(192))
        assert len(tables) == 25
        assert again == want

    @pytest.mark.parametrize("bits,count", [(64, 100), (192, 25)])
    def test_one_pass_route_matches_twenty_decimals(self, zero_file_20, bits, count):
        ctx = PrecisionContext(bits)
        terms = []
        for seeds in (bundled_zeros()[:count], load_zeros(zero_file_20)[:count]):
            special._pass_cache.clear()
            amod._coefficient.cache_clear()
            terms.append(amod._zero_terms(seeds, ctx))
        assert terms[0] == terms[1]

    @pytest.mark.parametrize("bits", [64, 192])
    def test_digits_that_hold_nothing_cost_at_most_one_pass(self, tmp_path, monkeypatch, zero_file_20,
                                                            first25, bits):
        # each entry has 75 digits, all after the 20th decimal set to 0: the
        # seed claims far more bits than it holds, and the check catches it
        padded = tmp_path / "padded.txt"
        padded.write_text("".join(s + "0" * (len(f) - len(s)) + "\n"
                                  for f, s in zip(bundled_table(), bundled_table(20))))
        ctx, want = PrecisionContext(bits), first25(bits)
        tables, build = [], special._powers  # one powers table per pass
        monkeypatch.setattr(special, "_powers", lambda n, *rest: tables.append(n) or build(n, *rest))
        for i in (0, 1, 24):
            costs = []
            for path in (padded, zero_file_20):
                seed = load_zeros(path)[i]
                special._pass_cache.clear()
                tables.clear()
                assert refine_catalog([seed], ctx) == want[i:i + 1]
                costs.append(len(tables))
            assert load_zeros(padded)[i].seed_bits > ctx.bits + GUARD_BITS
            assert costs[0] <= costs[1] + 1, costs
