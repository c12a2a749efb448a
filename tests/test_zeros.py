import mpmath as mp
import pytest

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
from npcount.zeros import _refine_history

import golden


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

    def test_bundled_catalog(self):
        zs = bundled_zeros()
        assert len(zs) == 100
        assert all(a.t < b.t for a, b in zip(zs, zs[1:]))
        for z, want in zip(zs, golden.ZERO_T_8DP):
            assert abs(z.t - mp.mpf(want)) < mp.mpf("1e-8")


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

        def counted(name, fn):
            def wrapped(s, ctx):
                calls.append((name, ctx.bits))
                return fn(s, ctx)
            return wrapped

        monkeypatch.setattr(zmod, "zeta_with_derivative",
                            counted("pair", zmod.zeta_with_derivative))
        monkeypatch.setattr(zmod, "complex_zeta", counted("zeta", zmod.complex_zeta))
        ctx = PrecisionContext(bits)
        for z in bundled_zeros()[:25]:
            calls.clear()
            refine_zero(z.t, ctx)
            assert calls.count(("pair", bits)) <= 1
            assert calls.count(("zeta", bits)) == 1
            assert calls[-1] == ("zeta", bits)
