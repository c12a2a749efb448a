import functools
import itertools

import mpmath as mp
import pytest

from npcount import (
    PrecisionContext,
    SlopeRange,
    bundled_zeros,
    count_series,
    constant_C,
    full_estimate,
    logf_expansion_check,
    refine_catalog,
    wave_sample,
)
import npcount.asymptotics as amod
from npcount import special
from npcount.asymptotics import TruncationError

import golden
import oracles
from oracles import segment_exponents, totient_sieve


def rel(a, b):
    return abs(a - b) / abs(b)


@functools.lru_cache(maxsize=None)
def oracle_modulus(t, bits):
    """|c_γ| at γ = 1/2 + i t from the four-call oracle, at bits + 64."""
    with mp.workprec(bits + 64):
        return abs(oracles.residue_coefficient_reference(t, bits))


def triangle_bound(zeros, start, stop, tau, bits):
    """Σ_{j=start..stop-1} 2 |c_γj| τ^(-1/2): no zeros start..stop-1 move osc(τ) further."""
    with mp.workprec(bits + 64):
        return sum(2 * oracle_modulus(z.t, bits) for z in zeros[start:stop]) / mp.sqrt(tau)


#: Heights of the absolute checks of the closed forms and the bound on |log a(n) - estimate|.
VARIANT_GAPS = {100: mp.mpf("1e-2"), 1000: mp.mpf("2e-3"), 10_000: mp.mpf("5e-4")}

#: Every count family of the closed form.
VARIANTS = list(SlopeRange)


@pytest.fixture(scope="module")
def exact_counts(series_half_10k, series_halfrange_10k):
    """family -> exact counts at heights 0..10^4, from the shared series.

    [0, 1]: prefix sums of the [0, 1) counts, as F/(1-x) = Σ_n (Σ_{k<=n} a(k)) x^n.
    Symmetric: half(g) + half(g-1) at genus g, the coefficients of (1 + x) F_[0,1/2].
    """
    half = series_halfrange_10k.values
    return {
        SlopeRange.HALF_OPEN_01: series_half_10k.values,
        SlopeRange.CLOSED_01: list(itertools.accumulate(series_half_10k.values)),
        SlopeRange.CLOSED_0_HALF: half,
        SlopeRange.SYMMETRIC: [1] + [a + b for a, b in zip(half[1:], half)],
    }


def wave_envelope(x, t1, ctx):
    """2 |c_γ1| C^(-1/6) x^(1/6) = 2 |c_γ1 τ(x)^(-γ1)|, the bound on |log y(x)| of the wave."""
    with mp.workprec(ctx.bits + 64):
        return 2 * oracle_modulus(t1, ctx.bits) * mp.root(mp.mpf(x) / constant_C(ctx), 6)


class TestLeadingEstimate:
    @pytest.mark.parametrize("n,text", sorted(golden.LEADING_TERM.items()))
    def test_golden_values_nine_digits(self, ctx, n, text):
        want = ctx.real(text)
        with ctx.working():
            assert rel(mp.exp(full_estimate(n, (), ctx).log_main), want) < mp.mpf("2e-9")

    def test_saddle_scale(self, ctx):
        tau = full_estimate(100_000, (), ctx).tau
        assert abs(tau - mp.mpf("0.024449")) < mp.mpf("1e-5")

    def test_rejects_nonpositive(self, ctx):
        with pytest.raises(ValueError):
            full_estimate(0, (), ctx)


class TestResidueCoefficients:
    def test_golden_first_three(self, ctx, zeros25):
        terms = amod._zero_terms(zeros25[:len(golden.RESIDUE_COEFFS)], ctx)
        for (_, c), (re_s, im_s) in zip(terms, golden.RESIDUE_COEFFS):
            with ctx.working():
                want = ctx.round(mp.mpc(ctx.real(re_s), ctx.real(im_s)))
            assert rel(c, want) < mp.mpf("1e-6")

    @pytest.mark.parametrize("bits", [64, 192])
    def test_mixed_catalog_takes_the_refined_route(self, first25, bits):
        # every other entry a bare seed: each must come out as if refined beforehand
        ctx = PrecisionContext(bits)
        refined = first25(bits)[:6]
        mixed = [z if i % 2 else seed for i, (z, seed) in enumerate(zip(refined, bundled_zeros()))]
        assert [z.bits for z in mixed] == [None, bits] * 3
        assert amod._zero_terms(mixed, ctx) == amod._zero_terms(refined, ctx)

    def test_zero_refined_at_another_precision_is_refined_again(self, first25, ctx):
        # a t refined at 64 bits is good to ~2^-64 only; summed at 192 bits
        # it would move osc(τ) by about that much relative to its value
        assert amod._zero_terms(first25(64)[:3], ctx) == amod._zero_terms(bundled_zeros()[:3], ctx)

    def test_moduli_strictly_decreasing_first_30(self, ctx, catalog):
        mods = [abs(c) for _, c in amod._zero_terms(catalog[:30], ctx)]
        assert all(a > b for a, b in zip(mods, mods[1:]))

    def test_four_passes_per_zero(self, monkeypatch):
        # two Newton pairs, the residual check (whose ζ′ c_γ reuses) and ζ(γ+1)
        amod._coefficient.cache_clear()
        passes, run_pass = [], special._zeta_pair
        monkeypatch.setattr(special, "_zeta_pair", lambda s: passes.append(s) or run_pass(s))
        ctx = PrecisionContext(192)
        for seed in bundled_zeros()[:25]:
            passes.clear()
            amod._zero_terms(refine_catalog([seed], ctx), ctx)
            assert len(passes) == 4, seed.t

    @pytest.mark.parametrize("bits", [64, 192, 512])
    def test_against_four_call_reference(self, first25, bits):
        ctx = PrecisionContext(bits)
        for t, c in amod._zero_terms(first25(bits), ctx):
            want = oracles.residue_coefficient_reference(t, bits)
            with mp.workprec(bits + 64):
                assert abs(c - want) <= mp.mpf(2) ** (8 - bits) * abs(want)


class TestOscillation:
    def test_empty_sum_is_zero(self, ctx, zeros25):
        assert full_estimate(10, (), ctx).oscillation == 0

    def test_result_is_exactly_real(self, ctx, zeros25):
        v = full_estimate(1000, zeros25, ctx).oscillation
        assert isinstance(v, mp.mpf)

    def test_first_zero_magnitude_bound_at_1e5(self, ctx, zeros25):
        est = full_estimate(100_000, zeros25[:1], ctx)
        bound = triangle_bound(zeros25, 0, 1, est.tau, ctx.bits)
        assert abs(est.oscillation) <= bound
        assert bound < mp.mpf("6.5e-9")

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    def test_three_vs_one_triangle_bound(self, ctx, zeros25, n):
        three = full_estimate(n, zeros25[:3], ctx)
        d = three.oscillation - full_estimate(n, zeros25[:1], ctx).oscillation
        assert abs(d) <= triangle_bound(zeros25, 1, 3, three.tau, ctx.bits)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_truncation_stability(self, ctx, zeros25, n):
        all25 = full_estimate(n, zeros25, ctx)
        d = all25.oscillation - full_estimate(n, zeros25[:10], ctx).oscillation
        assert abs(d) <= triangle_bound(zeros25, 10, 25, all25.tau, ctx.bits)


class TestFullEstimate:
    def test_k0_reduces_to_leading(self, ctx, zeros25):
        est = full_estimate(123, zeros25[:0], ctx)
        assert est.oscillation == 0
        assert est.log_estimate == full_estimate(123, (), ctx).log_main

    def test_breakdown_bound_invariant(self, ctx, zeros25):
        est = full_estimate(777, zeros25, ctx)
        assert abs(est.oscillation) <= triangle_bound(zeros25, 0, 25, est.tau, ctx.bits)

    def test_against_exact_1000(self, ctx, zeros25, series_half_10k):
        with ctx.working():
            exact = mp.log(mp.mpf(series_half_10k[1000]))
        est = full_estimate(1000, zeros25, ctx)
        assert abs(est.log_estimate - exact) <= mp.mpf("1.086e-3")

    def test_improves_at_10000(self, ctx, zeros25, series_half_10k):
        with ctx.working():
            gaps = []
            for n in (1000, 10_000):
                exact = mp.log(mp.mpf(series_half_10k[n]))
                gaps.append(abs(full_estimate(n, zeros25, ctx).log_estimate - exact))
        assert gaps[1] < gaps[0]


class TestVariants:
    def test_log_relative_error_shrinks_by_decade(self, ctx, exact_counts):
        with ctx.working():
            for variant in VARIANTS:
                errs = []
                for n in (100, 1000, 10_000):
                    exact = mp.log(mp.mpf(exact_counts[variant][n]))
                    est = full_estimate(n, (), ctx, variant).log_estimate
                    errs.append(abs(est - exact) / abs(exact))
                assert errs[0] > errs[1] > errs[2], variant

    def test_exact_counts_are_the_library_counts(self, exact_counts):
        for variant in (SlopeRange.CLOSED_01, SlopeRange.SYMMETRIC):
            assert exact_counts[variant][:301] == list(count_series(variant, 300).values), variant

    @pytest.mark.parametrize("slope_range", VARIANTS)
    def test_absolute_gap(self, exact_counts, slope_range):
        # c off by (1/2) log 2, or q τ dropped, moves the gap well past these bounds
        bctx = PrecisionContext(128)
        with bctx.working():
            for n, bound in VARIANT_GAPS.items():
                exact = mp.log(mp.mpf(exact_counts[slope_range][n]))
                est = full_estimate(n, (), bctx, slope_range).log_estimate
                assert abs(exact - est) <= bound, n

    def test_doubling_flag(self, ctx, zeros25):
        # the symmetric counts' factor (1 + x) adds log(1 + e^(-τ)) = log 2 - τ/2 + O(τ²)
        # to the [0, 1/2] estimate at the same τ = (C/(2n))^(1/3)
        with ctx.working():
            single = full_estimate(42, zeros25[:2], ctx, SlopeRange.CLOSED_0_HALF).log_estimate
            double = full_estimate(42, zeros25[:2], ctx, SlopeRange.SYMMETRIC).log_estimate
            tau = mp.cbrt(constant_C(ctx) / 84)
            assert rel(double - single, mp.log(2) - tau / 2) < mp.mpf(2) ** (32 - ctx.bits)

    #: (w, p, c / log 2, q) of the module docstring's table.
    DOCSTRING_ROWS = {
        SlopeRange.HALF_OPEN_01: (1, 0, 0, 0),
        SlopeRange.CLOSED_01: (1, 1, 0, 0.5),
        SlopeRange.CLOSED_0_HALF: (0.5, 1, -0.5, 0.75),
        SlopeRange.SYMMETRIC: (0.5, 1, 0.5, 0.25),
    }

    @pytest.mark.parametrize("slope_range", VARIANTS)
    def test_saddle_row_matches_segment_exponents(self, slope_range):
        # e(m) = w φ(m) for m >= 3; the excess d_m = e(m) - w φ(m) at m = 1, 2
        # is a factor (1 - x^m)^(-d_m) ~ (mτ)^(-d_m) e^(d_m m τ / 2), so
        # p = Σ d_m, c = -Σ d_m log m and q = Σ d_m m / 2
        row = amod._saddle_row(slope_range)
        assert row == self.DOCSTRING_ROWS[slope_range]
        w, p, c_log2, q = row
        e = segment_exponents(slope_range, 200)
        phi = totient_sieve(200)
        assert all(e[m] == w * phi[m] for m in range(3, 201))
        excess = {m: e[m] - w * phi[m] for m in (1, 2)}
        assert p == sum(excess.values())
        assert q == sum(d * m for m, d in excess.items()) / 2
        with mp.workprec(128):
            c = -sum(d * mp.log(m) for m, d in excess.items())
            assert abs(c_log2 * mp.log(2) - c) <= mp.mpf(2) ** -120


class TestWave:
    def test_amplitude_vanishes_at_zero(self, ctx, zeros25):
        y = wave_sample(mp.mpf("1e-30"), ctx)
        assert abs(y - 1) < mp.mpf("1e-12")
        assert wave_envelope(mp.mpf("1e-30"), zeros25[0].t, ctx) < mp.mpf("1e-13")

    def test_envelope_bound_everywhere(self, ctx, zeros25):
        with ctx.working():
            for i in range(60):
                x = mp.mpf(10) ** (mp.mpf(i) / 4)  # 1 .. 1e15 in log steps
                logy = mp.log(wave_sample(x, ctx))
                assert abs(logy) <= wave_envelope(x, zeros25[0].t, ctx) * (1 + mp.mpf("1e-30"))

    def test_maxima_spacing_in_log_x(self, ctx):
        import math
        lo, hi, samples = 1e8, 1e14, 4000
        lnxs = [math.log(lo) + (math.log(hi) - math.log(lo)) * i / (samples - 1)
                for i in range(samples)]
        logy = [float(mp.log(wave_sample(mp.exp(mp.mpf(lx)), ctx))) for lx in lnxs]
        peaks = [lnxs[i] for i in range(1, samples - 1)
                 if logy[i] > logy[i - 1] and logy[i] > logy[i + 1]]
        assert len(peaks) >= 3
        period = float(6 * mp.pi / bundled_zeros()[0].t)  # maxima spacing 6π/t1 in log x
        for a, b in zip(peaks, peaks[1:]):
            assert abs((b - a) - period) <= 0.02 * period

    @pytest.mark.parametrize("bits", [64, 192, 512])
    def test_sample_is_first_zero_oscillation(self, first25, bits):
        bctx = PrecisionContext(bits)
        for n in (1, 10, 1000, 10**6, 10**12):
            y = wave_sample(n, bctx)
            with mp.workprec(bits + 64):
                want = mp.exp(full_estimate(n, first25(bits)[:1], bctx).oscillation)
                assert abs(y - want) <= mp.mpf(2) ** (8 - bits) * want, n

    def test_rejects_nonpositive_x(self, ctx):
        with pytest.raises(ValueError):
            wave_sample(0, ctx)


class TestExpansionCheck:
    def test_direct_value_at_tau_1(self, ctx, zeros25):
        chk = logf_expansion_check(1, (), ctx)
        assert abs(chk.direct - ctx.real(golden.LOGF_DIRECT_AT_TAU_1)) < mp.mpf("1e-24")

    def test_direct_matches_series_partial_sums(self, ctx, zeros25):
        chk = logf_expansion_check(1, (), ctx)
        series = count_series(SlopeRange.HALF_OPEN_01, 150)
        with ctx.working():
            total = mp.mpf(0)
            for n in range(151):
                total += series[n] * mp.exp(mp.mpf(-n))
            assert abs(chk.direct - mp.log(total)) < mp.mpf("1e-12")

    def test_residual_shrinks(self, ctx, zeros25):
        r_half = logf_expansion_check("0.5", zeros25, ctx).residual
        r_quarter = logf_expansion_check("0.25", zeros25, ctx).residual
        r_eighth = logf_expansion_check("0.125", zeros25, ctx).residual
        assert abs(r_quarter) / abs(r_half) <= mp.mpf("0.35")
        assert abs(r_eighth) / abs(r_quarter) <= mp.mpf("0.35")

    def test_oscillation_negligible_at_tau_01(self, ctx, zeros25):
        with_zeros = logf_expansion_check("0.1", zeros25, ctx).expansion
        without = logf_expansion_check("0.1", (), ctx).expansion
        assert abs(with_zeros - without) <= mp.mpf("1e-8")

    def test_residual_consistency(self, ctx, zeros25):
        chk = logf_expansion_check("0.5", zeros25[:5], ctx)
        with ctx.working():
            assert abs(chk.residual - (chk.direct - chk.expansion)) \
                <= abs(chk.direct) * mp.mpf(2) ** (8 - ctx.bits)

    @pytest.mark.parametrize("tau", ["0", "1.5", "-0.25"])
    def test_rejects_tau_outside_unit_interval(self, ctx, zeros25, tau):
        with pytest.raises(ValueError):
            logf_expansion_check(tau, (), ctx)

    def test_truncation_failure_reported(self, ctx, zeros25, monkeypatch):
        monkeypatch.setattr(amod, "_DIRECT_SUM_MAX_TERMS", 100)
        with pytest.raises(TruncationError):
            logf_expansion_check("0.05", (), ctx)

    def test_truncation_raised_before_any_table_is_built(self, ctx, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built a table for a sum that cannot fit")

        monkeypatch.setattr(amod, "log_derivative_weights", forbidden)
        with pytest.raises(TruncationError, match="smallest tau that fits"):
            logf_expansion_check("1e-5", (), ctx)

    @pytest.mark.parametrize("bits", [64, 192, 512])
    @pytest.mark.parametrize("tau", ["1", "0.25", "0.05"])
    def test_direct_against_product_formula(self, bits, tau):
        bctx = PrecisionContext(bits)
        t = bctx.real(tau)
        direct = logf_expansion_check(t, (), bctx).direct
        want = oracles.logf_direct_reference(t, bits)
        with mp.workprec(bits + 64):
            assert abs(direct - want) <= abs(want) * mp.mpf(2) ** (8 - bits)

    def test_terms_is_the_direct_series_length(self, ctx):
        # the least M with Z x^(M+1) ((M+1)/(1-x) + x/(1-x)^2) < 2^-(bits+guard),
        # Z = 33/20 a rational bound for ζ(2) = 1.6449...
        chk = logf_expansion_check("0.5", (), ctx)
        with ctx.working():
            x = mp.exp(-mp.mpf("0.5"))
            eps = mp.mpf(2) ** -(ctx.bits + amod.GUARD_BITS)

            def tail(m):
                return mp.mpf(33) / 20 * x ** m * (m / (1 - x) + x / (1 - x) ** 2)

            assert tail(chk.terms + 1) < eps <= tail(chk.terms)
