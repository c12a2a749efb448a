import functools
import hashlib
import itertools

import mpmath as mp
import pytest

from npcount import (
    PrecisionContext,
    SlopeRange,
    ZetaZero,
    bundled_zeros,
    count_series,
    constant_C,
    full_estimate,
    load_zeros,
    logf_expansion_check,
    refine_catalog,
    wave_sample,
)
import npcount.asymptotics as amod
from npcount import special
from npcount.asymptotics import TruncationError, logf_term_count

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

    @pytest.mark.parametrize("bits", sorted(golden.ZERO_TERMS_SHA256))
    def test_every_bundled_term_is_frozen(self, bits):
        amod._coefficient.cache_clear()
        terms = amod._zero_terms(bundled_zeros(), PrecisionContext(bits))
        flat = repr([tuple(int(v) for x in (t, c.real, c.imag) for v in x._mpf_) for t, c in terms])
        assert hashlib.sha256(flat.encode("utf-8")).hexdigest() == golden.ZERO_TERMS_SHA256[bits]

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

    @staticmethod
    def _passes(monkeypatch):
        """Per pass, in order: whether it also summed s + 1; each pass builds one powers table."""
        amod._coefficient.cache_clear()
        tables, build = [], special._powers
        monkeypatch.setattr(special, "_powers", lambda n, *rest: tables.append(n) or build(n, *rest))
        shifted, run_pass = [], special._zeta_pair
        monkeypatch.setattr(special, "_zeta_pair",
                            lambda s, *rest: shifted.append(rest == (True,)) or run_pass(s, *rest))
        return tables, shifted

    @pytest.mark.parametrize("bits", [64, 192, 214])
    def test_one_pass_per_bundled_zero(self, monkeypatch, bits):
        # the bundled seed holds the working precision: its one pass is the
        # check, which also sums γ + 1, and c_γ reads its ζ′(γ) and ζ(γ+1) back
        tables, shifted = self._passes(monkeypatch)
        ctx = PrecisionContext(bits)
        for seed in bundled_zeros()[:25]:
            tables.clear()
            shifted.clear()
            amod._zero_terms(refine_catalog([seed], ctx), ctx)
            assert len(tables) == 1, seed.t
            assert shifted == [True], seed.t

    def test_three_passes_per_zero(self, monkeypatch, zero_file_20):
        # a 20-decimal seed: two Newton pairs, then the residual check, whose
        # pass also sums γ + 1: c_γ reads its ζ′(γ) and ζ(γ+1) back
        tables, shifted = self._passes(monkeypatch)
        ctx = PrecisionContext(192)
        for seed in load_zeros(zero_file_20)[:25]:
            tables.clear()
            shifted.clear()
            amod._zero_terms(refine_catalog([seed], ctx), ctx)
            assert len(tables) == 3, seed.t
            assert shifted == [False, False, True], seed.t

    @pytest.mark.parametrize("bits", [192, 1024])
    def test_cache_holds_what_c_gamma_reads_and_nothing_else(self, monkeypatch, bits):
        # each check leaves its pairs at γ and γ + 1; no Newton step's pass is
        # kept, though at 1024 bits every bundled seed climbs three rungs first
        ctx = PrecisionContext(bits)
        zeros = refine_catalog(bundled_zeros()[:25], ctx)
        with ctx.working():
            keys = {(mp.mpc(sigma, z.t), ctx) for z in zeros for sigma in (0.5, 1.5)}
        assert len(special._pass_cache) == 50
        assert set(special._pass_cache) == keys
        tables, _ = self._passes(monkeypatch)
        amod._zero_terms(zeros, ctx)
        assert tables == []

    def test_evicted_zero_pays_its_own_passes(self, monkeypatch):
        # a cache of two entries holds one zero's pairs: refining zero 2
        # evicts zero 1's, so zero 1's c_γ takes ζ(γ+1) and ζ′(γ) from passes
        # of its own, and still holds the bound
        monkeypatch.setattr(special, "_PASS_CACHE_SIZE", 2)
        ctx = PrecisionContext(128)
        first, second = refine_catalog(bundled_zeros()[:2], ctx)
        with ctx.working():
            keys = {(mp.mpc(sigma, second.t), ctx) for sigma in (0.5, 1.5)}
        assert set(special._pass_cache) == keys
        tables, shifted = self._passes(monkeypatch)
        [(t, c)] = amod._zero_terms([first], ctx)
        assert len(tables) == 2 and shifted == [False, False]
        assert set(special._pass_cache) == keys
        want = oracles.residue_coefficient_reference(t, ctx.bits)
        with mp.workprec(ctx.bits + 64):
            assert abs(c - want) <= mp.mpf(2) ** (8 - ctx.bits) * abs(want)

    def test_zero_file_entry_just_above_the_strip(self, tmp_path, monkeypatch):
        # the 1518th zero: its check and its ζ(γ+1) take mpmath's ζ, not the pass
        amod._coefficient.cache_clear()
        passes, run_pass = [], special._zeta_pair
        monkeypatch.setattr(special, "_zeta_pair", lambda s, *rest: passes.append(s) or run_pass(s, *rest))
        f = tmp_path / "above.txt"
        f.write_text("2000.43451530243224677689\n")
        ctx = PrecisionContext(64)
        [(t, c)] = amod._zero_terms(load_zeros(f), ctx)
        assert t > special.BORWEIN_MAX_HEIGHT and passes == []
        want = oracles.residue_coefficient_reference(t, ctx.bits)
        with mp.workprec(ctx.bits + 64):
            assert abs(c - want) <= mp.mpf(2) ** (8 - ctx.bits) * abs(want)

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

    def test_refuses_a_seed_below_the_axis(self, first25):
        # summed, -t1 and t1 gave twice the first zero's oscillation
        z1 = first25(64)[0]
        with pytest.raises(ValueError, match="t > 0"):
            full_estimate(1000, [ZetaZero(-z1.t), z1], PrecisionContext(64))


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
        y = wave_sample(mp.mpf("1e-30"), zeros25[:1], ctx)
        assert abs(y - 1) < mp.mpf("1e-12")
        assert wave_envelope(mp.mpf("1e-30"), zeros25[0].t, ctx) < mp.mpf("1e-13")

    def test_envelope_bound_everywhere(self, ctx, zeros25):
        with ctx.working():
            for i in range(60):
                x = mp.mpf(10) ** (mp.mpf(i) / 4)  # 1 .. 1e15 in log steps
                logy = mp.log(wave_sample(x, zeros25[:1], ctx))
                assert abs(logy) <= wave_envelope(x, zeros25[0].t, ctx) * (1 + mp.mpf("1e-30"))

    def test_maxima_spacing_in_log_x(self, ctx, zeros25):
        import math
        lo, hi, samples = 1e8, 1e14, 4000
        lnxs = [math.log(lo) + (math.log(hi) - math.log(lo)) * i / (samples - 1)
                for i in range(samples)]
        logy = [float(mp.log(wave_sample(mp.exp(mp.mpf(lx)), zeros25[:1], ctx))) for lx in lnxs]
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
            y = wave_sample(n, first25(bits)[:1], bctx)
            with mp.workprec(bits + 64):
                want = mp.exp(full_estimate(n, first25(bits)[:1], bctx).oscillation)
                assert abs(y - want) <= mp.mpf(2) ** (8 - bits) * want, n

    def test_rejects_nonpositive_x(self, ctx, zeros25):
        with pytest.raises(ValueError):
            wave_sample(0, zeros25[:1], ctx)

    @pytest.mark.parametrize("x", [float("inf"), mp.inf], ids=["float", "mpf"])
    def test_rejects_infinite_x(self, ctx, zeros25, x):
        # τ = (C/x)^(1/3) is 0 there, and the wave once read nan
        with pytest.raises(ValueError, match="x must be positive and finite"):
            wave_sample(x, zeros25[:1], ctx)


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

    @pytest.mark.parametrize("tau", ["-1", "0", "2"])
    def test_term_count_rejects_tau_outside_unit_interval(self, ctx, tau):
        # "0" once divided by zero, and "-1" once counted one term
        with pytest.raises(ValueError, match=r"tau must be in \(0, 1\]"):
            logf_term_count(tau, ctx)

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


#: The smallest τ whose direct sum fits the term cap, as the TruncationError
#: names it, at each precision of the term-count grid.
TAU_FLOORS = {64: "1.87e-5", 192: "3.63e-5", 512: "8.05e-5", 1024: "1.52e-4"}


def tau_grid(bits, points=8):
    """τ = floor^(k/points), k = 0..points: from 1 down to the precision's floor, evenly in log τ."""
    with mp.workprec(bits + amod.GUARD_BITS):
        floor = mp.mpf(TAU_FLOORS[bits])
        return [floor ** (mp.mpf(k) / points) for k in range(points + 1)]


def tau_for_terms(terms, bits):
    """A τ in (0, 1] whose direct sum at bits has exactly that many terms.

    At the τ where tail(terms + 1/2) = 2^-(bits+guard), tail(terms + 1) is
    below it and tail(terms) above; bisection in log τ finds that τ.
    """
    eps = mp.mpf(2) ** -(bits + amod.GUARD_BITS)
    with mp.workprec(bits + 64):
        lo, hi = mp.log(mp.mpf("1e-6")), mp.mpf(0)  # tail(terms + 1/2) >= eps at lo, < eps at hi
        for _ in range(100):
            mid = (lo + hi) / 2
            if oracles.logf_tail_bound(mp.exp(mid), terms + mp.mpf(1) / 2, bits) < eps:
                hi = mid
            else:
                lo = mid
    with PrecisionContext(bits).working():
        return +mp.exp(hi)


class TestDirectSum:
    """The term count M and the direct sum of :func:`logf_expansion_check`."""

    @pytest.mark.parametrize("bits", [64, 192, 512, 1024])
    def test_term_count_is_the_least_m_whose_tail_is_below_eps(self, monkeypatch, bits):
        ctx = PrecisionContext(bits)
        wide = bits + amod.GUARD_BITS
        eps = mp.mpf(2) ** -wide
        root = amod._logf_tail_root
        for tau in tau_grid(bits):
            terms = logf_term_count(tau, ctx)
            assert oracles.logf_tail_bound(tau, terms + 1, wide) < eps, tau
            assert eps <= oracles.logf_tail_bound(tau, terms, wide), tau
            assert terms == oracles.logf_term_count_reference(tau, wide, amod._DIRECT_SUM_MAX_TERMS)
            # the float root lands on M; three terms off, the exact steps walk back to it
            for offset in (3, -3):
                monkeypatch.setattr(amod, "_logf_tail_root", lambda t, b, shift=offset: root(t, b) + shift)
                amod._logf_term_count.cache_clear()
                assert logf_term_count(tau, ctx) == terms, (tau, offset)
            monkeypatch.setattr(amod, "_logf_tail_root", root)
        amod._logf_term_count.cache_clear()

    @pytest.mark.parametrize("bits", [64, 192, 512, 1024])
    def test_term_count_takes_few_tail_bounds(self, monkeypatch, bits):
        # exact (mp) evaluations of the tail model: a bisection over [0, cap]
        # took about 23; the cap check is one of the 6
        calls = 0
        real = amod._logf_log_tail

        def counted(tau, bits, c=mp):
            log_tail = real(tau, bits, c)
            if c is not mp:
                return log_tail

            def bound(m):
                nonlocal calls
                calls += 1
                return log_tail(m)
            return bound

        monkeypatch.setattr(amod, "_logf_log_tail", counted)
        ctx = PrecisionContext(bits)
        for tau in tau_grid(bits):
            amod._logf_term_count.cache_clear()
            calls = 0
            logf_term_count(tau, ctx)
            assert calls <= 6, (tau, calls)
        amod._logf_term_count.cache_clear()

    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("m", [13, 40])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_direct_at_block_edges(self, bits, m, edge):
        # the sum runs in blocks of isqrt(M) terms: M = m² - 1 ends on a short
        # block of m - 1 terms, m² on a full block of m, m² + 1 on a block of one
        terms = m * m + edge
        tau = tau_for_terms(terms, bits)
        chk = logf_expansion_check(tau, (), PrecisionContext(bits))
        assert chk.terms == terms
        want = oracles.logf_direct_reference(tau, bits)
        with mp.workprec(bits + 64):
            assert abs(chk.direct - want) <= abs(want) * mp.mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("terms", [1, 2, 3])
    def test_direct_of_fewer_than_four_terms(self, monkeypatch, terms):
        # no τ in (0, 1] needs fewer than 70 terms, so the count is forced:
        # then direct is the partial sum Σ_{N<=M} (b(N)/N) x^N
        monkeypatch.setattr(amod, "logf_term_count", lambda tau, ctx: terms)
        ctx = PrecisionContext(64)
        chk = logf_expansion_check("0.5", (), ctx)
        assert chk.terms == terms
        b = oracles.divisor_sum_weights(segment_exponents(SlopeRange.HALF_OPEN_01, terms), terms)
        with mp.workprec(ctx.bits + 64):
            x = mp.exp(-mp.mpf("0.5"))
            want = sum(mp.mpf(b[n]) / n * x ** n for n in range(1, terms + 1))
            assert abs(chk.direct - want) <= want * mp.mpf(2) ** (8 - ctx.bits)

    @pytest.mark.parametrize("tau", list(golden.LOGF_DIRECT_192))
    def test_direct_is_frozen_at_192_bits(self, tau):
        ctx = PrecisionContext(192)
        terms, direct = golden.LOGF_DIRECT_192[tau]
        chk = logf_expansion_check(tau, (), ctx)
        assert chk.terms == terms
        assert chk.direct == ctx.real(direct)


class TestPlainDecimalInput:
    """τ and x are read as in the CLI: numbers, or plain-decimal text only."""

    CALLS = {
        "logf_expansion_check": lambda v, zeros, ctx: logf_expansion_check(v, (), ctx),
        "logf_term_count": lambda v, zeros, ctx: logf_term_count(v, ctx),
        "wave_sample": lambda v, zeros, ctx: wave_sample(v, zeros, ctx),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("text", ["0.01_4", "1_000", " 0.5 ", "inf", "1/2"])
    def test_other_text_is_refused(self, first25, name, text):
        # mpmath alone reads 0.01_4 as 0.0014, where the direct sum takes 60454 terms
        with pytest.raises(ValueError, match="not a plain decimal number"):
            self.CALLS[name](text, first25(64)[:1], PrecisionContext(64))

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("value", ["0.1", "1", ".5e-1", 0.1, 1, mp.mpf("0.1", prec=200)])
    def test_values_are_mpmaths_reading_at_the_working_precision(self, first25, name, value):
        ctx = PrecisionContext(64)
        with ctx.working():
            read = mp.mpf(value)
        call = self.CALLS[name]
        assert call(value, first25(64)[:1], ctx) == call(read, first25(64)[:1], ctx)
