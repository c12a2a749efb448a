import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp.gammazeta import borwein_cache

from npcount import special
from npcount import (
    PoleError,
    PrecisionContext,
    bundled_zeros,
    complex_gamma,
    complex_zeta,
    constant_C,
    constant_K,
    zeta_derivative,
    zeta_with_derivative,
)

import golden
import oracles

BITS = 192
CTX = PrecisionContext(BITS)


def rel(a, b):
    return abs(a - b) / abs(b)


def hp_complex(re, im):
    """re + i im, each part rounded at BITS.

    Built under ``CTX.working()``: mp.mpc rounds its parts to the ambient precision.
    """
    with CTX.working():
        return CTX.round(mp.mpc(CTX.real(re), CTX.real(im)))


@pytest.mark.parametrize("text", ["1", "-1.5e-3", ".5", "5.", "+2E10", "141.1237"])
def test_real_parses_plain_decimals_as_mpmath_does(text):
    with mp.workprec(BITS):
        assert CTX.real(text) == mp.mpf(text)


@pytest.mark.parametrize("text", ["141.12_37", "abc", "", ".", "1e", "1..2", " 1", "inf", "nan",
                                  "1/2", "0x10"])
def test_real_rejects_other_strings(text):
    # mpmath alone reads 141.12_37 as 14.11237
    with pytest.raises(ValueError):
        CTX.real(text)


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(32)
    with pytest.raises(TypeError):
        PrecisionContext(192.0)


class TestGamma:
    def test_factorials(self):
        assert rel(complex_gamma(1, CTX), 1) < mp.mpf(2) ** (8 - BITS)
        assert rel(complex_gamma(5, CTX), 24) < mp.mpf(2) ** (8 - BITS)

    def test_half(self):
        with CTX.working():
            assert rel(complex_gamma(CTX.real("0.5"), CTX), mp.sqrt(mp.pi)) < mp.mpf(2) ** (8 - BITS)

    def test_oracle_point_on_critical_line(self):
        s = hp_complex("0.5", "14.134725141")
        want = hp_complex(*golden.GAMMA_AT_HALF_PLUS_I_14_134725141)
        assert rel(complex_gamma(s, CTX), want) < mp.mpf("1e-45")

    def test_recurrence_100_random_points(self):
        rng = random.Random(20240901)
        tol = mp.mpf(2) ** (16 - BITS)
        with CTX.working():
            for _ in range(100):
                s = mp.mpc(rng.uniform(-5, 5),
                           rng.choice([-1, 1]) * rng.uniform(0.05, 40))
                lhs = complex_gamma(s + 1, CTX)
                rhs = s * complex_gamma(s, CTX)
                assert abs(lhs - rhs) / abs(lhs) <= tol

    def test_conjugate_symmetry_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            s = mp.mpc(rng.uniform(-4, 6), rng.uniform(0.1, 30))
            a = complex_gamma(mp.mpc(s.real, -s.imag), CTX)
            b = complex_gamma(s, CTX)
            assert a.real == b.real and a.imag + b.imag == 0

    @pytest.mark.parametrize("s", [0, -1, -7])
    def test_pole_at_nonpositive_integers(self, s):
        with pytest.raises(PoleError):
            complex_gamma(s, CTX)

    def test_pole_within_machine_tolerance(self):
        with CTX.working():  # at mpmath's default 53 bits the sum would be exactly -3
            s = hp_complex("-3", "0") + CTX.real("1e-60")
        assert s.real != -3
        with pytest.raises(PoleError):
            complex_gamma(s, CTX)


class TestZeta:
    def test_basel(self):
        with CTX.working():
            assert rel(complex_zeta(2, CTX), mp.pi ** 2 / 6) < mp.mpf(2) ** (8 - BITS)

    def test_trivial_zeros_exact(self):
        assert complex_zeta(-2, CTX) == 0
        assert complex_zeta(-4, CTX) == 0

    def test_pole(self):
        with pytest.raises(PoleError):
            complex_zeta(1, CTX)
        with pytest.raises(PoleError):
            complex_zeta(CTX.real(1) + CTX.real("1e-60"), CTX)

    def test_growth_constant_ratio(self):
        # 2 zeta(3) / zeta(2) = 1.4615...
        v = 2 * complex_zeta(3, CTX) / complex_zeta(2, CTX)
        assert mp.nstr(mp.re(v), 5) == "1.4615"

    def test_functional_equation_100_random_points(self):
        rng = random.Random(20240902)
        tol = mp.mpf(2) ** (16 - BITS)
        with CTX.working():
            for _ in range(100):
                s = mp.mpc(rng.uniform(-5, 5),
                           rng.choice([-1, 1]) * rng.uniform(0.5, 40))
                lhs = complex_zeta(s, CTX)
                rhs = (mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.sinpi(s / 2)
                       * complex_gamma(1 - s, CTX) * complex_zeta(1 - s, CTX))
                assert abs(lhs - rhs) / abs(lhs) <= tol

    def test_conjugate_symmetry_exact(self):
        rng = random.Random(11)
        for _ in range(20):
            s = mp.mpc(rng.uniform(-3, 5), rng.uniform(0.5, 30))
            a = complex_zeta(mp.mpc(s.real, -s.imag), CTX)
            b = complex_zeta(s, CTX)
            assert a.real == b.real and a.imag + b.imag == 0


class TestZetaDerivative:
    def test_at_minus_one(self):
        want = CTX.real(golden.ZETA_DERIV_AT_MINUS_1)
        got = zeta_derivative(-1, CTX)
        assert abs(mp.im(got)) == 0
        assert rel(mp.re(got), want) < mp.mpf("1e-28")

    def test_at_minus_two_cross_route(self):
        # zeta'(-2) = -zeta(3) / (4 pi^2); right side through the zeta evaluator
        with CTX.working():
            want = -complex_zeta(3, CTX) / (4 * mp.pi ** 2)
            got = zeta_derivative(-2, CTX)
            assert rel(got, want) < mp.mpf(2) ** (16 - BITS)

    def test_schwarz_reflection(self):
        s = hp_complex(2, 3)
        a = zeta_derivative(mp.mpc(s.real, -s.imag), CTX)
        b = zeta_derivative(s, CTX)
        assert a.real == b.real and a.imag + b.imag == 0

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_derivative(1, CTX)

    def test_finite_difference_consistency_100_points(self):
        rng = random.Random(20240903)
        h = mp.mpf(2) ** (-BITS // 3)
        tol = mp.mpf(2) ** (-BITS // 3 + 8)
        with CTX.working():
            for _ in range(100):
                s = mp.mpc(rng.uniform(-4, 5),
                           rng.choice([-1, 1]) * rng.uniform(0.5, 30))
                fd = (complex_zeta(s + h, CTX) - complex_zeta(s - h, CTX)) / (2 * h)
                d = zeta_derivative(s, CTX)
                assert abs(fd - d) / abs(d) <= tol

    @pytest.mark.parametrize("bits", [64, 192])
    def test_left_half_plane_against_reflection_oracle(self, bits):
        ctx = PrecisionContext(bits)
        rng = random.Random(20240904 + bits)
        tol = mp.mpf(2) ** (16 - bits)
        for _ in range(30):
            s = mp.mpc(rng.uniform(-5, -0.5),
                       rng.choice([-1, 1]) * rng.uniform(0.5, 40))
            want = oracles.zeta_derivative_reflection(s, bits)
            got = zeta_derivative(s, ctx)
            with mp.workprec(bits + 64):
                assert abs(got - want) / abs(want) <= tol

    def test_pair_matches_separate_calls(self):
        s = hp_complex("0.5", "21.0220396")
        z, zd = zeta_with_derivative(s, CTX)
        assert z == complex_zeta(s, CTX)
        assert zd == zeta_derivative(s, CTX)


class TestConstants:
    def test_digit_prefixes(self):
        assert mp.nstr(constant_C(CTX), 5) == "1.4615"
        assert mp.nstr(constant_K(CTX), 5) == "1.0248"

    def test_precision_monotonicity(self):
        c64 = constant_C(PrecisionContext(64))
        c256 = constant_C(PrecisionContext(256))
        assert abs(c64 - c256) / c256 < mp.mpf("1e-16")

    def test_k_matches_its_defining_expression(self):
        with CTX.working():
            want = mp.exp(-2 * mp.re(zeta_derivative(-1, CTX)) - mp.log(2 * mp.pi) / 6)
            assert rel(constant_K(CTX), want) < mp.mpf(2) ** (16 - BITS)

    @pytest.mark.parametrize("bits", [64, 96, 192, 224, 1024, 1056])
    def test_within_contract_of_mpmath(self, bits):
        # bits + 32 is the wide context logf_expansion_check takes C and K at
        ctx = PrecisionContext(bits)
        with mp.workprec(bits + 64):
            want_c = 2 * mp.zeta(3) / mp.zeta(2)
            want_k = mp.exp(-2 * mp.zeta(-1, derivative=1) - mp.log(2 * mp.pi) / 6)
            assert rel(constant_C(ctx), want_c) <= mp.mpf(2) ** (8 - bits)
            assert rel(constant_K(ctx), want_k) <= mp.mpf(2) ** (8 - bits)


class TestBorweinPass:
    """ζ and ζ′ from one fixed-point Borwein pass for 1/2 <= ℜ s <= bits, |ℑ s| <= T."""

    T = special.BORWEIN_MAX_HEIGHT

    @staticmethod
    def assert_matches_mpmath(s, bits, near_zero=False):
        """Both values within 2**(8 - bits) of mp.zeta at bits + 64.

        ζ's error is relative, except near a zero (near_zero), where it is
        measured against |ζ′|, the size that the Newton step ζ/ζ′ sees.
        """
        z, zd = zeta_with_derivative(s, PrecisionContext(bits))
        with mp.workprec(bits + 64):
            want, want_d = mp.zeta(s), mp.zeta(s, derivative=1)
            tol = mp.mpf(2) ** (8 - bits)
            assert abs(zd - want_d) <= tol * abs(want_d)
            scale = abs(want_d) if near_zero else abs(want)
            assert abs(z - want) <= tol * scale

    @pytest.mark.parametrize("bits", [64, 192, 512])
    @pytest.mark.parametrize("j", [1, 2, 25, 100])
    def test_at_bundled_zeros(self, bits, j):
        t = bundled_zeros()[j - 1].t
        self.assert_matches_mpmath(mp.mpc(0.5, t), bits, near_zero=True)

    @pytest.mark.parametrize("bits", [64, 192])
    def test_seeded_points_in_the_strip(self, bits):
        rng = random.Random(20261018 + bits)
        for _ in range(20):
            t = math.exp(rng.uniform(math.log(0.5), math.log(self.T)))
            self.assert_matches_mpmath(mp.mpc(rng.uniform(0.5, 3), rng.choice([-1, 1]) * t), bits)

    @pytest.mark.parametrize("bits", [64, 192])
    def test_domain_edges(self, bits, monkeypatch):
        ctx = PrecisionContext(bits)
        passes, run_pass = [], special._zeta_pair
        monkeypatch.setattr(special, "_zeta_pair", lambda s, *rest: passes.append(s) or run_pass(s, *rest))
        with ctx.working():
            eps = mp.mpf(2) ** -(bits + 8)
            # the last point is 2^-40 from a zero of q = 1 - 2^(1-s), which ζ = η/q divides by
            inside = [mp.mpc(0.5, self.T), mp.mpc(0.5, -self.T), mp.mpc(bits, 3),
                      mp.mpc(1 + mp.mpf(2) ** -40, 2 * mp.pi / mp.ln2)]
            outside = [mp.mpc(0.5 - eps, 30), mp.mpc(2, self.T * (1 + eps)),
                       mp.mpc(0.75, -self.T * (1 + eps)), mp.mpc(bits + 1, 3)]
        for s in inside:
            self.assert_matches_mpmath(s, bits)
        assert len(passes) == len(inside)
        for s in outside:
            with ctx.working():
                want = ctx.round(mp.zeta(s)), ctx.round(mp.zeta(s, derivative=1))
            assert zeta_with_derivative(s, ctx) == want
            assert complex_zeta(s, ctx) == want[0]
            assert zeta_derivative(s, ctx) == want[1]
        assert len(passes) == len(inside)

    def test_top_edge_at_1024_bits(self):
        """|ℑ s| = T at 1024 bits: the largest term count and the deepest power products."""
        self.assert_matches_mpmath(mp.mpc(0.5, self.T), 1024)

    @pytest.mark.parametrize("sigma", ["0.5", "1.5"])
    def test_one_cos_sin_per_prime(self, sigma, monkeypatch):
        """A pass of n terms takes cos/sin once per prime p <= n; a composite
        j^-s is a product of two earlier powers."""
        sizes, calls = [], []
        powers, cos_sin = special._powers, special.cos_sin_fixed
        monkeypatch.setattr(special, "_powers", lambda n, *rest: sizes.append(n) or powers(n, *rest))
        monkeypatch.setattr(special, "cos_sin_fixed", lambda *a: calls.append(a) or cos_sin(*a))
        zeta_with_derivative(mp.mpc(mp.mpf(sigma), bundled_zeros()[99].t), CTX)
        [n] = sizes
        primes = [j for j in range(2, n + 1) if all(j % p for p in range(2, math.isqrt(j) + 1))]
        assert n > 300 and len(calls) == len(primes)

    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("gap", [60, 80])
    def test_zeta_near_a_zero_of_q(self, bits, gap):
        """ζ = η/q loses 2 log2(1/|q|) bits near s = 1 + 2πi/ln 2, where q = 1 - 2^(1-s) = 0."""
        ctx = PrecisionContext(bits)
        with ctx.working():
            s = mp.mpc(1 + mp.mpf(2) ** -gap, 2 * mp.pi / mp.ln2)
        got = complex_zeta(s, ctx)
        with mp.workprec(bits + 300):
            want = mp.zeta(s)
            assert abs(got - want) <= mp.mpf(2) ** (8 - bits) * abs(want)

    def test_pass_leaves_no_weights_cached(self):
        """Each height takes its own term count; mpmath's module-level
        ``borwein_cache`` would keep a weight list for each.

        ζ′ at 500 <= t <= 2000 (64 bits), and the residue's Γ(γ), ζ(γ) and
        ζ(γ + 1) at 20 <= t <= 220 (192 bits), where mpmath's own ζ would
        take Borwein's route too. Γ adds lists of its own, the same for every
        t in [20, 220] (23 at 192 bits); one call fills them before counting.
        """
        rng = random.Random(20261021)
        wide = PrecisionContext(192)
        complex_gamma(mp.mpc(0.5, 20), wide)
        before = len(borwein_cache)
        for _ in range(40):
            zeta_derivative(mp.mpc(0.5, rng.uniform(500, 2000)), PrecisionContext(64))
            t = rng.uniform(20, 220)
            complex_gamma(mp.mpc(0.5, t), wide)
            complex_zeta(mp.mpc(0.5, t), wide)
            complex_zeta(mp.mpc(1.5, t), wide)
        assert len(borwein_cache) == before

    @pytest.mark.parametrize("bits", [64, 192])
    def test_derivative_alone_is_the_pair_entry(self, bits):
        ctx = PrecisionContext(bits)
        rng = random.Random(20261019 + bits)
        for _ in range(10):
            s = mp.mpc(rng.uniform(0.5, 3), rng.uniform(-300, 300))
            assert (complex_zeta(s, ctx), zeta_derivative(s, ctx)) == zeta_with_derivative(s, ctx)

    @pytest.mark.parametrize("bits", [64, 192])
    def test_shifted_pass_equals_separate_passes(self, first25, bits, monkeypatch):
        """The check's pass at a refined zero γ also caches ζ at γ + 1.

        Read back from that pass, ζ′(γ) and ζ(γ + 1) equal what passes of
        their own give, bit for bit, and ζ(γ + 1) is within 2**(8 - bits)
        of mpmath's at bits + 300. Near a zero the low bits of ζ(γ) are the
        pass's rounding noise, so it agrees to within 2**-bits absolutely.
        ζ′(γ + 1) is not summed: asking for it costs a pass of its own.
        """
        ctx = PrecisionContext(bits)
        with ctx.working():
            points = [(mp.mpc(0.5, z.t), mp.mpc(1.5, z.t)) for z in first25(bits)]
        for s, _ in points:
            zeta_with_derivative(s, ctx, shifted=True)
        passes, run_pass = [], special._zeta_pair
        monkeypatch.setattr(special, "_zeta_pair", lambda s, *rest: passes.append(s) or run_pass(s, *rest))

        def read():
            return [zeta_with_derivative(s, ctx) + (complex_zeta(s1, ctx),) for s, s1 in points]

        warm = read()
        assert passes == []
        special._pass_cache.clear()
        own = read()
        assert len(passes) == 2 * len(points)
        zeta_derivative(points[0][1], ctx)
        assert len(passes) == 2 * len(points) + 1
        for (s, s1), (z, zd, z1), (z_own, zd_own, z1_own) in zip(points, warm, own):
            assert (zd, z1) == (zd_own, z1_own)
            assert abs(z - z_own) <= mp.mpf(2) ** -bits
            with mp.workprec(bits + 300):
                want = mp.zeta(s1)
                assert abs(z1 - want) <= mp.mpf(2) ** (8 - bits) * abs(want)

    def test_shifted_pass_mirrors_below_the_axis(self):
        ctx = PrecisionContext(64)
        t = bundled_zeros()[0].t
        with ctx.working():  # mp.mpc rounds its parts to the ambient precision
            s, s_below, s1, s1_below = (mp.mpc(x, y) for x in (0.5, 1.5) for y in (t, -t))
        zeta_with_derivative(s_below, ctx, shifted=True)
        below = zeta_with_derivative(s1_below, ctx)
        special._pass_cache.clear()
        zeta_with_derivative(s, ctx, shifted=True)
        for a, b in zip(below, zeta_with_derivative(s1, ctx)):
            assert a.real == b.real and a.imag + b.imag == 0

    @pytest.mark.parametrize("bits", [64, 192])
    def test_schwarz_reflection_exact(self, bits):
        ctx = PrecisionContext(bits)
        rng = random.Random(20261020 + bits)
        for _ in range(10):
            s = mp.mpc(rng.uniform(0.5, 3), rng.uniform(0.5, 300))
            below = zeta_with_derivative(mp.conj(s), ctx) + (zeta_derivative(mp.conj(s), ctx),)
            above = zeta_with_derivative(s, ctx) + (zeta_derivative(s, ctx),)
            for a, b in zip(below, above):
                assert a.real == b.real and a.imag + b.imag == 0


PROPERTY_CTX = PrecisionContext(64)
property_settings = settings(max_examples=25, deadline=None, derandomize=True)
sigmas = st.floats(-5, 5)
heights = st.floats(0.05, 50)


def _values(f, s):
    v = f(s, PROPERTY_CTX)
    return v if isinstance(v, tuple) else (v,)


class TestProperties:
    """Hypothesis checks at 64 bits, |ℑ s| <= 50."""

    @pytest.mark.parametrize("f", [complex_gamma, complex_zeta, zeta_derivative, zeta_with_derivative])
    @property_settings
    @given(sigma=sigmas, t=heights)
    def test_conjugate_symmetry_exact(self, f, sigma, t):
        for a, b in zip(_values(f, mp.mpc(sigma, -t)), _values(f, mp.mpc(sigma, t))):
            assert a.real == b.real and a.imag + b.imag == 0

    @property_settings
    @given(sigma=sigmas, t=heights, sign=st.sampled_from([-1, 1]))
    def test_gamma_recurrence(self, sigma, t, sign):
        with PROPERTY_CTX.working():
            s = mp.mpc(sigma, sign * t)
            lhs = complex_gamma(s + 1, PROPERTY_CTX)
            rhs = s * complex_gamma(s, PROPERTY_CTX)
            assert abs(lhs - rhs) <= mp.mpf(2) ** (8 - PROPERTY_CTX.bits) * abs(rhs)
