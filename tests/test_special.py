import random
from fractions import Fraction

import mpmath as mp
import pytest

from npcount import (
    PoleError,
    PrecisionContext,
    bernoulli_even,
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


def test_bernoulli_small_values():
    B = bernoulli_even(6)
    assert B == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                 Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730)]


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
        s = CTX.complex("0.5", "14.134725141")
        want = CTX.complex(*golden.GAMMA_AT_HALF_PLUS_I_14_134725141)
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
        s = CTX.complex("-3", "0") + CTX.real("1e-60")
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
        s = CTX.complex(2, 3)
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
        s = CTX.complex("0.5", "21.0220396")
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
