from fractions import Fraction
from math import gcd, isqrt, pi

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npcount import CountSeries, SlopeRange, count_series, log_derivative_weights
from npcount import counting
from npcount.counting import (
    _BASE_BLOCK,
    _GROUP,
    _plane_layout,
    _series_from_weights,
    _slot_width,
    _transform_length,
    _windows,
    smallest_prime_factors,
)

import golden
import oracles
from oracles import (
    divisor_sum_weights,
    rho_bruteforce,
    segment_exponents,
    series_from_exponents,
    totient_sieve,
)


class TestTotient:
    @pytest.mark.parametrize("n,phi", [(1, 1), (2, 1), (6, 2), (10, 4), (12, 4), (97, 96)])
    def test_known_values(self, n, phi):
        assert totient_sieve(n)[n] == phi

    def test_against_direct_coprime_count(self):
        phi = totient_sieve(300)
        for n in range(1, 301):
            assert phi[n] == sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)

    def test_partial_sum_asymptotic(self):
        # sum_{n<=N} phi(n) ~ 3 N^2 / pi^2, within 0.1% at N = 10^4
        total = sum(totient_sieve(10_000)[1:])
        expect = 3 / pi ** 2 * 1e8
        assert abs(total - expect) <= 1e-3 * expect

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            totient_sieve(0)


class TestSegmentExponents:
    def test_half_open_is_totient(self):
        phi = totient_sieve(50)
        assert segment_exponents(SlopeRange.HALF_OPEN_01, 50) == phi

    def test_closed_adds_unit_slope(self):
        e = segment_exponents(SlopeRange.CLOSED_01, 10)
        assert e[1] == 2
        assert e[2:] == totient_sieve(10)[2:]

    def test_half_range_small(self):
        e = segment_exponents(SlopeRange.CLOSED_0_HALF, 4)
        assert e[1:] == [1, 1, 1, 1]

    @pytest.mark.parametrize("limit,head", [(1, [2]), (2, [2, 0]), (6, [2, 0, 1, 1, 2, 1])])
    def test_symmetric_is_one_plus_x_times_half_range(self, limit, head):
        # (1 + x) = (1 - x²)/(1 - x): one more factor at m = 1, one fewer at m = 2
        assert segment_exponents(SlopeRange.SYMMETRIC, limit) == [0] + head

    @pytest.mark.parametrize("slope_range,num_ok", [
        (SlopeRange.HALF_OPEN_01, lambda n, m: n < m),
        (SlopeRange.CLOSED_01, lambda n, m: n <= m),
        (SlopeRange.CLOSED_0_HALF, lambda n, m: 2 * n <= m),
    ])
    def test_matches_direct_count_up_to_50(self, slope_range, num_ok):
        e = segment_exponents(slope_range, 50)
        for m in range(1, 51):
            assert e[m] == oracles.count_coprime_slopes(m, num_ok), m


class TestCountSeries:
    def test_golden_small(self):
        s = count_series(SlopeRange.HALF_OPEN_01, 10)
        assert s.values == golden.COUNTS_0_TO_10

    def test_golden_100(self):
        assert count_series(SlopeRange.HALF_OPEN_01, 100)[100] == golden.COUNT_100

    def test_limit_zero(self):
        assert count_series(SlopeRange.HALF_OPEN_01, 0).values == (1,)

    def test_limit_is_read_from_the_values(self):
        assert CountSeries(SlopeRange.HALF_OPEN_01, (1, 1, 2)).limit == 2
        assert count_series(SlopeRange.CLOSED_01, 7).limit == 7
        with pytest.raises(TypeError, match="takes 2 fields, got 3"):
            CountSeries(SlopeRange.HALF_OPEN_01, 3, (1, 1, 2))

    def test_closed_small(self):
        s = count_series(SlopeRange.CLOSED_01, 5)
        assert s.values == (1, 2, 4, 8, 15, 28)

    def test_closed_matches_bruteforce_by_depth(self):
        s = count_series(SlopeRange.CLOSED_01, 8)
        for h in range(1, 9):
            total = sum(rho_bruteforce(h, d, SlopeRange.CLOSED_01) for d in range(h + 1))
            assert s[h] == total

    def test_against_product_oracle(self):
        limit = 200
        for slope_range in SlopeRange:
            e = segment_exponents(slope_range, limit)
            assert series_from_exponents(e, limit) == oracles.product_series(e, limit)

    def test_prefix_sum_identity(self):
        base = count_series(SlopeRange.HALF_OPEN_01, 200)
        closed = count_series(SlopeRange.CLOSED_01, 200)
        running = 0
        for n in range(201):
            running += base[n]
            assert closed[n] == running

    def test_square_identity(self):
        # the [0,1/2] series squared equals the [0,1) series with extra
        # 1/(1-x) and 1/(1-x^2) factors, coefficientwise
        limit = 200
        half = count_series(SlopeRange.CLOSED_0_HALF, limit)
        e = segment_exponents(SlopeRange.HALF_OPEN_01, limit)
        e[1] += 1
        e[2] += 1
        rhs = series_from_exponents(e, limit)
        for n in range(limit + 1):
            conv = sum(half[i] * half[n - i] for i in range(n + 1))
            assert conv == rhs[n]

    def test_nondecreasing_half_open(self):
        s = count_series(SlopeRange.HALF_OPEN_01, 400)
        assert all(s[n + 1] >= s[n] for n in range(400))

    def test_all_ranges_start_at_one_and_stay_positive(self):
        for slope_range in SlopeRange:
            s = count_series(slope_range, 100)
            assert s[0] == 1
            assert all(v >= 1 for v in s.values)

    @pytest.mark.parametrize("n,lead", [(1000, golden.COUNT_1000_LEAD),
                                        (10_000, golden.COUNT_10000_LEAD)])
    def test_golden_leading_digits(self, series_half_10k, n, lead):
        text = str(series_half_10k[n])
        assert (text[:10], len(text) - 1) == lead

    def test_inexact_division_raises(self):
        # weight table not of log-derivative form: 2 a(2) = b(1) a(1) + b(2) a(0) = 3
        with pytest.raises(ArithmeticError):
            _series_from_weights([0, 1, 2], 2)

    def test_inexact_division_beyond_first_block_raises(self):
        # two leaves, [0, B) and [B, 2B): b(B) reaches the sum at n = B only
        # through the block product, not in a leaf
        limit = 2 * _BASE_BLOCK - 1
        b = log_derivative_weights(SlopeRange.HALF_OPEN_01, limit)
        b[_BASE_BLOCK] += 1
        with pytest.raises(ArithmeticError, match=f"n={_BASE_BLOCK}"):
            _series_from_weights(b, limit)

    def test_zero_weights_across_blocks(self):
        # every block product is 0, one decimal digit, so its read-back stops at once
        limit = 2 * _BASE_BLOCK + 1
        assert _series_from_weights([0] * (limit + 1), limit) == [1] + [0] * limit

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="b\\(k\\)"):
            _series_from_weights([0, 1, -1], 2)

    def test_negative_exponent_rejected(self):
        # e = (2, -1) gives weights b = (2, 0) >= 0, but the exponent itself is refused
        with pytest.raises(ValueError, match="e\\(m\\)"):
            series_from_exponents([0, 2, -1], 2)

    @settings(max_examples=30, deadline=None)
    @given(limit=st.integers(1, 3 * _BASE_BLOCK), slope_range=st.sampled_from(list(SlopeRange)))
    @example(limit=_BASE_BLOCK, slope_range=SlopeRange.HALF_OPEN_01)
    @example(limit=_BASE_BLOCK + 1, slope_range=SlopeRange.CLOSED_01)
    @example(limit=2 * _BASE_BLOCK + 1, slope_range=SlopeRange.CLOSED_0_HALF)
    def test_fast_route_equals_quadratic_reference(self, limit, slope_range):
        b = log_derivative_weights(slope_range, limit)
        assert _series_from_weights(b, limit) == oracles.series_quadratic_reference(b, limit)

    def test_sparse_exponents_across_blocks(self):
        # 1/((1 - x^300)(1 - x^7)): long runs of a(n) = 0 and a non-monotone a
        limit = 3 * _BASE_BLOCK
        e = [0] * (limit + 1)
        e[7] = e[300] = 1
        assert series_from_exponents(e, limit) == oracles.product_series(e, limit)


class TestPackedLeaf:
    """Each leaf: R heights per multiply-add on counts packed in binary slots."""

    @pytest.mark.parametrize("group", [2, 3, _GROUP])
    @pytest.mark.parametrize("leaf", [7, 16])
    @pytest.mark.parametrize("slope_range", list(SlopeRange))
    def test_small_groups_and_leaves_equal_quadratic_reference(self, monkeypatch, group, leaf,
                                                                slope_range):
        # every group offset, the first leaf, the zeros below lo and the short
        # last group; a misaligned slice can keep every division by n exact
        monkeypatch.setattr(counting, "_GROUP", group)
        monkeypatch.setattr(counting, "_BASE_BLOCK", leaf)
        for limit in [*range(41), 4 * leaf - 1, 4 * leaf, 4 * leaf + 1]:
            b = log_derivative_weights(slope_range, limit)
            assert _series_from_weights(b, limit) == oracles.series_quadratic_reference(b, limit), \
                limit

    @pytest.mark.parametrize("slope_range", list(SlopeRange))
    def test_too_narrow_first_slots_are_rebuilt(self, monkeypatch, slope_range):
        # the first width is 1 bit, every later one exactly the slot bound
        widths, rebuilds = [], []

        def narrow(need):
            widths.append(1 if not widths else need.bit_length())
            return widths[-1]

        def spy(counts, R, width):
            rebuilds.append(len(counts))
            return _windows(counts, R, width)
        monkeypatch.setattr(counting, "_slot_width", narrow)
        monkeypatch.setattr(counting, "_windows", spy)
        b = log_derivative_weights(slope_range, 600)
        assert _series_from_weights(b, 600) == oracles.series_quadratic_reference(b, 600)
        assert rebuilds[0] == _GROUP  # before the first leaf's second group

    def test_slot_width_holds_the_bound(self):
        for need in [0, 1, 2 ** 64 - 1, 2 ** 64, 3 ** 500]:
            assert need >> _slot_width(need) == 0

    def test_windows_hold_each_count_in_its_slot(self):
        counts, width = [5, 0, 7, 1, 3], 4
        windows = _windows(counts, 3, width)
        padded = [0, 0] + counts
        assert windows == [0] + [sum(padded[t + i] << i * width for i in range(3))
                                 for t in range(len(counts))]


class TestMiddleProduct:
    """Each node's product: D limbs of every count, as planes M slots apart, times b(1..M)."""

    LIMIT = 600

    @pytest.fixture(autouse=True)
    def leaves_of_256(self, monkeypatch):
        """Leaves of 256 heights, so that LIMIT's tree has a top node and two below it."""
        monkeypatch.setattr(counting, "_BASE_BLOCK", 256)

    @classmethod
    def weights(cls, kind):
        """b(0..LIMIT): e(m) = 10^4 at every m ("dense") or every third m ("sparse"), or b = 33 ("flat").

        The first two give counts of hundreds of digits, and "sparse" has
        a(n) = 0 off the multiples of 3. "flat" gives a(n) = C(n + 32, n),
        whose limbs fill the slots: L·b = 9900 at the top node, against the
        10^4 that its four digits of L·max b allow.
        """
        if kind == "flat":
            return [0] + [33] * cls.LIMIT
        step = 3 if kind == "sparse" else 1
        return divisor_sum_weights([0] + [10 ** 4 if m % step == 0 else 0
                                          for m in range(1, cls.LIMIT + 1)], cls.LIMIT)

    @staticmethod
    def force(monkeypatch, narrowest, narrower_slots=0):
        """Every node takes the most limbs no narrower than L·max b (or two), whatever its transform."""
        chosen = []

        def layout(L, M, digits, width, over):
            d = max(digits // over, 1) if narrowest else min(2, max(digits // over, 1))
            chosen.append(d)
            s = -(-digits // d)
            return (1, digits, width) if d == 1 else (d, s, s + over - narrower_slots)
        monkeypatch.setattr(counting, "_plane_layout", layout)
        return chosen

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_planes_chosen_by_transform_length_equal_quadratic_reference(self, monkeypatch, kind):
        b = self.weights(kind)
        chosen = []

        def spy(L, M, digits, width, over):
            layout = _plane_layout(L, M, digits, width, over)
            chosen.append(layout[0])
            if layout[0] > 1:  # only a shorter transform replaces the whole counts
                d, s, w = layout
                assert s >= over and w == s + over and d * s >= digits
                assert _transform_length(((d - 1) * M + L) * w, M * w) < \
                    _transform_length(L * width, M * width)
            return layout
        monkeypatch.setattr(counting, "_plane_layout", spy)
        assert _series_from_weights(b, self.LIMIT) == oracles.series_quadratic_reference(b, self.LIMIT)
        assert 1 in chosen and max(chosen) >= 2

    def test_dense_counts_rebuild_the_leaf_slots(self, monkeypatch):
        # the counts outgrow the width that a leaf starts with, which its
        # fold sums set, so the packed windows are rebuilt wider
        leaves = set()

        def spy(counts, R, width):
            leaves.add(counts[0])  # a(lo) names the leaf
            return _windows(counts, R, width)
        monkeypatch.setattr(counting, "_windows", spy)
        b = self.weights("dense")
        assert _series_from_weights(b, self.LIMIT) == oracles.series_quadratic_reference(b, self.LIMIT)
        assert len(leaves) == 4  # every leaf: [0, 150), [150, 300), [300, 450), [450, 601)

    @pytest.mark.parametrize("kind", ["dense", "sparse", "flat"])
    @pytest.mark.parametrize("narrowest", [True, False])
    def test_narrowest_and_two_limb_planes_are_exact(self, monkeypatch, kind, narrowest):
        b = self.weights(kind)
        chosen = self.force(monkeypatch, narrowest)
        assert _series_from_weights(b, self.LIMIT) == oracles.series_quadratic_reference(b, self.LIMIT)
        assert max(chosen) >= (9 if narrowest else 2)

    def test_slots_one_digit_narrower_carry(self, monkeypatch):
        # the "flat" limbs reach the slot bound: one digit less and a carry
        # spoils a needed slot, which the exact division then catches
        self.force(monkeypatch, True, narrower_slots=1)
        with pytest.raises(ArithmeticError, match="not divisible"):
            _series_from_weights(self.weights("flat"), self.LIMIT)

    @pytest.mark.parametrize("words,length", [
        ((1,), 1024), ((1024,), 1024), ((1025,), 1536), ((1536,), 1536),
        ((1537,), 2048), ((2048,), 2048), ((2049,), 3072), ((1000, 25), 1536),
    ])
    def test_transform_length_is_the_first_power_or_three_halves_power(self, words, length):
        # digit counts of whole words, and one digit past a word
        assert _transform_length(*(19 * w for w in words)) == length
        assert _transform_length(19 * words[0] + 1, *(19 * w for w in words[1:])) >= length


class TestSmallestPrimeFactors:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 49, 300, 2187])
    def test_against_trial_division(self, n):
        def least_factor(k):  # 0 for primes and k < 2
            return next((d for d in range(2, isqrt(k) + 1) if k % d == 0), 0)
        assert smallest_prime_factors(n) == [least_factor(k) for k in range(n + 1)]


class TestLogDerivativeWeights:
    LIMIT = 200

    @pytest.mark.parametrize("slope_range", list(SlopeRange))
    @settings(max_examples=30, deadline=None)
    @given(limit=st.integers(1, 3 * _BASE_BLOCK))
    @example(limit=LIMIT)
    @example(limit=1)
    @example(limit=2)
    @example(limit=3)
    @example(limit=4)
    @example(limit=8)
    @example(limit=9)
    @example(limit=27)
    @example(limit=32)
    @example(limit=49)
    @example(limit=1024)
    @example(limit=2187)
    def test_divisor_sum(self, slope_range, limit):
        # prime powers and squares take the sieve's p | k/p branch; w = 1/2 stays in int
        b = log_derivative_weights(slope_range, limit)
        assert b[0] == 0
        assert all(type(v) is int for v in b)
        assert b == divisor_sum_weights(segment_exponents(slope_range, limit), limit)

    @pytest.mark.parametrize("slope_range", list(SlopeRange))
    def test_are_k_times_log_coefficients(self, slope_range):
        # log Π (1 - x^m)^(-e(m)) = Σ_m e(m) Σ_j x^(jm)/j, expanded term by term
        e = segment_exponents(slope_range, self.LIMIT)
        log_coeffs = [Fraction(0)] * (self.LIMIT + 1)
        for m in range(1, self.LIMIT + 1):
            for j in range(1, self.LIMIT // m + 1):
                log_coeffs[j * m] += Fraction(e[m], j)
        b = log_derivative_weights(slope_range, self.LIMIT)
        assert [Fraction(b[k], k) for k in range(1, self.LIMIT + 1)] == log_coeffs[1:]


class TestSymmetric:
    def test_small_values(self):
        assert count_series(SlopeRange.SYMMETRIC, 8).values[1:] == golden.SYMMETRIC_COUNTS

    def test_half_range_at_zero(self):
        assert count_series(SlopeRange.CLOSED_0_HALF, 0)[0] == 1
        assert count_series(SlopeRange.CLOSED_0_HALF, 8).values == golden.HALF_RANGE_COUNTS

    def test_against_bruteforce_enumeration(self):
        sym = count_series(SlopeRange.SYMMETRIC, 5)
        for g in range(1, 6):
            assert sym[g] == oracles.symmetric_polygons_bruteforce(g)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_series(SlopeRange.SYMMETRIC, -1)

    def test_genus_zero_is_the_empty_polygon(self):
        assert count_series(SlopeRange.SYMMETRIC, 0).values == (1,)
