"""Model primitives: parameters, configurations, pattern counting, single steps."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nedpca import (
    Configuration,
    DimensionMismatch,
    ModelParams,
    ParamError,
    SiteWindow,
    StationaryTable,
    classify_window,
    count_patterns,
    ror,
    scalar_step,
    site_update_prob,
    stationary_table_formula,
    transition_prob,
    window_masks,
)
from nedpca.model import pattern_totals


def step_sample(alpha, params, rng):
    """Reference: one synchronous update of alpha from exactly n uniforms of rng."""
    conf = Configuration.coerce(alpha, params.n)
    return Configuration(scalar_step(conf.code, params, rng.random(params.n)), params.n)


def per_bit_to_string(code, n):
    """Reference: the per-bit string loop, site 1 leftmost."""
    return "".join("1" if (code >> i) & 1 else "0" for i in range(n))


def per_bit_code(s):
    """Reference: the per-bit parse, character i setting bit i."""
    code = 0
    for i, c in enumerate(s):
        if c == "1":
            code |= 1 << i
    return code


small_params = st.builds(
    lambda n_extra, m, p1, p2: ModelParams(m + n_extra, m, p1, p2),
    st.integers(0, 6),
    st.integers(2, 5),
    st.floats(0.05, 0.95),
    st.floats(0.05, 1.0),
)


class TestModelParams:
    def test_accepts_boundary_p2(self):
        ModelParams(4, 2, 0.5, 1.0)

    @pytest.mark.parametrize(
        "n,m,p1,p2",
        [
            (2, 5, 0.3, 0.5),  # m > n
            (3, 1, 0.3, 0.5),  # m < 2
            (4, 2, 0.0, 0.5),
            (4, 2, 1.0, 0.5),
            (4, 2, 0.3, 0.0),
            (4, 2, 0.3, 1.1),
            (4, 2, -0.1, 0.5),
        ],
    )
    def test_rejects_out_of_range(self, n, m, p1, p2):
        with pytest.raises(ParamError):
            ModelParams(n, m, p1, p2)

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ParamError):
            ModelParams(4.0, 2, 0.3, 0.5)

    def test_exact_flag(self):
        assert ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3)).exact
        assert not ModelParams(3, 2, 0.5, Fraction(1, 3)).exact

    def test_mixed_pair_is_stored_as_floats(self):
        params = ModelParams(5, 3, Fraction(3, 10), 0.5)
        assert type(params.p1) is float and params.p1 == 0.3
        assert type(params.p2) is float and params.p2 == 0.5
        params = ModelParams(5, 3, 0.3, Fraction(1, 2))
        assert (params.p1, params.p2) == (0.3, 0.5) and type(params.p2) is float

    def test_n_states(self):
        assert ModelParams(5, 2, 0.3, 0.5).n_states == 32


class TestConfiguration:
    def test_string_round_trip(self):
        conf = Configuration.from_string("10010")
        assert conf.to_string() == "10010"
        assert conf.code == 0b01001  # site 1 is the least significant bit

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1024])
    def test_conversions_match_the_per_bit_reference(self, n):
        rng = random.Random(n)
        codes = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        for code in codes:
            conf = Configuration(code, n)
            s = per_bit_to_string(code, n)
            assert conf.to_string() == str(conf) == s
            assert conf.bits() == tuple((code >> i) & 1 for i in range(n))
            assert Configuration.from_string(s) == conf and per_bit_code(s) == code

    @pytest.mark.parametrize("text", ["", "012", "0_1", "+01", " 01", "01 ", "0 1", "1\n"])
    def test_from_string_takes_only_zeros_and_ones(self, text):
        # int(text, 2) alone would accept underscores, a sign and whitespace
        with pytest.raises(ParamError, match="nonempty over 0/1"):
            Configuration.from_string(text)

    def test_bit_is_one_based_and_cyclic(self):
        conf = Configuration.from_string("100")
        assert conf.bit(1) == 1
        assert conf.bit(2) == 0
        assert conf.bit(4) == conf.bit(1)

    def test_coerce_variants(self):
        conf = Configuration(5, 4)
        assert Configuration.coerce(conf, 4) is conf
        assert Configuration.coerce(5, 4) == conf
        assert Configuration.coerce("1010", 4) == conf
        with pytest.raises(ParamError):
            Configuration.coerce("101", 4)
        with pytest.raises(ParamError, match="configuration has n=4, expected n=5"):
            Configuration.coerce(conf, 5)
        with pytest.raises(ParamError, match="ring size must be positive"):
            Configuration(0, 0)

    def test_coerce_accepts_numpy_integers(self):
        params = ModelParams(4, 2, 0.3, 0.5)
        table = stationary_table_formula(params)
        assert table.prob(np.int64(3)) == table.prob(3)
        assert transition_prob(np.int64(1), np.int64(0), params) == transition_prob(1, 0, params)
        assert Configuration.coerce(np.uint8(5), 4) == Configuration(5, 4)
        with pytest.raises(ParamError):
            Configuration.coerce(3.0, 4)
        with pytest.raises(ParamError):
            Configuration.coerce(np.float64(3.0), 4)

    @given(st.integers(2, 24), st.integers(0, 2**24 - 1), st.integers(-30, 30))
    def test_rotation_preserves_popcount(self, n, raw, k):
        code = raw & ((1 << n) - 1)
        assert ror(code, k, n).bit_count() == code.bit_count()

    @given(st.integers(2, 24), st.integers(0, 2**24 - 1), st.integers(-30, 30))
    def test_ror_inverts(self, n, raw, k):
        code = raw & ((1 << n) - 1)
        assert ror(ror(code, k, n), -k, n) == code


def naive_counts(bits, m):
    """Independent pattern scanner working on the tuple of site values."""
    n = len(bits)
    n1 = sum(bits)
    inner = [0] * (m - 2)
    blocked = 0
    for i in range(n):
        if bits[i] == 1:
            continue
        # length of the vacant stretch starting here
        run = 0
        while run < n and bits[(i + run) % n] == 0:
            run += 1
        if run >= m - 1 and bits[(i + m - 1) % n] == 1:
            blocked += 1
    for i in range(n):
        for r in range(1, m - 1):
            if (
                bits[i] == 1
                and bits[(i + r + 1) % n] == 1
                and all(bits[(i + j) % n] == 0 for j in range(1, r + 1))
            ):
                inner[r - 1] += 1
    return n1, tuple(inner), blocked


class TestCountPatterns:
    def test_reference_values(self):
        assert count_patterns("10010", ModelParams(5, 3, 0.3, 0.5)) == [2, 1, 1]
        assert count_patterns("011", ModelParams(3, 2, 0.3, 0.5)) == [2, 1]

    def test_all_vacant_and_all_occupied(self):
        params = ModelParams(6, 4, 0.3, 0.5)
        assert count_patterns(0, params) == [0, 0, 0, 0]
        assert count_patterns(2**6 - 1, params) == [6, 0, 0, 0]

    @given(small_params, st.integers(0, 2**12 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_scanner(self, params, raw):
        code = raw & (params.n_states - 1)
        conf = Configuration(code, params.n)
        n1, inner, blocked = naive_counts(conf.bits(), params.m)
        assert count_patterns(conf, params) == [n1, *inner, blocked]


class TestPatternTotals:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 31, 63, 64, 65, 130])
    def test_sums_the_naive_scanner(self, n):
        rng = random.Random(n)
        for m in sorted({*range(2, min(n, 6) + 1), n}):
            params = ModelParams(n, m, 0.3, 0.5)
            # sparse to dense rings, plus both extremes, so every pattern occurs
            codes = [0, (1 << n) - 1]
            for k in range(12):
                code = rng.getrandbits(n)
                for _ in range(k % 4):
                    code &= rng.getrandbits(n)
                codes.append(code)
            expected = [0] * m
            for code in codes:
                n1, inner, blocked = naive_counts(Configuration(code, n).bits(), m)
                expected = [a + b for a, b in zip(expected, (n1, *inner, blocked))]
            assert pattern_totals(codes, params) == expected
            assert pattern_totals([], params) == [0] * m
            field = (2 * n + 7) // 8  # the same codes as bytes already laid out
            laid_out = b"".join(code.to_bytes(field, "little") for code in codes)
            assert pattern_totals(laid_out, params) == expected
            assert pattern_totals(b"", params) == [0] * m


def test_stationary_table_rejects_wrong_length():
    params = ModelParams(3, 2, 0.3, 0.5)
    with pytest.raises(DimensionMismatch, match=r"table length 7 != 2\*\*n = 8"):
        StationaryTable(params, (0.125,) * 7)


class TestWindows:
    def test_classification_examples(self):
        params = ModelParams(5, 3, 0.3, 0.5)
        alpha = Configuration.from_string("00100")
        assert classify_window(alpha, 1, params) is SiteWindow.BLOCKED_VACANCY
        assert classify_window(alpha, 4, params) is SiteWindow.OPEN_VACANCY
        assert classify_window(alpha, 2, params) is SiteWindow.FORCED
        assert classify_window(alpha, 3, params) is SiteWindow.FORCED

    def test_rejects_out_of_range_site_and_bit(self):
        params = ModelParams(5, 3, 0.3, 0.5)
        for site in (0, 6):
            with pytest.raises(ParamError, match=f"site must lie in 1..5, got {site}"):
                classify_window(0, site, params)
        with pytest.raises(ParamError, match="new_bit must be 0 or 1, got 2"):
            site_update_prob(SiteWindow.OPEN_VACANCY, 2, params)

    @given(small_params, st.integers(0, 2**12 - 1))
    @settings(max_examples=100, deadline=None)
    def test_update_probs_sum_to_one(self, params, raw):
        code = raw & (params.n_states - 1)
        for site in range(1, params.n + 1):
            w = classify_window(Configuration(code, params.n), site, params)
            assert math.isclose(
                site_update_prob(w, 0, params) + site_update_prob(w, 1, params), 1.0
            )

    @given(small_params, st.integers(0, 2**12 - 1))
    @settings(max_examples=100, deadline=None)
    def test_masks_agree_with_classification(self, params, raw):
        code = raw & (params.n_states - 1)
        open_mask, blocked_mask = window_masks(code, params)
        for site in range(1, params.n + 1):
            w = classify_window(Configuration(code, params.n), site, params)
            bit = 1 << (site - 1)
            assert bool(open_mask & bit) == (w is SiteWindow.OPEN_VACANCY)
            assert bool(blocked_mask & bit) == (w is SiteWindow.BLOCKED_VACANCY)

    @pytest.mark.parametrize("n", [9, 12, 16])
    def test_array_of_codes_gives_the_per_code_masks(self, n):
        codes = np.arange(2**n, dtype=np.int64)
        for m in sorted({*range(2, 7), n}):
            params = ModelParams(n, m, 0.3, 0.5)
            open_mask, blocked_mask = window_masks(codes, params)
            expected = np.array([window_masks(c, params) for c in range(2**n)])
            assert np.array_equal(open_mask, expected[:, 0])
            assert np.array_equal(blocked_mask, expected[:, 1])
            assert np.array_equal(codes, np.arange(2**n))  # input left as it was


class TestTransitionProb:
    def test_single_blocked_site(self):
        params = ModelParams(3, 2, 0.3, 0.5)
        # only site 1 can stay occupied (blocked window), sites 2-3 are forced
        assert transition_prob("011", "100", params) == pytest.approx(1 - 0.5)

    def test_deposit_on_empty_ring(self):
        params = ModelParams(4, 2, 0.3, 0.5)
        assert transition_prob("0000", "1010", params) == pytest.approx(0.3**2 * 0.7**2)

    def test_exact_arithmetic(self):
        params = ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3))
        assert transition_prob("011", "100", params) == Fraction(2, 3)

    @given(small_params, st.integers(0, 2**12 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, params, raw):
        if params.n > 6:
            params = ModelParams(6, min(params.m, 6), params.p1, params.p2)
        alpha = raw & (params.n_states - 1)
        total = math.fsum(
            transition_prob(alpha, beta, params) for beta in range(params.n_states)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestScalarStep:
    def test_forced_sites_ignore_draws(self):
        params = ModelParams(4, 2, 0.3, 0.5)
        # 1111: every window starts occupied, so the ring empties surely
        assert scalar_step(0b1111, params, [0.0, 0.0, 0.0, 0.0]) == 0

    def test_low_draws_fill_open_sites(self):
        params = ModelParams(4, 2, 0.3, 0.5)
        assert scalar_step(0, params, [0.0] * 4) == 0b1111
        assert scalar_step(0, params, [1.0] * 4) == 0

    @pytest.mark.parametrize(
        "p1, p2",
        [(0.3, 0.5), (0.9, 1.0), (Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 7), Fraction(1))],
        ids=["float", "float-p2-1", "fraction", "fraction-p2-1"],
    )
    def test_each_site_follows_its_window(self, p1, p2):
        # bit i fills exactly at an open vacancy with u[i] < float(p1) or at a
        # blocked one with u[i] < 1 - float(p2); draws sit on and just below both
        # thresholds, and bits of the code at or above n change nothing. Codes 0
        # and 1 << j hold open and blocked vacancies at every m, up to m = n
        rng = random.Random(17)
        f1, r2 = float(p1), 1 - float(p2)
        draws = (f1, r2, math.nextafter(f1, 0), math.nextafter(r2, 0))
        for n in range(2, 21):
            for m in range(2, n + 1):
                params = ModelParams(n, m, p1, p2)
                for code in (0, 1 << rng.randrange(n), rng.getrandbits(n), rng.getrandbits(n)):
                    u = [rng.choice(draws + (rng.random(),)) for _ in range(n)]
                    new = scalar_step(code, params, u)
                    for i in range(n):
                        w = classify_window(Configuration(code, n), i + 1, params)
                        fills = (w is SiteWindow.OPEN_VACANCY and u[i] < f1) or (
                            w is SiteWindow.BLOCKED_VACANCY and u[i] < r2
                        )
                        assert new >> i & 1 == fills, (n, m, code, i)
                    assert scalar_step(np.int64(code), params, u) == new
                    assert scalar_step(code | rng.randrange(1, 1 << 70) << n, params, u) == new

    def test_step_sample_reproducible(self):
        params = ModelParams(6, 3, 0.3, 0.5)
        out1 = step_sample("010010", params, np.random.default_rng(5))
        out2 = step_sample("010010", params, np.random.default_rng(5))
        assert out1 == out2
        assert isinstance(out1, Configuration)
