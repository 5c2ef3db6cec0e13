"""Stationary weights, the combinatorial partition sum, the density formula, and
the m = 2 reversibility ratio.

The strongest checks here are census properties: the enumerated weight
classes must tile the whole configuration space, so their multiplicities
have to add up to binomial coefficients exactly, in integers.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nedpca import closedforms
from nedpca import (
    Configuration,
    DomainError,
    ModelParams,
    ParamError,
    density_formula,
    enumerate_compositions,
    enumerate_index_pairs,
    partition_formula,
    position_pairs,
    reversibility_ratio,
    stationary_table_formula,
    stationary_weight,
    transition_prob,
    weight_terms,
    z2_log_recurrence,
    z2_recurrence,
)
from test_model import naive_counts

PARAMS_635 = ModelParams(6, 3, 0.3, 0.5)
RATIONAL = ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3))


class TestStationaryWeight:
    def test_reference_weight(self):
        # two occupied sites and one unit gap: p1^2 * (1-p1)/p2
        params = ModelParams(3, 2, 0.3, 0.5)
        assert stationary_weight("011", params) == pytest.approx(0.09 * 1.4)

    def test_vacant_ring_has_unit_weight(self):
        assert stationary_weight(0, PARAMS_635) == 1.0
        assert stationary_weight(0, RATIONAL) == Fraction(1)

    def test_exact_weights(self):
        assert stationary_weight("011", RATIONAL) == Fraction(1, 4) * Fraction(3, 2)

    def test_tiny_probabilities_do_not_overflow(self):
        # p2**-2 alone is 1e400, but the weight is (1 - p1)**2
        assert stationary_weight("1010", ModelParams(4, 2, 1e-200, 1e-200)) == 1.0
        tiny = Fraction(1, 10**200)
        assert stationary_weight("1010", ModelParams(4, 2, tiny, tiny)) == (1 - tiny) ** 2

    def test_tiny_probabilities_table_matches_the_fractions(self):
        p = Fraction(1, 10**30)
        floats = stationary_table_formula(ModelParams(12, 2, float(p), float(p))).probs
        exact = stationary_table_formula(ModelParams(12, 2, p, p)).probs
        normal = [(x, y) for x, y in zip(floats, exact) if y > 1e-300]  # the rest underflow
        assert len(normal) > 1000
        assert max(abs(Fraction(x) - y) / y for x, y in normal) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_paper_pattern_product(self, n):
        # the weight is read off the window masks; the paper writes it over the
        # patterns 1 0^r 1 and 0^(m-1) 1, counted here by an independent scanner.
        # The product is p1^n1 (1-p1)^zeros p2^-blocked, taken in the library's
        # order so that floats compare with ==
        points = [(0.3, 0.45), (Fraction(1, 3), Fraction(1, 2))]
        for m in range(2, n + 1):
            for code in range(2**n):
                n1, inner, blocked = naive_counts(Configuration(code, n).bits(), m)
                zeros = sum((r + 1) * c for r, c in enumerate(inner)) + (m - 1) * blocked
                for p1, p2 in points:
                    expected = (p1 / p2) ** blocked * p1 ** (n1 - blocked) * (1 - p1) ** zeros
                    assert stationary_weight(code, ModelParams(n, m, p1, p2)) == expected

    @given(
        st.integers(2, 5),
        st.integers(0, 5),
        st.integers(0, 2**10 - 1),
        st.floats(0.05, 0.95),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_weight_is_positive(self, m, extra, raw, p1, p2):
        params = ModelParams(m + extra, m, p1, p2)
        assert stationary_weight(raw & (params.n_states - 1), params) > 0


class TestIndexPairEnumeration:
    def test_reference_sets(self):
        assert enumerate_index_pairs(3, 2, 1) == ((0, 1), (0, 2), (1, 1), (2, 0))
        assert enumerate_index_pairs(3, 2, 2) == ((0, 1), (1, 0))
        assert enumerate_index_pairs(3, 2, 3) == ((0, 0),)
        assert enumerate_index_pairs(5, 3, 2) == ((0, 1), (1, 1), (3, 0))

    def test_equals_its_definition(self):
        # the docstring's rule as a brute-force filter over M, N in 0..n-k, in order
        for n in range(2, 41):
            for m in range(2, min(n, 12) + 1):
                for k in range(1, n + 1):
                    r = n - k
                    want = tuple(
                        (M, N)
                        for M in range(r + 1)
                        for N in range(r + 1)
                        if (M <= r - m + 1 or M == r)
                        and N <= (r - M) // (m - 1)
                        and (N == 0) == (M == r)
                    )
                    assert enumerate_index_pairs(n, m, k) == want, (n, m, k)

    def test_blocked_count_zero_iff_saturated_gap(self):
        for k in range(1, 9):
            for M, N in enumerate_index_pairs(8, 3, k):
                assert (N == 0) == (M == 8 - k)

    def test_binomial_arguments_stay_in_range(self):
        # weight_terms calls math.comb(a, b) for N >= 1 and takes 1 for N = 0,
        # which is binom(-1, -1); it needs a >= b >= 0 wherever N >= 1
        for n in range(2, 31):
            for m in range(2, min(n, 8) + 1):
                for k in range(1, n + 1):
                    for M, N in enumerate_index_pairs(n, m, k):
                        a, b = n - k - M - (m - 2) * N - 1, N - 1
                        if N == 0:
                            assert (a, b) == (-1, -1)
                        else:
                            assert a >= b >= 0, (n, m, k, M, N)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ParamError):
            enumerate_index_pairs(4, 2, 0)
        with pytest.raises(ParamError):
            enumerate_index_pairs(4, 2, 5)
        with pytest.raises(ParamError, match="need m >= 2"):
            enumerate_index_pairs(4, 1, 2)


class TestCompositions:
    def test_two_slot_example(self):
        # m=4: x1 + 2 x2 = 3 with both parts at most k
        got = enumerate_compositions(3, 3, 4)
        assert set(got) == {(3, 0), (1, 1)}

    def test_nearest_neighbour_degenerates(self):
        assert enumerate_compositions(0, 2, 2) == ((),)
        assert enumerate_compositions(1, 2, 2) == ()

    def test_part_bound(self):
        # x1 = 3 would exceed k = 2
        assert set(enumerate_compositions(3, 2, 4)) == {(1, 1)}

    def test_rejects_bad_ranges(self):
        with pytest.raises(ParamError, match="need M >= 0"):
            enumerate_compositions(-1, 2, 4)
        with pytest.raises(ParamError, match="need m >= 2"):
            enumerate_compositions(0, 2, 1)


class TestWeightTermCensus:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n_extra", [0, 1, 2, 3, 4])
    def test_multiplicities_tile_the_cube(self, m, n_extra):
        n = m + n_extra
        params = ModelParams(n, m, 0.3, 0.5)
        by_k = {}
        by_k_occupied = {}
        for term in weight_terms(params):
            by_k[term.k] = by_k.get(term.k, 0) + term.multiplicity
            by_k_occupied[term.k] = (
                by_k_occupied.get(term.k, 0) + term.occupied_multiplicity
            )
        for k in range(1, n + 1):
            assert by_k.get(k, 0) == math.comb(n, k)
            # classes refine the count of configurations occupying site 1
            assert by_k_occupied.get(k, 0) == math.comb(n - 1, k - 1)

    def test_exponents(self):
        for term in weight_terms(PARAMS_635):
            assert term.one_minus_p1_exponent == term.M + 2 * term.N


class TestPartitionFormula:
    def test_frozen_reference_values(self):
        assert partition_formula(PARAMS_635) == pytest.approx(
            4.416777999999998, rel=1e-12
        )
        assert partition_formula(ModelParams(5, 2, 0.3, 0.7)) == pytest.approx(
            1.3**5, rel=1e-12
        )

    def test_exact_reference(self):
        assert partition_formula(RATIONAL) == Fraction(9, 2)

    def test_degenerate_line_is_geometric(self):
        # p2 = 1 - p1 collapses the sum to (1+p1)^n
        for n in range(2, 13):
            z = partition_formula(ModelParams(n, 2, 0.3, 0.7))
            assert z == pytest.approx(1.3**n, rel=1e-12)

    @given(
        st.integers(2, 4),
        st.integers(0, 4),
        st.floats(0.05, 0.95),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_sum(self, m, extra, p1, p2):
        params = ModelParams(m + extra, m, p1, p2)
        brute = math.fsum(
            stationary_weight(code, params) for code in range(params.n_states)
        )
        assert partition_formula(params) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize(
        "n, m",
        [(m + extra, m) for m in range(2, 7) for extra in range(4)],
        ids=str,
    )
    def test_exact_equals_brute_force_sum(self, n, m):
        # m >= 4 merges distinct composition classes into one monomial
        params = ModelParams(n, m, Fraction(1, 3), Fraction(1, 2))
        weights = [stationary_weight(code, params) for code in range(params.n_states)]
        brute = sum(weights)
        assert partition_formula(params) == brute
        assert density_formula(params) == sum(weights[1::2]) / brute  # odd codes occupy site 1

    def test_overflow_raises(self):
        # p2^-N overflows a float; the sums must not come back as inf
        params = ModelParams(6, 2, 0.5, 1e-300)
        with pytest.raises(OverflowError):
            partition_formula(params)
        with pytest.raises(OverflowError):
            density_formula(params)

    @pytest.mark.parametrize("p2, k", [(1e-300, 2), (5e-324, 1)], ids=["power", "quotient"])
    def test_weight_overflow_names_the_point(self, p2, k):
        # (p1/p2)**k leaves the float range in ** at p2 = 1e-300, and already in
        # the quotient at the smallest subnormal; neither raises bare nor gives inf
        params = ModelParams(6, 2, 0.5, p2)
        with pytest.raises(OverflowError, match=re.escape(f"(p1/p2)**{k} overflows a float at {params!r}")):
            stationary_table_formula(params)
        with pytest.raises(OverflowError, match=re.escape(f"(p1/p2)**3 overflows a float at {params!r}")):
            stationary_weight("010101", params)
        assert stationary_weight("000000", params) == 1.0


def _paper_sum(params):
    """Z and the density numerator summed straight from weight_terms."""
    p1, p2 = params.p1, params.p2
    add = sum if params.exact else math.fsum
    terms = [
        (
            t.multiplicity,
            t.occupied_multiplicity,
            p1**t.k * (1 - p1) ** t.one_minus_p1_exponent / p2**t.N,
        )
        for t in weight_terms(params)
    ]
    return 1 + add(mult * w for mult, _, w in terms), add(occ * w for _, occ, w in terms)


# one point per (n, m) up to n = 60 and m = 8, as in the benchmark's scan
SCAN_SHAPES = (
    (12, 2), (24, 2), (36, 2), (48, 2), (60, 2),
    (12, 3), (24, 3), (36, 3), (48, 3),
    (12, 4), (24, 4), (36, 4),
    (12, 5), (24, 5), (30, 5),
    (12, 6), (24, 6),
    (12, 7), (24, 7),
    (12, 8), (24, 8),
)


class TestRenewal:
    def test_no_enumeration(self, monkeypatch):
        def refuse(params):
            raise AssertionError("the evaluators must not enumerate weight_terms")

        monkeypatch.setattr(closedforms, "weight_terms", refuse)
        params = ModelParams(60, 8, 0.3, 0.5)
        assert math.isfinite(partition_formula(params))
        assert 0 < density_formula(params) < 1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_exact_equals_paper_sum(self, m):
        # past n = 12 too: exact Z and density have no cap, as the renewal
        # builds no 2**n table
        for n in range(m, 17):
            params = ModelParams(n, m, Fraction(2, 7), Fraction(3, 5))
            z, occupied = _paper_sum(params)
            assert partition_formula(params) == z
            assert density_formula(params) == occupied / z

    def test_exact_matches_float_at_large_n(self):
        exact = ModelParams(120, 5, Fraction(1, 4), Fraction(1, 2))
        approx = ModelParams(120, 5, 0.25, 0.5)
        assert float(partition_formula(exact)) == pytest.approx(
            partition_formula(approx), rel=1e-13
        )
        assert float(density_formula(exact)) == pytest.approx(density_formula(approx), rel=1e-13)

    @pytest.mark.parametrize("n, m", SCAN_SHAPES, ids=str)
    def test_float_equals_paper_sum(self, n, m):
        params = ModelParams(n, m, 0.37, 0.61)
        z, occupied = _paper_sum(params)
        assert partition_formula(params) == pytest.approx(z, rel=1e-13)
        assert density_formula(params) == pytest.approx(occupied / z, rel=1e-13)

    @pytest.mark.parametrize("p1, p2", [(0.5, 0.05), (0.3, 0.5), (0.3, 0.7), (0.9, 0.02)])
    def test_large_n_matches_m2(self, p1, p2):
        z = partition_formula(ModelParams(600, 2, p1, p2))
        assert z == pytest.approx(z2_recurrence(600, p1, p2)[600], rel=1e-13)
        # the log recurrence adds 600 logs into a total near 660, so its
        # log Z carries a few hundred ulps of 660 (measured up to 8e-12)
        assert math.log(z) == pytest.approx(z2_log_recurrence(600, p1, p2)[600], abs=1e-10)

    def test_first_overflow_raises(self):
        # at (0.5, 0.05) Z_646 is the last finite value, as in `nedpca m2 --series`
        assert math.isfinite(partition_formula(ModelParams(646, 2, 0.5, 0.05)))
        with pytest.raises(OverflowError, match=r"^Z at n=647, m=2 overflows a float$"):
            partition_formula(ModelParams(647, 2, 0.5, 0.05))

    def test_overflow_falls_where_z_does(self):
        # b = p1 (1-p1) / p2 < 1 here, so a running sum not yet multiplied by
        # b exceeds Z and would overflow first
        p1, p2 = 0.3, 0.5
        params = ModelParams(2171, 2, p1, p2)
        z = partition_formula(params)
        assert math.isfinite(z) and math.isfinite(density_formula(params))
        assert math.log(z) == pytest.approx(z2_log_recurrence(2171, p1, p2)[2171], abs=1e-10)
        with pytest.raises(OverflowError, match=r"^Z at n=2172, m=2 overflows a float$"):
            partition_formula(ModelParams(2172, 2, p1, p2))


class TestDensityFormula:
    def test_frozen_reference_value(self):
        assert density_formula(PARAMS_635) == pytest.approx(
            0.2139317393810602, rel=1e-12
        )

    def test_exact_reference(self):
        assert density_formula(RATIONAL) == Fraction(13, 36)

    @given(
        st.integers(2, 4),
        st.integers(0, 4),
        st.floats(0.05, 0.95),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_stationary_marginal(self, m, extra, p1, p2):
        params = ModelParams(m + extra, m, p1, p2)
        table = stationary_table_formula(params)
        marginal = math.fsum(
            table.probs[code] for code in range(params.n_states) if code & 1
        )
        assert density_formula(params) == pytest.approx(marginal, rel=1e-10)

    @given(
        st.integers(2, 4),
        st.integers(0, 4),
        st.floats(0.05, 0.95),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_mean_occupation(self, m, extra, p1, p2):
        params = ModelParams(m + extra, m, p1, p2)
        table = stationary_table_formula(params)
        mean = (
            math.fsum(
                code.bit_count() * table.probs[code]
                for code in range(params.n_states)
            )
            / params.n
        )
        assert density_formula(params) == pytest.approx(mean, rel=1e-10)


class TestStationaryTableFormula:
    @given(
        st.integers(2, 4),
        st.integers(0, 3),
        st.floats(0.05, 0.95),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalized(self, m, extra, p1, p2):
        table = stationary_table_formula(ModelParams(m + extra, m, p1, p2))
        assert math.fsum(table.probs) == pytest.approx(1.0, abs=1e-13)

    def test_probabilities_proportional_to_weights(self):
        for n, m in [(5, 3), (6, 2), (7, 7), (9, 4), (10, 10)]:
            params = ModelParams(n, m, 0.3, 0.5)
            table = stationary_table_formula(params)
            weights = [stationary_weight(code, params) for code in range(params.n_states)]
            z = math.fsum(weights)
            assert list(table.probs) == [w / z for w in weights]


class TestReversibilityRatio:
    def test_position_pairs(self):
        params = ModelParams(4, 2, 0.3, 0.5)
        conf = Configuration.from_string("0100")
        assert position_pairs(conf, 1, 0, params) == {1}  # 0-based site index
        assert position_pairs(conf, 0, 1, params) == {0}

    def test_known_ratio(self):
        # one extra aligned 10/01 pair tilts the ratio to p1 p2 / ((1-p1)(1-p2))
        params = ModelParams(4, 2, 0.3, 0.5)
        r = reversibility_ratio("0100", "0010", params)
        assert r == pytest.approx((0.3 * 0.5) / (0.7 * 0.5))

    def test_balanced_line_gives_unit_ratio(self):
        params = ModelParams(4, 2, 0.3, 0.7)
        assert reversibility_ratio("0100", "0010", params) == pytest.approx(1.0)

    def test_certain_evaporation_boundary(self):
        params = ModelParams(4, 2, 0.3, 1.0)
        assert reversibility_ratio("0000", "1000", params) == pytest.approx(1.0)

    def test_rejects_wider_windows(self):
        with pytest.raises(DomainError):
            reversibility_ratio("0100", "0010", ModelParams(4, 3, 0.3, 0.5))

    def test_rejects_unreachable_reverse(self):
        params = ModelParams(4, 2, 0.3, 1.0)
        # 0101 -> 1010 cannot be reversed when evaporation is certain
        with pytest.raises(DomainError):
            reversibility_ratio("0101", "1010", params)

    @given(
        st.integers(3, 6),
        st.integers(0, 2**6 - 1),
        st.integers(0, 2**6 - 1),
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_form_tracks_direct_quotient(self, n, a, b, p1, p2):
        params = ModelParams(n, 2, p1, p2)
        alpha, beta = a & (params.n_states - 1), b & (params.n_states - 1)
        if transition_prob(beta, alpha, params) == 0:
            return
        # the in-function assertion compares the pattern-count form to the quotient
        reversibility_ratio(alpha, beta, params)
