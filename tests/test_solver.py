"""Transition matrix, stationary solving, balance audits, reversibility tools."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nedpca import (
    BudgetExceeded,
    Configuration,
    DimensionMismatch,
    DomainError,
    ModelParams,
    audit_detailed_balance,
    balance_residual,
    build_matrix,
    check_irreducible_aperiodic,
    one_directional_pair,
    position_pairs,
    power_iteration,
    reversibility_ratio,
    solve_stationary,
    stationary_table_formula,
    transition_edges,
    transition_prob,
)

REFERENCE = ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3))
REFERENCE_PI = (
    Fraction(2, 9), Fraction(1, 6), Fraction(1, 6), Fraction(1, 12),
    Fraction(1, 6), Fraction(1, 12), Fraction(1, 12), Fraction(1, 36),
)

float_params = st.builds(
    lambda n_extra, m, p1, p2: ModelParams(m + n_extra, m, p1, p2),
    st.integers(0, 3),
    st.integers(2, 4),
    st.floats(0.05, 0.95),
    st.floats(0.05, 1.0),
)


class TestTransitionRow:
    """Rows of build_matrix against the site-by-site product definition."""

    @given(float_params, st.integers(0, 2**7 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_matches_per_pair_products(self, params, raw):
        alpha = raw & (params.n_states - 1)
        row = build_matrix(params).entries[alpha]
        assert row.dtype == np.float64
        for beta in range(params.n_states):
            assert row[beta] == transition_prob(alpha, beta, params)

    def test_exact_row_sums_to_one(self):
        row = build_matrix(REFERENCE).entries[0b011]
        assert sum(row) == 1
        assert all(isinstance(x, Fraction) for x in row)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exact_entries_are_the_product_fractions(self, m):
        for n in range(m, 7):
            params = ModelParams(n, m, Fraction(1, 3), Fraction(1, 2))
            entries = build_matrix(params).entries
            for alpha in range(params.n_states):
                for beta in range(params.n_states):
                    x = entries[alpha, beta]
                    assert isinstance(x, Fraction)
                    assert x == transition_prob(alpha, beta, params)

    def test_one_fraction_probability_gives_floats(self):
        # exact mode needs both Fractions; `--p1 3/10 --p2 0.5` gives this mix
        params = ModelParams(5, 3, Fraction(3, 10), 0.5)
        entries = build_matrix(params).entries
        assert entries.dtype == np.float64
        assert entries[0, 1] == pytest.approx(float(transition_prob(0, 1, params)), rel=1e-15)


class TestBuildAndSolve:
    def test_float_matrix_is_row_stochastic(self):
        matrix = build_matrix(ModelParams(5, 3, 0.3, 0.5))
        sums = np.asarray(matrix.entries).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-14)

    def test_exact_reference_point(self):
        table = solve_stationary(build_matrix(REFERENCE))
        assert table.probs == REFERENCE_PI
        assert table.source == "solver"

    def test_formula_equals_solver_exactly(self):
        assert stationary_table_formula(REFERENCE).probs == REFERENCE_PI

    def test_float_solution_is_stationary(self):
        params = ModelParams(6, 3, 0.3, 0.5)
        matrix = build_matrix(params)
        table = solve_stationary(matrix)
        assert balance_residual(table, matrix) < 1e-14
        assert math.fsum(table.probs) == pytest.approx(1.0)

    def test_exact_residual_is_zero(self):
        matrix = build_matrix(REFERENCE)
        table = solve_stationary(matrix)
        assert balance_residual(table, matrix) == 0

    def test_float_cap(self):
        with pytest.raises(BudgetExceeded):
            build_matrix(ModelParams(17, 2, 0.3, 0.5))

    def test_rational_cap(self):
        with pytest.raises(BudgetExceeded):
            build_matrix(ModelParams(9, 2, Fraction(1, 3), Fraction(1, 2)))

    @given(float_params)
    @settings(max_examples=25, deadline=None)
    def test_chain_is_irreducible_aperiodic(self, params):
        assert check_irreducible_aperiodic(build_matrix(params))

    def test_power_iteration_converges(self):
        params = ModelParams(5, 2, 0.3, 0.5)
        matrix = build_matrix(params)
        table = solve_stationary(matrix)
        init = np.full(params.n_states, 1.0 / params.n_states)
        approx = power_iteration(matrix, init, 400)
        assert np.max(np.abs(approx - np.asarray(table.probs))) < 1e-12

    def test_power_iteration_rejects_exact(self):
        matrix = build_matrix(REFERENCE)
        with pytest.raises(DomainError):
            power_iteration(matrix, [0.125] * 8, 10)

    def test_table_serialization(self):
        table = solve_stationary(build_matrix(REFERENCE))
        d = table.to_json_dict()
        assert d["n"] == 3 and d["source"] == "solver"
        assert d["probs"][0] == "2/9"


class TestBalanceAudits:
    def test_reversible_on_balanced_line(self):
        params = ModelParams(5, 2, 0.3, 0.7)
        matrix = build_matrix(params)
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation < 1e-12

    @pytest.mark.parametrize("p1", [0.1, 0.5, 0.9])
    def test_reversible_when_windows_wrap_and_evaporation_is_certain(self, p1):
        # n = m, p2 = 1: every occupied state empties in one step
        matrix = build_matrix(ModelParams(3, 3, p1, 1.0))
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation < 1e-12

    def test_irreversible_off_line(self):
        params = ModelParams(5, 2, 0.3, 0.5)
        matrix = build_matrix(params)
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation > 1e-6
        a, b = audit.witness
        assert isinstance(a, Configuration) and isinstance(b, Configuration)

    def test_mismatched_inputs_rejected(self):
        matrix = build_matrix(ModelParams(4, 2, 0.3, 0.5))
        table = solve_stationary(build_matrix(ModelParams(5, 2, 0.3, 0.5)))
        with pytest.raises(DimensionMismatch):
            balance_residual(table, matrix)


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


class TestStructureHelpers:
    def test_edge_lists_are_stochastic(self):
        params = ModelParams(3, 2, 0.3, 0.5)
        edges = transition_edges(params)
        assert len(edges) == 27
        totals = {}
        for alpha, beta, prob in edges:
            assert prob > 0
            totals[alpha] = totals.get(alpha, 0.0) + prob
        assert all(math.isclose(t, 1.0) for t in totals.values())

    def test_edge_count_m3(self):
        assert len(transition_edges(ModelParams(3, 3, 0.3, 0.5))) == 18

    def test_one_directional_pair_generic(self):
        pair = one_directional_pair(ModelParams(5, 3, 0.3, 0.5))
        assert pair is not None
        alpha, beta = pair
        assert alpha.to_string() == "00010"
        assert beta.to_string() == "00001"
        assert transition_prob(alpha, beta, ModelParams(5, 3, 0.3, 0.5)) > 0
        assert transition_prob(beta, alpha, ModelParams(5, 3, 0.3, 0.5)) == 0

    def test_one_directional_pair_survives_certain_evaporation(self):
        assert one_directional_pair(ModelParams(4, 3, 0.3, 1.0)) is not None

    def test_one_directional_pair_degenerate_case(self):
        # wrap-around window: the forward step needs an evaporation failure
        assert one_directional_pair(ModelParams(3, 3, 0.3, 1.0)) is None
