"""Nearest-neighbour analytics: recurrence, series, poles, free energy."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nedpca import (
    BudgetExceeded,
    DegenerateDenominator,
    ModelParams,
    ParamError,
    asymptotic_z2,
    density_formula,
    density_series,
    free_energy,
    free_energy_grid,
    gf_denominator,
    partition_formula,
    pole_data,
    q2_parameter,
    z2_log_recurrence,
    z2_recurrence,
    z2_series,
)

probs = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 1.0))


class TestRecurrence:
    def test_seeds(self):
        z = z2_recurrence(2, 0.3, 0.5)
        assert z[0] == 2.0
        assert z[1] == pytest.approx(1.3)
        assert z[2] == pytest.approx(partition_formula(ModelParams(2, 2, 0.3, 0.5)))

    @given(probs, st.integers(3, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_combinatorial_sum(self, pq, n):
        p1, p2 = pq
        z = z2_recurrence(n, p1, p2)
        assert z[n] == pytest.approx(
            partition_formula(ModelParams(n, 2, p1, p2)), rel=1e-10
        )

    def test_rejects_short_range(self):
        with pytest.raises(ParamError):
            z2_recurrence(1, 0.3, 0.5)

    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_balanced_line_is_binomial(self, p1):
        # q2 = 1 reduces the weight to p1^N1, so Z_n = (1+p1)^n for n >= 1
        rec = z2_recurrence(40, p1, 1.0 - p1)
        ser = z2_series(40, p1, 1.0 - p1).coeffs
        for n in range(1, 41):
            assert rec[n] == pytest.approx((1.0 + p1) ** n, rel=1e-12)
            assert ser[n] == pytest.approx((1.0 + p1) ** n, rel=1e-12)

    def test_log_recurrence_tracks_values(self):
        logs = z2_log_recurrence(30, 0.3, 0.5)
        values = z2_recurrence(30, 0.3, 0.5)
        for n in range(2, 31):
            assert logs[n] == pytest.approx(math.log(values[n]), rel=1e-13)

    def test_log_recurrence_does_not_drift(self):
        # exact Z_600 from the same recurrence over the floats' exact values
        p1, p2 = Fraction(0.5), Fraction(0.05)
        z = [Fraction(2), 1 + p1, 1 + p1 * p1 + 2 * p1 * (1 - p1) / p2]
        for _ in range(598):
            z.append((p1 * (1 - p1 - p2) * z[-2] + p2 * (1 + p1) * z[-1]) / p2)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(z[600].numerator).ln() - Decimal(z[600].denominator).ln()
            gap = abs(Decimal(z2_log_recurrence(600, 0.5, 0.05)[600]) - exact)
        assert gap < Decimal("2e-13")

    def test_log_recurrence_survives_large_n(self):
        logs = z2_log_recurrence(5000, 0.7, 0.2)
        assert math.isfinite(logs[-1])
        # growth rate settles close to the free energy
        assert (logs[5000] - logs[4999]) == pytest.approx(free_energy(0.7, 0.2), abs=1e-12)


class TestSeries:
    @given(probs)
    @settings(max_examples=60, deadline=None)
    def test_partition_series_equals_recurrence(self, pq):
        p1, p2 = pq
        ser = z2_series(40, p1, p2)
        rec = z2_recurrence(40, p1, p2)
        assert ser.kind == "partition"
        for n in range(41):
            assert ser.coeffs[n] == pytest.approx(rec[n], rel=1e-9)

    @given(probs, st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_density_series_recovers_density(self, pq, n):
        p1, p2 = pq
        num = density_series(12, p1, p2).coeffs
        den = z2_series(12, p1, p2).coeffs
        rho = density_formula(ModelParams(n, 2, p1, p2))
        assert num[n] / den[n] == pytest.approx(rho, abs=1e-11)

    def test_density_leading_coefficients(self):
        coeffs = density_series(4, 0.3, 0.5).coeffs
        assert coeffs[0] == 0.0
        assert coeffs[1] == pytest.approx(0.3)
        # c_2 = p1 (q2 + p1)
        assert coeffs[2] == pytest.approx(0.3 * (1.4 + 0.3))

    def test_series_cap(self):
        with pytest.raises(BudgetExceeded):
            z2_series(10_001, 0.3, 0.5)


class TestFreeEnergy:
    def test_frozen_reference_value(self):
        assert free_energy(0.3, 0.5) == pytest.approx(0.3268157576351698, rel=1e-14)

    def test_balanced_line_value(self):
        assert free_energy(0.3, 0.7) == pytest.approx(math.log(1.3), rel=1e-15)

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_continuous_across_balanced_line(self, p1):
        base = free_energy(p1, 1.0 - p1)
        for sign in (1.0, -1.0):
            p2 = 1.0 - p1 + sign * 1e-6
            if 0.0 < p2 <= 1.0:
                assert abs(free_energy(p1, p2) - base) < 1e-4

    @given(probs)
    @settings(max_examples=60, deadline=None)
    def test_equals_growth_rate(self, pq):
        p1, p2 = pq
        logs = z2_log_recurrence(301, p1, p2)
        assert logs[301] - logs[300] == pytest.approx(free_energy(p1, p2), abs=1e-8)


class TestPoles:
    @given(probs)
    @settings(max_examples=80, deadline=None)
    def test_roots_annihilate_denominator(self, pq):
        p1, p2 = pq
        if abs(p1 + p2 - 1.0) < 1e-6:
            return
        poles = pole_data(p1, p2)
        for x in (poles.x_plus, poles.x_minus):
            scale = max(1.0, abs(p2 * (1 + p1) * x), abs(p1 * (1 - p1 - p2) * x * x))
            assert abs(gf_denominator(x, p1, p2)) < 1e-12 * scale
        assert abs(poles.x_plus) < abs(poles.x_minus)

    def test_free_energy_is_log_of_dominant_pole(self):
        for p1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            for p2 in (0.2, 0.4, 0.6, 0.8, 1.0):
                poles = pole_data(p1, p2)
                assert -math.log(poles.x_plus) == pytest.approx(
                    free_energy(p1, p2), abs=1e-13
                )

    def test_degenerate_line_raises(self):
        with pytest.raises(DegenerateDenominator):
            pole_data(0.3, 0.7)

    def test_q2(self):
        assert q2_parameter(0.3, 0.5) == pytest.approx(1.4)
        assert q2_parameter(0.3, 0.7) == pytest.approx(1.0)


class TestAsymptotics:
    def test_approaches_true_values(self):
        logs = z2_log_recurrence(60, 0.3, 0.5)
        approx = asymptotic_z2(60, 0.3, 0.5)
        assert math.log(approx) == pytest.approx(logs[60], abs=1e-12)

    def test_degenerate_line_is_exact(self):
        assert asymptotic_z2(0, 0.3, 0.7) == 2.0
        for n in range(1, 20):
            assert asymptotic_z2(n, 0.3, 0.7) == pytest.approx(1.3**n, rel=1e-15)
            z = z2_recurrence(max(n, 2), 0.3, 0.7)[n]
            assert asymptotic_z2(n, 0.3, 0.7) == pytest.approx(z, rel=1e-12)

    @given(probs)
    @settings(max_examples=40, deadline=None)
    def test_relative_error_vanishes(self, pq):
        p1, p2 = pq
        logs = z2_log_recurrence(120, p1, p2)
        assert math.log(asymptotic_z2(120, p1, p2)) == pytest.approx(
            logs[120], abs=1e-7
        )

    def test_rejects_negative_n(self):
        with pytest.raises(ParamError):
            asymptotic_z2(-1, 0.3, 0.5)


class TestGridHelper:
    def test_shape_and_range(self):
        rows = free_energy_grid(4, 0.1, 0.9)
        assert len(rows) == 16
        p1s = sorted({r[0] for r in rows})
        assert p1s[0] == pytest.approx(0.1) and p1s[-1] == pytest.approx(0.9)

    def test_single_point(self):
        rows = free_energy_grid(1, 0.3, 0.3)
        assert len(rows) == 1
        assert rows[0][2] == pytest.approx(free_energy(0.3, 0.3))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ParamError):
            free_energy_grid(3, 0.5, 0.2)
