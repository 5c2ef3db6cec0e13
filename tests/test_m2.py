"""Nearest-neighbour analytics: recurrence, series, poles, free energy."""

import math
import random
import traceback
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


# ---- references: the straightforward loops the fast ones must match bit for bit ----


def divide_series_reference(num, den, n_max):
    """Long division with one math.fsum over every term of each coefficient."""
    coeffs = []
    for k in range(n_max + 1):
        parts = [num[k]] if k < len(num) else []
        parts += [-den[j] * coeffs[k - j] for j in range(1, min(k, len(den) - 1) + 1)]
        try:
            c = math.fsum(parts) / den[0]
        except (OverflowError, ValueError):
            c = math.inf
        if not math.isfinite(c):
            raise OverflowError(f"series coefficient {k} overflows the float range")
        coeffs.append(c)
    return tuple(coeffs)


def z2_series_reference(n_max, p1, p2):
    num = [2.0 * p2, -(1.0 + p1) * p2]
    den = [p2, -p2 * (1.0 + p1), -p1 * (1.0 - p1 - p2)]
    return divide_series_reference(num, den, n_max)


def density_series_reference(n_max, p1, p2):
    q2 = (1.0 - p1) / p2
    num = [0.0, p1, p1 * (q2 - 1.0)]
    den = [1.0, -(1.0 + p1), p1 * (1.0 - q2)]
    return divide_series_reference(num, den, n_max)


def z2_recurrence_reference(n_max, p1, p2):
    """The three-term recurrence read off the list's last two entries, each
    term checked as it is made."""
    z = [2.0, 1.0 + p1]
    for k in range(2, n_max + 1):
        if k == 2:
            z.append(1.0 + p1 * p1 + 2.0 * p1 * (1.0 - p1) / p2)
        else:
            z.append((p1 * (1.0 - p1 - p2) * z[-2] + p2 * (1.0 + p1) * z[-1]) / p2)
        if not math.isfinite(z[k]):
            raise OverflowError(f"Z_{k} overflows a float at p1={p1!r}, p2={p2!r}")
    return tuple(z)


def _outcome(fn, n_max, p1, p2):
    # the bits of every value (float.hex tells -0.0 from 0.0), or the overflow message
    try:
        value = fn(n_max, p1, p2)
    except OverflowError as exc:
        return ("OverflowError", str(exc))
    return tuple(x.hex() for x in value)


_rng = random.Random(20261019)
BIT_POINTS = [(0.5, 0.05), (0.9, 0.2), (0.02, 0.98), (0.3, 1.0), (0.3, 0.7)]
BIT_POINTS += [(_rng.uniform(0.001, 0.999), _rng.uniform(0.001, 1.0)) for _ in range(100)]
BIT_POINTS += [(5e-324, 1.0), (0.5, 5e-324), (1.0 - 2.0**-53, 1e-300), (1e-300, 0.5)]
BIT_LENGTHS = (2, 3, 4, 50, 3000)
BIT_ROUTES = [
    (z2_series, z2_series_reference),
    (density_series, density_series_reference),
    (z2_recurrence, z2_recurrence_reference),
]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "fast, reference", BIT_ROUTES, ids=[fast.__name__ for fast, _ in BIT_ROUTES]
    )
    @pytest.mark.parametrize("n_max", BIT_LENGTHS)
    def test_matches_reference_bit_for_bit(self, fast, reference, n_max):
        for p1, p2 in BIT_POINTS:
            assert _outcome(fast, n_max, p1, p2) == _outcome(reference, n_max, p1, p2), (p1, p2)

    def test_points_reach_overflow(self):
        # the comparison above covers the raise, not only finite runs
        raised = {
            fast.__name__: sum(_outcome(fast, 3000, *p)[0] == "OverflowError" for p in BIT_POINTS)
            for fast, _ in BIT_ROUTES
        }
        assert min(raised.values()) >= 10, raised
        assert _outcome(z2_recurrence, 2, 0.5, 5e-324)[1].startswith("Z_2 overflows")


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

    @pytest.mark.parametrize(
        "p1, p2, message",
        [(0.0, 0.5, "p1 must"), (1.0, 0.5, "p1 must"), (0.3, 0.0, "p2 must"), (0.3, 1.5, "p2 must")],
    )
    def test_rejects_probabilities_outside_the_model(self, p1, p2, message):
        with pytest.raises(ParamError, match=message):
            z2_recurrence(5, p1, p2)

    def test_overflow_raises_at_the_first_inf(self):
        # p1 + p2 = 1 zeroes the Z_{n-2} coefficient, so the step after the
        # first inf forms 0 * inf = NaN; the message still names the inf
        assert z2_recurrence(1750, 0.5, 0.5)[-1] == pytest.approx(1.5**1750, rel=1e-9)
        with pytest.raises(OverflowError, match=r"^Z_1751 overflows a float at p1=0\.5, p2=0\.5$"):
            z2_recurrence(3000, 0.5, 0.5)

    def test_caught_overflow_keeps_no_terms(self):
        # a caller that keeps the error keeps the raising frame, not its 3001 terms
        with pytest.raises(OverflowError) as info:
            z2_recurrence(3000, 0.5, 0.05)
        frames = [frame for frame, _ in traceback.walk_tb(info.value.__traceback__)]
        assert frames[-1].f_code is z2_recurrence.__code__
        assert "z" not in frames[-1].f_locals

    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_balanced_line_is_binomial(self, p1):
        # q2 = 1 reduces the weight to p1^N1, so Z_n = (1+p1)^n for n >= 1
        rec = z2_recurrence(40, p1, 1.0 - p1)
        ser = z2_series(40, p1, 1.0 - p1)
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
        for n in range(41):
            assert ser[n] == pytest.approx(rec[n], rel=1e-9)

    @given(probs, st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_density_series_recovers_density(self, pq, n):
        p1, p2 = pq
        num = density_series(12, p1, p2)
        den = z2_series(12, p1, p2)
        rho = density_formula(ModelParams(n, 2, p1, p2))
        assert num[n] / den[n] == pytest.approx(rho, abs=1e-11)

    def test_density_leading_coefficients(self):
        coeffs = density_series(4, 0.3, 0.5)
        assert coeffs[0] == 0.0
        assert coeffs[1] == pytest.approx(0.3)
        # c_2 = p1 (q2 + p1)
        assert coeffs[2] == pytest.approx(0.3 * (1.4 + 0.3))

    def test_series_cap(self):
        with pytest.raises(BudgetExceeded):
            z2_series(10_001, 0.3, 0.5)

    @pytest.mark.parametrize(
        "series, p1, p2",
        [(z2_series, 0.1, 0.05), (density_series, 0.1, 0.05), (z2_series, 0.5, 0.9)],
        ids=["z2-inf", "density-fsum-overflow", "z2-inf-minus-inf"],
    )
    def test_series_overflow_names_the_coefficient(self, series, p1, p2):
        with pytest.raises(OverflowError, match=r"coefficient \d+"):
            series(3000, p1, p2)


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

    @pytest.mark.parametrize("p1", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_accurate_near_balanced_line(self, p1):
        # the textbook closed form is 0/0 on p1 + p2 = 1; at 60 digits the
        # reference shows any digits the float evaluation cancels away
        for offset in (10.0**-e for e in range(2, 13)):
            for p2 in (1.0 - p1 + offset, 1.0 - p1 - offset):
                with localcontext() as ctx:
                    ctx.prec = 60
                    a, b = Decimal(p1), Decimal(p2)
                    radicand = b * (1 - a) * (4 * a + b - a * b)
                    exact = ((b * (1 + a) + radicand.sqrt()) / (2 * b)).ln()
                    gap = abs(Decimal(free_energy(p1, p2)) - exact)
                assert gap < Decimal("1e-15"), (p1, p2)

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
        with pytest.raises(ParamError, match="need count >= 1, got 0"):
            free_energy_grid(0)

    @pytest.mark.parametrize("hi", [1.0, 1.5])
    def test_rejects_hi_outside_p1_range(self, hi):
        # the grid values serve as p1 too, and p1 = 1 is outside the model
        with pytest.raises(ParamError, match=rf"lo=0\.02, hi={hi}"):
            free_energy_grid(3, hi=hi)
