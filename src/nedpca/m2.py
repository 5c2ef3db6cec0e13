"""Nearest-neighbour (m=2) analytic suite: recurrence, series, free energy, poles.

With q2 = (1-p1)/p2 the partition sequence Z_n = Z_{n,2} satisfies

    p2 * Z_{n+2} = p2 (1+p1) Z_{n+1} + p1 (1-p1-p2) Z_n        (n >= 2)

and has rational generating function

    sum_n Z_n x^n = (2 - x - p1 x) p2 / (p2 - p2 x (1+p1) - x^2 p1 (1-p1-p2)).

z2_series expands this GF by power-series long division (a second route to
Z_n) and z2_log_recurrence iterates Z_{n+1}/Z_n in logs (a third). Z_n times
P[site occupied] has generating function p1 x (1 - x + q2 x) over the same
denominator, scaled by p2, which density_series divides out. The growth rate
F = lim (1/n) log Z_n is -log x_plus for the dominant denominator root; on
p1 + p2 = 1 the denominator turns linear, x_minus runs off, F = log(1+p1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, DegenerateDenominator, NedpcaError, ParamError

__all__ = [
    "SERIES_CAP",
    "REMOVABLE_WINDOW",
    "PoleData",
    "q2_parameter",
    "gf_denominator",
    "z2_recurrence",
    "z2_log_recurrence",
    "z2_series",
    "density_series",
    "free_energy",
    "free_energy_grid",
    "pole_data",
    "asymptotic_z2",
]

# long-division expansions are meant for finite checks, not asymptotics
SERIES_CAP = 10_000
# width of the p1 + p2 = 1 window where the denominator is treated as linear
REMOVABLE_WINDOW = 1e-9


def _validate(p1: float, p2: float, n_max: int = 2) -> tuple[float, float]:
    if not 0 < p1 < 1:
        raise ParamError(f"p1 must lie in (0,1), got {p1!r}")
    if not 0 < p2 <= 1:
        raise ParamError(f"p2 must lie in (0,1], got {p2!r}")
    if n_max < 2:  # a sequence carries at least Z_0..Z_2
        raise ParamError(f"need n_max >= 2, got {n_max}")
    return float(p1), float(p2)


def q2_parameter(p1: float, p2: float) -> float:
    """The derived parameter q2 = (1-p1)/p2 controlling the m=2 analytics."""
    p1, p2 = _validate(p1, p2)
    return (1.0 - p1) / p2


def _on_removable_line(p1: float, p2: float) -> bool:
    return abs(p1 + p2 - 1.0) < REMOVABLE_WINDOW


# ---- Recurrence ----


def _z2_seed(p1: float, p2: float) -> float:
    # Z_{2,2} by its four configurations: 00, 11 and the two with one particle
    return 1.0 + p1 * p1 + 2.0 * p1 * (1.0 - p1) / p2


def z2_recurrence(n_max: int, p1: float, p2: float) -> tuple[float, ...]:
    """Z_{0,2} .. Z_{n_max,2} by the three-term recurrence.

    Seeds are Z_0 = 2, Z_1 = 1 + p1 and Z_2 (see _z2_seed), because the
    recurrence itself only holds from n = 2 on. Raises OverflowError naming
    the first Z_k that leaves the float range (z2_log_recurrence does not).
    """
    p1, p2 = _validate(p1, p2, n_max)
    a, b = p1 * (1.0 - p1 - p2), p2 * (1.0 + p1)  # * runs left to right: same products
    z = [2.0, prev := 1.0 + p1, cur := _z2_seed(p1, p2)]
    for _ in range(n_max - 2):
        prev, cur = cur, (a * prev + b * cur) / p2
        z.append(cur)
    if not math.isfinite(cur):  # the first overflow is +inf; later terms are inf or NaN
        k = z.index(math.inf)
        del z  # a caught error keeps this frame alive; the terms need not stay too
        raise OverflowError(f"Z_{k} overflows a float at p1={p1!r}, p2={p2!r}")
    return tuple(z)


def z2_log_recurrence(n_max: int, p1: float, p2: float) -> tuple[float, ...]:
    """log Z_{0,2} .. log Z_{n_max,2}, overflow-safe for large n.

    Iterates the successive ratio r_n = Z_{n+1}/Z_n, which obeys
    r_{n+1} = (1+p1) + p1 (q2 - 1) / r_n, and accumulates its logs in a
    Neumaier compensated sum, so the rounding of the running total does not
    build up over thousands of steps.
    """
    p1, p2 = _validate(p1, p2, n_max)
    z2 = _z2_seed(p1, p2)
    out = [math.log(2.0), math.log1p(p1), math.log(z2)]
    a = 1.0 + p1
    b = p1 * (q2_parameter(p1, p2) - 1.0)
    r = z2 / (1.0 + p1)  # r_1 = Z_2 / Z_1
    total, carry = out[-1], 0.0  # carry holds the low-order bits total dropped
    for n in range(n_max - 2):
        r = a + b / r
        term = math.log(r)
        t = total + term
        if abs(total) >= abs(term):
            carry += (total - t) + term
        else:
            carry += (term - t) + total
        total = t
        out.append(total + carry)
    return tuple(out)


# ---- Series expansion ----


def _divide_series(num: list[float], den: list[float], n_max: int) -> tuple[float, ...]:
    # coefficient recursion of num(x)/den(x) for a quadratic den; den[0] != 0
    if n_max > SERIES_CAP:
        raise BudgetExceeded(f"series expansion capped at n_max <= {SERIES_CAP}")
    coeffs = []
    for k in range(len(num)):  # up to three terms: fsum rounds their exact sum once
        parts = [num[k]] + [-den[j] * coeffs[k - j] for j in range(1, min(k, 2) + 1)]
        try:
            c = math.fsum(parts) / den[0]
        except (OverflowError, ValueError):  # a partial sum overflows, or inf - inf
            c = math.inf
        if not math.isfinite(c):
            raise OverflowError(f"series coefficient {k} overflows the float range")
        coeffs.append(c)
    d0, d1, d2 = den[0], -den[1], -den[2]
    c2, c1 = coeffs[-2], coeffs[-1]
    for k in range(len(num), n_max + 1):
        # two rounded products: IEEE 754 rounds their sum once, so + equals fsum
        c2, c1 = c1, (d1 * c1 + d2 * c2) / d0
        if not math.isfinite(c1):
            raise OverflowError(f"series coefficient {k} overflows the float range")
        coeffs.append(c1)
    return tuple(coeffs)


def z2_series(n_max: int, p1: float, p2: float) -> tuple[float, ...]:
    """Long-division expansion of the partition generating function.

    Coefficient n equals Z_{n,2}.
    """
    p1, p2 = _validate(p1, p2, n_max)
    num = [2.0 * p2, -(1.0 + p1) * p2]
    den = [p2, -p2 * (1.0 + p1), -p1 * (1.0 - p1 - p2)]
    return _divide_series(num, den, n_max)


def density_series(n_max: int, p1: float, p2: float) -> tuple[float, ...]:
    """Long-division expansion of the density-numerator generating function.

    Coefficient n equals Z_{n,2} times the stationary single-site occupation
    probability, so c_n / Z_{n,2} recovers the density.
    """
    p1, p2 = _validate(p1, p2, n_max)
    q2 = q2_parameter(p1, p2)
    num = [0.0, p1, p1 * (q2 - 1.0)]
    den = [1.0, -(1.0 + p1), p1 * (1.0 - q2)]
    return _divide_series(num, den, n_max)


# ---- Free energy and poles ----


def free_energy(p1: float, p2: float) -> float:
    """Exponential growth rate F = lim (1/n) log Z_{n,2}.

    The closed form -log[(-p2(1+p1) + sqrt(R)) / (2p1(1-p1-p2))], with
    R = p2(1-p1)(4p1+p2-p1p2), is 0/0 on the line p1 + p2 = 1. Multiplying
    through by the conjugate gives

        F = log[ (p2(1+p1) + sqrt(R)) / (2p2) ]

    which adds only nonnegative terms, so it loses no digits near the line
    and equals log(1+p1) on it.
    """
    p1, p2 = _validate(p1, p2)
    radicand = p2 * (1.0 - p1) * (4.0 * p1 + p2 * (1.0 - p1))
    return math.log((p2 * (1.0 + p1) + math.sqrt(radicand)) / (2.0 * p2))


def free_energy_grid(
    count: int, lo: float = 0.02, hi: float = 0.98
) -> list[tuple[float, float, float]]:
    """(p1, p2, F) rows over a count x count grid, p2 varying slowest."""
    if count < 1:
        raise ParamError(f"need count >= 1, got {count}")
    if not 0 < lo <= hi < 1:  # p1 and p2 both run over these values
        raise ParamError(f"need 0 < lo <= hi < 1, got lo={lo}, hi={hi}")
    values = [lo + (hi - lo) * i / max(count - 1, 1) for i in range(count)]
    return [(p1, p2, free_energy(p1, p2)) for p2 in values for p1 in values]


def gf_denominator(x: float, p1: float, p2: float) -> float:
    """The quadratic denominator p2 - p2 x (1+p1) - x^2 p1 (1-p1-p2)."""
    return p2 - p2 * x * (1.0 + p1) - x * x * p1 * (1.0 - p1 - p2)


@dataclass(frozen=True)
class PoleData:
    """Real roots of the partition generating function denominator."""

    x_plus: float
    x_minus: float


def pole_data(p1: float, p2: float) -> PoleData:
    """Both denominator roots x_plus (dominant, |x_plus| < |x_minus|) and x_minus.

    Raises:
        DegenerateDenominator: on the line p1 + p2 = 1 (q2 = 1), where the
            denominator is linear and has a single root 1/(1+p1).
        NedpcaError: if a root leaves a residual above 1e-12 of the largest
            denominator term; the message is (x, p1, p2).
    """
    p1, p2 = _validate(p1, p2)
    if _on_removable_line(p1, p2):
        raise DegenerateDenominator(
            "denominator is linear on p1 + p2 = 1; no quadratic pole pair exists"
        )
    # q2 - 1 computed without cancellation; it controls both roots near the line
    delta = (1.0 - p1 - p2) / p2
    disc = (1.0 - p1) ** 2 + 4.0 * p1 * q2_parameter(p1, p2)
    root = math.sqrt(disc)
    # rationalized form of the (-(1+p1) + root) branch: no cancellation near q2 = 1
    x_plus = 2.0 / ((1.0 + p1) + root)
    x_minus = -((1.0 + p1) + root) / (2.0 * p1 * delta)
    for x in (x_plus, x_minus):
        # residual relative to the largest term; x_minus diverges as q2 -> 1
        scale = max(1.0, abs(p2 * (1.0 + p1) * x), abs(p1 * (1.0 - p1 - p2) * x * x))
        if not abs(gf_denominator(x, p1, p2)) < 1e-12 * scale:
            raise NedpcaError(str((x, p1, p2)))
    return PoleData(x_plus=x_plus, x_minus=x_minus)


def asymptotic_z2(n: int, p1: float, p2: float) -> float:
    """Leading-order approximation of Z_{n,2} from the dominant pole.

    Away from q2 = 1 this evaluates Z0(x_plus) / (x_plus (x_minus - x_plus))
    * x_plus^(-n) with Z0(x) = (x + p1 x - 2)/(p1 (q2-1)). On the q2 = 1 line
    the generating function collapses to (2 - (1+p1)x)/(1 - (1+p1)x) and the
    coefficient extraction is exact: Z_n = (1+p1)^n for n >= 1 (and Z_0 = 2),
    so that value is returned instead of an approximation.
    """
    p1, p2 = _validate(p1, p2)
    if n < 0:
        raise ParamError(f"need n >= 0, got {n}")
    if _on_removable_line(p1, p2):
        return 2.0 if n == 0 else (1.0 + p1) ** n
    poles = pole_data(p1, p2)
    xp, xm = poles.x_plus, poles.x_minus
    delta = (1.0 - p1 - p2) / p2
    z0 = (xp + p1 * xp - 2.0) / (p1 * delta)  # Z0(x_plus)
    return z0 / (xp * (xm - xp)) * xp ** (-n)
