"""Acceptance checks: ten end-to-end criteria over the whole package.

Each criterion returns a CheckResult with a one-line verdict; run_level
executes all ten. The "quick" level shrinks the heavy parameter sweeps
(criteria 1, 3, 4, 9, 10) but runs the analytic criteria in full; "full"
runs everything at production size, including the exact-solver sweep up to
n = 10 (3-4 s on 2 vCPUs of a shared Xeon host).

Two criteria pin facts that are easy to state wrongly:

* criterion 05 (reversibility map). For n > m the chain is reversible only
  when m = 2 and p1 + p2 = 1. At n = m it is also reversible when p2 = 1:
  every window wraps the whole ring, so each occupied state empties in one
  step, the all-vacant state fills each site independently with
  probability p1. The only nonzero flows run between the all-vacant state 0
  and each other state x, and pi(x) P(x, 0) = pi(0) P(0, x) because x is
  reached from 0 alone. The one-directional witness dies there too, because
  its forward edge needs probability 1 - p2. At n = m = 2 the chain is
  always reversible.

* criterion 06 (balanced line, m = 2). With p1 + p2 = 1, q2 = 1 and the
  m = 2 weight p1^N1 q2^N01 reduces to p1^N1, so the binomial theorem gives
  Z_n = (1 + p1)^n for n >= 1; the generating function in nedpca.m2 reduces
  to 1 + 1/(1 - (1 + p1) x).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .closedforms import (
    _weights,
    density_formula,
    partition_formula,
    stationary_table_formula,
)
from .errors import ParamError
from .m2 import (
    density_series,
    free_energy,
    pole_data,
    z2_log_recurrence,
    z2_recurrence,
    z2_series,
)
from .model import ModelParams
from .montecarlo import (
    SimulationPlan,
    _advance,
    kernel_throughput,
    run,
    tv_distance,
)
from .solver import (
    audit_detailed_balance,
    build_matrix,
    one_directional_pair,
    solve_stationary,
)

__all__ = ["CheckResult", "run_level"] + [f"criterion_{i:02d}" for i in range(1, 11)]

GRID_P1 = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_P2 = (0.2, 0.4, 0.6, 0.8, 1.0)
GRID = tuple((p1, p2) for p1 in GRID_P1 for p2 in GRID_P2)
# irreversible m=2 points, chosen off the p1 + p2 = 1 line
OFFLINE_POINTS = ((0.1, 0.4), (0.3, 0.8), (0.5, 0.3), (0.7, 0.6), (0.9, 0.5))
MC_SEED = 2026


@dataclass(frozen=True)
class CheckResult:
    index: int
    title: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:02d} {status} {self.title}: {self.detail} [{self.elapsed:.1f}s]"


def _sweep(reduced: bool, gap) -> tuple[float, str]:
    """Worst gap(params) over the (n, m, p1, p2) sweep, the first maximum kept,
    and the text naming it: "<worst> at (n,m,p1,p2)=<where> over <N> points"."""
    if reduced:
        ms, n_hi, points = (2, 3), 6, ((0.3, 0.4), (0.5, 1.0), (0.7, 0.2))
    else:
        ms, n_hi, points = (2, 3, 4, 5), 10, GRID
    worst, worst_at, count = 0.0, None, 0
    for m in ms:
        for n in range(m, n_hi + 1):
            for p1, p2 in points:
                value = gap(ModelParams(n, m, p1, p2))
                count += 1
                if value > worst:
                    worst, worst_at = value, (n, m, p1, p2)
    return worst, f"{worst:.2e} at (n,m,p1,p2)={worst_at} over {count} points"


def criterion_01(reduced: bool = False) -> CheckResult:
    """Stationary law from the closed form matches the exact solver everywhere."""
    t0 = time.perf_counter()

    def gap(params: ModelParams) -> float:
        solved = solve_stationary(build_matrix(params))
        formula = stationary_table_formula(params)
        return float(np.max(np.abs(np.asarray(solved.probs) - np.asarray(formula.probs))))

    worst, where = _sweep(reduced, gap)
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-10 and elapsed < 300.0
    detail = f"sup gap {where}"
    if elapsed >= 300.0:
        detail += "; exceeded the 300s budget"
    return CheckResult(1, "formula vs solver", passed, detail, elapsed)


def criterion_02() -> CheckResult:
    """Exact rational reference point n=3, m=2, p1=1/2, p2=1/3."""
    t0 = time.perf_counter()
    params = ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3))
    expected_z = Fraction(9, 2)
    expected_pi = (
        Fraction(2, 9), Fraction(1, 6), Fraction(1, 6), Fraction(1, 12),
        Fraction(1, 6), Fraction(1, 12), Fraction(1, 12), Fraction(1, 36),
    )
    z = partition_formula(params)
    formula = stationary_table_formula(params)
    solved = solve_stationary(build_matrix(params))
    ok_z = z == expected_z
    ok_f = formula.probs == expected_pi
    ok_s = solved.probs == expected_pi
    passed = ok_z and ok_f and ok_s
    if passed:
        detail = "Z = 9/2 and all eight stationary probabilities match exactly"
    else:
        detail = f"Z ok={ok_z} formula ok={ok_f} solver ok={ok_s}; got Z={z}"
    return CheckResult(2, "rational reference point", passed, detail, time.perf_counter() - t0)


def criterion_03(reduced: bool = False) -> CheckResult:
    """Partition formula equals the brute-force sum of stationary weights."""
    t0 = time.perf_counter()

    def rel_gap(params: ModelParams) -> float:
        z = partition_formula(params)
        brute = math.fsum(_weights(params))
        return abs(z - brute) / brute

    worst, where = _sweep(reduced, rel_gap)
    passed = worst < 1e-9
    detail = f"max rel gap {where}"
    return CheckResult(3, "partition vs weight sums", passed, detail, time.perf_counter() - t0)


def criterion_04(reduced: bool = False) -> CheckResult:
    """Density formula equals both marginal readings of the stationary law."""
    t0 = time.perf_counter()

    def gap(params: ModelParams) -> float:
        rho = density_formula(params)
        probs = np.array(stationary_table_formula(params).probs)
        site1 = math.fsum(probs[1::2])
        mean_count = math.fsum(np.bitwise_count(np.arange(len(probs))) * probs) / params.n
        return max(abs(rho - site1), abs(rho - mean_count))

    worst, where = _sweep(reduced, gap)
    passed = worst < 1e-10
    detail = f"max gap {where}"
    return CheckResult(4, "density consistency", passed, detail, time.perf_counter() - t0)


def criterion_05() -> CheckResult:
    """Reversibility map: m=2 balanced line vs off-line, and m=3 at n = 3..5.

    For n > m the chain is reversible only on the m = 2 balanced line
    p1 + p2 = 1; at n = m it is also reversible when p2 = 1 (every window
    wraps the ring and each occupied state empties in one step). So the
    m = 3 sweep expects exact balance and no witness at n = 3, p2 = 1, and
    strict irreversibility with a live witness everywhere else. PAPER.md
    holds only the abstract, so it does not settle whether the paper's
    theorem assumes n > m.
    """
    t0 = time.perf_counter()

    def violation(params: ModelParams) -> float:
        matrix = build_matrix(params)
        return audit_detailed_balance(solve_stationary(matrix), matrix).max_violation

    worst_on = 0.0
    for n in range(3, 7):
        for p1 in GRID_P1:
            worst_on = max(worst_on, violation(ModelParams(n, 2, p1, 1.0 - p1)))

    min_off = math.inf
    for n in range(3, 7):
        for p1, p2 in OFFLINE_POINTS:
            min_off = min(min_off, violation(ModelParams(n, 2, p1, p2)))

    worst_wrap, min_m3 = 0.0, math.inf
    failures = []
    for n in range(3, 6):
        for p1, p2 in GRID:
            params = ModelParams(n, 3, p1, p2)
            v = violation(params)
            witness = one_directional_pair(params)
            if n == params.m and p2 == 1.0:
                worst_wrap = max(worst_wrap, v)
                ok = v < 1e-12 and witness is None
            else:
                min_m3 = min(min_m3, v)
                ok = v > 1e-6 and witness is not None
            if not ok:
                failures.append((n, p1, p2))

    passed = worst_on < 1e-12 and min_off > 1e-6 and not failures
    detail = (
        f"m=2 balanced-line max violation {worst_on:.2e}, off-line min {min_off:.2e};"
        f" m=3 at n=m, p2=1 max violation {worst_wrap:.2e},"
        f" elsewhere min violation {min_m3:.2e}"
    )
    if failures:
        pts = ", ".join(f"(n={n},p1={a},p2={b})" for n, a, b in failures)
        detail += f"; {len(failures)} m=3 point(s) off the expected map: {pts}"
    return CheckResult(5, "reversibility boundary", passed, detail, time.perf_counter() - t0)


def criterion_06() -> CheckResult:
    """Recurrence, series and closed form agree for m=2; balanced line Z_n = (1+p1)^n."""
    t0 = time.perf_counter()
    n_hi = 50
    worst_a = 0.0
    for p1, p2 in GRID:
        rec = z2_recurrence(n_hi, p1, p2)
        ser = z2_series(n_hi, p1, p2)
        for n in range(2, n_hi + 1):
            worst_a = max(worst_a, abs(rec[n] - ser[n]) / rec[n])
            z = partition_formula(ModelParams(n, 2, p1, p2))
            worst_a = max(worst_a, abs(rec[n] - z) / z)
    pass_a = worst_a < 1e-8

    worst_b = 0.0
    for p1 in GRID_P1:
        rec = z2_recurrence(n_hi, p1, 1.0 - p1)
        for n in range(1, n_hi + 1):
            binomial = (1.0 + p1) ** n
            worst_b = max(worst_b, abs(rec[n] - binomial) / binomial)
    pass_b = worst_b < 1e-12

    detail = (
        f"recurrence/series/closed-form max rel gap {worst_a:.2e};"
        f" balanced-line recurrence vs (1+p1)^n max rel gap {worst_b:.2e}"
    )
    return CheckResult(
        6, "recurrence and series consistency", pass_a and pass_b, detail, time.perf_counter() - t0
    )


def criterion_07() -> CheckResult:
    """Free energy equals -log of the dominant pole and the large-n growth rate."""
    t0 = time.perf_counter()
    worst_pole = 0.0
    worst_ratio = 0.0
    for p1, p2 in GRID:
        f = free_energy(p1, p2)
        worst_pole = max(worst_pole, abs(-math.log(pole_data(p1, p2).x_plus) - f))
        logs = z2_log_recurrence(201, p1, p2)
        worst_ratio = max(worst_ratio, abs((logs[201] - logs[200]) - f))
    worst_cont = 0.0
    eps = 1e-6
    for p1 in GRID_P1:
        base = free_energy(p1, 1.0 - p1)
        for sign in (1.0, -1.0):
            worst_cont = max(worst_cont, abs(free_energy(p1, 1.0 - p1 + sign * eps) - base))
    passed = worst_pole < 1e-12 and worst_ratio < 1e-8 and worst_cont < 1e-4
    detail = (
        f"pole gap {worst_pole:.2e}, growth-rate gap {worst_ratio:.2e},"
        f" jump across the balanced line {worst_cont:.2e} at eps={eps:g}"
    )
    return CheckResult(7, "free energy limit", passed, detail, time.perf_counter() - t0)


def criterion_08() -> CheckResult:
    """Density from the generating-function route matches the direct formula."""
    t0 = time.perf_counter()
    n_hi = 12
    worst, worst_at = 0.0, None
    for p1, p2 in GRID:
        num = density_series(n_hi, p1, p2)
        den = z2_series(n_hi, p1, p2)
        for n in range(2, n_hi + 1):
            rho = density_formula(ModelParams(n, 2, p1, p2))
            gap = abs(num[n] / den[n] - rho)
            if gap > worst:
                worst, worst_at = gap, (n, p1, p2)
    passed = worst < 1e-9
    detail = f"max gap {worst:.2e} at (n,p1,p2)={worst_at}, n up to {n_hi}"
    return CheckResult(8, "density generating function", passed, detail, time.perf_counter() - t0)


def criterion_09(reduced: bool = False) -> CheckResult:
    """Monte Carlo histograms and densities match the exact law at n=6."""
    t0 = time.perf_counter()
    samples = 100_000 if reduced else 1_000_000
    parts = []
    ok = True
    for m in (2, 3):
        params = ModelParams(6, m, 0.3, 0.5)
        plan = SimulationPlan(
            params=params, seed=MC_SEED, samples=samples, burn_in=10_000, histogram=True
        )
        summary = run(plan)
        table = solve_stationary(build_matrix(params))
        tv = tv_distance(summary, table)
        dgap = abs(summary.density_mean - density_formula(params))
        band = 4.0 * summary.density_stderr
        ok = ok and tv < 0.01 and dgap < band
        parts.append(f"m={m}: TV {tv:.4f}, density gap {dgap:.1e} vs 4*stderr {band:.1e}")
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 60.0
    detail = f"{samples} samples each; " + "; ".join(parts)
    if elapsed >= 60.0:
        detail += "; exceeded the 60s budget"
    return CheckResult(9, "Monte Carlo distribution", passed, detail, elapsed)


def criterion_10(reduced: bool = False) -> CheckResult:
    """Kernels produce identical trajectories; the bit-parallel one is 5x faster."""
    t0 = time.perf_counter()
    steps = 2_000 if reduced else 10_000
    mismatch = None
    for n in (8, 16, 64):
        params = ModelParams(n, 3, 0.3, 0.5)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(MC_SEED)))
        u = rng.random((steps, n))
        traj_s, traj_b = (_advance(0, params, u, k) for k in ("scalar", "bitparallel"))
        diffs = [t for t, (a, b) in enumerate(zip(traj_s, traj_b)) if a != b]
        if diffs:
            mismatch = (n, diffs[0])
            break

    runs = [
        run(
            SimulationPlan(
                params=ModelParams(8, 3, 0.3, 0.5), seed=MC_SEED, samples=5_000,
                burn_in=1_000, kernel=k,
            )
        )
        for k in ("bitparallel", "scalar")
    ]
    runs_match = (
        runs[0].histogram == runs[1].histogram
        and runs[0].density_mean == runs[1].density_mean
    )

    # best of 3 runs per kernel, so one slow phase of a shared core cannot set the ratio
    params64 = ModelParams(64, 3, 0.3, 0.5)
    fast_steps, slow_steps = (5_000, 1_000) if reduced else (20_000, 4_000)
    fast = max(kernel_throughput(params64, "bitparallel", fast_steps, seed=MC_SEED) for _ in range(3))
    slow = max(kernel_throughput(params64, "scalar", slow_steps, seed=MC_SEED) for _ in range(3))
    ratio = fast / slow
    passed = mismatch is None and runs_match and ratio >= 5.0
    if mismatch is None:
        detail = f"trajectories identical over {steps} steps at n=8,16,64"
    else:
        detail = f"kernel mismatch at n={mismatch[0]} step {mismatch[1]}"
    detail += (
        f"; merged summaries {'identical' if runs_match else 'DIFFER'};"
        f" n=64 throughput ratio {ratio:.1f}x"
    )
    return CheckResult(10, "kernel equivalence and speed", passed, detail, time.perf_counter() - t0)


def run_level(level: str = "quick") -> list[CheckResult]:
    """All ten criteria; 'quick' shrinks the sweeps in 1, 3, 4, 9 and 10."""
    if level not in ("quick", "full"):
        raise ParamError(f"level must be 'quick' or 'full', got {level!r}")
    reduced = level == "quick"
    return [
        criterion_01(reduced),
        criterion_02(),
        criterion_03(reduced),
        criterion_04(reduced),
        criterion_05(),
        criterion_06(),
        criterion_07(),
        criterion_08(),
        criterion_09(reduced),
        criterion_10(reduced),
    ]
