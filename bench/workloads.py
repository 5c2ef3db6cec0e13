"""The three benchmark workloads: seeded inputs, timed legs, untimed checks, probes.

Each workload loads one part of nedpca and leaves the others nearly idle:

    mc_ring         montecarlo.run at m = 3 (legs n12_hist, n64, n1024)
    oracle_exact    what `nedpca exact` computes (legs n10, n12, rational)
    analytic_sweep  closed forms past the oracle's reach (legs grid, scan, m2)

A pass is a list of units, each tagged with its leg: one run() call, one
oracle case, one closed-form evaluation, one m2 point. Every call the
benchmark makes into a layer sits inside a tracer span named
"<layer>.<function>". Checks run after a pass, outside the timed region.
Probes run only in the traced run and feed per-layer metrics that the passes
cannot show (kernel ceilings, term counts, memory peaks).
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np

import nedpca
from nedpca import (
    ModelParams,
    SimulationPlan,
    audit_detailed_balance,
    balance_residual,
    build_matrix,
    check_irreducible_aperiodic,
    count_patterns,
    density_formula,
    density_series,
    free_energy_grid,
    kernel_throughput,
    partition_formula,
    pole_data,
    solve_stationary,
    stationary_table_formula,
    stationary_weight,
    tv_distance,
    weight_terms,
    window_masks,
    z2_log_recurrence,
    z2_recurrence,
    z2_series,
)

CHAINS = 2  # nproc on the reference machine; run() gets no thread pool
LOG_MAX = math.log(sys.float_info.max)
# Coefficients whose true log-magnitude is within this margin of the float
# range may overflow in intermediate products; earlier overflow is a failure.
OVERFLOW_MARGIN = 10.0


def _points(rng: random.Random, count: int) -> list:
    # pole_data is undefined on p1 + p2 = 1; a uniform draw lands there with
    # probability ~1e-9, but redrawing keeps every seed valid
    out = []
    while len(out) < count:
        p1, p2 = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
        if abs(p1 + p2 - 1.0) > 1e-6:
            out.append((p1, p2))
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Seeded inputs plus the legs, checks and probes of one workload."""

    name = ""
    legs: tuple = ()
    # Copies of each unit of a leg per untraced pass, spread over the pass. A
    # short leg gets few samples in a pass that a long leg dominates; each call
    # counts its median run, so copies add samples, not reported work.
    COPIES: dict = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out: dict = {}  # leg -> outputs of the current pass, for checks

    def units(self) -> list:
        """One pass as (leg, unit) pairs. unit(tracer, pass_index) makes its
        layer calls, appends its outputs to self.out[leg] and returns the
        number of calls made."""
        raise NotImplementedError

    def check_leg(self, leg: str, pass_index: int) -> tuple[int, list]:
        """Check the outputs of a leg's units: (checks made, failure messages)."""
        raise NotImplementedError

    def once_checks(self) -> tuple[int, list]:
        return 0, []

    def probe(self, tracer) -> None:
        pass

    def named(self, leg_s: dict) -> dict:
        """The workload's named end-to-end metrics, name -> (value, unit),
        from the seconds of each leg."""
        raise NotImplementedError


def philox_probe(tracer, seed: int, n: int = 64, calls: int = 32) -> None:
    """Time raw Philox doubles in the (chunk, n) shape montecarlo draws them."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for _ in range(3):
        with tracer.span("rng.philox", None, doubles=calls * 4096 * n):
            for _ in range(calls):
                rng.random((4096, n))


# ---- mc_ring ----


class MonteCarloRing(Workload):
    """montecarlo.run at m = 3 on three ring sizes.

    n12_hist keeps the histogram (codes list plus np.add.at, no per-sample
    pattern counting); n64 fits a chain in one machine word and calls
    count_patterns once per sample; n1024 spans many words and is bound by
    the one-Philox-double-per-site draw.
    """

    name = "mc_ring"
    legs = ("n12_hist", "n64", "n1024")
    M = 3
    BURN_IN = 1000
    # (n, histogram, samples per chain): about 0.8 s per leg on a 2-core box
    SHAPES = {"n12_hist": (12, True, 90_000), "n64": (64, False, 30_000), "n1024": (1024, False, 12_000)}
    # finite-ring densities converge geometrically in n; n = 64 stands in for
    # n = 1024, whose closed form is out of reach
    REF_N = 64
    Z_TOL = 5.0  # batch-means standard errors
    TV_FACTOR = 2.0  # times the TV expected from independent draws

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.params = {}
        self.samples = {}
        for leg, (n, _, samples) in self.SHAPES.items():
            p1, p2 = _points(self.rng, 1)[0]
            self.params[leg] = ModelParams(n, self.M, p1, p2)
            self.samples[leg] = 1000 if smoke else samples
        self.burn_in = 100 if smoke else self.BURN_IN
        self.run_seeds = [self.rng.randrange(2**32) for _ in range(10_000)]
        self._refs: dict = {}

    def plan(self, leg: str, pass_index: int) -> SimulationPlan:
        n, hist, _ = self.SHAPES[leg]
        return SimulationPlan(
            params=self.params[leg],
            seed=self.run_seeds[pass_index % len(self.run_seeds)],
            samples=self.samples[leg],
            chains=CHAINS,
            burn_in=self.burn_in,
            histogram=hist,
        )

    def steps(self, leg: str) -> int:
        return CHAINS * (self.burn_in + self.samples[leg])

    def named(self, leg_s):
        return {f"mc_{leg}_steps_per_s": (self.steps(leg) / leg_s[leg], "1/s") for leg in self.legs}

    def units(self):
        return [(leg, partial(self._run, leg)) for leg in self.legs]

    def _run(self, leg, tracer, pass_index):
        plan = self.plan(leg, pass_index)
        with tracer.span("montecarlo.run", leg, steps=self.steps(leg), sites=plan.params.n):
            summary = nedpca.run(plan)
        self.out.setdefault(leg, []).append(summary)
        return 1

    def _reference(self, leg: str):
        if leg not in self._refs:
            p = self.params[leg]
            ref_params = ModelParams(min(p.n, self.REF_N), p.m, p.p1, p.p2)
            table = stationary_table_formula(p) if self.SHAPES[leg][1] else None
            self._refs[leg] = (float(density_formula(ref_params)), table)
        return self._refs[leg]

    def check_leg(self, leg, pass_index):
        (s,) = self.out[leg]
        rho, table = self._reference(leg)
        fails = []
        z = (s.density_mean - rho) / s.density_stderr
        if not abs(z) <= self.Z_TOL:
            fails.append(f"{leg}: density {s.density_mean:.6f} vs closed form {rho:.6f} (z = {z:.2f})")
        if table is None:
            return 1, fails
        tv = tv_distance(s, table)
        total = s.total_samples
        expected = 0.5 * sum(math.sqrt(2 * q * (1 - q) / (math.pi * total)) for q in table.probs)
        if not tv <= self.TV_FACTOR * expected:
            fails.append(f"{leg}: TV {tv:.4f} above {self.TV_FACTOR} x {expected:.4f}")
        return 2, fails

    def once_checks(self):
        # the scalar and bit-parallel kernels consume the same stream, so the
        # summaries agree bit for bit outside the timing and the kernel name
        p = self.params["n12_hist"]
        payloads = []
        for kernel in ("scalar", "bitparallel"):
            plan = SimulationPlan(params=p, seed=self.run_seeds[0], samples=2000, chains=CHAINS,
                                  burn_in=100, kernel=kernel)
            d = nedpca.run(plan).to_json_dict()
            for key in ("steps_per_second", "kernel"):
                d.pop(key)
            payloads.append(d)
        if payloads[0] != payloads[1]:
            diff = sorted(k for k in payloads[0] if payloads[0][k] != payloads[1][k])
            return 1, [f"kernel determinism: scalar and bitparallel differ in {diff}"]
        return 1, []

    def probe(self, tracer):
        philox_probe(tracer, self.seed)
        for leg in self.legs:
            steps = self.steps(leg) // CHAINS
            with tracer.span("montecarlo.kernel_throughput", leg, steps=steps):
                kernel_throughput(self.params[leg], "bitparallel", steps, seed=self.seed)
        gen = np.random.default_rng(self.seed)
        calls = 200 if self.smoke else 20_000
        for leg in ("n64", "n1024"):
            p = self.params[leg]
            # random rings at density ~1/4, near the stationary density
            words = (p.n + 63) // 64
            codes = []
            for _ in range(calls):
                bits = gen.integers(0, 2**63, size=(2, words), dtype=np.int64)
                codes.append(int.from_bytes((bits[0] & bits[1]).tobytes(), "little") & ((1 << p.n) - 1))
            with tracer.span("model.window_masks", leg, calls=calls):
                for c in codes:
                    window_masks(c, p)
            if leg == "n64":
                with tracer.span("model.count_patterns", leg, calls=calls):
                    for c in codes:
                        count_patterns(c, p)


# ---- oracle_exact ----


class OracleExact(Workload):
    """The dense transition-matrix oracle, as `nedpca exact` runs it.

    n12 at m = 2 has 3^n nonzeros (the densest case) and m = 4 is sparse, so a
    sparse-row change should help the second more. The rational leg runs the
    same layer through Fraction arithmetic and should not move.
    """

    name = "oracle_exact"
    legs = ("n10", "n12", "rational")
    COPIES = {"n10": 2, "rational": 4}
    CASES = {"n10": ((10, 2), (10, 3), (10, 4), (10, 5)), "n12": ((12, 2), (12, 4)), "rational": ((6, 2),)}
    # The exact solve's cost depends on the fractions themselves (0.8 to 1.6 s
    # at n = 6 over six points with denominator 20), so a seeded point would
    # make the leg's work vary by seed; the rational point is fixed.
    RATIONAL_POINT = (Fraction(2, 5), Fraction(3, 10))
    SUP_GAP_TOL = 1e-10
    RESIDUAL_TOL = 1e-12

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.params = {}
        for leg, shapes in self.CASES.items():
            for n, m in shapes:
                p1, p2 = self.RATIONAL_POINT if leg == "rational" else _points(self.rng, 1)[0]
                self.params[self.case(n, m, leg)] = ModelParams(n, m, p1, p2)

    @staticmethod
    def case(n: int, m: int, leg: str) -> str:
        return f"rational_n{n}" if leg == "rational" else f"n{n}_m{m}"

    def named(self, leg_s):
        return {f"exact_{leg}_s": (leg_s[leg], "s") for leg in self.legs}

    def units(self):
        return [(leg, partial(self._case, leg, n, m)) for leg, shapes in self.CASES.items() for n, m in shapes]

    def _case(self, leg, n, m, tracer, pass_index):
        case = self.case(n, m, leg)
        params = self.params[case]
        with tracer.span("solver.build_matrix", leg, case=case) as attrs:
            matrix = build_matrix(params)
        if tracer.enabled and not matrix.exact:
            nnz = int(np.count_nonzero(matrix.entries))
            attrs.update(nnz=nnz, nnz_frac=nnz / matrix.entries.size, matrix_bytes=matrix.entries.nbytes)
        with tracer.span("solver.check_irreducible_aperiodic", leg, case=case):
            irreducible = check_irreducible_aperiodic(matrix)
        with tracer.span("solver.solve_stationary", leg, case=case):
            solved = solve_stationary(matrix)
        with tracer.span("solver.balance_residual", leg, case=case):
            residual = balance_residual(solved, matrix)
        with tracer.span("solver.audit_detailed_balance", leg, case=case):
            audit_detailed_balance(solved, matrix)
        with tracer.span("closedforms.stationary_table_formula", leg, case=case):
            formula = stationary_table_formula(params)
        if params.exact:
            sup_gap = max(abs(a - b) for a, b in zip(formula.probs, solved.probs))
        else:
            sup_gap = max(abs(float(a) - float(b)) for a, b in zip(formula.probs, solved.probs))
        # keep scalars only: the dense matrices set the peak RSS
        self.out.setdefault(leg, []).append((case, params.exact, irreducible, sup_gap, residual))
        return 6

    def check_leg(self, leg, pass_index):
        fails = []
        for case, exact, irreducible, sup_gap, residual in self.out[leg]:
            if not irreducible:
                fails.append(f"{case}: irreducibility certificate failed")
            gap_ok = sup_gap == 0 if exact else sup_gap < self.SUP_GAP_TOL
            if not gap_ok:
                fails.append(f"{case}: sup gap formula vs solver {float(sup_gap):.3e}")
            res_ok = residual == 0 if exact else residual < self.RESIDUAL_TOL
            if not res_ok:
                fails.append(f"{case}: master-equation residual {float(residual):.3e}")
        return 3 * len(self.out[leg]), fails

    def probe(self, tracer):
        philox_probe(tracer, self.seed)
        # peak traced allocation per solver call; build_matrix makes many small
        # allocations that tracemalloc slows tenfold, so it is probed at n = 10
        build_case, case = "n10_m2", "n12_m2"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with tracer.span("solver.build_matrix", "probe", case=build_case) as attrs:
                build_matrix(self.params[build_case])
            attrs["tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            matrix = build_matrix(self.params[case])
            tracemalloc.start()
            for name, call in (
                ("solver.solve_stationary", lambda: solve_stationary(matrix)),
                ("solver.audit_detailed_balance", lambda: audit_detailed_balance(solved, matrix)),
            ):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                with tracer.span(name, "probe", case=case) as attrs:
                    result = call()
                attrs["tracemalloc_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                if name == "solver.solve_stationary":
                    solved = result
        finally:
            tracemalloc.stop()


# ---- analytic_sweep ----


class AnalyticSweep(Workload):
    """Closed forms beyond the oracle's reach; no solver and no Monte Carlo.

    grid: 25 points share each (n, m), where a per-(n, m) term-table cache
    would show. scan: one point per (n, m), so a cache predicts no change.
    m2: the nearest-neighbour suite at lengths in the thousands, where the
    plain recurrence and series overflow.
    """

    name = "analytic_sweep"
    legs = ("grid", "scan", "m2")
    COPIES = {"scan": 2, "m2": 3}
    GRID_SHAPES = ((40, 2), (30, 3), (28, 5))
    GRID_POINTS = 25
    SCAN_SHAPES = (
        (12, 2), (24, 2), (36, 2), (48, 2), (60, 2),
        (12, 3), (24, 3), (36, 3), (48, 3),
        (12, 4), (24, 4), (36, 4),
        (12, 5), (24, 5), (30, 5),
        (12, 6), (24, 6),
        (12, 7), (24, 7),
        (12, 8), (24, 8),
    )
    M2_POINTS = 40
    M2_LENGTH = 3000
    M2_DENSITY_N = 24  # where density_series is checked against density_formula
    FREE_ENERGY_COUNT = 60
    BRUTE_N = 12
    REL_TOL = 1e-8

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.grid_points = _points(self.rng, 2 if smoke else self.GRID_POINTS)
        self.scan_points = _points(self.rng, len(self.SCAN_SHAPES))
        self.m2_points = _points(self.rng, 2 if smoke else self.M2_POINTS)
        self.m2_length = 1000 if smoke else self.M2_LENGTH
        self.first: dict = {}  # leg -> outputs of pass 0; later passes must repeat them

    def named(self, leg_s):
        # one evaluation is a (Z, density) pair
        return {
            "cf_grid_evals_per_s": (len(self._pairs("grid")) / leg_s["grid"], "1/s"),
            "cf_scan_evals_per_s": (len(self._pairs("scan")) / leg_s["scan"], "1/s"),
            "m2_suite_s": (leg_s["m2"], "s"),
        }

    def _pairs(self, leg):
        if leg == "grid":
            return [(n, m, p) for n, m in self.GRID_SHAPES for p in self.grid_points]
        return [(n, m, p) for (n, m), p in zip(self.SCAN_SHAPES, self.scan_points)]

    def units(self):
        units = [(leg, partial(self._evaluate, leg, n, m, p)) for leg in ("grid", "scan") for n, m, p in self._pairs(leg)]
        units += [("m2", partial(self._m2_point, p)) for p in self.m2_points]
        units.append(("m2", self._free_energy))
        return units

    def _evaluate(self, leg, n, m, point, tracer, pass_index):
        p1, p2 = point
        params = ModelParams(n, m, p1, p2)
        with tracer.span("closedforms.partition_formula", leg, n=n, m=m):
            z = partition_formula(params)
        with tracer.span("closedforms.density_formula", leg, n=n, m=m):
            rho = density_formula(params)
        self.out.setdefault(leg, []).append((n, m, p1, p2, z, rho))
        return 2

    def _m2_point(self, point, tracer, pass_index):
        p1, p2 = point
        L = self.m2_length
        row = {"p": point}
        for name, fn in (
            ("z2_recurrence", z2_recurrence),
            ("z2_log_recurrence", z2_log_recurrence),
            ("z2_series", z2_series),
            ("density_series", density_series),
        ):
            with tracer.span(f"m2.{name}", "m2") as attrs:
                try:
                    value = fn(L, p1, p2)
                except (OverflowError, ValueError) as exc:
                    # math.fsum raises once the expansion overflows; the
                    # check decides whether that overflow was due
                    if isinstance(exc, nedpca.NedpcaError):
                        raise
                    value = exc
            if isinstance(value, Exception):
                attrs["overflow_raises"] = 1
            else:
                value = tuple(getattr(value, "coeffs", value))
                attrs["nonfinite"] = sum(not math.isfinite(x) for x in value)
            row[name] = value
        with tracer.span("m2.pole_data", "m2"):
            row["pole"] = pole_data(p1, p2)
        self.out.setdefault("m2", []).append(row)
        return 5

    def _free_energy(self, tracer, pass_index):
        with tracer.span("m2.free_energy_grid", "m2"):
            grid = free_energy_grid(self.FREE_ENERGY_COUNT)
        self.out.setdefault("m2", []).append({"free_energy_grid": grid})
        return 1

    def check_leg(self, leg, pass_index):
        if pass_index > 0:
            same = _same(self.out[leg], self.first[leg])
            return 1, [] if same else [f"{leg}: pass {pass_index} differs from pass 0"]
        self.first[leg] = self.out[leg]
        if leg == "m2":
            return self._check_m2()
        fails = []
        checks = 0
        for n, m, p1, p2, z, rho in dict.fromkeys(self.out[leg]):  # copies repeat outputs
            tag = f"{leg} n={n} m={m} p=({p1:.4f},{p2:.4f})"
            checks += 1
            if not (math.isfinite(z) and z > 1 and 0 < rho < 1):
                fails.append(f"{tag}: Z={z!r} density={rho!r} out of range")
                continue
            if m == 2:
                checks += 1
                zr = z2_recurrence(n, p1, p2)[n]
                if not _rel(zr, z) < self.REL_TOL:
                    fails.append(f"{tag}: recurrence {zr!r} vs partition_formula {z!r}")
            if n <= self.BRUTE_N:
                checks += 2
                params = ModelParams(n, m, p1, p2)
                weights = [stationary_weight(c, params) for c in range(params.n_states)]
                zb = math.fsum(weights)
                rhob = math.fsum(weights[1::2]) / zb  # odd codes have site 1 occupied
                if not _rel(zb, z) < 1e-10:
                    fails.append(f"{tag}: brute weight sum {zb!r} vs partition_formula {z!r}")
                if not abs(rhob - rho) < 1e-12:
                    fails.append(f"{tag}: brute density {rhob!r} vs density_formula {rho!r}")
        return checks, fails

    def _check_m2(self):
        L = self.m2_length
        fails = []
        checks = 0
        seen = set()  # copies of a unit repeat its outputs; check each once
        for row in self.out["m2"]:
            key = row.get("p", "free_energy_grid")
            if key in seen:
                continue
            seen.add(key)
            if "free_energy_grid" in row:
                checks += 1
                if not all(math.isfinite(f) for _, _, f in row["free_energy_grid"]):
                    fails.append("free_energy_grid: non-finite free energy")
                continue
            p1, p2 = row["p"]
            tag = f"m2 p=({p1:.4f},{p2:.4f})"
            logz = row["z2_log_recurrence"]
            checks += 1
            if isinstance(logz, Exception) or not all(math.isfinite(x) for x in logz):
                fails.append(f"{tag}: log recurrence failed: {logz!r:.80}")
                continue
            # first index whose true value may overflow a float
            due = next((k for k, x in enumerate(logz) if x > LOG_MAX - OVERFLOW_MARGIN), L + 1)
            z = row["z2_recurrence"]
            for name in ("z2_recurrence", "z2_series", "density_series"):
                checks += 1
                value = row[name]
                if isinstance(value, Exception):
                    if due > L:
                        fails.append(f"{tag}: {name} raised {value!r} with no overflow due")
                    continue
                early = [k for k, x in enumerate(value) if not math.isfinite(x) and k < due]
                if early:
                    fails.append(f"{tag}: {name} non-finite at n={early[0]} before overflow is due at {due}")
            if not isinstance(z, Exception):
                checks += 1
                bad = [k for k in range(min(due, L + 1)) if abs(math.log(z[k]) - logz[k]) > 1e-9 * max(1.0, abs(logz[k]))]
                if bad:
                    fails.append(f"{tag}: log recurrence disagrees with recurrence at n={bad[0]}")
                for name in ("z2_series",):
                    s = row[name]
                    if isinstance(s, Exception):
                        continue
                    checks += 1
                    bad = [k for k in range(min(due, L + 1)) if not _rel(s[k], z[k]) < self.REL_TOL]
                    if bad:
                        fails.append(f"{tag}: {name} disagrees with recurrence at n={bad[0]}")
            ds = row["density_series"]
            if not isinstance(ds, Exception):
                checks += 1
                n = self.M2_DENSITY_N
                rho = float(density_formula(ModelParams(n, 2, p1, p2)))
                rho_s = ds[n] / math.exp(logz[n])
                if not abs(rho_s - rho) < 1e-10:
                    fails.append(f"{tag}: density series {rho_s!r} vs density_formula {rho!r} at n={n}")
            checks += 1
            growth = logz[L] - logz[L - 1]  # log Z_L / Z_{L-1} -> -log x_plus
            f_pole = -math.log(row["pole"].x_plus)
            if not _rel(growth, f_pole) < 1e-9:
                fails.append(f"{tag}: growth {growth!r} vs pole free energy {f_pole!r}")
        return checks, fails

    def probe(self, tracer):
        philox_probe(tracer, self.seed)
        # size of the term table each evaluation enumerates, per distinct (n, m)
        for leg in ("grid", "scan"):
            shapes = self.GRID_SHAPES if leg == "grid" else self.SCAN_SHAPES
            for n, m in shapes:
                params = ModelParams(n, m, 0.5, 0.5)
                with tracer.span("closedforms.weight_terms", leg, n=n, m=m) as attrs:
                    count = sum(1 for _ in weight_terms(params))
                attrs["terms"] = count


def _same(a, b) -> bool:
    # exceptions compare by type and message; floats must repeat bit for bit
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


WORKLOADS = {w.name: w for w in (MonteCarloRing, OracleExact, AnalyticSweep)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
