"""Spans around the benchmark's calls into nedpca, and the per-layer metrics
derived from them.

A span records (workload, leg, name, start, end, parent) plus free-form
attributes such as work counts. Spans stay in memory until the run ends.
Every pass span roots the calls made during that pass; probe spans root the
traced-only measurements. Per-layer metrics are computed here from spans
alone, and every metric exists for every workload: a layer the workload does
not load reads 0.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# layers the passes call directly; model is reached only through probes
LAYERS = ("montecarlo", "solver", "closedforms", "m2")
MC_LEGS = ("n12_hist", "n64", "n1024")
SOLVER_CALLS = {
    "build_matrix": "solver.build_matrix",
    "solve_stationary": "solver.solve_stationary",
    "audit": "solver.audit_detailed_balance",
    "residual": "solver.balance_residual",
    "irreducible": "solver.check_irreducible_aperiodic",
}
SOLVER_SHARE_GROUPS = ("n10", "n12_m2", "n12_m4")
FLOAT_CASES = ("n10_m2", "n10_m3", "n10_m4", "n10_m5", "n12_m2", "n12_m4")
M2_CALLS = ("z2_recurrence", "z2_log_recurrence", "z2_series", "density_series", "pole_data", "free_energy_grid")


class OpClock:
    """Untraced timing: the duration of each layer call, and nothing else.

    A call is keyed by its leg, its unit's index in the leg and its position
    in the unit, which repeat from pass to pass and between copies of a unit.
    durations[key] holds one (seconds, unit sequence number) pair per run of
    the call. Names without a dot (pass, unit, probe) are not layer calls and
    are not timed.
    """

    enabled = False

    def __init__(self):
        self.durations: dict = {}
        self._unit = None
        self._seq = None
        self._position = 0

    @contextmanager
    def span(self, name, leg, **attrs):
        if "." not in name:
            if name == "unit":
                self._unit, self._seq, self._position = (leg, attrs["index"]), attrs["seq"], 0
            yield attrs
            return
        key = (*self._unit, self._position)
        self._position += 1
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            self.durations.setdefault(key, []).append((time.perf_counter() - t0, self._seq))


class Tracer:
    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._stack: list = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name, leg, **attrs):
        rec = {
            "id": len(self.spans),
            "workload": self.workload,
            "leg": leg,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _dur(s) -> float:
    return s["end"] - s["start"]


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def per_layer(spans: list, untraced_walls: list) -> dict:
    """Every per-layer metric of the benchmark, from the spans of a traced run."""
    root = {}
    for s in spans:  # parents precede children
        root[s["id"]] = s["name"] if s["parent"] is None else root[s["parent"]]
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    passes = [s for s in spans if s["name"] == "pass"]
    pass_time = sum(_dur(s) for s in passes)
    in_pass = [s for s in spans if root[s["id"]] == "pass"]
    probes = [s for s in spans if root[s["id"]] == "probe"]

    def select(pool, name, **match):
        return [s for s in pool if s["name"] == name and all(
            s["leg"] == v if k == "leg" else s["attrs"].get(k) == v for k, v in match.items())]

    def total(sel, key=None):
        return sum(_dur(s) if key is None else s["attrs"].get(key, 0) for s in sel)

    def rate(sel, key):
        return _ratio(total(sel, key), total(sel))

    def share(sel):
        return _ratio(total(sel), pass_time)

    # fastest pass of each kind, as for the end-to-end times
    traced = min(_dur(s) for s in passes)
    out = {
        "trace.pass_s": traced,
        "trace.overhead_s": traced - min(untraced_walls),
        "rng.philox_doubles_per_s": rate(select(probes, "rng.philox"), "doubles"),
    }
    for layer in LAYERS:
        busy = sum(_dur(s) - children.get(s["id"], 0.0) for s in in_pass if s["name"].startswith(layer + "."))
        out[f"{layer}.busy_frac"] = _ratio(busy, pass_time)

    # Monte Carlo: throughput of run() against the bare kernel and the RNG
    philox = out["rng.philox_doubles_per_s"]
    site_updates = 0
    for leg in MC_LEGS:
        runs = select(in_pass, "montecarlo.run", leg=leg)
        run_rate = rate(runs, "steps")
        kernel_rate = rate(select(probes, "montecarlo.kernel_throughput", leg=leg), "steps")
        sites = runs[0]["attrs"]["sites"] if runs else 0
        out[f"montecarlo.run_steps_per_s.{leg}"] = run_rate
        out[f"montecarlo.kernel_steps_per_s.{leg}"] = kernel_rate
        out[f"montecarlo.accumulate_frac.{leg}"] = 1.0 - run_rate / kernel_rate if kernel_rate > 0 else 0.0
        out[f"montecarlo.rng_ceiling_frac.{leg}"] = _ratio(run_rate * sites, philox)
        site_updates += sum(s["attrs"]["steps"] * s["attrs"]["sites"] for s in runs)
    site_updates = _ratio(site_updates, len(passes))
    out["montecarlo.site_updates"] = site_updates
    # v1 stream contract: one double per site per step, 8 bytes each (computed)
    out["montecarlo.uniforms_drawn"] = site_updates
    out["montecarlo.uniform_bytes"] = 8 * site_updates
    out["model.count_patterns_per_s"] = rate(select(probes, "model.count_patterns", leg="n64"), "calls")
    for leg in ("n64", "n1024"):
        out[f"model.window_masks_per_s.{leg}"] = rate(select(probes, "model.window_masks", leg=leg), "calls")

    # Oracle: share of the traced pass per solver call, matrix size and sparsity
    for short, name in SOLVER_CALLS.items():
        for group in SOLVER_SHARE_GROUPS:
            sel = select(in_pass, name, leg="n10") if group == "n10" else select(in_pass, name, case=group)
            out[f"solver.{short}_frac.{group}"] = share(sel)
    out["solver.rational_solve_frac"] = share(select(in_pass, "solver.solve_stationary", leg="rational"))
    out["closedforms.table_frac"] = share(select(in_pass, "closedforms.stationary_table_formula"))
    for case in FLOAT_CASES:
        builds = select(in_pass, "solver.build_matrix", case=case)
        attrs = builds[0]["attrs"] if builds else {}
        out[f"solver.matrix_bytes.{case}"] = attrs.get("matrix_bytes", 0)
        out[f"solver.nnz.{case}"] = attrs.get("nnz", 0)
        out[f"solver.nnz_frac.{case}"] = attrs.get("nnz_frac", 0.0)
    for short in ("build_matrix", "solve_stationary", "audit"):
        peaks = [s["attrs"]["tracemalloc_peak_mb"] for s in select(probes, SOLVER_CALLS[short])]
        out[f"solver.tracemalloc_peak_mb.{short}"] = max(peaks, default=0.0)

    # Closed forms: term-table size and enumeration rate, evaluation shares
    for leg in ("grid", "scan"):
        sel = select(probes, "closedforms.weight_terms", leg=leg)
        out[f"closedforms.terms.{leg}"] = total(sel, "terms")
        out[f"closedforms.weight_terms_per_s.{leg}"] = rate(sel, "terms")
    out["closedforms.partition_frac"] = share(select(in_pass, "closedforms.partition_formula"))
    out["closedforms.density_frac"] = share(select(in_pass, "closedforms.density_formula"))
    nonfinite = raises = 0
    for call in M2_CALLS:
        sel = select(in_pass, f"m2.{call}")
        out[f"m2.{call}_frac"] = share(sel)
        nonfinite += total(sel, "nonfinite")
        raises += total(sel, "overflow_raises")
    out["m2.nonfinite_coeffs"] = _ratio(nonfinite, len(passes))
    out["m2.series_overflow_raises"] = _ratio(raises, len(passes))
    return out
