"""Command-line front end.

Subcommands:
    exact      solve the chain exactly and cross-check against closed forms
    partition  partition function and density at one parameter point
    simulate   Monte Carlo run, JSON summary on stdout
    m2         nearest-neighbour analytics: free energy, poles, grids, series
    verify     run the acceptance checks (quick or full)

Probabilities accept either decimals (0.3) or fractions (3/10); with
--exact-rational all arithmetic runs over exact rationals where supported.
Any option can also come from a --config file of `key = value` lines, with
command-line flags taking precedence. Exit codes: 0 success, 1 failed
verification, 2 bad parameters or domain errors, 3 refused resource budgets.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import m2 as m2mod
from .closedforms import density_formula, partition_formula, stationary_table_formula
from .errors import BudgetExceeded, DegenerateDenominator, DomainError, NedpcaError, ParamError
from .model import Configuration, ModelParams
from .montecarlo import SimulationPlan, run as run_simulation, tv_distance
from .solver import (
    audit_detailed_balance,
    balance_residual,
    build_matrix,
    check_irreducible_aperiodic,
    solve_stationary,
    transition_edges,
)

REVERSIBLE_TOL = 1e-12


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def _json_value(x):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _parse_prob(text: str):
    """'3/10' becomes an exact Fraction, anything else a float."""
    text = str(text).strip()
    if "/" in text:
        return Fraction(text)
    return float(text)


def _parse_bool(text: str) -> bool:
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParamError(f"not a boolean: {text!r}")


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParamError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, spec: list) -> SimpleNamespace:
    """Merge CLI flags over --config values over defaults; cast config strings."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    out = {}
    for dest, cast, default in spec:
        value = getattr(args, dest, None)
        if value is None and dest in config:
            value = cast(config[dest])
        if value is None:
            value = default
        out[dest] = value
    unknown = set(config) - {dest for dest, _, _ in spec}
    if unknown:
        raise ParamError(f"unknown config keys: {sorted(unknown)}")
    return SimpleNamespace(**out)


def _require(ns: SimpleNamespace, *names: str) -> None:
    for name in names:
        if getattr(ns, name) is None:
            raise ParamError(f"missing required option --{name.replace('_', '-')}")


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_params(ns: SimpleNamespace) -> ModelParams:
    _require(ns, "n", "m", "p1", "p2")
    p1, p2 = ns.p1, ns.p2
    if getattr(ns, "exact_rational", False):
        p1 = p1 if isinstance(p1, Fraction) else Fraction(str(p1))
        p2 = p2 if isinstance(p2, Fraction) else Fraction(str(p2))
    return ModelParams(ns.n, ns.m, p1, p2)


_PARAM_SPEC = [
    ("n", int, None),
    ("m", int, None),
    ("p1", _parse_prob, None),
    ("p2", _parse_prob, None),
    ("exact_rational", _parse_bool, False),
]


# ---- exact ----


def cmd_exact(args: argparse.Namespace) -> int:
    ns = _resolve(
        args,
        _PARAM_SPEC + [("csv", _parse_bool, False), ("edges", _parse_bool, False)],
    )
    params = _model_params(ns)
    matrix = build_matrix(params)
    solved = solve_stationary(matrix)
    formula = stationary_table_formula(params)

    lines = []
    if ns.csv:
        lines.append("config,formula,solver")
        for code in range(params.n_states):
            conf = Configuration(code, params.n)
            lines.append(
                f"{conf.to_string()},{_fmt(formula.prob(conf))},{_fmt(solved.prob(conf))}"
            )
    else:
        z_formula = partition_formula(params)
        z_solver = 1 / solved.prob(0)  # the empty ring carries unit weight
        sup_gap = max(
            abs(float(a) - float(b)) for a, b in zip(formula.probs, solved.probs)
        )
        audit = audit_detailed_balance(solved, matrix)
        verdict = "reversible" if audit.max_violation < REVERSIBLE_TOL else "not reversible"
        lines += [
            f"n={params.n} m={params.m} p1={_fmt(params.p1)} p2={_fmt(params.p2)}"
            f" mode={'exact' if params.exact else 'float'}",
            f"states: {params.n_states}",
            f"irreducible and aperiodic: {check_irreducible_aperiodic(matrix)}",
            f"Z (closed form): {_fmt(z_formula)}",
            f"Z (solver, 1/pi(all-vacant)): {_fmt(z_solver)}",
            f"density (closed form): {_fmt(density_formula(params))}",
            f"density (solver): {_fmt(sum(solved.prob(c) for c in range(params.n_states) if c & 1))}",
            f"sup gap formula vs solver: {sup_gap:.3e}",
            f"master-equation residual (formula table): {float(balance_residual(formula, matrix)):.3e}",
            f"master-equation residual (solver table): {float(balance_residual(solved, matrix)):.3e}",
            f"detailed balance: max violation {audit.max_violation:.3e}"
            f" at {audit.witness[0]} -> {audit.witness[1]} ({verdict})",
        ]
    if ns.edges:
        lines.append("alpha,beta,prob")
        for alpha, beta, prob in transition_edges(params):
            lines.append(f"{alpha},{beta},{prob!r}")
    _emit("\n".join(lines), args.out)
    return 0


# ---- partition ----


def cmd_partition(args: argparse.Namespace) -> int:
    ns = _resolve(args, _PARAM_SPEC + [("csv", _parse_bool, False)])
    params = _model_params(ns)
    z = partition_formula(params)
    rho = density_formula(params)

    if ns.csv:
        text = "n,m,p1,p2,Z,density\n" + ",".join(
            [str(params.n), str(params.m), _fmt(params.p1), _fmt(params.p2), _fmt(z), _fmt(rho)]
        )
        _emit(text, args.out)
        return 0

    checks: dict = {"weight_sum_rel_gap": None, "recurrence_rel_gap": None}
    if params.n <= 16 and not params.exact:
        table = stationary_table_formula(params)
        # the all-vacant configuration carries weight 1, so Z = 1/pi(0)
        checks["weight_sum_rel_gap"] = abs(1 / table.prob(0) - float(z)) / float(z)
    elif params.exact and params.n <= 12:
        table = stationary_table_formula(params)
        checks["weight_sum_rel_gap"] = float(abs(1 / table.prob(0) - z) / z)
    if params.m == 2:
        zr = m2mod.z2_recurrence(params.n, float(params.p1), float(params.p2))[params.n]
        checks["recurrence_rel_gap"] = abs(zr - float(z)) / float(z)
    payload = {
        "n": params.n,
        "m": params.m,
        "p1": _json_value(params.p1),
        "p2": _json_value(params.p2),
        "Z": _json_value(z),
        "density": _json_value(rho),
        "checks": checks,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---- simulate ----


def cmd_simulate(args: argparse.Namespace) -> int:
    ns = _resolve(
        args,
        _PARAM_SPEC
        + [
            ("seed", int, 0),
            ("samples", int, None),
            ("chains", int, 1),
            ("burn_in", int, 10_000),
            ("thin", int, 1),
            ("start", str, "zeros"),
            ("kernel", str, "bitparallel"),
            ("histogram", _parse_bool, None),
            ("trace", str, None),
            ("tv", _parse_bool, False),
        ],
    )
    params = _model_params(ns)
    _require(ns, "samples")
    plan = SimulationPlan(
        params=params,
        seed=ns.seed,
        samples=ns.samples,
        chains=ns.chains,
        burn_in=ns.burn_in,
        thin=ns.thin,
        start=ns.start,
        kernel=ns.kernel,
        histogram=ns.histogram,
        trace_path=ns.trace,
    )
    summary = run_simulation(plan)
    payload = summary.to_json_dict()
    if ns.tv:
        exact = solve_stationary(build_matrix(params))
        payload["tv_distance"] = tv_distance(summary, exact)
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---- m2 ----


def cmd_m2(args: argparse.Namespace) -> int:
    ns = _resolve(
        args,
        [
            ("p1", _parse_prob, None),
            ("p2", _parse_prob, None),
            ("grid", int, None),
            ("p_lo", float, 0.02),
            ("p_hi", float, 0.98),
            ("series", int, None),
        ],
    )
    if ns.grid is not None and ns.series is not None:
        raise ParamError("--grid and --series are mutually exclusive")

    if ns.grid is not None:
        rows = m2mod.free_energy_grid(ns.grid, ns.p_lo, ns.p_hi)
        text = "p1,p2,F\n" + "\n".join(
            f"{p1!r},{p2!r},{f!r}" for p1, p2, f in rows
        )
        _emit(text, args.out)
        return 0

    _require(ns, "p1", "p2")
    p1, p2 = float(ns.p1), float(ns.p2)

    if ns.series is not None:
        zs = m2mod.z2_recurrence(ns.series, p1, p2)
        bad = [n for n, z in enumerate(zs) if not math.isfinite(z)]
        if bad:
            raise DomainError(f"Z_{bad[0]} overflows a float at p1={p1!r}, p2={p2!r}")
        text = "n,Z\n" + "\n".join(f"{n},{z!r}" for n, z in enumerate(zs))
        _emit(text, args.out)
        return 0

    payload = {
        "p1": p1,
        "p2": p2,
        "q2": m2mod.q2_parameter(p1, p2),
        "free_energy": m2mod.free_energy(p1, p2),
        "x_plus": None,
        "x_minus": None,
    }
    try:
        poles = m2mod.pole_data(p1, p2)
        payload["x_plus"] = poles.x_plus
        payload["x_minus"] = poles.x_minus
    except DegenerateDenominator:
        pass
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---- verify ----


def cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_level

    level = "full" if args.full else "quick"
    results = run_level(level)
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(
        f"{'PASS' if not failed else 'FAIL'}: {len(results) - len(failed)}/{len(results)}"
        f" criteria passed ({level})"
    )
    _emit("\n".join(lines), args.out)
    return 1 if failed else 0


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nedpca",
        description="Evaporation-deposition PCA on a ring: exact solving,"
        " closed forms, Monte Carlo.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value option file")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser, with_nm: bool = True) -> None:
        if with_nm:
            p.add_argument("-n", type=int, dest="n", help="ring size")
            p.add_argument("-m", type=int, dest="m", help="window length")
        p.add_argument("--p1", type=_parse_prob, help="deposition probability, (0,1)")
        p.add_argument("--p2", type=_parse_prob, help="evaporation probability, (0,1]")

    p_exact = sub.add_parser(
        "exact", parents=[common], help="exact stationary law and cross-checks"
    )
    add_params(p_exact)
    p_exact.add_argument(
        "--exact-rational", action="store_true", default=None, help="exact Fraction arithmetic"
    )
    p_exact.add_argument(
        "--csv", action="store_true", default=None, help="per-configuration table as CSV"
    )
    p_exact.add_argument(
        "--edges", action="store_true", default=None, help="append the transition edge list"
    )
    p_exact.set_defaults(func=cmd_exact)

    p_part = sub.add_parser(
        "partition", parents=[common], help="partition function and density"
    )
    add_params(p_part)
    p_part.add_argument("--exact-rational", action="store_true", default=None)
    p_part.add_argument("--csv", action="store_true", default=None, help="one CSV row")
    p_part.set_defaults(func=cmd_partition)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo sampling")
    add_params(p_sim)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--samples", type=int, help="retained samples per chain")
    p_sim.add_argument("--chains", type=int)
    p_sim.add_argument("--burn-in", type=int, dest="burn_in")
    p_sim.add_argument("--thin", type=int)
    p_sim.add_argument("--start", help="'zeros', 'ones', or a configuration string")
    p_sim.add_argument("--kernel", choices=("bitparallel", "scalar"))
    p_sim.add_argument(
        "--histogram", action=argparse.BooleanOptionalAction, default=None,
        help="force state histogram on/off",
    )
    p_sim.add_argument("--trace", metavar="FILE", help="write sampled configurations here")
    p_sim.add_argument(
        "--tv", action="store_true", default=None,
        help="add total variation distance to the exact stationary law",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_m2 = sub.add_parser("m2", parents=[common], help="nearest-neighbour analytics")
    add_params(p_m2, with_nm=False)
    p_m2.add_argument("--grid", type=int, metavar="G", help="G x G free-energy CSV grid")
    p_m2.add_argument("--p-lo", type=float, dest="p_lo")
    p_m2.add_argument("--p-hi", type=float, dest="p_hi")
    p_m2.add_argument("--series", type=int, metavar="N", help="CSV of Z_0..Z_N by recurrence")
    p_m2.set_defaults(func=cmd_m2)

    p_ver = sub.add_parser("verify", parents=[common], help="acceptance checks")
    p_ver.add_argument("--quick", action="store_true", help="reduced grids (default)")
    p_ver.add_argument("--full", action="store_true", help="full acceptance grids")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NedpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
