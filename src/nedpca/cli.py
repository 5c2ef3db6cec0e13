"""Command-line front end.

Subcommands:
    exact      solve the chain exactly and cross-check against closed forms
    partition  partition function and density at one parameter point
    simulate   Monte Carlo run, JSON summary on stdout
    m2         nearest-neighbour analytics: free energy, poles, grids, series
    verify     run the acceptance checks (quick or full)

Probabilities accept decimals (0.3) or fractions (3/10); fractions for both
make `exact` and `partition` compute in exact rationals, the others in doubles.
Any option of a subcommand, --out included, can also come from a --config
file of `key = value` lines keyed by the long option (`trace_path` for --trace,
`full` for verify); flags take precedence, and options set nowhere take the
library's defaults. Exit codes: 0 success, 1 failed verification,
2 bad parameters or domain errors, 3 refused resource budgets.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Optional

from . import m2 as m2mod
from .closedforms import _sums, stationary_table_formula
from .errors import BudgetExceeded, DegenerateDenominator, NedpcaError, ParamError
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


def _json_value(x):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _fmt(x) -> str:
    return str(_json_value(x))  # str of a float is its repr


def _parse_prob(text: str):
    """'3/10' becomes an exact Fraction, anything else a float."""
    text = str(text).strip()
    # argparse reports an ArgumentTypeError as a usage error naming the value, exit 2
    try:
        return Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal or fraction: {text!r}") from None


def _parse_bool(text: str) -> bool:
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParamError(f"not a boolean: {text!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParamError(f"cannot read config {path}: {exc.strerror}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _install_config(subparser: argparse.ArgumentParser, config: dict) -> None:
    """Make config values the sub-parser's defaults, so flags still win. argparse
    casts a string default by its action's type; argument-less flags get booleans."""
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    unknown = set(config) - set(actions)
    if unknown:
        raise ParamError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**{
        key: _parse_bool(value) if actions[key].nargs == 0 else value
        for key, value in config.items()
    })


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParamError(f"missing required option --{name.replace('_', '-')}")


@contextlib.contextmanager
def _naming(path: Optional[str]):
    """Name path in an OSError raised while writing it (a write or close gives no filename)."""
    try:
        yield
    except OSError as exc:
        exc.filename = exc.filename or path
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with _naming(out), open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_params(args: argparse.Namespace) -> ModelParams:
    _require(args, "n", "m", "p1", "p2")
    return ModelParams(args.n, args.m, args.p1, args.p2)


# ---- exact ----


def cmd_exact(args: argparse.Namespace) -> int:
    params = _model_params(args)
    matrix = build_matrix(params)
    solved = solve_stationary(matrix)
    formula = stationary_table_formula(params)

    lines = []
    if args.csv:
        lines.append("config,formula,solver")
        for code in range(params.n_states):
            conf = Configuration(code, params.n)
            lines.append(
                f"{conf.to_string()},{_fmt(formula.prob(conf))},{_fmt(solved.prob(conf))}"
            )
    else:
        z_formula, occupied = _sums(params)
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
            f"density (closed form): {_fmt(occupied / z_formula)}",
            f"density (solver): {_fmt(sum(solved.probs[1::2]))}",
            f"sup gap formula vs solver: {sup_gap:.3e}",
            f"master-equation residual (formula table): {float(balance_residual(formula, matrix)):.3e}",
            f"master-equation residual (solver table): {float(balance_residual(solved, matrix)):.3e}",
            f"detailed balance: max violation {audit.max_violation:.3e}"
            f" at {audit.witness[0]} -> {audit.witness[1]} ({verdict})",
        ]
    if args.edges:
        lines.append("alpha,beta,prob")
        for alpha, beta, prob in transition_edges(matrix):
            lines.append(f"{alpha},{beta},{prob!r}")
    _emit("\n".join(lines), args.out)
    return 0


# ---- partition ----


def cmd_partition(args: argparse.Namespace) -> int:
    params = _model_params(args)
    z, occupied = _sums(params)
    rho = occupied / z

    if args.csv:
        text = "n,m,p1,p2,Z,density\n" + ",".join(
            [str(params.n), str(params.m), _fmt(params.p1), _fmt(params.p2), _fmt(z), _fmt(rho)]
        )
        _emit(text, args.out)
        return 0

    checks: dict = {"weight_sum_rel_gap": None, "recurrence_rel_gap": None}
    with contextlib.suppress(BudgetExceeded):  # past the table's cap the check stays null
        # the all-vacant configuration carries weight 1, so Z = 1/pi(0)
        z_table = 1 / stationary_table_formula(params).prob(0)
        checks["weight_sum_rel_gap"] = float(abs(z_table - z) / z)
    if params.m == 2:
        with contextlib.suppress(OverflowError):  # past the float range the check stays null
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
    params = _model_params(args)
    _require(args, "samples")
    fields = {f.name for f in dataclasses.fields(SimulationPlan)}
    given = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    plan = SimulationPlan(params=params, **given)
    if args.tv:
        # refuse --tv before the chains run, not after; the chains sample in doubles
        floats = dataclasses.replace(params, p1=float(params.p1), p2=float(params.p2))
        table = stationary_table_formula(floats)
        if not plan.histogram_enabled:
            raise ParamError("--tv needs the state histogram, which --no-histogram turns off")
        if plan.samples == 0:
            raise ParamError("--tv needs at least one sample, and --samples is 0")
    with _naming(plan.trace_path):
        summary = run_simulation(plan)
    payload = summary.to_json_dict()
    if args.tv:
        payload["tv_distance"] = tv_distance(summary, table)
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---- m2 ----


def _refuse(args: argparse.Namespace, report: str, *names: str) -> None:
    """Reject options, set by flag or config, that the chosen report would ignore."""
    ignored = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if ignored:
        raise ParamError(f"{report} ignores {', '.join(ignored)}")


def cmd_m2(args: argparse.Namespace) -> int:
    if args.grid is not None and args.series is not None:
        raise ParamError("--grid and --series are mutually exclusive")

    if args.grid is not None:
        _refuse(args, "--grid", "p1", "p2")
        bounds = {k: v for k, v in (("lo", args.p_lo), ("hi", args.p_hi)) if v is not None}
        rows = m2mod.free_energy_grid(args.grid, **bounds)
        text = "p1,p2,F\n" + "\n".join(
            f"{p1!r},{p2!r},{f!r}" for p1, p2, f in rows
        )
        _emit(text, args.out)
        return 0

    _refuse(args, "--series" if args.series is not None else "the point report", "p_lo", "p_hi")
    _require(args, "p1", "p2")
    p1, p2 = float(args.p1), float(args.p2)

    if args.series is not None:
        # every term is kept, and at small p1 none overflows before n ~ 1e11
        if args.series > m2mod.SERIES_CAP:
            raise BudgetExceeded(f"--series {args.series} exceeds the cap {m2mod.SERIES_CAP}")
        zs = m2mod.z2_recurrence(args.series, p1, p2)
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
    p_exact.add_argument("--csv", action="store_true", help="per-configuration table as CSV")
    p_exact.add_argument("--edges", action="store_true", help="append the transition edge list")
    p_exact.set_defaults(subparser=p_exact, func=cmd_exact)

    p_part = sub.add_parser("partition", parents=[common], help="partition function and density")
    add_params(p_part)
    p_part.add_argument("--csv", action="store_true", help="one CSV row")
    p_part.set_defaults(subparser=p_part, func=cmd_partition)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte Carlo sampling")
    add_params(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--samples", type=int, help="retained samples per chain")
    p_sim.add_argument("--chains", type=int)
    p_sim.add_argument("--burn-in", type=int, dest="burn_in")
    p_sim.add_argument("--thin", type=int)
    p_sim.add_argument("--start", help="'zeros', 'ones', or a bit string, site 1 leftmost")
    p_sim.add_argument("--kernel", choices=("bitparallel", "scalar"))
    p_sim.add_argument(
        "--histogram", action=argparse.BooleanOptionalAction, default=None,
        help="force state histogram on/off",
    )
    p_sim.add_argument(
        "--trace", dest="trace_path", metavar="FILE", help="write sampled configurations here"
    )
    p_sim.add_argument(
        "--tv", action="store_true",
        help="add total variation distance to the closed-form stationary law",
    )
    p_sim.set_defaults(subparser=p_sim, func=cmd_simulate)

    p_m2 = sub.add_parser("m2", parents=[common], help="nearest-neighbour analytics")
    add_params(p_m2, with_nm=False)
    p_m2.add_argument("--grid", type=int, metavar="G", help="G x G free-energy CSV grid")
    p_m2.add_argument("--p-lo", type=float, dest="p_lo")
    p_m2.add_argument("--p-hi", type=float, dest="p_hi")
    p_m2.add_argument("--series", type=int, metavar="N", help="CSV of Z_0..Z_N by recurrence")
    p_m2.set_defaults(subparser=p_m2, func=cmd_m2)

    p_ver = sub.add_parser("verify", parents=[common], help="acceptance checks")
    level = p_ver.add_mutually_exclusive_group()
    level.add_argument("--quick", action="store_false", dest="full", help="reduced grids (default)")
    level.add_argument("--full", action="store_true", help="full acceptance grids")
    p_ver.set_defaults(subparser=p_ver, func=cmd_verify, full=False)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _install_config(args.subparser, _load_config(args.config))
            args = parser.parse_args(argv)
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
    except OSError as exc:  # an --out or --trace path that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
