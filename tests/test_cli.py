"""Command-line interface: subcommands, config files, output formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nedpca.acceptance
import nedpca.cli
import nedpca.closedforms
import nedpca.m2
import nedpca.montecarlo
import nedpca.solver
from nedpca import ModelParams, SimulationPlan, build_matrix, free_energy_grid, run
from nedpca.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_rational_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-n", "3", "-m", "2", "--p1", "1/2", "--p2", "1/3"
        )
        assert code == 0
        assert "Z (closed form): 9/2" in out
        assert "Z (solver, 1/pi(all-vacant)): 9/2" in out
        assert "density (closed form): 13/36" in out
        assert "density (solver): 13/36" in out
        assert "mode=exact" in out

    def test_float_report_mentions_gaps(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-n", "5", "-m", "3", "--p1", "0.3", "--p2", "0.5"
        )
        assert code == 0
        gap = float(re.search(r"sup gap formula vs solver: (\S+)", out).group(1))
        assert gap < 1e-12
        assert "not reversible" in out

    def test_mixed_parameters_report_floats(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-n", "4", "-m", "2", "--p1", "1/3", "--p2", "0.5"
        )
        assert code == 0
        assert "n=4 m=2 p1=0.3333333333333333 p2=0.5 mode=float\n" in out

    def test_reversible_verdict_on_balanced_line(self, capsys):
        _, out, _ = run_cli(
            capsys, "exact", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.7"
        )
        assert "(reversible)" in out

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-n", "3", "-m", "2", "--p1", "0.3", "--p2", "0.5", "--csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "config,formula,solver"
        assert len(lines) == 9
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0)

    def test_edge_listing(self, capsys):
        _, out, _ = run_cli(
            capsys, "exact", "-n", "3", "-m", "2", "--p1", "0.3", "--p2", "0.5",
            "--csv", "--edges",
        )
        assert "alpha,beta,prob" in out
        assert len(out.strip().splitlines()) == 9 + 1 + 27

    def test_edges_reuse_the_report_matrix(self, capsys, monkeypatch):
        params = []

        def counted(p):
            params.append(p)
            return build_matrix(p)

        monkeypatch.setattr(nedpca.cli, "build_matrix", counted)
        monkeypatch.setattr(nedpca.solver, "build_matrix", counted)
        code, out, _ = run_cli(
            capsys, "exact", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.5", "--edges"
        )
        assert code == 0 and "alpha,beta,prob" in out
        assert params == [ModelParams(4, 2, 0.3, 0.5)]


@pytest.mark.parametrize("argv", [
    ("exact", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.5"),
    ("exact", "-n", "4", "-m", "3", "--p1", "1/3", "--p2", "1/2"),
    ("partition", "-n", "30", "-m", "3", "--p1", "0.3", "--p2", "0.5"),
    ("partition", "-n", "30", "-m", "3", "--p1", "0.3", "--p2", "0.5", "--csv"),
])
def test_reports_run_the_renewal_once(argv, capsys, monkeypatch):
    sums = nedpca.closedforms._sums
    calls = []

    def counted(params):
        calls.append(params)
        return sums(params)

    monkeypatch.setattr(nedpca.closedforms, "_sums", counted)
    monkeypatch.setattr(nedpca.cli, "_sums", counted, raising=False)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


class TestPartition:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["Z"] == pytest.approx(4.416777999999998, rel=1e-12)
        assert payload["density"] == pytest.approx(0.2139317393810602, rel=1e-12)
        assert payload["checks"]["weight_sum_rel_gap"] < 1e-12
        assert payload["checks"]["recurrence_rel_gap"] is None

    def test_mixed_parameters_report_floats(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "-n", "4", "-m", "2", "--p1", "1/3", "--p2", "0.5"
        )
        assert code == 0
        assert '"p1": 0.3333333333333333,' in out
        payload = json.loads(out)
        assert payload["p1"] == 1 / 3 and payload["p2"] == 0.5

    def test_recurrence_check_for_m2(self, capsys):
        _, out, _ = run_cli(
            capsys, "partition", "-n", "10", "-m", "2", "--p1", "0.3", "--p2", "0.5"
        )
        payload = json.loads(out)
        assert payload["checks"]["recurrence_rel_gap"] < 1e-10

    @pytest.mark.parametrize(
        "n, reported", [(1500, True), (2057, True), (2058, False), (3000, False)]
    )
    def test_exact_z_outlives_the_float_recurrence(self, capsys, n, reported):
        # from n = 2058 on the float recurrence is inf while exact Z runs on
        code, out, _ = run_cli(
            capsys, "partition", "-n", str(n), "-m", "2", "--p1", "1/3", "--p2", "1/2"
        )
        assert code == 0
        gap = json.loads(out)["checks"]["recurrence_rel_gap"]
        assert gap < 1e-12 if reported else gap is None

    @pytest.mark.parametrize(
        "argv, reported",
        [
            (("-n", "16", "--p1", "0.3", "--p2", "0.5"), True),
            (("-n", "17", "--p1", "0.3", "--p2", "0.5"), False),
            (("-n", "12", "--p1", "1/3", "--p2", "1/2"), True),
            (("-n", "13", "--p1", "1/3", "--p2", "1/2"), True),
            (("-n", "17", "--p1", "1/3", "--p2", "1/2"), False),
        ],
        ids=["float-n16", "float-n17", "exact-n12", "exact-n13", "exact-n17"],
    )
    def test_weight_sum_check_follows_the_table_cap(self, capsys, argv, reported):
        # Z and the density have no cap; only the 2**n table behind the check does
        code, out, _ = run_cli(capsys, "partition", "-m", "3", *argv)
        assert code == 0
        gap = json.loads(out)["checks"]["weight_sum_rel_gap"]
        assert (gap is not None) == reported
        if reported:
            assert gap == 0.0 if "1/3" in argv else gap < 1e-14

    def test_exact_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "-n", "3", "-m", "2", "--p1", "1/2", "--p2", "1/3", "--csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,m,p1,p2,Z,density"
        assert row == "3,2,1/2,1/3,9/2,13/36"


class TestOverflow:
    @pytest.mark.parametrize("command", ["partition", "exact"])
    def test_float_overflow_exits_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, command, "-n", "6", "-m", "2", "--p1", "0.5", "--p2", "1e-300"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_weight_overflow_names_the_point(self, capsys):
        # --tv builds the closed-form table before sampling, and (p1/p2)**2 overflows
        code, out, err = run_cli(
            capsys, "simulate", "-n", "6", "-m", "2", "--p1", "0.5", "--p2", "1e-300",
            "--samples", "10", "--tv",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: float overflow: (p1/p2)**2 overflows a float"
            " at ModelParams(n=6, m=2, p1=0.5, p2=1e-300)\n"
        )

    def test_float_underflow_names_the_point(self, capsys):
        # p2 * 0.5 rounds to 0.0, so orbit 3's whole lumped outflow does too,
        # though the chain is certified irreducible (p2 > 0)
        code, out, err = run_cli(
            capsys, "exact", "-n", "6", "-m", "2", "--p1", "0.5", "--p2", "5e-324"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: stationary solve underflows a float"
            " at ModelParams(n=6, m=2, p1=0.5, p2=5e-324)\n"
        )

    def test_tiny_probabilities_give_z(self, capsys):
        # p2**-k overflowed the weight-sum check's table though Z = 322
        code, out, _ = run_cli(
            capsys, "partition", "-n", "12", "-m", "2", "--p1", "1e-30", "--p2", "1e-30"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["Z"] == pytest.approx(322, rel=1e-12)
        assert payload["checks"]["weight_sum_rel_gap"] < 1e-12

    def test_tiny_probabilities_solve(self, capsys):
        # a nearly decomposable chain, where a solve that subtracts loses every digit
        code, out, _ = run_cli(
            capsys, "exact", "-n", "12", "-m", "2", "--p1", "1e-30", "--p2", "1e-30"
        )
        assert code == 0
        z = float(re.search(r"Z \(solver, 1/pi\(all-vacant\)\): (\S+)", out).group(1))
        assert z == pytest.approx(322, rel=1e-12)
        assert float(re.search(r"sup gap formula vs solver: (\S+)", out).group(1)) < 1e-12


class TestSimulate:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5",
            "--samples", "5000", "--seed", "7", "--burn-in", "500", "--tv",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 5000
        assert payload["tv_distance"] < 0.2
        assert 0.1 < payload["density_mean"] < 0.35

    def test_reproducible(self, capsys):
        argv = (
            "simulate", "-n", "5", "-m", "2", "--p1", "0.3", "--p2", "0.5",
            "--samples", "2000", "--seed", "3", "--burn-in", "100",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        a, b = json.loads(out1), json.loads(out2)
        del a["steps_per_second"], b["steps_per_second"]
        assert a == b

    def test_unset_options_take_the_plan_defaults(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "-n", "5", "-m", "2", "--p1", "0.3", "--p2", "0.5",
            "--samples", "2000",
        )
        plan = SimulationPlan(ModelParams(5, 2, 0.3, 0.5), seed=0, samples=2000)
        expected = json.loads(json.dumps(run(plan).to_json_dict()))
        got = json.loads(out)
        del got["steps_per_second"], expected["steps_per_second"]
        assert got == expected

    def test_start_takes_a_bit_string_not_an_integer_code(self, capsys, monkeypatch):
        plans = []
        monkeypatch.setattr(
            nedpca.cli, "run_simulation", lambda plan: plans.append(plan) or run(plan)
        )
        argv = ("simulate", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.5", "--samples", "10")
        code, _, _ = run_cli(capsys, *argv, "--start", "0110")
        assert code == 0 and plans[0].start_code == 6  # sites 2 and 3
        code, out, err = run_cli(capsys, *argv, "--start", "17")
        assert (code, out, len(plans)) == (2, "", 1)
        assert "0/1" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("-n", "17", "--samples", "100000"), 3, "cap"),
            (("-n", "6", "--samples", "300000", "--no-histogram"), 2, "--no-histogram turns off"),
        ],
        ids=["no-exact-table", "no-histogram"],
    )
    def test_tv_refused_before_sampling(self, capsys, monkeypatch, argv, code, message):
        calls = []
        monkeypatch.setattr(nedpca.cli, "run_simulation", calls.append)
        got, out, err = run_cli(
            capsys, "simulate", "-m", "3", "--p1", "0.3", "--p2", "0.5", "--tv", *argv
        )
        assert (got, out, calls) == (code, "", [])
        assert err.startswith("error: ") and message in err

    def test_tv_with_no_samples_refused_before_sampling(self, capsys, monkeypatch):
        def refuse(plan):
            raise AssertionError("run_simulation called for an empty --tv run")

        monkeypatch.setattr(nedpca.cli, "run_simulation", refuse)
        code, out, err = run_cli(
            capsys, "simulate", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5",
            "--samples", "0", "--tv",
        )
        assert (code, out) == (2, "")
        assert err == "error: --tv needs at least one sample, and --samples is 0\n"

    def test_tv_builds_no_transition_matrix(self, capsys, monkeypatch):
        # the reference is the closed form in doubles, so --tv serves fractions
        # and every n the histogram covers by default, past the oracle's caps
        def refuse(params):
            raise AssertionError("build_matrix called for --tv")

        monkeypatch.setattr(nedpca.cli, "build_matrix", refuse)
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "14", "-m", "3", "--p1", "1/3", "--p2", "1/2",
            "--samples", "10", "--burn-in", "10", "--tv",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p1"] == 1 / 3 and 0.0 <= payload["tv_distance"] <= 1.0


class TestM2:
    def test_point_payload(self, capsys):
        code, out, _ = run_cli(capsys, "m2", "--p1", "0.3", "--p2", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["free_energy"] == pytest.approx(0.3268157576351698)
        assert payload["x_plus"] == pytest.approx(0.721216609440098)

    def test_degenerate_point_has_null_poles(self, capsys):
        _, out, _ = run_cli(capsys, "m2", "--p1", "0.3", "--p2", "0.7")
        payload = json.loads(out)
        assert payload["x_plus"] is None and payload["x_minus"] is None
        assert payload["free_energy"] == pytest.approx(0.26236426446749106)

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "m2", "--grid", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p1,p2,F"
        assert len(lines) == 17

    def test_grid_defaults_to_the_library_bounds(self, capsys):
        _, out, _ = run_cli(capsys, "m2", "--grid", "3")
        rows = [f"{p1!r},{p2!r},{f!r}" for p1, p2, f in free_energy_grid(3)]
        assert out == "\n".join(["p1,p2,F"] + rows) + "\n"

    def test_grid_rejects_hi_of_one(self, capsys):
        code, out, err = run_cli(capsys, "m2", "--grid", "3", "--p-hi", "1.0")
        assert code == 2
        assert out == ""
        assert "lo=0.02, hi=1.0" in err and "p1 must" not in err

    def test_series_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "m2", "--p1", "0.3", "--p2", "0.5", "--series", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,Z"
        assert len(lines) == 10
        assert lines[1] == "0,2.0"

    def test_series_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "m2", "--p1", "0.5", "--p2", "0.05", "--series", "3000"
        )
        assert code == 2
        assert out == ""
        assert "Z_647" in err

    def test_series_above_the_cap_exits_3(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("no term may be made past the cap")

        monkeypatch.setattr(nedpca.m2, "z2_recurrence", refuse)
        code, out, err = run_cli(
            capsys, "m2", "--p1", "1e-9", "--p2", "0.5", "--series", "10001"
        )
        assert code == 3
        assert out == ""
        assert "--series 10001 exceeds the cap 10000" in err

    def test_grid_and_series_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "m2", "--p1", "0.3", "--p2", "0.5", "--grid", "3", "--series", "5"
        )
        assert code == 2
        assert "mutually exclusive" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p1", "0.3", "--p2", "0.5", "--p-lo", "0.5", "--p-hi", "0.2"],
             "the point report ignores --p-lo, --p-hi"),
            (["--grid", "2", "--p1", "0.9", "--p2", "0.1"], "--grid ignores --p1, --p2"),
            (["--series", "3", "--p1", "0.3", "--p2", "0.5", "--p-lo", "0.9"],
             "--series ignores --p-lo"),
        ],
        ids=["point", "grid", "series"],
    )
    def test_refuses_flags_the_report_ignores(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "m2", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_refuses_config_keys_the_report_ignores(self, capsys, tmp_path):
        # config values become the parser's defaults, so they meet the same check
        conf = tmp_path / "run.conf"
        conf.write_text("p1 = 0.3\np2 = 0.5\n")
        code, out, err = run_cli(capsys, "m2", "--config", str(conf), "--grid", "2")
        assert (code, out) == (2, "")
        assert err == "error: --grid ignores --p1, --p2\n"


class TestConfigAndErrors:
    def test_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nm = 2\np1 = 3/10\np2 = 0.5\ncsv = true\n")
        code, out, _ = run_cli(capsys, "exact", "--config", str(conf))
        assert code == 0
        assert out.startswith("config,formula,solver")
        assert len(out.strip().splitlines()) == 17

    def test_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nm = 2\np1 = 0.3\np2 = 0.5\ncsv = true\n")
        _, out, _ = run_cli(capsys, "exact", "--config", str(conf), "-n", "3")
        assert len(out.strip().splitlines()) == 9

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus = 1\n")
        code, _, err = run_cli(
            capsys, "exact", "--config", str(conf), "-n", "3", "-m", "2",
            "--p1", "0.3", "--p2", "0.5",
        )
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("exact", {"n", "m", "p1", "p2", "csv", "edges"}),
            ("partition", {"n", "m", "p1", "p2", "csv"}),
            ("simulate", {"n", "m", "p1", "p2", "seed", "samples", "chains", "burn_in",
                          "thin", "start", "kernel", "histogram", "trace_path", "tv"}),
            ("m2", {"p1", "p2", "grid", "p_lo", "p_hi", "series"}),
            ("verify", {"full"}),
        ],
    )
    def test_config_keys_are_the_option_dests(self, capsys, tmp_path, command, keys):
        keys = keys | {"out"}
        subparser = build_parser().parse_args([command]).subparser
        dests = {a.dest for a in subparser._actions if a.option_strings}
        assert dests - {"help", "config"} == keys
        conf = tmp_path / "run.conf"
        conf.write_text("".join(f"{key} = 1\n" for key in sorted(keys | {"bogus"})))
        code, _, err = run_cli(capsys, command, "--config", str(conf))
        assert code == 2 and "unknown config keys: ['bogus']" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "exact", "--config", str(tmp_path / "absent.conf")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_from_config(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 4\nm = 2\np1 = 0.3\np2 = 0.5\nout = {target}\n")
        code, out, _ = run_cli(capsys, "partition", "--config", str(conf))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "exact", "-n", "4", "-m", "2", "--p1", "0.3")
        assert code == 2 and "--p2" in err

    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "-n", "2", "-m", "5", "--p1", "0.3", "--p2", "0.5"
        )
        assert code == 2

    def test_budget_exit(self, capsys):
        # the exact oracle builds a 4**n Fraction matrix, capped at n = 9
        code, _, err = run_cli(
            capsys, "exact", "-n", "10", "-m", "2", "--p1", "1/3", "--p2", "1/2"
        )
        assert code == 3 and "cap" in err

    def test_float_budget_exit(self, capsys):
        # 7712 orbits at n = 17: Q and one product temporary alone take 0.95 GB,
        # refused in bytes before any per-state array
        code, out, err = run_cli(
            capsys, "exact", "-n", "17", "-m", "3", "--p1", "0.3", "--p2", "0.5"
        )
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: n=17, m=3 needs at least \d+ bytes before any stored entry,"
            r" over the budget 1073741824\n",
            err,
        )

    def test_float_budget_exit_far_past_the_budget(self, capsys, monkeypatch):
        # refused from n alone, before any per-state array
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.arange called past the byte budget")

        monkeypatch.setattr(np, "arange", refuse)
        code, out, err = run_cli(
            capsys, "exact", "-n", "40", "-m", "3", "--p1", "0.3", "--p2", "0.5"
        )
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: n=40, m=3 needs at least 2\*\*\d+ bytes before any stored entry,"
            r" over the budget 1073741824\n",
            err,
        )

    @pytest.mark.parametrize("command", ["exact", "partition"])
    def test_exact_rational_is_gone(self, capsys, tmp_path, command):
        # fraction syntax alone selects exact arithmetic
        argv = [command, "-n", "3", "-m", "2", "--p1", "1/2", "--p2", "1/3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--exact-rational"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --exact-rational" in capsys.readouterr().err
        conf = tmp_path / "run.conf"
        conf.write_text("exact_rational = true\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(conf))
        assert (code, out) == (2, "")
        assert "unknown config keys: ['exact_rational']" in err

    @pytest.mark.parametrize("command", ["exact", "partition", "simulate", "m2"])
    @pytest.mark.parametrize("p1, p2", [("1/0", "0.5"), ("0.3", "0/0")])
    def test_zero_denominator_exits_2(self, capsys, command, p1, p2):
        with pytest.raises(SystemExit) as exc:
            main([command, "--p1", p1, "--p2", p2])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "Traceback" not in err
        bad = p1 if "/0" in p1 else p2
        assert err.splitlines()[-1].endswith(f"zero denominator in '{bad}'")

    def test_zero_denominator_in_config_exits_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nm = 2\np1 = 1/0\np2 = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--config", str(conf)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "argument --p1: zero denominator in '1/0'"
        )

    @pytest.mark.parametrize("command", ["exact", "partition", "simulate", "m2"])
    @pytest.mark.parametrize("bad", ["abc", "1/3/4", ""])
    def test_malformed_probability_exits_2(self, capsys, command, bad):
        with pytest.raises(SystemExit) as exc:
            main([command, "--p1", bad, "--p2", "0.5"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1].endswith(f"argument --p1: not a decimal or fraction: '{bad}'")
        assert "_parse_prob" not in err

    def test_malformed_probability_in_config_exits_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nm = 2\np1 = abc\np2 = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--config", str(conf)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "argument --p1: not a decimal or fraction: 'abc'"
        )

    def test_config_skips_comments_and_blank_lines(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# a comment\n\n   \nn = 4  # trailing\nm = 2\np1 = 0.3\np2 = 0.5\n")
        code, out, _ = run_cli(capsys, "partition", "--config", str(conf))
        assert code == 0 and json.loads(out)["n"] == 4

    def test_config_line_without_equals_exits_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 4\nm 2\n")
        code, out, err = run_cli(capsys, "partition", "--config", str(conf))
        assert (code, out) == (2, "")
        assert err == f"error: {conf}:2: expected 'key = value', got 'm 2'\n"

    @pytest.mark.parametrize("command", ["exact", "partition", "simulate", "m2", "verify"])
    def test_unwritable_out_exits_2(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setattr(nedpca.acceptance, "run_level", lambda level: [])
        target = tmp_path / "absent" / "x.txt"
        argv = {
            "exact": ["-n", "3", "-m", "2", "--p1", "0.3", "--p2", "0.5"],
            "partition": ["-n", "3", "-m", "2", "--p1", "0.3", "--p2", "0.5"],
            "simulate": ["-n", "3", "-m", "2", "--p1", "0.3", "--p2", "0.5", "--samples", "5"],
            "m2": ["--p1", "0.3", "--p2", "0.5"],
            "verify": [],
        }[command]
        code, out, err = run_cli(capsys, command, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_unwritable_trace_refused_before_sampling(self, capsys, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a chain drew before the trace path was checked")

        monkeypatch.setattr(nedpca.montecarlo, "_draw", refuse)
        target = tmp_path / "absent" / "trace.txt"
        code, out, err = run_cli(
            capsys, "simulate", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5",
            "--samples", "100", "--trace", str(target),
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5",
             "--samples", "5000", "--trace", "/dev/full"),
            ("partition", "-n", "6", "-m", "3", "--p1", "0.3", "--p2", "0.5",
             "--out", "/dev/full"),
        ],
        ids=["trace", "out"],
    )
    def test_failed_write_names_the_path(self, capsys, argv):
        # the error comes from a write or a close, not from open, so it has no filename
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: cannot write /dev/full: No space left on device\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        code, out, _ = run_cli(
            capsys, "partition", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.5",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4


class TestModuleEntry:
    def test_python_m_runs_the_cli(self):
        src = str(Path(nedpca.cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "nedpca.cli", "exact", "-n", "3", "-m", "2",
             "--p1", "0.3", "--p2", "0.5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("n=3 m=2 p1=0.3 p2=0.5 mode=float\n")
        assert "states: 8" in done.stdout


class TestVerify:
    def test_quick_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        lines = out.strip().splitlines()
        criterion_lines = [l for l in lines if l.startswith("criterion ")]
        assert len(criterion_lines) == 10
        summary = lines[-1]
        match = re.fullmatch(r"(PASS|FAIL): (\d+)/10 criteria passed \(quick\)", summary)
        assert match
        # the exit code must mirror the verdict line
        assert (code == 0) == (match.group(1) == "PASS")
        assert (match.group(2) == "10") == (match.group(1) == "PASS")

    def test_config_selects_the_full_level(self, capsys, monkeypatch, tmp_path):
        levels = []
        monkeypatch.setattr(nedpca.acceptance, "run_level", lambda level: levels.append(level) or [])
        conf = tmp_path / "run.conf"
        conf.write_text("full = true\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(conf))
        assert (code, levels) == (0, ["full"])
        assert out.endswith("criteria passed (full)\n")
        run_cli(capsys, "verify", "--config", str(conf), "--quick")
        assert levels == ["full", "quick"]

    @pytest.mark.parametrize("value", ["false", "Off", "0", "no"])
    def test_config_false_selects_the_quick_level(self, capsys, monkeypatch, tmp_path, value):
        levels = []
        monkeypatch.setattr(nedpca.acceptance, "run_level", lambda level: levels.append(level) or [])
        conf = tmp_path / "run.conf"
        conf.write_text(f"full = {value}\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(conf))
        assert (code, levels) == (0, ["quick"])
        assert out.endswith("criteria passed (quick)\n")

    def test_config_non_boolean_exits_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("full = maybe\n")
        code, out, err = run_cli(capsys, "verify", "--config", str(conf))
        assert (code, out, err) == (2, "", "error: not a boolean: 'maybe'\n")

    def test_quick_and_full_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quick", "--full"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_readme_examples_parse():
    # a flag removed from the CLI but left in the docs fails here; an example
    # is a 4-space-indented `nedpca` line, continued by a trailing backslash
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.sub(r"\\\n\s*", " ", readme).splitlines()
    examples = [l.split("#", 1)[0].split()[1:] for l in lines if l.startswith("    nedpca ")]
    assert examples
    rejected = []
    for argv in examples:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert rejected == []
