"""Command-line interface: subcommands, config files, output formats, exit codes."""

import json
import re

import pytest

from nedpca.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_rational_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "-n", "3", "-m", "2", "--p1", "1/2", "--p2", "1/3",
            "--exact-rational",
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

    def test_recurrence_check_for_m2(self, capsys):
        _, out, _ = run_cli(
            capsys, "partition", "-n", "10", "-m", "2", "--p1", "0.3", "--p2", "0.5"
        )
        payload = json.loads(out)
        assert payload["checks"]["recurrence_rel_gap"] < 1e-10

    @pytest.mark.parametrize(
        "argv, reported",
        [
            (("-n", "16", "--p1", "0.3", "--p2", "0.5"), True),
            (("-n", "17", "--p1", "0.3", "--p2", "0.5"), False),
            (("-n", "12", "--p1", "1/3", "--p2", "1/2", "--exact-rational"), True),
        ],
        ids=["float-n16", "float-n17", "exact-n12"],
    )
    def test_weight_sum_check_follows_the_table_cap(self, capsys, argv, reported):
        # exact n = 13 exits 3 before any check: Z itself is capped there
        code, out, _ = run_cli(capsys, "partition", "-m", "3", *argv)
        assert code == 0
        gap = json.loads(out)["checks"]["weight_sum_rel_gap"]
        assert (gap is not None) == reported
        if reported:
            assert gap < 1e-14

    def test_exact_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", "-n", "3", "-m", "2", "--p1", "1/2", "--p2", "1/3",
            "--exact-rational", "--csv",
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

    def test_grid_and_series_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "m2", "--p1", "0.3", "--p2", "0.5", "--grid", "3", "--series", "5"
        )
        assert code == 2
        assert "mutually exclusive" in err


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

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "exact", "-n", "4", "-m", "2", "--p1", "0.3")
        assert code == 2 and "--p2" in err

    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "-n", "2", "-m", "5", "--p1", "0.3", "--p2", "0.5"
        )
        assert code == 2

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "partition", "-n", "20", "-m", "2", "--p1", "1/3", "--p2", "1/2",
            "--exact-rational",
        )
        assert code == 3 and "capped" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z.json"
        code, out, _ = run_cli(
            capsys, "partition", "-n", "4", "-m", "2", "--p1", "0.3", "--p2", "0.5",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4


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
