import hashlib
import json
import subprocess
import sys

import pytest

from optquad import closed_form_m1, closed_form_m2
from optquad.cli import main


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestCoeffs:
    def test_order_one_single_interval(self, capsys):
        code, out, _ = run_cli("coeffs", "--m", "1", "--n", "1", "--method", "closed", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["method"] == "closed"
        assert doc["nodes"] == [0.0, 1.0]
        expected = closed_form_m1(1).coefficients
        assert doc["coefficients"] == list(expected)
        assert doc["d"] == 0.0

    def test_order_two_single_interval(self, capsys):
        code, out, _ = run_cli("coeffs", "--m", "2", "--n", "1", "--method", "closed", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"][0] == pytest.approx(0.4180232931306735, abs=1e-15)
        assert doc["coefficients"][1] == pytest.approx(0.5819767068693265, abs=1e-15)

    def test_json_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli("coeffs", "--m", "2", "--n", "8", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == list(closed_form_m2(8).coefficients)
        assert doc["h"] == 0.125

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            "coeffs", "--m", "2", "--n", "2", "--format", "csv", capsys=capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,node,coefficient"
        assert len(lines) == 4
        rule = closed_form_m2(2)
        for beta, line in enumerate(lines[1:]):
            b, node, coeff = line.split(",")
            assert int(b) == beta
            assert float(node) == beta / 2
            assert float(coeff) == rule.coefficients[beta]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rule.json"
        code, out, _ = run_cli(
            "coeffs", "--m", "1", "--n", "4", "--out", str(target), capsys=capsys
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["n"] == 4

    def test_closed_form_unavailable_for_order_three(self, capsys):
        code, _, err = run_cli("coeffs", "--m", "3", "--n", "2", "--method", "closed", capsys=capsys)
        assert code == 2
        assert "m" in err

    COMMANDS = [
        ("coeffs", ["--n", "2"]),
        ("integrate", ["--n", "2", "--function", "sin"]),
        ("convergence", ["--n-list", "2,4", "--function", "sin"]),
        ("compare", ["--n", "2", "--function", "sin"]),
    ]
    COMMAND_IDS = [command for command, _ in COMMANDS]

    @pytest.mark.parametrize("method", ["closed"])
    @pytest.mark.parametrize("command, args", COMMANDS, ids=COMMAND_IDS)
    def test_method_without_order_three_is_usage_error(self, command, args, method, capsys):
        code, out, err = run_cli(command, "--m", "3", *args, "--method", method, capsys=capsys)
        assert (code, out) == (2, "")
        assert f"method {method!r} supports m in (1, 2), got m=3" in err

    @pytest.mark.parametrize("command, args", COMMANDS, ids=COMMAND_IDS)
    def test_conv_method_is_usage_error(self, command, args, capsys):
        code, out, err = run_cli(command, "--m", "2", *args, "--method", "conv", capsys=capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: 'conv'" in err

    def test_solve_method_for_order_three(self, capsys):
        code, out, _ = run_cli("coeffs", "--m", "3", "--n", "4", "--method", "solve", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "solve"
        assert doc["diagnostics"]["condition_number"] > 1.0
        assert doc["diagnostics"]["constraint_residuals"]["exp"] <= 1e-11

    def test_zero_intervals_is_usage_error(self, capsys):
        code, _, err = run_cli("coeffs", "--m", "2", "--n", "0", capsys=capsys)
        assert code == 2


class TestGoldenStability:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 8)])
    def test_byte_identical_across_runs(self, m, n, capsys):
        _, first, _ = run_cli("coeffs", "--m", str(m), "--n", str(n), capsys=capsys)
        _, second, _ = run_cli("coeffs", "--m", str(m), "--n", str(n), capsys=capsys)
        assert first == second
        assert first.endswith("\n")

    def test_byte_identical_in_fresh_processes(self, tmp_path):
        cmd = [sys.executable, "-m", "optquad", "coeffs", "--m", "2", "--n", "8"]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second

    def test_seventeen_digit_serialization_round_trips(self, capsys):
        # parse -> reformat at 17 significant digits -> identical text
        _, out, _ = run_cli("coeffs", "--m", "2", "--n", "8", capsys=capsys)
        doc = json.loads(out)
        for text_value, value in [
            (f"{c:.17g}", c) for c in closed_form_m2(8).coefficients
        ]:
            assert float(text_value) == value
            assert text_value in out
        assert doc["coefficients"] == list(closed_form_m2(8).coefficients)

    # SHA-256 of `coeffs --format csv` stdout.  n = 28 is the first n where
    # np.power moves an order-2 weight by one ulp against binary powering.
    GOLDEN_CSV_SHA256 = {
        (1, 1): "4d4f564853447ef9a6be430a2a7e7f0501f14fd74fef0de81f938fb16dbc0da6",
        (1, 8): "5cd3c8ba567baff39377b985ec982dcdfab6a42ea4b4634342e78cd84f0f8296",
        (1, 28): "1163cf73aed298aae9f613fb14880e41d22f1f4c6036e2dd6dc56a9d65f549d8",
        (1, 1024): "e7459bb4d05737889bdda600d51ae529bd5cf4d23f60c088434dfd27ea88d018",
        (1, 65536): "e730acc141ade315df8680502be589ab9484d0e8b2591fd5883951005d27740c",
        (2, 1): "35f6acf884368591fe215b69de9ec500ebabec4aea2ec5444a5abd7d97bf6871",
        (2, 8): "211e0b0dee58b123c4bd9b6a8014cd2d2f164139d075c005d754df7e20daf9c0",
        (2, 28): "d5df7c952bc39ee7711327daa2db83d67c7b66d8a63f717926117164cea40462",
        (2, 1024): "66a6b5b1e13071e0c39158f8b62fcbd58a8f837e79fad5fcc327a5b37a529f77",
        (2, 65536): "55cfcd9b7635569376584d5f2d392336b46cab7254f64ec3c99423470fcc4a6e",
    }

    @pytest.mark.parametrize("m, n", sorted(GOLDEN_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, m, n, capsys):
        code, out, _ = run_cli("coeffs", "--m", str(m), "--n", str(n), "--format", "csv", capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_CSV_SHA256[(m, n)]


class TestIntegrate:
    def test_exponential_exactness(self, capsys):
        code, out, _ = run_cli(
            "integrate", "--m", "2", "--n", "8", "--function", "exp-neg", capsys=capsys
        )
        assert code == 0
        error = float(out.splitlines()[2].split()[-1])
        assert error <= 1e-12

    def test_constant_order_two(self, capsys):
        code, out, _ = run_cli(
            "integrate", "--m", "2", "--n", "5", "--function", "one", capsys=capsys
        )
        assert code == 0
        assert float(out.splitlines()[2].split()[-1]) <= 1e-12

    def test_sin_error_decreases(self, capsys):
        errors = []
        for n in ("16", "32"):
            code, out, _ = run_cli(
                "integrate", "--m", "1", "--n", n, "--function", "sin", capsys=capsys
            )
            assert code == 0
            errors.append(float(out.splitlines()[2].split()[-1]))
        assert errors[0] > errors[1] > 0.0

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(
            "integrate", "--m", "1", "--n", "4", "--function", "cosh", capsys=capsys
        )
        assert code == 2
        assert "unknown integrand" in err

    def test_order_three_defaults_to_solve(self, capsys):
        code, out, _ = run_cli(
            "integrate", "--m", "3", "--n", "4", "--function", "exp-neg", capsys=capsys
        )
        assert code == 0
        assert float(out.splitlines()[2].split()[-1]) <= 1e-11


class TestVerify:
    @pytest.mark.parametrize("m, n", [(1, 8), (2, 16), (3, 4)])
    def test_passes_for_valid_grids(self, m, n, capsys):
        code, out, _ = run_cli("verify", "--m", str(m), "--n", str(n), capsys=capsys)
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "operator_identities" in names
        assert "solve_constraints" in names

    @pytest.mark.parametrize("m, n, names", [
        (1, 4, ["closed_constraints", "solve_constraints", "closed_vs_solve", "closed_vs_extended",
                "operator_identities", "error_norm_nonnegative"]),
        (2, 4, ["closed_constraints", "solve_constraints", "closed_vs_solve", "closed_vs_extended",
                "operator_identities", "error_norm_nonnegative"]),
        (3, 4, ["solve_constraints", "operator_identities", "error_norm_nonnegative"]),
    ])
    def test_check_names(self, m, n, names, capsys):
        code, out, _ = run_cli("verify", "--m", str(m), "--n", str(n), capsys=capsys)
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == names

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_agrees_with_its_extended_run(self, m, capsys):
        code, out, _ = run_cli("verify", "--m", str(m), "--n", "32", capsys=capsys)
        assert code == 0
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "closed_vs_extended")
        assert check["tolerance"] == 1e-12
        assert check["value"] <= 1e-15

    def test_reports_closed_vs_solve_deviation(self, capsys):
        code, out, _ = run_cli("verify", "--m", "2", "--n", "16", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        check = next(c for c in report["checks"] if c["name"] == "closed_vs_solve")
        assert check["value"] <= 1e-9
        assert check["tolerance"] == 1e-9

    def test_usage_error_for_bad_grid(self, capsys):
        code, _, err = run_cli("verify", "--m", "2", "--n", "0", capsys=capsys)
        assert code == 2

    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            "verify", "--m", "1", "--n", "4", "--out", str(target), capsys=capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["passed"] is True

    def test_failure_exit_code_when_a_check_fails(self, capsys, monkeypatch):
        import optquad.cli as cli_mod

        def broken(m, n):
            return [{"name": "forced", "value": 1.0, "tolerance": 1e-12, "passed": False}]

        monkeypatch.setattr(cli_mod, "_verify_checks", broken)
        code, out, _ = run_cli("verify", "--m", "1", "--n", "2", capsys=capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestConvergence:
    def test_norm_mode_csv(self, capsys):
        code, out, _ = run_cli(
            "convergence", "--m", "1", "--n-list", "2,4,8,16", "--norm-mode", capsys=capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,ratio,order"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exactness_column_for_exp_neg(self, capsys):
        code, out, _ = run_cli(
            "convergence", "--m", "1", "--n-list", "2,4,8",
            "--function", "exp-neg", capsys=capsys,
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(v <= 1e-12 for v in values)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            "convergence", "--m", "2", "--n-list", "2,4", "--function", "exp",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["quantity"] == "exp"
        assert len(doc["rows"]) == 2
        assert doc["rows"][1]["order"] is not None

    def test_unsorted_list_rejected(self, capsys):
        code, _, err = run_cli(
            "convergence", "--m", "1", "--n-list", "8,4", "--norm-mode", capsys=capsys
        )
        assert code == 2
        assert "ascending" in err

    def test_function_or_norm_mode_required(self, capsys):
        code, _, err = run_cli(
            "convergence", "--m", "1", "--n-list", "2,4", capsys=capsys
        )
        assert code == 2

    def test_function_and_norm_mode_conflict(self, capsys):
        code, _, err = run_cli(
            "convergence", "--m", "1", "--n-list", "2,4",
            "--function", "sin", "--norm-mode", capsys=capsys,
        )
        assert code == 2
        assert "mutually exclusive" in err


class TestCompare:
    def test_exponential_favours_optimal(self, capsys):
        code, out, _ = run_cli(
            "compare", "--m", "1", "--n", "10", "--function", "exp-neg", capsys=capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        table = {line.split()[0]: float(line.split()[2]) for line in lines[1:]}
        assert table["optimal"] <= 1e-12
        assert table["trapezoid"] > 1e-6

    def test_constants_favour_trapezoid_at_order_one(self, capsys):
        code, out, _ = run_cli(
            "compare", "--m", "1", "--n", "10", "--function", "one", capsys=capsys
        )
        lines = out.strip().splitlines()
        table = {line.split()[0]: float(line.split()[2]) for line in lines[1:]}
        assert table["optimal"] > 1e-6
        assert table["trapezoid"] <= 1e-15

    def test_odd_n_omits_simpson(self, capsys):
        code, out, _ = run_cli(
            "compare", "--m", "1", "--n", "5", "--function", "sin", capsys=capsys
        )
        assert code == 0
        assert "simpson omitted" in out
        assert "simpson " not in out.splitlines()[1]

    def test_even_n_includes_simpson(self, capsys):
        code, out, _ = run_cli(
            "compare", "--m", "1", "--n", "6", "--function", "sin", capsys=capsys
        )
        names = [line.split()[0] for line in out.strip().splitlines()[1:]]
        assert names == ["optimal", "trapezoid", "simpson"]


class TestExitCodes:
    def test_numeric_failure_maps_to_three(self, capsys, monkeypatch):
        import optquad.cli as cli_mod
        from optquad import SolveError

        def explode(m, n, method):
            raise SolveError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "build_rule", explode)
        code, _, err = run_cli("coeffs", "--m", "1", "--n", "2", capsys=capsys)
        assert code == 3
        assert "numeric failure" in err

    def test_ill_conditioned_solve_exits_three(self, capsys):
        code, out, err = run_cli("coeffs", "--m", "3", "--n", "128", capsys=capsys)
        assert (code, out) == (3, "")
        assert "too ill-conditioned: cond ~ 2.4" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys=capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "optquad", "verify", "--m", "1", "--n", "2"],
            capture_output=True,
        )
        assert proc.returncode == 0
