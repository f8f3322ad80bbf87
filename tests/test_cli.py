import hashlib
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optquad import GridSpec, QuadratureRule, RuleMethod, build_rule, closed_form_m1, closed_form_m2
from optquad.cli import _json17, document_csv, document_json, main, rule_document

import oracles


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

    # SHA-256 of `coeffs` (JSON) stdout.  m = 3 is left out: its weights come
    # from a LAPACK solve and the document prints its condition number.
    GOLDEN_JSON_SHA256 = {
        (1, 1): "2c49a008a96b825b31b7fa724e0f955d13ea0df1936698783e8cfc813a292991",
        (1, 8): "73ee3b0a1753f51951281a2ea0ae28d15c8d7980de9a1d4daabcba1d21dabe59",
        (1, 28): "17d9cbcce74de8c3114070b039052396d179830ca07e812f08bbc8963ea940ab",
        (1, 1024): "201d0ae8f46b0fcc648492e2311e1c4f661c663f828c63fc9111e7283c3b2347",
        (1, 65536): "f81db5c7d44e47d4fef1d097d5db9c1945faf9a9c00a9c1c93de086ad8f3412f",
        (2, 1): "60794fae3248a5bf9c786c095e942963360bf2f7097680a0051e6345c76fd257",
        (2, 8): "998168e1e82a05d3489a1bedeade275905c2239fbc4026d42e638d7a05aa4d9e",
        (2, 28): "62ad70a657a0514d0dfb81af0892f1593b9dcafd2595a4c7627fdd5250579dc7",
        (2, 1024): "547144ae640d01a0ef32e37321617e0822d7fd247f0cefdbd1a5596aaf918b47",
        (2, 65536): "b9444fcf9bc0a6a06096515e28aab590588eba78e86a39cb99b4c2e5a772aba3",
    }

    @pytest.mark.parametrize("m, n", sorted(GOLDEN_JSON_SHA256))
    def test_json_bytes_are_pinned(self, m, n, capsys):
        code, out, _ = run_cli("coeffs", "--m", str(m), "--n", str(n), capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_JSON_SHA256[(m, n)]

    # SHA-256 of `convergence --norm-mode --format json --n-list 4,8,16,32` stdout.
    # Each value is the float nearest the exact-node norm
    GOLDEN_NORM_JSON_SHA256 = {
        1: "951b9694e7e67458a9a930ea92a00bdfe92f18e6ac2eb66862f1b80e80939619",
        2: "00ee300030c08ada6aa7b6791daf3e0f1627706a92d0180dd6dc081c2aeb0101",
    }

    @pytest.mark.parametrize("m", sorted(GOLDEN_NORM_JSON_SHA256))
    def test_norm_table_json_bytes_are_pinned(self, m, capsys):
        code, out, _ = run_cli(
            "convergence", "--m", str(m), "--n-list", "4,8,16,32", "--norm-mode",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_NORM_JSON_SHA256[m]


# doubles at the edges of the format: signed zeros, the smallest subnormal
# and normal, the largest double, the infinities and nan
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
float_arrays = st.lists(floats, max_size=40)
leaves = (
    floats
    | floats.map(np.float64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
    | float_arrays
    | float_arrays.map(tuple)
)
# arrays of runs, drawn from a few values so that runs of 0.0 and -0.0, of
# nans with different bits and of a double and its np.float64 meet
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
FINITE_RUN_VALUES = [0.0, -0.0, 1.5, 1.0 / 3.0, 5e-324, -1.7976931348623157e308]
run_values = st.sampled_from(FINITE_RUN_VALUES + [math.nan, -math.nan, NAN_PAYLOAD, math.inf]) | floats


def _runs_of(values):
    return st.lists(st.tuples(values, st.integers(min_value=1, max_value=12)), min_size=1, max_size=10).map(
        lambda runs: [value for value, count in runs for _ in range(count)]
    )


run_arrays = _runs_of(run_values | run_values.map(np.float64))
finite_run_arrays = _runs_of(st.sampled_from(FINITE_RUN_VALUES)).filter(lambda values: len(values) > 1)

documents = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=6)
    ),
    max_leaves=40,
)


class TestBulkWriters:
    """The bulk writers emit the bytes of the per-element writers they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(documents)
    def test_json17_matches_per_element_writer(self, doc):
        assert _json17(doc) == oracles.per_element_json17(doc)

    @given(float_arrays, st.integers(min_value=0, max_value=4))
    def test_float_array_at_any_depth(self, values, indent):
        # nested `indent` lists deep, the array is written at that depth's pad
        doc = values
        for _ in range(indent):
            doc = [doc]
        assert _json17(doc) == oracles.per_element_json17(doc)

    def test_edge_floats_and_float_subclasses(self):
        doc = {
            "edges": EDGE_FLOATS,
            "edges_tuple": tuple(EDGE_FLOATS),
            "mixed": [1.5, 2, True, None, -0.0, "x"],
            "numpy": [np.float64(x) for x in EDGE_FLOATS],
            "empty": [],
            "nested": [[0.1, 0.2], (), {}],
        }
        assert _json17(doc) == oracles.per_element_json17(doc)

    @given(run_arrays)
    def test_runs_of_equal_doubles(self, values):
        # each run is formatted once; 0.0 beside -0.0 and nans must stay apart
        for doc in (values, tuple(values), {"runs": [values, 1.5]}, [float(v) for v in values]):
            assert _json17(doc) == oracles.per_element_json17(doc)

    @given(finite_run_arrays)
    def test_csv_runs_of_equal_doubles(self, values):
        rule = QuadratureRule(GridSpec(1, len(values) - 1), values, RuleMethod.TRAPEZOID)
        assert document_csv(rule) == oracles.per_element_document_csv(rule)

    @pytest.mark.parametrize(
        "m, n",
        [(m, n) for m in (1, 2) for n in (1, 7, 64, 4096, 65536)] + [(3, 2), (3, 7), (3, 64)],
    )
    def test_documents_match_per_element_writers(self, m, n):
        rule = build_rule(m, n)
        assert document_csv(rule) == oracles.per_element_document_csv(rule)
        assert document_json(rule) == oracles.per_element_json17(rule_document(rule)) + "\n"

    @pytest.mark.parametrize("m, n", [(1, 5), (1, 64), (2, 5), (2, 64), (3, 8)])
    def test_numpy_integer_arguments(self, m, n):
        rule, expected = build_rule(np.int64(m), np.int32(n)), build_rule(m, n)
        assert document_json(rule) == document_json(expected)
        assert document_csv(rule) == document_csv(expected)

    @staticmethod
    def _whole_grids(monkeypatch):
        # the grids of the node_array calls that return all n + 1 nodes;
        # constraint_residuals takes its blocks of 2^13 nodes apart
        calls = []
        node_array = GridSpec.node_array

        def counted(grid, *args):
            nodes = node_array(grid, *args)
            if nodes.size == grid.n + 1:
                calls.append(grid)
            return nodes

        monkeypatch.setattr(GridSpec, "node_array", counted)
        return calls

    def test_json_document_takes_the_nodes_once(self, monkeypatch):
        rule = build_rule(2, 65536)
        calls = self._whole_grids(monkeypatch)
        document_json(rule)
        assert calls == [rule.grid]

    def test_csv_document_takes_the_nodes_once(self, monkeypatch):
        rule = build_rule(2, 65536)
        calls = self._whole_grids(monkeypatch)
        document_csv(rule)
        assert calls == [rule.grid]


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, capsys, monkeypatch):
        # the parser is built once per process: a run, a usage error and a
        # different subcommand in one process print what three fresh ones do
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage at this width
        argvs = [
            ["coeffs", "--m", "2", "--n", "8"],
            ["coeffs", "--m", "2", "--n", "8", "--format", "xml"],
            ["integrate", "--m", "1", "--n", "64", "--function", "exp-neg"],
        ]
        in_process = []
        for argv in argvs:
            code = main(argv)
            in_process.append((code, *capsys.readouterr()))
        fresh = [
            subprocess.run([sys.executable, "-m", "optquad", *argv], capture_output=True, text=True,
                           env={**os.environ, "COLUMNS": "80"})
            for argv in argvs
        ]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert [code for code, _, _ in in_process] == [0, 2, 0]
        import optquad.cli as cli_mod

        assert cli_mod._parser.cache_info().misses == 1


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

    @pytest.mark.parametrize("n", [192, 256, 512])
    def test_order_two_solve_within_tolerance_of_closed_form(self, n, capsys):
        # with the float-gap kernel block closed_vs_solve read 1.6e-9, 2.05e-9
        # and 1.89e-8 here, above its unchanged 1e-9 tolerance
        code, out, _ = run_cli("verify", "--m", "2", "--n", str(n), capsys=capsys)
        report = json.loads(out)
        assert (code, report["passed"]) == (0, True)
        check = next(c for c in report["checks"] if c["name"] == "closed_vs_solve")
        assert check["tolerance"] == 1e-9
        assert check["value"] <= 1e-10

    def test_order_three_loads_no_mpmath(self):
        # the identities run on the integer operator, and m = 3 has no
        # 50-digit closed form: a fresh interpreter's verify never imports mpmath
        code = ("import contextlib, io, sys, optquad.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = optquad.cli.main(['verify', '--m', '3', '--n', '16'])\n"
                "print(status, 'mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "False"]

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

    def test_checks_every_registered_construction(self, capsys, monkeypatch):
        import optquad.coefficients as coefficients_mod

        # a construction registered in the method table alone is checked
        monkeypatch.setitem(coefficients_mod._METHODS, "copy", ((2,), lambda m, n: closed_form_m2(n)))
        for m, first in [(1, ["closed_constraints", "solve_constraints", "closed_vs_solve"]),
                         (2, ["closed_constraints", "solve_constraints", "copy_constraints"])]:
            code, out, _ = run_cli("verify", "--m", str(m), "--n", "4", capsys=capsys)
            assert code == 0
            assert [c["name"] for c in json.loads(out)["checks"]][:3] == first

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

    # the exact norm at every n, up to n = 65536: the observed order of the
    # optimal rule's norm is m, within 0.01 from n = 256 on (2.008 there at
    # m = 2)
    @pytest.mark.parametrize("m", [1, 2])
    def test_norm_order_within_a_hundredth_of_m(self, m, capsys):
        ns = [64 << k for k in range(11)]
        code, out, _ = run_cli(
            "convergence", "--m", str(m), "--norm-mode", "--n-list", ",".join(map(str, ns)),
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == ns
        orders = {row["n"]: row["order"] for row in rows if row["n"] >= 256}
        assert all(abs(order - m) <= 0.01 for order in orders.values()), orders

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

    @pytest.mark.parametrize("command, m", [("coeffs", 3), ("verify", 1), ("integrate", 3)])
    def test_unallocatable_system_exits_three(self, command, m, capsys, monkeypatch):
        zeros = np.zeros

        def refuse_matrices(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2:
                raise MemoryError("synthetic allocation failure")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse_matrices)
        extra = ("--function", "sin") if command == "integrate" else ()
        code, out, err = run_cli(command, "--m", str(m), "--n", "8", *extra, capsys=capsys)
        assert (code, out) == (3, "")
        assert err == f"numeric failure: cannot allocate the order-{m} system for n = 8: " \
                      f"{m + 9} x {m + 9} doubles, {8 * (m + 9) ** 2 / 2**30:.3g} GiB\n"

    def test_out_of_memory_after_allocation_exits_three(self, capsys, monkeypatch):
        # the system fits, and eigvalsh then runs out of memory
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, out, err = run_cli("coeffs", "--m", "3", "--n", "8", capsys=capsys)
        assert (code, out) == (3, "")
        assert err == f"numeric failure: out of memory solving the order-3 system for n = 8: " \
                      f"12 x 12 doubles, {8 * 12 ** 2 / 2**30:.3g} GiB\n"

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_weight_list_past_memory_exits_three(self, m, fmt, capsys):
        # 2^60 weights are past the address space: the list is refused
        # before anything is allocated
        code, out, err = run_cli("coeffs", "--m", str(m), "--n", str(2**60), "--format", fmt, capsys=capsys)
        assert (code, out, err) == (3, "", "numeric failure: out of memory\n")

    @pytest.mark.parametrize("command, m", [("coeffs", 3), ("verify", 2)])
    def test_system_past_numpy_sizes_exits_three(self, command, m, capsys):
        # numpy refuses a (2^60 + m + 1)^2 matrix before allocating it
        n = 2**60
        code, out, err = run_cli(command, "--m", str(m), "--n", str(n), capsys=capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"numeric failure: cannot allocate the order-{m} system for n = {n}: ")

    @pytest.mark.parametrize("m", [1, 2])
    def test_verify_builds_the_solve_before_the_closed_form(self, m, capsys, monkeypatch):
        import optquad.coefficients as coefficients_mod

        calls = []
        for name in ("closed_form_m1", "closed_form_m2"):
            original = getattr(coefficients_mod, name)
            monkeypatch.setattr(coefficients_mod, name, lambda n, f=original: calls.append(n) or f(n))
        zeros = np.zeros

        def refuse_matrices(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2:
                raise MemoryError("synthetic allocation failure")
            return zeros(shape, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", refuse_matrices)
            code, out, _ = run_cli("verify", "--m", str(m), "--n", "8", capsys=capsys)
        assert (code, out, calls) == (3, "", [])
        # with the system allocated, both constructions run and the checks keep their order
        code, out, _ = run_cli("verify", "--m", str(m), "--n", "8", capsys=capsys)
        assert (code, calls) == (0, [8])
        assert [check["name"] for check in json.loads(out)["checks"]][:3] == \
            ["closed_constraints", "solve_constraints", "closed_vs_solve"]

    def test_ill_conditioned_solve_exits_three(self, capsys):
        code, out, err = run_cli("coeffs", "--m", "3", "--n", "128", capsys=capsys)
        assert (code, out) == (3, "")
        assert "too ill-conditioned: cond ~ 2.4" in err

    @pytest.mark.parametrize("command", ["coeffs", "verify"])
    def test_unwritable_out_is_usage_error(self, command, tmp_path, capsys):
        # exit 1 would read as a failed verify check
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(command, "--m", "1", "--n", "4", "--out", str(target), capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")

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
