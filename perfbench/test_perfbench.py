"""Tests of the benchmark itself: its mpmath references and its command.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", [2, 5, 16])
def test_kkt_solve_reproduces_order_one_closed_weights(n):
    solved = ref.kkt_weights(1, n)
    closed = ref.closed_weights_m1(n)
    with mp.workdps(ref.DPS):
        assert max(abs(a - b) for a, b in zip(solved, closed)) <= mp.mpf(10) ** -30 * closed[0]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_double_integral_is_the_factorial_tail(m):
    with mp.workdps(30):
        # the kernel is even with a kink on the diagonal: twice the lower triangle
        inner = lambda x: mp.quad(lambda y: ref.psi(m, x - y), [0, x])  # noqa: E731
        value = 2 * mp.quad(inner, [0, 1])
        tail = mp.nsum(lambda k: 1 / mp.factorial(2 * k + 1), [m, mp.inf])
        assert abs(value - tail) <= mp.mpf(10) ** -25 * tail
        assert abs(ref.double_integral(m) - tail) <= mp.mpf(10) ** -28 * tail


@pytest.mark.parametrize("m,t", [(1, 0.25), (2, 0.5), (3, 0.875), (3, 0.0)])
def test_moment_is_the_kernel_integral(m, t):
    with mp.workdps(30):
        direct = mp.quad(lambda x: ref.psi(m, x - t), [0, t, 1] if 0 < t < 1 else [0, 1])
        assert abs(ref.moment(m, t) - direct) <= mp.mpf(10) ** -25 * abs(direct)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quadratic_form_matches_the_direct_double_sum(m):
    n = 6
    weights = [0.1 + 0.01 * b * (n - b) for b in range(n + 1)]
    with mp.workdps(ref.DPS):
        x = [mp.mpf(b) / n for b in range(n + 1)]
        direct = mp.fsum(
            mp.mpf(weights[i]) * weights[j] * ref.psi(m, x[i] - x[j])
            for i in range(n + 1) for j in range(n + 1)
        )
        direct -= 2 * mp.fsum(mp.mpf(c) * ref.moment(m, t) for c, t in zip(weights, x))
        direct = (-1) ** m * (direct + ref.double_integral(m))
        assert abs(ref.quadratic_form(m, weights) - direct) <= mp.mpf(10) ** -40


def test_admissible_weights_meet_the_constraints():
    n = 8
    weights = ref.admissible(3, [1.0 / n] * (n + 1))
    assert all(r <= 1e-15 for r in ref.exactness_residuals(3, weights).values())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_runs_every_workload(workload, trace):
    done = _run(["--workload", workload, "--seed", "7", "--trace", str(trace), "--quick"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(["--workload", "rules", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
