"""The tabulated kernel and operator evaluations against the naive loops.

error_norm_squared, assemble_system and identity_residuals evaluate each
distinct kernel or operator value once.  Their outputs must equal, bit for
bit, those of the loops that make one scalar call per matrix entry or per
(beta, gamma) pair, and their call counts must stay linear.
"""

import numpy as np
import pytest

import optquad.analysis
import optquad.operator
import optquad.solver
from optquad import (
    GridSpec,
    QuadratureRule,
    RuleMethod,
    assemble_system,
    build_rule,
    classical_rule,
    error_norm_squared,
    identity_residuals,
)
from optquad.analysis import admissible_perturbations

import oracles

# at n = 160, i/n - j/n != (i-j)/n for 6,465 pairs i > j, so assembly must
# key its kernel calls on the float gap; powers of two have no such pairs
SIZES = (7, 63, 100, 160, 256)


def _optimal(m, n):
    # solve refuses m = 3 from n = 128 on (cond > 1e14); bit identity needs
    # some fixed weights, not accurate ones, so take the plain LU solution
    if m < 3:
        return build_rule(m, n)
    system = assemble_system(m, n)
    weights = np.linalg.solve(system.matrix, system.rhs)[: n + 1]
    return QuadratureRule(system.grid, weights, RuleMethod.DIRECT_SOLVE)


def _rules(m, n):
    optimal = _optimal(m, n)
    step = admissible_perturbations(optimal, count=1)[0]
    rules = {
        "optimal": optimal,
        "perturbed": QuadratureRule(
            optimal.grid, tuple(c + d for c, d in zip(optimal.coefficients, step)), optimal.method
        ),
    }
    for kind in ("trapezoid", "simpson") if n % 2 == 0 else ("trapezoid",):
        classical = classical_rule(kind, n)
        rules[kind] = QuadratureRule(GridSpec(m, n), classical.coefficients, classical.method)
    return rules


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _distinct_gaps(n):
    x = np.array([beta / n for beta in range(n + 1)])
    return len(np.unique(np.abs(x[:, None] - x[None, :])))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_error_norm_equals_double_loop(m, n):
    for name, rule in _rules(m, n).items():
        assert error_norm_squared(rule) == oracles.naive_error_norm_squared(rule), name


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_assembly_equals_entrywise_loop(m, n):
    system = assemble_system(m, n)
    matrix, rhs = oracles.naive_assemble_system(m, n)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.rhs, rhs)


# (m, h, betas): summable cells at several spacings, a wide offset range,
# and m = 3 at h = 1, where the exponential and kernel sums diverge
IDENTITY_CELLS = [
    (1, 0.5, range(-5, 6)),
    (2, 0.125, range(-5, 6)),
    (2, 1.0 / 64.0, range(-3, 4)),
    (3, 0.1, range(-3, 4)),
    (3, 0.125, range(-5, 14)),
    (3, 1.0, range(-2, 3)),
]


@pytest.mark.parametrize("m, h, betas", IDENTITY_CELLS)
def test_identity_report_equals_per_beta_loop(m, h, betas):
    report = identity_residuals(m, h, betas=betas)
    window, residuals, divergent = oracles.naive_identity_residuals(m, h, betas)
    assert (report.m, report.h) == (m, h)
    assert report.window == window
    assert report.residuals == residuals
    assert report.divergent == divergent


@pytest.mark.parametrize("m, n", [(1, 64), (2, 256), (3, 100)])
def test_error_norm_kernel_calls_linear(monkeypatch, m, n):
    calls = _counting(monkeypatch, optquad.analysis, "psi")
    error_norm_squared(_rules(m, n)["trapezoid"])
    assert len(calls) <= n + 1


@pytest.mark.parametrize("m, n", [(1, 64), (2, 256), (3, 160)])
def test_assembly_kernel_calls_bounded_by_distinct_gaps(monkeypatch, m, n):
    calls = _counting(monkeypatch, optquad.solver, "psi")
    assemble_system(m, n)
    assert len(calls) <= _distinct_gaps(n)


@pytest.mark.parametrize("m, h", [(1, 0.5), (2, 0.125), (3, 0.1), (3, 1.0)])
def test_identity_operator_calls_linear_in_window(monkeypatch, m, h):
    calls = _counting(monkeypatch, optquad.operator, "operator_value")
    report = identity_residuals(m, h)
    assert len(calls) <= 2 * report.window + 1
