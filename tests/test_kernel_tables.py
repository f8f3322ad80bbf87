"""The tabulated kernel and operator evaluations against the naive loops.

error_norm_squared and assemble_system evaluate each distinct kernel value
once.  Their outputs must equal, bit for bit, those of the loops that make
one scalar call per matrix entry, and their call counts must stay linear.
identity_residuals evaluates each central operator value once and sums the
geometric tails in closed form; it must agree with the windowed sums of one
term per (beta, gamma) pair within their truncation bound.  apply_rule
streams its products into one correctly rounded sum, which must equal the
per-node generator loop.
"""

import functools
import math

import numpy as np
import pytest

import optquad.analysis
import optquad.core
import optquad.operator
import optquad.solver
from optquad import (
    BUILTIN_INTEGRANDS,
    GridSpec,
    QuadratureRule,
    RuleMethod,
    apply_rule,
    assemble_system,
    build_operator,
    build_rule,
    classical_rule,
    error_norm_squared,
    identity_residuals,
    solve,
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


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("m", [1, 2])
def test_error_norm_equals_streamed_fsum_at_large_n(m, n):
    # 525,825 and 2,100,225 products: many extraction chunks, and diagonals
    # that straddle chunk boundaries
    for name, rule in _rules(m, n).items():
        assert error_norm_squared(rule) == oracles.streamed_error_norm_squared(rule), name


@pytest.mark.parametrize(
    "weights", [(1e155, 1.0, -1e155), (1e155, -1e155, 1e155)], ids=["nan", "inf-inf"]
)
def test_error_norm_overflowing_products_as_streamed_fsum(weights):
    # C_0^2 overflows, and times psi(0) = 0 is nan; where C_0 C_1 = -inf
    # meets C_0 C_2 = +inf the sums raise ValueError: alike, with no warning
    rule = QuadratureRule(GridSpec(1, 2), weights, RuleMethod.TRAPEZOID)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expect = repr(oracles.streamed_error_norm_squared(rule))
        except ValueError as exc:
            expect = type(exc)
    try:
        got = repr(error_norm_squared(rule))
    except ValueError as exc:
        got = type(exc)
    assert got == expect


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_assembly_equals_entrywise_loop(m, n):
    system = assemble_system(m, n)
    matrix, rhs = oracles.naive_assemble_system(m, n)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.rhs, rhs)


# (m, h, betas): summable cells at several spacings, m = 3 at h = 1, where
# the exponential and kernel tails diverge, and the cells optquad verify runs
# (h = 1/n).  betas is an offset set for the mirror check of the windowed
# reference: a wide one, ones without 0, ones of only negative offsets
IDENTITY_CELLS = [
    (1, 0.5, (0, 1, 4)),
    (2, 0.125, (-2, 5)),
    (2, 1.0 / 64.0, (1, 3)),
    (3, 0.1, (-4, 0)),
    (3, 0.125, range(7, 14)),
    (3, 1.0, (-1, 2)),
    # cells optquad verify runs
    (2, 1.0 / 16.0, (0, 1)),
    (3, 0.25, (2, 5)),
    (3, 1.0 / 64.0, (-3, 0)),
    (2, 1.0 / 160.0, (4,)),
    (3, 0.125, range(3, 9)),
    (2, 0.125, range(-7, -1)),
]


def _exp_swapped(residuals):
    return {**residuals, "exp_growing": residuals["exp_decaying"], "exp_decaying": residuals["exp_growing"]}


@pytest.mark.parametrize("m, h, betas", IDENTITY_CELLS)
def test_identity_report_equals_per_beta_loop(m, h, betas):
    report = identity_residuals(m, h)
    window, residuals, bounds = oracles.naive_identity_residuals(m, h, range(6))
    assert (report.m, report.h, report.window) == (m, h, 5)
    assert report.residuals.keys() == residuals.keys()
    # the windowed sums are the closed ones up to their truncation, which
    # has no bound (inf) where the tails do not converge: m = 3, h = 1
    for name, bound in bounds.items():
        assert abs(report.residuals[name] - residuals[name]) <= bound, name
    divergent = [name for name, bound in bounds.items() if math.isinf(bound)]
    assert divergent == (["exp_growing", "exp_decaying", "delta"] if (m, h) == (3, 1.0) else [])
    # the offsets -5..-1 add no sum to the windowed reference: the same
    # window and values, except that the exp families at -beta are each
    # other's at beta
    full_window, full, full_bounds = oracles.naive_identity_residuals(m, h, range(-5, 6))
    assert (full_window, full_bounds) == (window, bounds)
    exp = max(residuals["exp_growing"], residuals["exp_decaying"])
    assert full == {**residuals, "exp_growing": exp, "exp_decaying": exp}
    # and the mirror holds at any offset set
    direct = oracles.naive_identity_residuals(m, h, betas)[1]
    assert oracles.naive_identity_residuals(m, h, [-b for b in betas])[1] == _exp_swapped(direct)


@pytest.mark.parametrize("m, n", [(1, 64), (2, 256), (3, 100)])
def test_error_norm_kernel_calls_linear(monkeypatch, m, n):
    calls = _counting(monkeypatch, optquad.analysis, "psi")
    error_norm_squared(_rules(m, n)["trapezoid"])
    assert 0 < len(calls) <= n + 1


@pytest.mark.parametrize("m, n", [(1, 63), (2, 64), (3, 7), (3, 100)])
def test_error_norm_moment_calls_half(monkeypatch, m, n):
    # at m = 3 the rules are built through assemble_system: build them uncounted
    rule = _rules(m, n)["trapezoid"]
    calls = _counting(monkeypatch, optquad.core, "moment_f")
    error_norm_squared(rule)
    assert 0 < len(calls) <= n // 2 + 1


@pytest.mark.parametrize("m, n", [(1, 63), (2, 64), (3, 7), (3, 100)])
def test_assembly_moment_calls_half(monkeypatch, m, n):
    calls = _counting(monkeypatch, optquad.core, "moment_f")
    assemble_system(m, n)
    assert 0 < len(calls) <= n // 2 + 1


@pytest.mark.parametrize("m, n", [(1, 64), (2, 256), (3, 160)])
def test_assembly_kernel_calls_bounded_by_distinct_gaps(monkeypatch, m, n):
    calls = _counting(monkeypatch, optquad.solver, "psi")
    assemble_system(m, n)
    assert 0 < len(calls) <= _distinct_gaps(n)


@pytest.mark.parametrize("m, h", [(1, 0.5), (2, 0.125), (3, 0.1), (3, 1.0)])
def test_identity_operator_calls_linear_in_window(monkeypatch, m, h):
    # the D_m table is filled once, one value per offset 0..window
    calls = _counting(monkeypatch, optquad.operator, "_value")
    report = identity_residuals(m, h)
    assert len(calls) == report.window + 1


def _large_rules(m, n):
    # apply_rule sums any weights, so the perturbed rule needs no admissible
    # direction: it moves along a seeded random one
    closed = build_rule(m, n, "closed")
    step = np.random.default_rng(n).standard_normal(n + 1) * 1e-3
    return {
        "closed": closed,
        "perturbed": QuadratureRule(closed.grid, np.add(closed.coefficients, step), closed.method),
        "trapezoid": classical_rule("trapezoid", n),
        "simpson": classical_rule("simpson", n),
    }


@functools.cache
def _sum_rules():
    rules = {}
    for m in (1, 2, 3):
        for n in (7, 64):
            rules[f"solve-m{m}-n{n}"] = solve(assemble_system(m, n))
        for n in SIZES:
            rules.update({f"{name}-m{m}-n{n}": rule for name, rule in _rules(m, n).items()})
    for m in (1, 2):
        for n in (1024, 65536):
            rules.update({f"{name}-m{m}-n{n}": rule for name, rule in _large_rules(m, n).items()})
    return rules


@pytest.mark.parametrize("integrand", sorted(BUILTIN_INTEGRANDS))
def test_apply_rule_equals_generator_loop(integrand):
    f = BUILTIN_INTEGRANDS[integrand].fn
    for name, rule in _sum_rules().items():
        assert apply_rule(rule, f) == oracles.naive_apply_rule(rule, f), name


@pytest.mark.parametrize("kind", ["array", "generator"])
def test_rule_converts_and_validates_any_iterable(kind):
    def weights(values):
        return np.array(values) if kind == "array" else (v for v in values)

    rule = QuadratureRule(GridSpec(2, 2), weights([0.25, 0.5, 0.25]), RuleMethod.TRAPEZOID)
    assert rule.coefficients == (0.25, 0.5, 0.25)
    assert all(type(c) is float for c in rule.coefficients)
    assert apply_rule(rule, lambda x: x) == 0.5
    with pytest.raises(ValueError, match="expected 3 coefficients, got 2"):
        QuadratureRule(GridSpec(2, 2), weights([0.5, 0.5]), RuleMethod.TRAPEZOID)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            QuadratureRule(GridSpec(2, 2), weights([0.25, bad, 0.25]), RuleMethod.TRAPEZOID)
