"""Worst-case error norms, Cauchy-Schwarz certificates, convergence tables,
and classical comparison rules.

The squared worst-case error of a rule over the unit ball of the space normed
by ||f^(m) + f^(m-1)||_L2 is a quadratic form in the weights built from the
sinh-type kernel, its moments, and the kernel's double integral over the unit
square (which reduces to the factorial tail sum_{k>=m} 1/(2k+1)!).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import build_rule
from .core import (
    GridSpec,
    Integrand,
    QuadratureRule,
    RuleMethod,
    _tail,
    apply_rule,
    constraint_rows,
    moment_f,
    psi,
)


def kernel_double_integral(m: int) -> float:
    """Double integral of psi(m, x - y) over the unit square.

    Integrating the moment function once more turns both integrals into
    factorial tails: the value is sum_{k>=m} 1/(2k+1)!.
    """
    return _tail(1.0, 2 * m + 1)


def error_norm_squared(rule: QuadratureRule) -> float:
    """Squared norm of the rule's error functional (>= 0 up to roundoff).

    (-1)^m [ sum_bb' C_b C_b' psi(x_b - x_b') - 2 sum_b C_b f_m(x_b) + I_m ]
    with f_m the kernel moment and I_m the kernel's double integral; summed
    exactly so the cancellation down to the small optimal value is clean.

    The kernel block is symmetric Toeplitz: psi((i-j)/n) depends only on
    k = |i-j|.  So the cost is n+1 kernel and n+1 moment evaluations, O(n^2)
    float products streamed one diagonal at a time into the exact sum, and
    O(n) extra memory.
    """
    grid = rule.grid
    m, n = grid.m, grid.n
    coeffs = rule.coefficients
    C = np.asarray(coeffs)
    kernel = [psi(m, k / n) for k in range(n + 1)]
    # diagonal k holds C_i C_(i+k) psi_k and so does its mirror -k: each
    # product is sent once, doubled (exact)
    block = itertools.chain.from_iterable(
        (C[: n + 1 - k] * C[k:] * kernel[k] * (2.0 if k else 1.0)).tolist()
        for k in range(n + 1)
    )
    moments = (-2.0 * coeffs[i] * moment_f(m, i, grid) for i in range(n + 1))
    return (-1) ** m * math.fsum(itertools.chain(block, moments, (kernel_double_integral(m),)))


@dataclass(frozen=True)
class SobolevNormEstimate:
    value: float
    error_estimate: float


_PANELS = 256  # Gauss-Legendre panels of sobolev_norm


def sobolev_norm(f: Integrand, m: int) -> SobolevNormEstimate:
    """L2 norm of f^(m) + f^(m-1) over [0, 1] by composite Gauss panels.

    256 panels of 10-point Gauss-Legendre, a fixed resolution; the
    discretisation error is estimated by comparison with 128 panels.
    """
    fm = f.derivative(m)
    fm1 = f.derivative(m - 1)
    x, w = np.polynomial.legendre.leggauss(10)

    def integral(panels: int) -> float:
        vals = []
        for i in range(panels):
            a = i / panels
            half = 0.5 / panels
            mid = a + half
            for xg, wg in zip(x, w):
                t = mid + half * xg
                g = fm(t) + fm1(t)
                vals.append(half * wg * g * g)
        return math.fsum(vals)

    coarse = integral(_PANELS // 2)
    fine = integral(_PANELS)
    norm_sq = max(fine, 0.0)
    value = math.sqrt(norm_sq)
    diff = abs(fine - coarse) + 4.0 * np.finfo(float).eps * (1.0 + norm_sq)
    err = diff / (2.0 * value) if value > 0.0 else math.sqrt(diff)
    return SobolevNormEstimate(value, err)


@dataclass(frozen=True)
class ReportEntry:
    """One Cauchy-Schwarz certificate line for an integrand."""

    name: str
    quadrature: float
    reference: float
    abs_error: float
    bound: float
    slack: float

    @property
    def within_bound(self) -> bool:
        return self.abs_error <= self.bound + self.slack


@dataclass(frozen=True)
class ErrorReport:
    grid: GridSpec
    norm_sq: float
    entries: tuple[ReportEntry, ...]


def cauchy_schwarz_check(rule: QuadratureRule, f: Integrand) -> ReportEntry:
    """Check |f.exact_integral - rule(f)| <= ||error functional|| * ||f|| + slack.

    The slack combines the Sobolev-norm discretisation estimate with the
    roundoff floor of the squared-norm evaluation.
    """
    return _certificate(rule, f, error_norm_squared(rule))


def _certificate(rule: QuadratureRule, f: Integrand, norm_sq: float) -> ReportEntry:
    # the Cauchy-Schwarz line for f, given the rule's squared error norm
    reference = f.exact_integral
    value = apply_rule(rule, f.fn)
    rule_norm = math.sqrt(max(norm_sq, 0.0))
    sob = sobolev_norm(f, rule.grid.m)
    bound = rule_norm * sob.value
    norm_floor = math.sqrt(max(norm_sq, 0.0) + 1e-14) - rule_norm
    slack = sob.error_estimate * rule_norm + norm_floor * sob.value + 1e-12 * (1.0 + abs(reference))
    return ReportEntry(f.name, value, reference, abs(value - reference), bound, slack)


def error_report(rule: QuadratureRule, integrands: Sequence[Integrand]) -> ErrorReport:
    """Cauchy-Schwarz certificates for each integrand, sharing one norm evaluation."""
    norm_sq = error_norm_squared(rule)
    entries = tuple(_certificate(rule, f, norm_sq) for f in integrands)
    return ErrorReport(rule.grid, norm_sq, entries)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: float
    ratio: float | None
    order: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    m: int
    quantity: str
    rows: tuple[ConvergenceRow, ...]


def convergence_study(
    m: int,
    n_values: Sequence[int],
    f: Integrand | None = None,
    norm_mode: bool = False,
    method: str = "auto",
) -> ConvergenceTable:
    """Tabulate per-n error (or the error-functional norm) with observed orders.

    Ratios and orders are reported only across doubling steps and only while
    both values sit above the roundoff exactness floor; orders are log2 of
    the ratio.  They are diagnostics, not asserted targets.
    """
    ns = list(n_values)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_values must be strictly ascending")
    if not norm_mode and f is None:
        raise ValueError("an integrand is required unless norm_mode is set")
    floor = 1e-14
    rows: list[ConvergenceRow] = []
    prev: tuple[int, float] | None = None
    for n in ns:
        rule = build_rule(m, n, method)
        if norm_mode:
            value = math.sqrt(max(error_norm_squared(rule), 0.0))
        else:
            value = abs(apply_rule(rule, f.fn) - f.exact_integral)
        ratio = order = None
        if prev is not None and n == 2 * prev[0] and value > floor and prev[1] > floor:
            ratio = prev[1] / value
            order = math.log2(ratio)
        rows.append(ConvergenceRow(n, value, ratio, order))
        prev = (n, value)
    return ConvergenceTable(m, "norm" if norm_mode else (f.name if f else "error"), tuple(rows))


def classical_rule(kind: str, n: int) -> QuadratureRule:
    """Composite trapezoid or Simpson weights on the same uniform grid.

    Tagged with their own methods so optimal-rule constraint checks do not
    apply to them; Simpson requires even n.
    """
    if kind == "trapezoid":
        if n < 1:
            raise ValueError("trapezoid requires n >= 1")
        h = 1.0 / n
        coeffs = (h / 2.0,) + (h,) * (n - 1) + (h / 2.0,)
        return QuadratureRule(GridSpec(1, n), coeffs, RuleMethod.TRAPEZOID)
    if kind == "simpson":
        if n < 2 or n % 2:
            raise ValueError("simpson requires even n >= 2")
        h = 1.0 / n
        coeffs = [h / 3.0]
        for beta in range(1, n):
            coeffs.append(h * (4.0 if beta % 2 else 2.0) / 3.0)
        coeffs.append(h / 3.0)
        return QuadratureRule(GridSpec(1, n), tuple(coeffs), RuleMethod.SIMPSON)
    raise ValueError(f"unknown classical rule {kind!r}; use trapezoid or simpson")


_STEP = 1e-3  # Euclidean length of each admissible perturbation


def admissible_perturbations(
    rule: QuadratureRule, count: int = 20, seed: int = 20260810
) -> list[np.ndarray]:
    """Random directions of length 1e-3 in the null space of the constraint rows.

    Perturbing the weights along these directions keeps the rule admissible
    (constraints still hold to first order), so the optimal weights must not
    lose squared norm along any of them beyond roundoff.
    """
    grid = rule.grid
    n, m = grid.n, grid.m
    nodes = [grid.node(beta) for beta in range(n + 1)]
    R = np.array([[g(x) for x in nodes] for _, g, _ in constraint_rows(m)])
    _, s, vt = np.linalg.svd(R)
    rank = int(np.sum(s > s[0] * n * np.finfo(float).eps))
    basis = vt[rank:].T
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = basis @ rng.standard_normal(basis.shape[1])
        v *= _STEP / np.linalg.norm(v)
        out.append(v)
    return out


def stationarity_margin(rule: QuadratureRule, count: int = 20) -> float:
    """Most negative norm-squared change over admissible perturbations.

    Nonnegative up to roundoff at the constrained minimiser; values below
    about -1e-14 would contradict optimality.
    """
    base = error_norm_squared(rule)
    worst = 0.0
    for v in admissible_perturbations(rule, count):
        perturbed = QuadratureRule(
            rule.grid,
            tuple(c + dv for c, dv in zip(rule.coefficients, v)),
            rule.method,
        )
        worst = min(worst, error_norm_squared(perturbed) - base)
    return worst
