"""Worst-case error norms, Cauchy-Schwarz certificates, convergence tables,
and classical comparison rules.

The squared worst-case error of a rule over the unit ball of the space normed
by ||f^(m) + f^(m-1)||_L2 is a quadratic form in the weights built from the
sinh-type kernel, its moments, and the kernel's double integral over the unit
square (which reduces to the factorial tail sum_{k>=m} 1/(2k+1)!).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from ._exact import exp_powers, factorial_tail, grid_bits, head_coefficients, integer_weights
from .coefficients import build_rule
from .core import (
    GridSpec,
    Integrand,
    QuadratureRule,
    RuleMethod,
    _check_order,
    apply_rule,
    constraint_rows,
)


def error_norm_squared(rule: QuadratureRule) -> float:
    """Squared norm of the rule's error functional at the exact nodes i/n.

    (-1)^m [ sum_ij C_i C_j psi((i-j)/n) - 2 sum_i C_i f_m(i/n) + I_m ]
    with f_m the kernel moment and I_m the kernel's double integral,
    sum_{k>=m} 1/(2k+1)!, rounded once to the nearest float.

    The sum is taken in Python integers in O(n m) work, with no O(n^2)
    product and no float kernel table.  The weights are integers c_i over
    one power-of-two D (:func:`optquad._exact.integer_weights`).  For
    x >= 0, 2 psi(x) = sinh x - sum_{k<m} x^(2k-1)/(2k-1)!, and on the
    nodes sinh((i-j)/n) is (q^i q^-j - q^-i q^j)/2 with q = e^(1/n), so
    the pairs i > j need only the prefix sums sum_{j<i} c_j q^(+-j); each
    head (i-j)^p expands binomially into prefix power sums
    sum_{j<i} c_j j^s.  2 f_m(t) is cosh t + cosh(1-t) - 2 minus the even
    heads (t^2k + (1-t)^2k)/(2k)!, and cosh(1 - i/n) is (q^n q^-i +
    q^-n q^i)/2, so the moments need only the totals of c_i q^(+-i) and
    c_i i^s.  q^(+-j) are K-bit fixed-point integers, K = 160 +
    n.bit_length(), from :func:`optquad._exact.exp_powers`, and I_m is
    :func:`optquad._exact.factorial_tail`.  Everything is one integer over
    2^(2K+1) D^2 n^(2m-2) (2m-2)!, and Python's int / int rounds it
    correctly.  Each table entry is within 1.01 units of 2^-K, so the
    integer value is within (2 sum_{i!=j} |C_i C_j| + 5 sum_i |C_i| + 1)
    2^-K of the exact one, and the result is the float nearest the exact
    value unless that lies closer than this to a tie between two floats.  An
    exact value beyond the float range gives inf with its sign.

    The q^(+-j) tables are cached by (n, K), up to 2^18 powers in all.  A
    call costs O(n m) big-integer operations and O(n) memory: with warm
    tables about 1.4 ms at (2, 1024) and 0.1 s at (2, 65536), and building
    the tables adds about 1 us per node.  The tracemalloc peak, tables
    included, is 3.8 MiB at (2, 8192).
    """
    m, n = rule.grid.m, rule.grid.n
    bits = grid_bits(n)
    c, den = integer_weights(rule.coefficients)
    up, down = exp_powers(n, bits)
    one, square = 1 << bits, 1 << 2 * bits
    # the kernel's sinh part: twice sum_{i>j} c_i c_j sinh((i-j)/n), times
    # 2^(2 bits).  It is A - B, with A = sum_i c_i q^i sum_{j<i} c_j q^-j
    # and B its mirror.  A + B is the sum over the pairs i != j, the product
    # of the totals less its diagonal, taken from the same tables so that
    # no C_i^2 term is left over
    cu, cd = list(map(mul, c, up)), list(map(mul, c, down))
    su, sd = sum(cu), sum(cd)
    sinh2 = 2 * sum(map(mul, cu, accumulate(cd, initial=0))) - su * sd + sum(map(mul, cu, cd))
    # the heads over the common scale n^(2m-2) (2m-2)!: c_i i^s, their
    # totals, and sum_{i>j} c_i c_j h(i-j) with h the odd head times the scale
    scale, h = head_coefficients(m, n)
    powers = [c]
    for _ in range(2 * m - 2):
        powers.append(list(map(mul, powers[-1], range(n + 1))))
    totals = [sum(w) for w in powers]
    prefix = [list(accumulate(w, initial=0)) for w in powers[: 2 * m - 2]]
    head_pairs = head_moments = 0
    for k in range(1, m):
        p = 2 * k - 1  # the kernel's head term x^p / p!
        head_pairs += h[p] * sum(math.comb(p, t) * (-1) ** (p - t) * sum(map(mul, powers[t], prefix[p - t]))
                                 for t in range(p + 1))
        # the moment's head term (t^2k + (1-t)^2k) / (2k)!, with (n - i)^2k expanded
        head_moments += h[2 * k] * (totals[2 * k] + sum(
            math.comb(2 * k, s) * n ** (2 * k - s) * (-1) ** s * totals[s] for s in range(2 * k + 1)))
    # sum_i c_i (cosh(i/n) + cosh(1 - i/n)), times 2^(2 bits + 1)
    cosh2 = one * (su + sd) + up[n] * sd + down[n] * su
    linear = cosh2 * scale - 4 * square * scale * totals[0] - 2 * square * head_moments
    total = (sinh2 * scale - 2 * square * head_pairs - den * linear
             + den * den * scale * factorial_tail(m, 2 * bits + 1))
    total = -total if m % 2 else total
    try:
        return total / (2 * square * scale * den * den)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


@dataclass(frozen=True)
class SobolevNormEstimate:
    value: float
    error_estimate: float


_FIRST_PANELS = 8  # Gauss-Legendre panels of sobolev_norm's first level
_PANELS = 256  # and of its last: the cap on the doubling


@functools.cache
def _gauss_panels(panels: int) -> tuple[tuple[float, ...], np.ndarray]:
    """Nodes and weights of `panels` 10-point Gauss-Legendre panels on [0, 1].

    Built on first use, so `import optquad` never loads numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(10)
    half = 0.5 / panels
    mid = np.arange(panels) / panels + half
    return tuple((mid[:, None] + half * x).ravel().tolist()), np.tile(half * w, panels)


def sobolev_norm(f: Integrand, m: int) -> SobolevNormEstimate:
    """L2 norm of f^(m) + f^(m-1) over [0, 1] by composite Gauss panels.

    10-point Gauss-Legendre on 8 panels, then 16, 32, ... : the panels double
    until three successive levels agree to the roundoff floor
    4 eps (1 + integral), or until 256 panels.  The discretisation error is
    estimated from the difference of the last two levels plus that floor, so
    a call that reaches 256 panels returns the fixed 256-vs-128-panel result.
    Three levels rather than two keep a feature that the 8- and 16-panel
    nodes both miss from stopping the loop: for a Gaussian bump of width
    sigma >= 6e-4 the estimate covers the error wherever the fixed scheme's
    does.  A narrower bump can fall between the nodes of the 8-, 16- and
    32-panel levels alike, and then the estimate does not cover it.  A
    sample of (f^(m) + f^(m-1))^2 that is not finite raises ValueError.
    """
    _check_order(m)
    fm = f.derivative(m)
    fm1 = f.derivative(m - 1)

    def g(t: float) -> float:
        return fm(t) + fm1(t)

    def integral(panels: int) -> float:
        nodes, weights = _gauss_panels(panels)
        vals = np.fromiter(map(g, nodes), float, len(nodes))
        with np.errstate(over="ignore"):  # an overflowed square is reported below
            terms = weights * vals * vals
        finite = np.isfinite(terms)
        if not finite.all():
            t = nodes[int(np.argmin(finite))]
            raise ValueError(f"{f.name}: (f^({m}) + f^({m - 1}))^2 is not finite at x = {t!r}")
        return math.fsum(terms.tolist())

    panels = _FIRST_PANELS
    fine = integral(panels)
    agreed = 0  # successive pairs of levels, ending at `fine`, that agree
    while True:
        panels *= 2
        coarse, fine = fine, integral(panels)
        norm_sq = max(fine, 0.0)
        floor = 4.0 * sys.float_info.epsilon * (1.0 + norm_sq)
        agreed = agreed + 1 if abs(fine - coarse) <= floor else 0
        if agreed == 2 or panels == _PANELS:
            break
    value = math.sqrt(norm_sq)
    diff = abs(fine - coarse) + floor
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
    """The :func:`error_report` line of the one integrand ``f``."""
    return error_report(rule, (f,)).entries[0]


def error_report(rule: QuadratureRule, integrands: Sequence[Integrand]) -> ErrorReport:
    """Cauchy-Schwarz certificates for each integrand, sharing one norm evaluation.

    Each entry checks |f.exact_integral - rule(f)| <= ||error functional|| *
    ||f|| + slack.  The slack is the Sobolev-norm discretisation estimate
    times the rule's norm, plus 1e-12 (1 + |integral|) for the rounding of
    the quadrature sum and of the reference.  The squared norm is the
    float nearest its exact-node value, so it needs no roundoff floor.
    """
    norm_sq = error_norm_squared(rule)
    rule_norm = math.sqrt(max(norm_sq, 0.0))
    entries = []
    for f in integrands:
        reference = f.exact_integral
        value = apply_rule(rule, f.fn)
        sob = sobolev_norm(f, rule.grid.m)
        slack = sob.error_estimate * rule_norm + 1e-12 * (1.0 + abs(reference))
        entries.append(ReportEntry(f.name, value, reference, abs(value - reference),
                                   rule_norm * sob.value, slack))
    return ErrorReport(rule.grid, norm_sq, tuple(entries))


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
    method: str = "auto",
) -> ConvergenceTable:
    """Tabulate per-n error of ``f``, or the error-functional norm when f is None.

    Ratios and orders are reported only across doubling steps and only while
    both values sit above the roundoff exactness floor; orders are log2 of
    the ratio.  They are diagnostics, not asserted targets.
    """
    ns = list(n_values)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("n_values must be strictly ascending")
    floor = 1e-14
    rows: list[ConvergenceRow] = []
    prev: tuple[int, float] | None = None
    for n in ns:
        rule = build_rule(m, n, method)
        if f is None:
            value = math.sqrt(max(error_norm_squared(rule), 0.0))
        else:
            value = abs(apply_rule(rule, f.fn) - f.exact_integral)
        ratio = order = None
        if prev is not None and n == 2 * prev[0] and value > floor and prev[1] > floor:
            ratio = prev[1] / value
            order = math.log2(ratio)
        rows.append(ConvergenceRow(n, value, ratio, order))
        prev = (n, value)
    return ConvergenceTable(m, "norm" if f is None else f.name, tuple(rows))


def classical_rule(kind: str, n: int) -> QuadratureRule:
    """Composite trapezoid or Simpson weights on the same uniform grid.

    Tagged with their own methods so optimal-rule constraint checks do not
    apply to them; Simpson requires even n.
    """
    grid = GridSpec(1, n)
    h = grid.h
    if kind == "trapezoid":
        coeffs = (h / 2.0,) + (h,) * (n - 1) + (h / 2.0,)
        return QuadratureRule(grid, coeffs, RuleMethod.TRAPEZOID)
    if kind == "simpson":
        if n % 2:
            raise ValueError("simpson requires even n >= 2")
        coeffs = [h / 3.0]
        for beta in range(1, n):
            coeffs.append(h * (4.0 if beta % 2 else 2.0) / 3.0)
        coeffs.append(h / 3.0)
        return QuadratureRule(grid, tuple(coeffs), RuleMethod.SIMPSON)
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
    if n + 1 == m:
        # the constraints fix the weights, so no direction is admissible
        return []
    x = grid.node_array()
    R = np.array([g(x) for _, g, _ in constraint_rows(m)])
    # the rows sample the Chebyshev system x^0..x^(m-2), e^(-x) at n + 1 > m
    # distinct nodes: they have full rank m, so q's m columns span them
    q = np.linalg.qr(R.T)[0]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        z = rng.standard_normal(n + 1)
        v = z - q @ (q.T @ z)
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
