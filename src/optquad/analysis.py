"""Worst-case error norms, Cauchy-Schwarz certificates, convergence tables,
and classical comparison rules.

The squared worst-case error of a rule over the unit ball of the space normed
by ||f^(m) + f^(m-1)||_L2 is a quadratic form in the weights built from the
sinh-type kernel, its moments, and the kernel's double integral over the unit
square (which reduces to the factorial tail sum_{k>=m} 1/(2k+1)!).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .coefficients import build_rule
from .core import (
    GridSpec,
    Integrand,
    QuadratureRule,
    RuleMethod,
    _check_order,
    apply_rule,
    constraint_rows,
    kernel_double_integral,
    moment_table,
    psi,
)


_CHUNK = 1 << 13  # doubles per extraction; 2^16 left the cache and ran slower
# a chunk takes k <= 14 below, so sigma = 2^(e+k) <= 2^1023 for max|x| < _HUGE
_HUGE = math.ldexp(1.0, 1023 - (_CHUNK + 2).bit_length())


def _exact_parts(x: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of the float64 array x.

    Rump, Ogita and Oishi's ExtractVector (SIAM J. Sci. Comput. 31(1), 2008,
    section 3), run on slices of at most _CHUNK elements until each is empty.
    With 2^e > max|x| and 2^k > len(x) + 2, sigma = 2^(e+k) splits every
    element exactly as q + (x - q), where q = (sigma + x) - sigma lies on a
    grid fine enough, and small enough, that numpy sums the q exactly in any
    order.  Each pass strips about 52 - k leading bits.  Elements sigma cannot
    cover (inf, nan and |x| >= _HUGE = 2^1009) are passed through unchanged.
    So math.fsum of the parts returns what math.fsum of x returns: the
    correctly rounded sum, or inf, nan or ValueError for non-finite
    elements.  Only fsum's "intermediate overflow" OverflowError, which
    depends on the order of terms near 2^1024, can differ.
    """
    parts: list[float] = []
    for start in range(0, x.size, _CHUNK):
        chunk = x[start : start + _CHUNK]
        while chunk.size:
            top = float(np.max(np.abs(chunk)))
            if not top < _HUGE:  # also true for nan
                wild = ~(np.abs(chunk) < _HUGE)
                parts.extend(chunk[wild].tolist())
                chunk = chunk[~wild]
                continue
            sigma = math.ldexp(1.0, math.frexp(top)[1] + (chunk.size + 2).bit_length())
            q = sigma + chunk
            q -= sigma
            parts.append(float(np.sum(q)))
            np.subtract(chunk, q, out=q)  # the remainders, exact
            chunk = q[q != 0.0]
    return parts


def _whole_runs(arrays: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Concatenate consecutive arrays into runs of at most _CHUNK elements.

    An array longer than _CHUNK makes a run of its own.
    """
    pending: list[np.ndarray] = []
    size = 0
    for a in arrays:
        if pending and size + a.size > _CHUNK:
            run = np.concatenate(pending)
            pending, size = [], 0
            yield run
        pending.append(a)
        size += a.size
    if pending:
        yield np.concatenate(pending)


def error_norm_squared(rule: QuadratureRule) -> float:
    """Squared norm of the rule's error functional (>= 0 up to roundoff).

    (-1)^m [ sum_bb' C_b C_b' psi(x_b - x_b') - 2 sum_b C_b f_m(x_b) + I_m ]
    with f_m the kernel moment and I_m the kernel's double integral; summed
    exactly so the cancellation down to the small optimal value is clean.

    The kernel block is symmetric Toeplitz: psi((i-j)/n) depends only on
    k = |i-j|.  So the cost is n+1 kernel evaluations, n//2+1 moment
    evaluations (the moments are mirror-symmetric bit for bit), and O(n^2)
    float products.  Whole diagonals of products are gathered into chunks
    of at most 2^13 doubles, each reduced by exact vector extraction to a
    few floats; one math.fsum of those, the moment terms and I_m gives the
    correctly rounded exact sum.  Extra memory is O(n + chunk).  Products that overflow give
    what math.fsum gives for them: nan or ValueError.
    """
    grid = rule.grid
    m, n = grid.m, grid.n
    coeffs = rule.coefficients
    C = np.asarray(coeffs)
    kernel = [psi(m, k / n) for k in range(n + 1)]
    # diagonal k holds C_i C_(i+k) psi_k and so does its mirror -k: each
    # product is summed once, doubled (exact)
    diagonals = (C[: n + 1 - k] * C[k:] * kernel[k] * (2.0 if k else 1.0) for k in range(n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # math.fsum judges inf and nan
        block = [p for run in _whole_runs(diagonals) for p in _exact_parts(run)]
    moments = (-2.0 * c * f for c, f in zip(coeffs, moment_table(m, grid)))
    return (-1) ** m * math.fsum(itertools.chain(block, moments, (kernel_double_integral(m),)))


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
    ||f|| + slack.  The slack combines the Sobolev-norm discretisation
    estimate with the roundoff floor of the squared-norm evaluation.
    """
    norm_sq = error_norm_squared(rule)
    rule_norm = math.sqrt(max(norm_sq, 0.0))
    norm_floor = math.sqrt(max(norm_sq, 0.0) + 1e-14) - rule_norm
    entries = []
    for f in integrands:
        reference = f.exact_integral
        value = apply_rule(rule, f.fn)
        sob = sobolev_norm(f, rule.grid.m)
        slack = sob.error_estimate * rule_norm + norm_floor * sob.value + 1e-12 * (1.0 + abs(reference))
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
    nodes = [grid.node(beta) for beta in range(n + 1)]
    R = np.array([[g(x) for x in nodes] for _, g, _ in constraint_rows(m)])
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
