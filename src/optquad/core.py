"""Grids, quadrature rules, the sinh-type kernel and its moments.

Everything here is scalar float math on the uniform grid x_beta = beta/n
over [0, 1].  Rules are immutable value objects; the construction routines
live in :mod:`optquad.coefficients` and :mod:`optquad.solver`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable


class QuadratureError(Exception):
    """Base class for numeric failures (as opposed to bad arguments)."""


class ConstructionError(QuadratureError):
    """A closed-form or root-finding construction broke down numerically."""


class SolveError(QuadratureError):
    """The dense linear solve failed (singular / ill-conditioned / bad residual)."""


class ToleranceError(QuadratureError):
    """A requested tolerance is not achievable; carries the achievable bound."""

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


ORDERS = (1, 2, 3)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, 1]: n intervals, n+1 nodes, spacing h = 1/n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m not in ORDERS:
            raise ValueError(f"order m must be in {ORDERS}, got {self.m}")
        if self.n < 1:
            raise ValueError(f"interval count n must be >= 1, got {self.n}")
        if self.n + 1 < self.m:
            # the constraint block needs at least m distinct nodes
            raise ValueError(f"need n+1 >= m nodes, got n={self.n}, m={self.m}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def node(self, beta: int) -> float:
        return beta / self.n

    def nodes(self) -> tuple[float, ...]:
        return tuple(beta / self.n for beta in range(self.n + 1))


class RuleMethod(enum.Enum):
    """Provenance tag for a rule's coefficients."""

    CLOSED_FORM = "closed"
    DIRECT_SOLVE = "solve"
    TRAPEZOID = "trapezoid"
    SIMPSON = "simpson"

    @property
    def is_optimal(self) -> bool:
        return self in (RuleMethod.CLOSED_FORM, RuleMethod.DIRECT_SOLVE)


@dataclass(frozen=True)
class QuadratureRule:
    """Weights C_0..C_n on a :class:`GridSpec`, plus how they were obtained.

    ``multiplier_d`` and ``polynomial_multipliers`` hold the side-constraint
    multipliers when the construction produces them (direct solve always does;
    the order-1 closed form has d = 0 identically).
    """

    grid: GridSpec
    coefficients: tuple[float, ...]
    method: RuleMethod
    multiplier_d: float | None = None
    polynomial_multipliers: tuple[float, ...] | None = None
    condition_estimate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) != self.grid.n + 1:
            raise ValueError(
                f"expected {self.grid.n + 1} coefficients, got {len(self.coefficients)}"
            )
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def n(self) -> int:
        return self.grid.n


def _tail(x: float, p: int) -> float:
    """Series tail sum_{j>=0} x^(p+2j)/(p+2j)!, summed until it stops changing.

    For the arguments used here (x >= 0, or p even) every term is
    nonnegative, so the sum has no cancellation.
    """
    term = x**p / math.factorial(p)
    total = term
    while True:
        term *= x * x / ((p + 1) * (p + 2))
        p += 2
        updated = total + term
        if updated == total:
            return total
        total = updated


def psi(m: int, x: float) -> float:
    """Kernel sign(x)/2 * (sinh x - sum_{k<m} x^(2k-1)/(2k-1)!), an even function.

    The bracket is odd, so the kernel is even in x with psi(m, 0) = 0.  For
    m >= 2 and moderate |x| the subtraction cancels the leading sinh terms;
    we sum the (positive) series tail instead, which is exact to working
    precision for any argument and avoids the cancellation entirely.
    """
    if m not in ORDERS:
        raise ValueError(f"order m must be in {ORDERS}, got {m}")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if m == 1:
        return math.sinh(ax) / 2.0
    if ax <= 4.0:
        return _tail(ax, 2 * m - 1) / 2.0
    total = math.sinh(ax)
    for k in range(1, m):
        total -= ax ** (2 * k - 1) / math.factorial(2 * k - 1)
    return total / 2.0


def moment_integral(m: int, t: float) -> float:
    """Integral of psi(m, x - t) over x in [0, 1], for any real t.

    Equals (e^t + e^-t + e^(1-t) + e^(t-1) - 4)/4 minus the first m-1 even
    Taylor pairs; summing the two cosh-series tails gives the same value
    without subtractive cancellation.
    """
    if m not in ORDERS:
        raise ValueError(f"order m must be in {ORDERS}, got {m}")
    return (_tail(t, 2 * m) + _tail(1.0 - t, 2 * m)) / 2.0


def moment_f(m: int, beta: int, grid: GridSpec) -> float:
    """Kernel moment at node beta of ``grid``; symmetric under beta <-> n-beta."""
    if m not in ORDERS:
        raise ValueError(f"order m must be in {ORDERS}, got {m}")
    if not 0 <= beta <= grid.n:
        raise ValueError(f"node index beta must be in [0, {grid.n}], got {beta}")
    # evaluate both distances as exact node fractions so the symmetry
    # moment_f(beta) == moment_f(n - beta) holds bit for bit
    t = beta / grid.n
    s = (grid.n - beta) / grid.n
    return (_tail(t, 2 * m) + _tail(s, 2 * m)) / 2.0


def apply_rule(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Sum C_beta * f(beta/n) with exact (compensated) summation."""
    n = rule.grid.n
    return math.fsum(c * f(beta / n) for beta, c in enumerate(rule.coefficients))


def constraint_rows(m: int) -> list[tuple[str, Callable[[float], float], float]]:
    """The side constraints of an order-m optimal rule, in system row order.

    Each row is (name, g, integral of g over [0, 1]): ``monomial_a`` for
    x^a, a = 0..m-2, then ``exp`` for e^(-x).  An optimal rule integrates
    every g exactly.
    """
    rows = [(f"monomial_{a}", lambda x, a=a: x**a, 1.0 / (a + 1)) for a in range(m - 1)]
    rows.append(("exp", lambda x: math.exp(-x), -math.expm1(-1.0)))
    return rows


def constraint_residuals(rule: QuadratureRule) -> dict[str, float]:
    """|sum C_b g(x_b) - integral of g| for each row of :func:`constraint_rows`.

    Keys in the order ``exp``, ``monomial_0`` .. ``monomial_(m-2)``; each sum
    streams over the nodes.  Meaningful only for optimal rules; classical
    rules are not built to satisfy the exponential constraint.
    """
    rows = constraint_rows(rule.grid.m)
    return {name: abs(apply_rule(rule, g) - integral) for name, g, integral in rows[-1:] + rows[:-1]}


@dataclass(frozen=True)
class Integrand:
    """Named test function with derivative callbacks and its exact integral."""

    name: str
    fn: Callable[[float], float]
    derivatives: tuple[Callable[[float], float], ...] = field(default=(), repr=False)
    exact_integral: float = math.nan

    def derivative(self, k: int) -> Callable[[float], float]:
        if k == 0:
            return self.fn
        if k > len(self.derivatives):
            raise ValueError(f"{self.name}: derivative order {k} not available")
        return self.derivatives[k - 1]


def _runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


def _runge_d1(x):
    return -50.0 * x / (1.0 + 25.0 * x * x) ** 2


def _runge_d2(x):
    return (3750.0 * x * x - 50.0) / (1.0 + 25.0 * x * x) ** 3


def _runge_d3(x):
    return 15000.0 * x * (1.0 - 25.0 * x * x) / (1.0 + 25.0 * x * x) ** 4


BUILTIN_INTEGRANDS: dict[str, Integrand] = {
    ig.name: ig
    for ig in (
        Integrand(
            "exp-neg",
            lambda x: math.exp(-x),
            (lambda x: -math.exp(-x), lambda x: math.exp(-x), lambda x: -math.exp(-x)),
            -math.expm1(-1.0),
        ),
        Integrand("one", lambda x: 1.0, (lambda x: 0.0, lambda x: 0.0, lambda x: 0.0), 1.0),
        Integrand("x", lambda x: x, (lambda x: 1.0, lambda x: 0.0, lambda x: 0.0), 0.5),
        Integrand("x2", lambda x: x * x, (lambda x: 2.0 * x, lambda x: 2.0, lambda x: 0.0), 1.0 / 3.0),
        Integrand(
            "sin",
            math.sin,
            (math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x)),
            1.0 - math.cos(1.0),
        ),
        Integrand("exp", math.exp, (math.exp, math.exp, math.exp), math.expm1(1.0)),
        Integrand("runge", _runge, (_runge_d1, _runge_d2, _runge_d3), math.atan(5.0) / 5.0),
    )
}


def builtin_integrand(name: str) -> Integrand:
    try:
        return BUILTIN_INTEGRANDS[name]
    except KeyError:
        raise ValueError(
            f"unknown integrand {name!r}; choose from {sorted(BUILTIN_INTEGRANDS)}"
        ) from None
