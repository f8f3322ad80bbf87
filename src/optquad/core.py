"""Grids, quadrature rules, the sinh-type kernel and its moments.

Everything here is scalar float math on the uniform grid x_beta = beta/n
over [0, 1], except that the kernel can also be evaluated in mpmath at a
given precision, with the arithmetic of :mod:`optquad._series`.  Rules are
immutable value objects; the construction routines live in
:mod:`optquad.coefficients` and :mod:`optquad.solver`.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import _series


class QuadratureError(Exception):
    """Base class for numeric failures (as opposed to bad arguments)."""


class ConstructionError(QuadratureError):
    """A closed-form or root-finding construction broke down numerically."""


class SolveError(QuadratureError):
    """The dense linear solve failed (singular / ill-conditioned / bad residual)."""


ORDERS = (1, 2, 3)


def _check_order(m: int) -> None:
    # an integral float such as 2.0 equals an order but is not one.  psi
    # checks on every call, and int skips the slow ABC test (~0.4 us)
    if m not in ORDERS or not (type(m) is int or isinstance(m, numbers.Integral)):
        raise ValueError(f"order m must be in {ORDERS}, got {m}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, 1]: n intervals, n+1 nodes, spacing h = 1/n."""

    m: int
    n: int

    def __post_init__(self):
        _check_order(self.m)
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"interval count n must be an integer, got {self.n}")
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
        object.__setattr__(self, "coefficients", tuple(map(float, self.coefficients)))
        if len(self.coefficients) != self.grid.n + 1:
            raise ValueError(
                f"expected {self.grid.n + 1} coefficients, got {len(self.coefficients)}"
            )
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("coefficients must be finite")

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def n(self) -> int:
        return self.grid.n


def _tail(x, p: int, dps: int | None = None):
    """Series tail sum_{j>=0} x^(p+2j)/(p+2j)! for p >= 1, x >= 0 (x > 0 with dps).

    It is sinh x (odd p) or cosh x (even p) minus the Taylor head below x^p.
    Float64 sums the positive series, until it stops changing, where the head
    cancels (p > 1 and x <= 4), and takes sinh or cosh minus the head
    elsewhere.  With ``dps`` every x takes sinh or cosh minus the head through
    :func:`optquad._series.extended`, which covers the log10(p!) +
    p*max(0, -log10 x) digits the head can cancel.  On the kernel samples of
    the operator identity checks, at 50 digits, that measured 4-14x faster
    than summing the series.
    """
    if dps is None:
        if p > 1 and x <= 4.0:
            term = total = x**p / math.factorial(p)
            while True:
                term *= x * x / ((p + 1) * (p + 2))
                p += 2
                updated = total + term
                if updated == total:
                    return total
                total = updated
        return _minus_head(_series._FLOAT, x, p)
    lost = math.log10(math.factorial(p)) + p * max(0.0, -math.log10(x))
    return _series.extended(dps, lost, partial(_minus_head, x=x, p=p))


def _minus_head(ar: _series._Arith, x, p: int):
    # sinh x or cosh x in ``ar``'s precision, minus x^k/k! for k < p of p's parity
    x = ar.num(x)  # so that x**k is taken in ``ar``'s precision
    total = ar.sinh(x) if p % 2 else ar.cosh(x)
    for k in range(p % 2, p, 2):
        # 0! = 1! = 1: the first head term needs no division
        total -= x**k if k < 2 else x**k / math.factorial(k)
    return total


def psi(m: int, x, dps: int | None = None):
    """Kernel sign(x)/2 * (sinh x - sum_{k<m} x^(2k-1)/(2k-1)!), an even function.

    The bracket is odd, so the kernel is even in x with psi(m, 0) = 0.  It is
    half of ``_tail(|x|, 2m - 1)``: a float, or with ``dps`` an mpmath
    float that keeps all dps digits at every x, although the head cancels
    about (2m - 1) log10(1/|x|) of them at small x.
    """
    _check_order(m)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    ax = abs(x)
    if dps is None:
        return _tail(ax, 2 * m - 1) / 2.0 if ax else 0.0
    # halving an mpmath float with ldexp is exact at any ambient precision
    ar = _series._arith(dps)
    return ar.ldexp(_tail(ax, 2 * m - 1, dps), -1) if ax else ar.num(0)


def moment_f(m: int, beta: int, grid: GridSpec) -> float:
    """Kernel moment at node beta of ``grid``; symmetric under beta <-> n-beta."""
    _check_order(m)
    # beta / n of a fractional beta would be a point between the nodes
    if not (type(beta) is int or isinstance(beta, numbers.Integral)) or not 0 <= beta <= grid.n:
        raise ValueError(f"node index beta must be an integer in [0, {grid.n}], got {beta}")
    # evaluate both distances as exact node fractions so the symmetry
    # moment_f(beta) == moment_f(n - beta) holds bit for bit
    t = beta / grid.n
    s = (grid.n - beta) / grid.n
    return (_tail(t, 2 * m) + _tail(s, 2 * m)) / 2.0


def moment_table(m: int, grid: GridSpec) -> list[float]:
    """moment_f(m, beta, grid) for beta = 0..n, from n//2 + 1 calls.

    The other half is mirrored: moment_f is symmetric bit for bit.
    """
    n = grid.n
    half = [moment_f(m, beta, grid) for beta in range(n // 2 + 1)]
    return [half[min(beta, n - beta)] for beta in range(n + 1)]


def kernel_double_integral(m: int) -> float:
    """Double integral of psi(m, x - y) over the unit square.

    Integrating the moment function once more turns both integrals into
    factorial tails: the value is sum_{k>=m} 1/(2k+1)!.
    """
    return _tail(1.0, 2 * m + 1)


def apply_rule(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Sum C_beta * f(beta/n) with exact (compensated) summation."""
    n = rule.grid.n
    # a generator, not map(f, ...): CPython 3.11 calls a Python-level f from a
    # generator frame without re-entering the interpreter; through map the
    # same sums measured 5-12% slower
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
        # a float order equal to an integer still names no derivative
        if not (isinstance(k, numbers.Integral) and 0 <= k <= len(self.derivatives)):
            raise ValueError(f"{self.name}: derivative order {k} not available")
        return self.derivatives[k - 1] if k else self.fn


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
