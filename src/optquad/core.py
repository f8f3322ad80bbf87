"""Grids, quadrature rules, the sinh-type kernel and its moments.

The grid is x_beta = beta/n over [0, 1].  The nodes and the constraint
rows and their sums run in whole-array float passes, bit-identical to the
scalar functions; apply_rule calls its integrand once per node.  The
kernel psi, its moments and its double integral are one positive series,
summed at the exact value of its argument in Python integers by
:mod:`optquad._exact` and rounded once: to the nearest float, or with
``dps`` to an mpmath float through :mod:`optquad._series`.  The dense
system and the error norm take the kernel and its moments at the nodes
from :mod:`optquad._exact`'s tables instead.  Rules are immutable value
objects; the construction routines live in :mod:`optquad.coefficients`
and :mod:`optquad.solver`.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _exact, _series


class QuadratureError(Exception):
    """Base class for numeric failures (as opposed to bad arguments)."""


class ConstructionError(QuadratureError):
    """A closed-form or root-finding construction broke down numerically."""


class SolveError(QuadratureError):
    """The dense linear solve failed (singular / ill-conditioned / bad residual).

    Also raised when the bordered system is too large to allocate: its
    message names the order and the size asked for.
    """


ORDERS = (1, 2, 3)


def _is_integer(v) -> bool:
    # an int or a numpy integer.  An integral float such as 2.0, or a bool,
    # equals an integer but is not one.  psi checks its order on every
    # call, and int skips the slow ABC test (~0.4 us)
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_order(m: int) -> None:
    if m not in ORDERS or not _is_integer(m):
        raise ValueError(f"order m must be in {ORDERS}, got {m}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, 1]: n intervals, n+1 nodes, spacing h = 1/n."""

    m: int
    n: int

    def __post_init__(self):
        _check_order(self.m)
        if not _is_integer(self.n):
            raise ValueError(f"interval count n must be an integer, got {self.n}")
        if self.n < 1:
            raise ValueError(f"interval count n must be >= 1, got {self.n}")
        if self.n + 1 < self.m:
            # the constraint block needs at least m distinct nodes
            raise ValueError(f"need n+1 >= m nodes, got n={self.n}, m={self.m}")
        # plain ints, so that a numpy integer never reaches the JSON writer
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def node_array(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The nodes beta/n for beta in [start, stop), all n + 1 by default, as floats.

        IEEE division is correctly rounded, so these are the doubles of the
        scalar beta / n, bit for bit.
        """
        return np.arange(start, self.n + 1 if stop is None else stop) / self.n


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


_FLOAT_BITS = 128  # bits of the series behind a float result
_SINH_MAX = 710.4758600739439  # the largest float whose sinh is finite
# the largest |x| psi sums at dps digits: the series costs about |x|^2
# (0.74 ms at 1000, 47 ms at 10^4), and the tests sample it up to 711
_DPS_X_MAX = 1000


def _tail_ratio(x, p: int, dps: int | None) -> tuple[int, int]:
    # T_p(|x|) as one integer ratio, at the bits a float or dps digits need
    bits = _FLOAT_BITS if dps is None else _series.dps_bits(dps)
    return _exact.tail(*_series.ratio(x), p, bits)


def _rounded(num: int, den: int, dps: int | None):
    # num / den rounded once: to the nearest float, or to dps digits
    return num / den if dps is None else _series.quotient(num, den, dps)


def _tail(x, p: int, dps: int | None = None):
    """Series tail sum_{j>=0} |x|^(p+2j)/(p+2j)! for p >= 1, rounded once.

    It is sinh |x| (odd p) or cosh |x| (even p) minus the Taylor head below
    x^p, summed as a positive series at the exact value of x (an mpmath
    float keeps all its digits) by :func:`optquad._exact.tail`: one integer
    ratio at 128 bits, rounded by int / int to the nearest float, or at
    ceil(3.33 dps) + 20 bits, rounded to dps digits by
    :func:`optquad._series.quotient`.  So a float is correctly rounded
    unless the value lies within about 2^-120 relative of a tie, and no
    digit cancels at small x.  The trade is time at large x, where the
    series takes about e|x| terms of about 1.44|x| bits.  Best of 5 on a
    shared 2-vCPU Xeon VM, against the float64 and mpmath sinh and cosh
    minus the head it replaced: a float psi(3, 0.3) 1 -> 5.5 us and
    psi(3, 700.0) 0.9 us -> 0.4 ms; psi(2, x, dps=50) 0.02 ms at any x ->
    0.013 ms at x = 0.5, 0.44 ms at 711, 0.74 ms at 1000 and 47 ms at
    10^4, so :func:`psi` refuses |x| past 1000 at dps digits.  The
    operator identities (:func:`optquad.operator.identity_residuals`) sum
    the same series, :func:`optquad._exact.tail`, at |x| below 850, where
    their growth guard stops them.  No float path of the library calls
    this series.
    :func:`psi`, :func:`moment_f` and :func:`kernel_double_integral` take
    it through ``_tail_ratio`` and round their own ratio once.
    """
    return _rounded(*_tail_ratio(x, p, dps), dps)


def _real(x, dps: int | None):
    # x as a float for float64 (dps=None); at dps digits a numpy floating
    # scalar as a float too and a numpy integer as an int, which mpmath
    # cannot take, and any other number (an mpmath float, say) as given, so
    # that it keeps its digits
    if dps is None or isinstance(x, np.floating):
        return float(x)
    return int(x) if isinstance(x, np.integer) else x


def psi(m: int, x, dps: int | None = None):
    """Kernel sign(x)/2 * (sinh x - sum_{k<m} x^(2k-1)/(2k-1)!), an even function.

    The bracket is odd, so the kernel is even in x with psi(m, 0) = 0.  It is
    half the series ``_tail(|x|, 2m - 1)``, rounded once: the nearest float,
    or with ``dps`` an mpmath float that keeps all dps digits at every x,
    although the printed head cancels about (2m - 1) log10(1/|x|) of them
    at small x.  In float64, |x| past about 710.48, where sinh x overflows,
    raises ValueError, and so does |x| past 1000 with ``dps``.  Without
    ``dps`` any real x (a float32, say) is taken as a float64; with it a
    numpy float is taken as a float64, a numpy integer as an int and an
    mpmath float as it is.
    """
    _check_order(m)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    x = _real(x, dps)
    if dps is None and abs(x) > _SINH_MAX:  # refused before its ~2000 terms are summed
        raise ValueError(f"psi at |x| = {abs(x)} is beyond the float64 range; pass dps=")
    if dps is not None and abs(x) > _DPS_X_MAX:
        raise ValueError(f"psi at |x| = {abs(x)} is past the extended-precision limit |x| <= {_DPS_X_MAX}")
    num, den = _tail_ratio(x, 2 * m - 1, dps)
    return _rounded(num, 2 * den, dps)


def moment_f(m: int, beta: int, grid: GridSpec) -> float:
    """Kernel moment at node beta of ``grid``; symmetric under beta <-> n-beta."""
    _check_order(m)
    # beta / n of a fractional beta would be a point between the nodes
    if not _is_integer(beta) or not 0 <= beta <= grid.n:
        raise ValueError(f"node index beta must be an integer in [0, {grid.n}], got {beta}")
    # both distances are the floats beta/n and (n - beta)/n, so the symmetry
    # moment_f(beta) == moment_f(n - beta) holds bit for bit; their two
    # tails add as one integer ratio, rounded once
    (a, b), (c, d) = (_tail_ratio(v / grid.n, 2 * m, None) for v in (beta, grid.n - beta))
    return (a * d + c * b) / (2 * b * d)


def _per_element(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f(x_i) for each element of the float64 array x, one Python call each.

    The constraint rows take libm's math.exp this way.  No numpy
    transcendental ufunc is used: numpy's float64 power, sinh, cosh and exp
    can go through SVML and round differently from libm.
    """
    return np.fromiter(map(f, x.tolist()), float, x.size)


def kernel_double_integral(m: int) -> float:
    """Double integral of psi(m, x - y) over the unit square.

    Integrating the moment function once more turns both integrals into
    factorial tails: the value is sum_{k>=m} 1/(2k+1)!, the tail at x = 1.
    """
    return _tail(1, 2 * m + 1)


_CHUNK = 1 << 13  # doubles per extraction and nodes per constraint block; 2^16 ran slower
# a chunk takes k <= 14 below, so sigma = 2^(e+k) <= 2^1023 for max|x| < _HUGE
_HUGE = math.ldexp(1.0, 1023 - (_CHUNK + 2).bit_length())
_EXTRACT_MIN = 448  # elements from which extraction beats the list of the elements


def _exact_parts(x: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of the float64 array x.

    Below 448 elements they are the elements themselves, x.tolist().  From
    448 on it is Rump, Ogita and Oishi's ExtractVector (SIAM J. Sci. Comput.
    31(1), 2008, section 3), run on slices of at most _CHUNK elements until
    each is empty.
    With 2^e > max|x| and 2^k > len(x) + 2, sigma = 2^(e+k) splits every
    element exactly as q + (x - q), where q = (sigma + x) - sigma lies on a
    grid fine enough, and small enough, that numpy sums the q exactly in any
    order.  Each pass strips about 52 - k leading bits.  Elements sigma cannot
    cover (inf, nan and |x| >= _HUGE = 2^1009) are passed through unchanged,
    in their order, ahead of their slice's extracted parts.  So math.fsum of
    the parts returns what math.fsum of x returns: the correctly rounded
    sum, or inf, nan or ValueError for non-finite elements.  Only fsum's
    "intermediate overflow" OverflowError, which depends on the order of
    terms near 2^1024, can differ: fsum then sees each slice's terms from
    2^1009 up first.
    """
    if x.size < _EXTRACT_MIN:
        return x.tolist()
    parts: list[float] = []
    for start in range(0, x.size, _CHUNK):
        chunk = x[start : start + _CHUNK]
        while chunk.size:
            top = float(np.abs(chunk).max())
            if not top < _HUGE:  # also true for nan
                wild = ~(np.abs(chunk) < _HUGE)
                parts.extend(chunk[wild].tolist())
                chunk = chunk[~wild]
                continue
            sigma = math.ldexp(1.0, math.frexp(top)[1] + (chunk.size + 2).bit_length())
            q = sigma + chunk
            q -= sigma
            parts.append(float(q.sum()))
            np.subtract(chunk, q, out=q)  # the remainders, exact
            chunk = q[q != 0.0]
    return parts


def apply_rule(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Sum C_beta * f(beta/n) with exact (compensated) summation."""
    n = rule.grid.n
    # a generator at every n, not map(f, ...): CPython 3.11 calls a
    # Python-level f from a generator frame without re-entering the
    # interpreter.  Through map the same sums measured 5-12% slower, and
    # mapped over blocks into constraint_residuals' exact sums 5-17% slower
    # at n = 65536, since f's own frame is most of the cost
    return math.fsum(c * f(beta / n) for beta, c in enumerate(rule.coefficients))


def constraint_rows(m: int) -> list[tuple[str, Callable[[np.ndarray], np.ndarray], float]]:
    """The side constraints of an order-m optimal rule, in system row order.

    Each row is (name, g, integral of g over [0, 1]): ``monomial_a`` for
    x^a, a = 0..m-2, then ``exp`` for e^(-x).  g takes a float64 array of
    nodes and returns g at each with the bits of the scalar x**a and
    math.exp(-x): x^0 is 1.0 and x^1 is x, and e^(-x) is libm's exp, one
    element at a time.  An optimal rule integrates every g exactly.
    """
    monomials = [("monomial_0", np.ones_like, 1.0), ("monomial_1", lambda x: x, 0.5)]
    return monomials[: m - 1] + [("exp", lambda x: _per_element(math.exp, -x), -math.expm1(-1.0))]


def constraint_residuals(rule: QuadratureRule) -> dict[str, float]:
    """|sum C_b g(x_b) - integral of g| for each row of :func:`constraint_rows`.

    Keys in the order ``exp``, ``monomial_0`` .. ``monomial_(m-2)``.  Each
    sum has the bits of one :func:`apply_rule` per row with the scalar
    x**a or math.exp(-x), but makes no Python call per node.  The nodes go
    in blocks of 2^13, and each block's weights are multiplied by each
    row's samples in one array pass.  One math.fsum per row takes the
    parts :func:`_exact_parts` gives for each block's products, in
    O(2^13) extra memory: the correctly rounded sum.  The products are
    finite; where they overflow fsum's partial sums near 2^1024, the
    OverflowError can come or not with the order of terms, and in a block
    of 448 nodes or more the products from 2^1009 up come first.
    Meaningful only for optimal rules; classical rules are not built to
    satisfy the exponential constraint.
    """
    rows = constraint_rows(rule.grid.m)
    rows = rows[-1:] + rows[:-1]
    grid, coefficients = rule.grid, rule.coefficients
    parts: list[list[float]] = [[] for _ in rows]
    for start in range(0, grid.n + 1, _CHUNK):
        x = grid.node_array(start, min(start + _CHUNK, grid.n + 1))
        c = np.fromiter(coefficients[start : start + x.size], float, x.size)
        for part, (_, g, _) in zip(parts, rows):
            part += _exact_parts(c * g(x))
    return {name: abs(math.fsum(part) - integral) for (name, _, integral), part in zip(rows, parts)}


@dataclass(frozen=True)
class Integrand:
    """Named test function with derivative callbacks and its exact integral."""

    name: str
    fn: Callable[[float], float]
    derivatives: tuple[Callable[[float], float], ...] = field(default=(), repr=False)
    exact_integral: float = math.nan

    def derivative(self, k: int) -> Callable[[float], float]:
        # a float or bool order equal to an integer still names no derivative
        if not (_is_integer(k) and 0 <= k <= len(self.derivatives)):
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
