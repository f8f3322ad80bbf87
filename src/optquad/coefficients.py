"""Closed-form optimal coefficients (orders 1 and 2), the convolution-style
assembly that regroups them, and :func:`build_rule`, which dispatches on the
method name.

Order 1: constant interior weight 2(e^h-1)/(e^h+1) with half weights at the
endpoints.  Order 2: interior weights h plus geometric boundary layers
lambda1^beta / lambda1^(n-beta), lambda1 the stable characteristic root.
Orders >= 3 have no closed form here; use :mod:`optquad.solver`.
"""

from __future__ import annotations

import dataclasses
import math

from . import _series
from .core import ORDERS, ConstructionError, GridSpec, QuadratureRule, RuleMethod, moment_f, psi
from .operator import characteristic_polynomial, stable_roots
from .solver import assemble_system, solve


def lambda1(h: float) -> float:
    """Stable root (|lambda| < 1, negative) of the order-2 characteristic quadratic.

    The root of :func:`optquad.operator.stable_roots`: cancellation-safe
    uniformly in h through the factored discriminant and the division-form
    quadratic formula.
    """
    return stable_roots(characteristic_polynomial(2, h))[0]


def closed_form_m1(n: int) -> QuadratureRule:
    """Order-1 optimal rule: endpoints (e^h-1)/(e^h+1), interior twice that."""
    grid = GridSpec(1, n)
    h = grid.h
    w = math.expm1(h) / (math.exp(h) + 1.0)
    coeffs = (w,) + (2.0 * w,) * (n - 1) + (w,)
    return QuadratureRule(grid, coeffs, RuleMethod.CLOSED_FORM, multiplier_d=0.0)


def _k_constant(h: float, lam: float, n: int) -> float:
    lam_n1 = _powi(lam, n + 1)
    denom = 2.0 * math.expm1(h) ** 2 * (lam + lam_n1)
    if denom == 0.0:
        raise ConstructionError(f"boundary-layer denominator vanished at n={n}")
    return _series.value("k_num", h) * (lam - 1.0) / denom


def _powi(x: float, n: int) -> float:
    """x**n for integer n >= 0 by squaring; underflow to 0 is harmless."""
    acc = 1.0
    base = x
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


def closed_form_m2(n: int) -> QuadratureRule:
    """Order-2 optimal rule: interior h plus geometric boundary layers."""
    grid = GridSpec(2, n)
    h = grid.h
    E = math.exp(h)
    lam = lambda1(h)
    lam_n = _powi(lam, n)
    K = _k_constant(h, lam, n)
    t = h / math.expm1(h)
    kterm = K * (lam - lam_n)
    coeffs = [1.0 - t - kterm]
    for beta in range(1, n):
        coeffs.append(h + K * ((E - lam) * _powi(lam, beta) + (1.0 - lam * E) * _powi(lam, n - beta)))
    coeffs.append(-1.0 + E * (t - kterm))
    return QuadratureRule(grid, tuple(coeffs), RuleMethod.CLOSED_FORM)


def _recover_multipliers(m: int, coeffs, grid: GridSpec) -> tuple[float, float]:
    """Solve the two boundary rows of the constrained system for (P0, d).

    For m = 1 the polynomial block is empty and the single unknown d comes
    from the first row alone (it is 0 up to roundoff).
    """
    n = grid.n
    resid = []
    for beta in (0, n):
        s = math.fsum(c * psi(m, (beta - gamma) / n) for gamma, c in enumerate(coeffs))
        resid.append(moment_f(m, beta, grid) - s)
    if m == 1:
        return 0.0, resid[0]  # no polynomial unknown; e^0 = 1 multiplies d
    e0, en = 1.0, math.exp(-1.0)
    det = en - e0
    c0 = (resid[0] * en - resid[1] * e0) / det
    d = (resid[1] - resid[0]) / det
    return c0, d


def coefficients_via_convolution(m: int, n: int) -> QuadratureRule:
    """Assemble the optimal weights from the operator's analytic convolution
    values plus boundary constants, as an independent arithmetic path.

    Order 1: the assembly collapses to the closed form exactly, so this is
    :func:`closed_form_m1` tagged as a convolution rule.  Order 2: interior value h with the
    layer amplitudes a1 = K(e^h - lambda1), b1 = K(1 - e^h lambda1) and the
    endpoint weights in their expanded fraction form, grouped differently
    from :func:`closed_form_m2`.  Orders >= 3 are unsupported (the boundary
    constants are not resolved in closed form).
    """
    if m == 1:
        return dataclasses.replace(closed_form_m1(n), method=RuleMethod.CONVOLUTION)
    if m != 2:
        raise ValueError("convolution assembly is available for orders 1 and 2 only")
    grid = GridSpec(2, n)
    h = grid.h
    E = math.exp(h)
    lam = lambda1(h)
    lam_n = _powi(lam, n)
    K = _k_constant(h, lam, n)
    a1 = K * (E - lam)
    b1 = K * (1.0 - E * lam)
    # endpoint weights in expanded form; the shared numerator couples the layers
    g = _series.value("k_num", h)
    denom = 2.0 * math.expm1(h) ** 2 * (lam + lam * lam_n)
    layer_sum = g * (lam * lam + lam_n - lam - lam * lam_n) / denom
    c_first = (math.expm1(h) - h) / math.expm1(h) - layer_sum
    c_last = (h * E - E + 1.0) / math.expm1(h) - E * layer_sum
    coeffs = [c_first]
    for beta in range(1, n):
        coeffs.append(h + a1 * _powi(lam, beta) + b1 * _powi(lam, n - beta))
    coeffs.append(c_last)
    c0, d = _recover_multipliers(2, coeffs, grid)
    return QuadratureRule(
        grid, tuple(coeffs), RuleMethod.CONVOLUTION,
        multiplier_d=d, polynomial_multipliers=(c0,),
    )


# method -> (orders it accepts, constructor).  The constructors look their
# functions up by module global when called, so wrappers installed on those
# names after import see every call.
_METHODS = {
    "closed": ((1, 2), lambda m, n: closed_form_m1(n) if m == 1 else closed_form_m2(n)),
    "solve": (ORDERS, lambda m, n: solve(assemble_system(m, n))),
    "conv": ((1, 2), lambda m, n: coefficients_via_convolution(m, n)),
    # the closed form where it exists, otherwise the direct solve
    "auto": (ORDERS, lambda m, n: build_rule(m, n, "closed" if m in (1, 2) else "solve")),
}
METHODS = tuple(_METHODS)


def build_rule(m: int, n: int, method: str = "auto") -> QuadratureRule:
    """Construct a rule by method name: closed | solve | conv | auto.

    Method/order combinations without a construction raise ValueError naming
    the orders the method accepts.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {', '.join(METHODS)}")
    orders, construct = _METHODS[method]
    if m not in orders:
        raise ValueError(f"method {method!r} supports m in {orders}, got m={m}")
    return construct(m, n)
