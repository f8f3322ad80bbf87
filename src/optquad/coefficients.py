"""Closed-form optimal coefficients (orders 1 and 2) and :func:`build_rule`,
which dispatches on the method name.

Order 1: constant interior weight 2(e^h-1)/(e^h+1) with half weights at the
endpoints.  Order 2: interior weights h plus geometric boundary layers
lambda1^beta / lambda1^(n-beta), lambda1 the stable characteristic root.
Both are written once, in :func:`_closed_weights`, and evaluated in float64
or, for the self-check in ``optquad verify``, in mpmath at ``dps`` digits.
Orders >= 3 have no closed form here; use :mod:`optquad.solver`.
"""

from __future__ import annotations

from . import _series
from .core import ORDERS, GridSpec, QuadratureRule, RuleMethod, _check_order
from .operator import characteristic_polynomial, stable_roots
from .solver import assemble_system, solve


def lambda1(h: float) -> float:
    """Stable root (|lambda| < 1, negative) of the order-2 characteristic quadratic.

    The root of :func:`optquad.operator.stable_roots`, cancellation-safe
    uniformly in h, in float64 for h in [1e-77, 1.5]; other h raise the
    ValueError of :func:`optquad.operator.characteristic_polynomial`.
    """
    return stable_roots(characteristic_polynomial(2, h))[0]


def _powers(x, top: int) -> list:
    """x^0 .. x^top, each rounded as right-to-left binary powering rounds it.

    x^b is x^(b - 2^k) * x^(2^k), k the top bit of b, and x^(2^k) is the
    square of x^(2^(k-1)): the last product binary powering forms, so each
    entry equals it bit for bit at one multiplication per entry.
    """
    table = [x ** 0, x]
    for b in range(2, top + 1):
        high = 1 << (b.bit_length() - 1)
        table.append(table[b - high] * table[high] if b > high else table[high >> 1] * table[high >> 1])
    return table


def _closed_weights(m: int, n: int, dps: int | None = None) -> list:
    """Closed-form weights C_0..C_n for m = 1, 2: float64, or mpmath at ``dps`` digits.

    The spacing is ``num(1) / n``, so an mpmath run sees the exact 1/n
    rather than its float64 rounding.
    """
    ar = _series._arith(dps)
    with ar.context():
        h = ar.num(1) / n
        E, em1 = ar.exp(h), ar.expm1(h)
        if m == 1:
            w = em1 / (E + 1)
            return [w] + [2 * w] * (n - 1) + [w]
        lam = stable_roots(characteristic_polynomial(2, h, dps))[0]
        pw = _powers(lam, n + 1)
        # nonzero: 0 < |lam| < 1 (stable_roots checks it), so lam * (1 + lam^n) != 0, and em1 > 0
        denom = 2 * em1 ** 2 * (lam + pw[n + 1])
        K = _series.value("k_num", h, dps) * (lam - 1) / denom
        t = h / em1
        kterm = K * (lam - pw[n])
        a, b = E - lam, 1 - lam * E
        interior = [h + K * (a * pw[beta] + b * pw[n - beta]) for beta in range(1, n)]
        return [1 - t - kterm] + interior + [-1 + E * (t - kterm)]


def closed_form_m1(n: int) -> QuadratureRule:
    """Order-1 optimal rule: endpoints (e^h-1)/(e^h+1), interior twice that."""
    return QuadratureRule(GridSpec(1, n), _closed_weights(1, n), RuleMethod.CLOSED_FORM, multiplier_d=0.0)


def closed_form_m2(n: int) -> QuadratureRule:
    """Order-2 optimal rule: interior h plus geometric boundary layers."""
    return QuadratureRule(GridSpec(2, n), _closed_weights(2, n), RuleMethod.CLOSED_FORM)


def coefficients_via_convolution(m: int, n: int) -> QuadratureRule:
    """Deprecated alias of ``build_rule(m, n, "closed")``."""
    return build_rule(m, n, "closed")


# method -> (orders it accepts, constructor).  The constructors look their
# functions up by module global when called, so wrappers installed on those
# names after import see every call.
_METHODS = {
    "closed": ((1, 2), lambda m, n: closed_form_m1(n) if m == 1 else closed_form_m2(n)),
    "solve": (ORDERS, lambda m, n: solve(assemble_system(m, n))),
    # the closed form where it exists, otherwise the direct solve
    "auto": (ORDERS, lambda m, n: build_rule(m, n, "closed" if m in _METHODS["closed"][0] else "solve")),
}
METHODS = tuple(_METHODS)


def build_rule(m: int, n: int, method: str = "auto") -> QuadratureRule:
    """Construct a rule by method name: closed (m = 1, 2) | solve | auto.

    ``closed`` evaluates the closed forms, ``solve`` the dense bordered
    system, and ``auto`` takes the closed form where it exists.
    Method/order combinations without a construction raise ValueError naming
    the orders the method accepts.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {', '.join(METHODS)}")
    orders, construct = _METHODS[method]
    if m not in orders:
        raise ValueError(f"method {method!r} supports m in {orders}, got m={m}")
    _check_order(m)  # 2.0 passes the test above but is not an order
    return construct(m, n)
