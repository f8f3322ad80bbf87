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

import functools
from operator import mul

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


def _power(squares: list, e: int):
    """x^e for e >= 1 by right-to-left binary powering, from squares[k] = x^(2^k).

    The products are those of :func:`_powers`, in the same order, so x^e
    equals its table entry bit for bit, at popcount(e) - 1 products.
    """
    return functools.reduce(mul, [squares[k] for k in range(e.bit_length()) if e >> k & 1])


def _closed_weights(m: int, n: int, dps: int | None = None) -> list:
    """Closed-form weights C_0..C_n for m = 1, 2: float64, or mpmath at ``dps`` digits.

    The spacing is ``num(1) / n``, so an mpmath run sees the exact 1/n
    rather than its float64 rounding.  At m = 2 the work is O(top log n)
    besides the O(n) list, ``top`` being the first power of two at which
    the boundary layers fall below a quarter ulp of h: 32 in float64 and
    128 at 50 digits, or n + 1 if the layers never get that small.
    """
    ar = _series._arith(dps)
    with ar.context():
        h = ar.num(1) / n
        E, em1 = ar.exp(h), ar.expm1(h)
        if m == 1:
            w = em1 / (E + 1)
            return [w] + [2 * w] * (n - 1) + [w]
        lam = stable_roots(characteristic_polynomial(2, h, dps))[0]
        n = int(n)  # a numpy integer has no bit_length
        squares = [lam]  # lam^(2^k), the chain binary powering squares along
        while len(squares) < (n + 1).bit_length():
            squares.append(squares[-1] * squares[-1])
        # nonzero: 0 < |lam| < 1 (stable_roots checks it), so lam * (1 + lam^n) != 0, and em1 > 0
        denom = 2 * em1 ** 2 * (lam + _power(squares, n + 1))
        K = _series.value("k_num", h, dps) * (lam - 1) / denom
        t = h / em1
        kterm = K * (lam - _power(squares, n))
        a, b = E - lam, 1 - lam * E
        scale = 2 * abs(K) * (abs(a) + abs(b))
        # The table lam^0 .. lam^top stops at the first power of two top
        # with h + B == h == h - B, B = scale * |lam^top|, tested on the
        # chain of squares (squares[k] is the table's lam^(2^k), bit for
        # bit), or is whole if no top <= n + 1 passes.  Then each weight
        # with top <= beta <= n - top is h, bit for bit, at any precision
        # that rounds to nearest with unit roundoff u <= 2^-53:
        #  - its correction x = K * (a * lam^beta + b * lam^(n-beta)), as
        #    rounded, is at most B in size.  Binary powering rounds a power
        #    at most 2 * 64 times, so every rounded lam^e, e >= top, is at
        #    most |lam^top| (1 + 2^-43); x rounds three times more, and the
        #    factor 2 in ``scale`` covers these and the rounding of B.  In
        #    float64 a power that underflows errs by under 2^-1067 more,
        #    and B is about h * 2^-60 > 2^-316 (h >= 1e-77).
        #  - rounding to nearest is monotone, so h - B <= h + x <= h + B
        #    gives fl(h - B) <= fl(h + x) <= fl(h + B), and both ends are h.
        # fl(h +- B) == h holds once B is below a quarter ulp of h (not half:
        # below a power-of-two h the spacing halves), which is more than
        # h * u / 4.  |lam| < 2 - sqrt(3) and scale is at most 2.2 h (at
        # n = 1; it tends to 2h), so in float64 (u = 2^-53) |lam|^32 <
        # 2^-60 gives top <= 32 at every n; 50 digits (u = 2^-169) take 128.
        top = next((1 << k for k, p in enumerate(squares) if h + (B := scale * abs(p)) == h == h - B), n + 1)
        pw = _powers(lam, top)

        def power(e):  # past the table, the same bits from the chain
            return pw[e] if e <= top else _power(squares, e)

        def weight(beta):
            return h + K * (a * power(beta) + b * power(n - beta))

        # the layers beta < top and beta > n - top, and the h between them
        interior = [weight(beta) for beta in range(1, min(top, n))] + [h] * max(0, n - 2 * top + 1)
        interior += [weight(beta) for beta in range(max(top, n - top + 1), n)]
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
