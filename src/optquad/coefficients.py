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


def _layer_top(h, scale, power, n: int) -> int:
    """The first power of two ``top`` <= n + 1 past which the boundary layers round away.

    ``top`` is the first with h + B == h == h - B, B = scale * |lam^top|,
    ``power(e)`` giving lam^e; if no top <= n + 1 passes it is n + 1.
    """
    # Then each weight with top <= beta <= n - top is h, bit for bit, at
    # any precision that rounds to nearest with unit roundoff u <= 2^-53:
    #  - its correction x = K * (a * lam^beta + b * lam^(n-beta)), as
    #    rounded, is at most B in size.  Binary powering rounds a power at
    #    most 2 * 64 times, so every rounded lam^e, e >= top, is at most
    #    |lam^top| (1 + 2^-43); x rounds three times more, and the factor 2
    #    in ``scale`` covers these and the rounding of B.  In float64 a
    #    power that underflows errs by under 2^-1067 more, and B is about
    #    h * 2^-60 > 2^-316 (h >= 1e-77).
    #  - rounding to nearest is monotone, so h - B <= h + x <= h + B gives
    #    fl(h - B) <= fl(h + x) <= fl(h + B), and both ends are h.
    # fl(h +- B) == h holds once B is below a quarter ulp of h (not half:
    # below a power-of-two h the spacing halves), which is more than
    # h * u / 4.  |lam| < 2 - sqrt(3) and scale is at most 2.2 h (at n = 1;
    # it tends to 2h), so in float64 (u = 2^-53) |lam|^32 < 2^-60 gives
    # top <= 32 at every n; 50 digits (u = 2^-169) take 128.
    powers_of_two = (1 << k for k in range((n + 1).bit_length()))
    return next((e for e in powers_of_two if h + (B := scale * abs(power(e))) == h == h - B), n + 1)


def _closed_weights(m: int, n: int, dps: int | None = None) -> list:
    """Closed-form weights C_0..C_n for m = 1, 2: float64, or mpmath at ``dps`` digits.

    The spacing is ``num(1) / n``, so an mpmath run sees the exact 1/n
    rather than its float64 rounding.  At m = 2 each power lam^e is
    rounded as right-to-left binary powering rounds it and formed once, at
    one product; the weights past :func:`_layer_top`'s ``top`` are h.  The
    work is O(top log n) besides the O(n) list, ``top`` being 32 in
    float64 and 128 at 50 digits, or n + 1 if the layers never get that
    small.
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

        @functools.cache
        def power(e):
            # lam^e for e >= 1: lam^(e - 2^k) * lam^(2^k), 2^k the top bit
            # of e, and lam^(2^k) the square of lam^(2^(k-1)), the products
            # of binary powering in its order
            high = 1 << (e.bit_length() - 1)
            if e > high:
                return power(e - high) * power(high)
            return power(high >> 1) * power(high >> 1) if e > 1 else lam

        # nonzero: 0 < |lam| < 1 (stable_roots checks it), so lam * (1 + lam^n) != 0, and em1 > 0
        denom = 2 * em1 ** 2 * (lam + power(n + 1))
        K = _series.value("k_num", h, dps) * (lam - 1) / denom
        t = h / em1
        kterm = K * (lam - power(n))
        a, b = E - lam, 1 - lam * E
        top = _layer_top(h, 2 * abs(K) * (abs(a) + abs(b)), power, n)

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
