"""Cancellation-safe evaluation of small exponential-polynomial combinations.

Every quantity here has the form sum_j c_j * h^(a_j) * e^(b_j * h) with small
integer/rational c_j, a_j, b_j, and vanishes to third or fifth order at h = 0.
Evaluating the printed expression directly loses ~(order * log10(1/h)) digits
to cancellation, which is fatal below h ~ 0.25 for the tolerances used here.

In float64 we instead expand in h with exact rational coefficients,

    coeff of h^k  =  sum_j c_j * b_j^(k - a_j) / (k - a_j)!,

computed as one ratio of exact integers and rounded once to float, and sum
the series by Horner's rule (:func:`_horner`, which also evaluates the
operator's characteristic polynomial at either precision).  Thirty terms
keep every quantity within 3e-16 relative for h in (0, 1.6]; past that the
truncation error grows fast (7.7e-15 at h = 2, 1.4e-12 at h = 2.5), so the
float series is trusted only up to h = 1.5, the bound that
:func:`optquad.operator.characteristic_polynomial` enforces; every grid has
h = 1/n <= 1.

At any other precision the printed sum itself is taken in Python
integers: :func:`fixed` sums it at the exact rational h over 2^bits, with
e^h from :func:`optquad._exact.exp_fixed`, and :func:`working_bits`
covers the order * log2(1/h) bits that the sum cancels.  :func:`value` rounds that integer
once to ``dps`` digits, for any h > 0, and so does
:mod:`optquad.operator` with the operator it builds from these sums.

This module is the package's one precision layer: :func:`_arith` gives the
operations the float64 and mpmath formulas need, :func:`ratio` gives any
real, an mpmath float included, as an exact integer ratio, :func:`quotient`
rounds an integer ratio once to ``dps`` digits, :func:`dps_bits` is the
one rule for the fixed-point bits behind ``dps`` digits, and
:func:`working_bits` the one rule for the guard bits beyond them.  mpmath is imported
by the functions that use it, on the first extended-precision call, so that
a float64 process never loads it.
"""

from __future__ import annotations

import contextlib
import math
from functools import lru_cache
from typing import Callable, NamedTuple

from . import _exact

_KMAX = 30
_H_MAX = 1.5  # largest spacing the 30-term float series is trusted at; characteristic_polynomial checks it

# (numerator, denominator, power of h, exponential multiple) of each term of
# each quantity: the coefficients are integers and thirds
_TERMS = {
    # 1 - e^(2h) + 2h e^h ... leading term -h^3/3  (quadratic's outer coefficients)
    "p_m2": ((1, 1, 0, 0), (-1, 1, 0, 2), (2, 1, 1, 1)),
    # 2(e^(2h) - 1) - 2h(e^(2h) + 1) ... -4h^3/3   (quadratic's middle coefficient)
    "p1_m2": ((2, 1, 0, 2), (-2, 1, 0, 0), (-2, 1, 1, 2), (-2, 1, 1, 0)),
    # h(e^h + 1)^2 + 2(1 - e^(2h)) ... h^3/3       (discriminant factor)
    "radicand_factor": ((1, 1, 1, 2), (2, 1, 1, 1), (1, 1, 1, 0), (-2, 1, 0, 2), (2, 1, 0, 0)),
    # 2e^h - 2 - h e^h - h ... -h^3/6              (boundary-constant numerator)
    "k_num": ((2, 1, 0, 1), (-2, 1, 0, 0), (-1, 1, 1, 1), (-1, 1, 1, 0)),
    # quartic coefficients: leading, subleading, middle; leading terms multiples of h^5
    "p4_m3": ((1, 1, 0, 0), (-1, 1, 0, 2), (2, 1, 1, 1), (1, 3, 3, 1)),
    "p3_m3": (
        (-4, 1, 0, 0), (4, 1, 0, 2), (-4, 1, 1, 1), (4, 3, 3, 1),
        (-2, 1, 1, 2), (-2, 1, 1, 0), (-1, 3, 3, 2), (-1, 3, 3, 0),
    ),
    "p2_m3": (
        (6, 1, 0, 0), (-6, 1, 0, 2), (4, 1, 1, 1), (2, 3, 3, 1),
        (4, 1, 1, 2), (4, 1, 1, 0), (-4, 3, 3, 2), (-4, 3, 3, 0),
    ),
}


@lru_cache(maxsize=None)
def _coeffs(name: str) -> tuple[float, ...]:
    # den * k! times the coefficient of h^k is the integer sum of
    # (c * den / d) * b^(k - a) * k! / (k - a)!; int / int rounds it once, correctly
    den = math.lcm(*(d for _, d, _, _ in _TERMS[name]))
    return tuple(
        sum(c * (den // d) * b ** (k - a) * math.perm(k, a)
            for c, d, a, b in _TERMS[name] if k >= a) / (den * math.factorial(k))
        for k in range(_KMAX + 1)
    )


class _Arith(NamedTuple):
    """The operations the formulas need, in one precision."""

    num: Callable
    exp: Callable
    expm1: Callable
    context: Callable  # () -> context manager that sets the working precision


_FLOAT = _Arith(float, math.exp, math.expm1, contextlib.nullcontext)


# built once per precision: building one took about 1.7 us
@lru_cache(maxsize=128)
def _arith(dps: int | None) -> _Arith:
    """Float64 arithmetic for ``dps=None``, otherwise mpmath at ``dps`` digits."""
    if dps is None:
        return _FLOAT
    import mpmath as mp

    return _Arith(mp.mpf, mp.exp, mp.expm1, lambda: mp.workdps(dps))


def ratio(x) -> tuple[int, int]:
    """|x| as an exact integer ratio (a, b), b > 0: an mpmath float from its mantissa and exponent."""
    if hasattr(x, "_mpf_"):
        _, man, exp, _ = x._mpf_
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    a, b = x.as_integer_ratio()
    return abs(a), b


def quotient(num: int, den: int, dps: int):
    """The mpmath float nearest num / den at ``dps`` digits, rounded once."""
    import mpmath as mp

    return mp.fdiv(num, den, dps=dps)


def _horner(coeffs, x):
    # sum_s coeffs[s] x^s, coefficients ascending, at the ambient precision
    val = 0.0 * x
    for c in reversed(coeffs):
        val = val * x + c
    return val


def dps_bits(dps: int) -> int:
    """ceil(3.33 dps) + 20: the fixed-point bits behind a value rounded to ``dps`` digits."""
    return math.ceil(3.33 * dps) + 20


def working_bits(order: int, num: int, den: int, bits: int, growth: int = 0) -> int:
    """The fixed-point bits that keep ``bits`` bits of a value at h = num/den.

    The one rule for the guard bits of these sums: order * log2(1/h) bits
    cover a printed sum that cancels to h^order, growth * h / ln 2 bits a
    value used against terms up to e^(growth h) larger than it, and 32
    bits the rest: the coefficients, as small as 1/60, and what the sums
    cancel beyond order * log2(1/h), measured at most 2.2 digits for h in
    [1e-300, 500].
    """
    small = order * max(0, den.bit_length() - num.bit_length() + 1)
    large = -(-growth * num * 1_442_695_041 // (10**9 * den))  # 1.442695041 > 1/ln 2; exact at any h
    return bits + small + large + 32


def basis(num: int, den: int, bits: int) -> tuple[list[int], tuple[int, int, int]]:
    """(h^a for a = 0..3, e^(b h) for b = 0..2) at h = num/den, each an integer over 2^bits, floored."""
    one = 1 << bits
    e = _exact.exp_fixed(num, den, bits)
    return [(num**a << bits) // den**a for a in range(4)], (one, e, e * e >> bits)


def fixed(name: str, powers, exps, bits: int) -> int:
    """The quantity ``name`` of :data:`_TERMS` over 2^bits, from :func:`basis`'s ``powers`` and ``exps``.

    The terms are summed over one common denominator and floored once;
    each is within a few units, so the sum is too, and it keeps
    bits - order * log2(1/h) bits of its own, ``order`` being the power of
    h it vanishes like.
    """
    den = math.lcm(*(d for _, d, _, _ in _TERMS[name]))
    total = sum(c * (den // d) * powers[a] * exps[b] for c, d, a, b in _TERMS[name])
    return total // (den << bits)


def value(name: str, h: float, dps: int | None = None):
    """The quantity ``name`` of :data:`_TERMS` at spacing h.

    With ``dps=None``: the float series, accurate for h <= ``_H_MAX``.
    With ``dps``: an mpmath float good to ``dps`` digits at any h > 0, the
    printed sum of c * h^a * e^(b*h) at the exact value of h, summed by
    :func:`fixed` with :func:`working_bits` beyond :func:`dps_bits` and
    rounded once.
    """
    if dps is None:
        return _horner(_coeffs(name), h)
    num, den = ratio(h)
    order = next(k for k, c in enumerate(_coeffs(name)) if c)
    bits = working_bits(order, num, den, dps_bits(dps))
    return quotient(fixed(name, *basis(num, den, bits), bits), 1 << bits, dps)
