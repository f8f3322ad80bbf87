"""Cancellation-safe evaluation of small exponential-polynomial combinations.

Every quantity here has the form sum_j c_j * h^(a_j) * e^(b_j * h) with small
integer/rational c_j, a_j, b_j, and vanishes to third or fifth order at h = 0.
Evaluating the printed expression directly loses ~(order * log10(1/h)) digits
to cancellation, which is fatal below h ~ 0.25 for the tolerances used here.

Instead we expand in h with exact rational coefficients,

    coeff of h^k  =  sum_j c_j * b_j^(k - a_j) / (k - a_j)!,

computed as one ratio of exact integers and rounded once to float, and sum
the series by Horner's rule (:func:`_horner`, which also evaluates the
operator's characteristic polynomial at either precision).  Thirty terms
keep every quantity within 3e-16 relative for h in (0, 1.6]; past that the
truncation error grows fast (7.7e-15 at h = 2, 1.4e-12 at h = 2.5), so the
float series is trusted only up to h = 1.5, the bound that
:func:`optquad.operator.characteristic_polynomial` enforces; every grid has
h = 1/n <= 1.  Given ``dps``, :func:`value` instead evaluates the printed
sum in mpmath, for any h > 0, through :func:`extended`.

This module is the package's one precision layer: :func:`_arith` gives the
operations every formula needs in float64 or at ``dps`` digits, and
:func:`extended` is the one rule for the working digits of a cancelling
sum.  :func:`tail_power_sums` gives the geometric power sums
sum_{j >= lo} q^j j^s in closed form, at the caller's precision; the
operator identities are finite sums of them.  For the kernel's integer
series, :func:`ratio` gives any real, an mpmath float included, as an
exact integer ratio, and :func:`quotient` rounds an integer ratio once to
``dps`` digits.  mpmath is imported by the
functions that use it, on the first extended-precision call, so that a
float64 process never loads it.
"""

from __future__ import annotations

import contextlib
import math
from functools import lru_cache, partial
from typing import Callable, NamedTuple

_KMAX = 30
_H_MAX = 1.5  # largest spacing the 30-term float series is trusted at; characteristic_polynomial checks it
# digits kept beyond the order * log10(1/h) that the printed sums cancel; they
# cancel at most 2.2 digits more than that (measured for h in [1e-300, 500])
_GUARD_DIGITS = 5

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
    sqrt: Callable
    copysign: Callable
    ldexp: Callable
    context: Callable  # () -> context manager that sets the working precision


_FLOAT = _Arith(
    float, math.exp, math.expm1, math.sqrt, math.copysign, math.ldexp, contextlib.nullcontext,
)


# built once per precision: building one took about 1.7 us
@lru_cache(maxsize=128)
def _arith(dps: int | None) -> _Arith:
    """Float64 arithmetic for ``dps=None``, otherwise mpmath at ``dps`` digits."""
    if dps is None:
        return _FLOAT
    import mpmath as mp

    return _Arith(
        mp.mpf, mp.exp, mp.expm1, mp.sqrt, lambda x, y: mp.sign(y) * abs(x),
        mp.ldexp, lambda: mp.workdps(dps),
    )


def dot(table, samples):
    """Sum of the products table[i] * samples[i], in mpmath.

    Each product is formed exactly and the sum rounded once, to the
    ambient precision.
    """
    import mpmath as mp

    return mp.fdot(table, samples)


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


def extended(dps: int, lost: float, evaluate: Callable[[_Arith], object]):
    """``evaluate(ar)`` at ``dps + ceil(lost) + _GUARD_DIGITS`` digits, rounded to ``dps``.

    ``lost`` is the number of digits the evaluation can cancel, and ``ar``
    is the mpmath arithmetic at the working digits.
    """
    import mpmath as mp

    ar = _arith(dps + math.ceil(lost) + _GUARD_DIGITS)
    with ar.context():
        total = evaluate(ar)
    return mp.mpf(total, dps=dps)


def cancelled_digits(x, order: int) -> float:
    """order * max(0, -log10 |x|): the digits that a head of order ``order`` cancels at x.

    The float log10 wherever float(x) is nonzero, mpmath's below the float
    range, where float(x) underflows to 0.
    """
    magnitude = abs(float(x))
    if magnitude:
        return order * max(0.0, -math.log10(magnitude))
    import mpmath as mp

    return order * max(0.0, -float(mp.log10(abs(x))))


def value(name: str, h: float, dps: int | None = None):
    """The quantity ``name`` of :data:`_TERMS` at spacing h.

    With ``dps=None``: the float series, accurate for h <= ``_H_MAX``.
    With ``dps``: the printed sum of c * h^a * e^(b*h), an mpmath float good
    to ``dps`` digits.  The sum is taken by :func:`extended`, the digits lost
    being ~(order * log10(1/h)), the order being the power of h the quantity
    vanishes like.
    """
    if dps is None:
        return _horner(_coeffs(name), h)
    order = next(k for k, c in enumerate(_coeffs(name)) if c)
    return extended(dps, cancelled_digits(h, order), partial(_printed_sum, name, h))


def _printed_sum(name: str, h, ar: _Arith):
    # sum of c * h^a * e^(b*h) over _TERMS[name], in ``ar``'s precision
    import mpmath as mp

    hm = ar.num(h)
    exps = (1, ar.exp(hm), ar.exp(2 * hm))
    return mp.fsum(hm**a * exps[b] * c / d for c, d, a, b in _TERMS[name])


def tail_power_sums(q, lo: int, r: int) -> list:
    """S_s = sum_{j >= lo} q^j j^s for s = 0..r, at the ambient precision.

    Shifting the sum by one index gives, for s = 0, 1, ..., r in turn,

        (1 - q) S_s = q^lo lo^s + sum_{t < s} C(s, t) (-1)^(s-t+1) (S_t - q^lo lo^t),

    with 0^0 = 1.  The sums converge for |q| < 1; for |q| > 1 the same
    recurrence gives their analytic continuation, the rational function of
    q that the convergent sums equal.  q = 1 has no value.
    """
    first = q**lo
    sums = []
    for s in range(r + 1):
        acc = first * lo**s
        for t in range(s):
            acc += math.comb(s, t) * (-1) ** (s - t + 1) * (sums[t] - first * lo**t)
        sums.append(acc / (1 - q))
    return sums
