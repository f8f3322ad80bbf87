"""Cancellation-safe evaluation of small exponential-polynomial combinations.

Every quantity here has the form sum_j c_j * h^(a_j) * e^(b_j * h) with small
integer/rational c_j, a_j, b_j, and vanishes to third or fifth order at h = 0.
Evaluating the printed expression directly loses ~(order * log10(1/h)) digits
to cancellation, which is fatal below h ~ 0.25 for the tolerances used here.

Instead we expand in h with exact rational coefficients,

    coeff of h^k  =  sum_j c_j * b_j^(k - a_j) / (k - a_j)!,

computed with Fraction arithmetic and rounded once to float.  Thirty terms
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
operator identities are finite sums of them.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul
from typing import Callable, NamedTuple

import mpmath as mp

_KMAX = 30
_H_MAX = 1.5  # largest spacing the 30-term float series is trusted at; characteristic_polynomial checks it
# digits kept beyond the order * log10(1/h) that the printed sums cancel; they
# cancel at most 2.2 digits more than that (measured for h in [1e-300, 500])
_GUARD_DIGITS = 5

# (coefficient, power of h, exponential multiple) triples for each quantity
_TERMS = {
    # 1 - e^(2h) + 2h e^h ... leading term -h^3/3  (quadratic's outer coefficients)
    "p_m2": ((1, 0, 0), (-1, 0, 2), (2, 1, 1)),
    # 2(e^(2h) - 1) - 2h(e^(2h) + 1) ... -4h^3/3   (quadratic's middle coefficient)
    "p1_m2": ((2, 0, 2), (-2, 0, 0), (-2, 1, 2), (-2, 1, 0)),
    # h(e^h + 1)^2 + 2(1 - e^(2h)) ... h^3/3       (discriminant factor)
    "radicand_factor": ((1, 1, 2), (2, 1, 1), (1, 1, 0), (-2, 0, 2), (2, 0, 0)),
    # 2e^h - 2 - h e^h - h ... -h^3/6              (boundary-constant numerator)
    "k_num": ((2, 0, 1), (-2, 0, 0), (-1, 1, 1), (-1, 1, 0)),
    # quartic coefficients: leading, subleading, middle; leading terms multiples of h^5
    "p4_m3": ((1, 0, 0), (-1, 0, 2), (2, 1, 1), (Fraction(1, 3), 3, 1)),
    "p3_m3": (
        (-4, 0, 0), (4, 0, 2), (-4, 1, 1), (Fraction(4, 3), 3, 1),
        (-2, 1, 2), (-2, 1, 0), (Fraction(-1, 3), 3, 2), (Fraction(-1, 3), 3, 0),
    ),
    "p2_m3": (
        (6, 0, 0), (-6, 0, 2), (4, 1, 1), (Fraction(2, 3), 3, 1),
        (4, 1, 2), (4, 1, 0), (Fraction(-4, 3), 3, 2), (Fraction(-4, 3), 3, 0),
    ),
}


@lru_cache(maxsize=None)
def _coeffs(name: str) -> tuple[float, ...]:
    out = []
    for k in range(_KMAX + 1):
        c = Fraction(0)
        for coef, a, b in _TERMS[name]:
            if k >= a:
                c += Fraction(coef) * Fraction(b) ** (k - a) / math.factorial(k - a)
        out.append(float(c))
    return tuple(out)


class _Arith(NamedTuple):
    """The operations the formulas need, in one precision."""

    num: Callable
    exp: Callable
    expm1: Callable
    sinh: Callable
    cosh: Callable
    sqrt: Callable
    copysign: Callable
    ldexp: Callable
    # (table, samples) -> sum of the products, summed exactly and rounded
    # once; float64 rounds each product, the extended path forms each exactly
    dot: Callable
    context: Callable  # () -> context manager that sets the working precision


def _float_dot(table, samples):
    return math.fsum(map(mul, table, samples))


_FLOAT = _Arith(
    float, math.exp, math.expm1, math.sinh, math.cosh, math.sqrt, math.copysign, math.ldexp,
    _float_dot, contextlib.nullcontext,
)


# built once per precision: an extended kernel sample asks for two, and
# building one took about 1.7 us
@lru_cache(maxsize=128)
def _arith(dps: int | None) -> _Arith:
    """Float64 arithmetic for ``dps=None``, otherwise mpmath at ``dps`` digits."""
    if dps is None:
        return _FLOAT
    return _Arith(
        mp.mpf, mp.exp, mp.expm1, mp.sinh, mp.cosh, mp.sqrt, lambda x, y: mp.sign(y) * abs(x),
        mp.ldexp, mp.fdot, lambda: mp.workdps(dps),
    )


def extended(dps: int, lost: float, evaluate: Callable[[_Arith], object]):
    """``evaluate(ar)`` at ``dps + ceil(lost) + _GUARD_DIGITS`` digits, rounded to ``dps``.

    ``lost`` is the number of digits the evaluation can cancel, and ``ar``
    is the mpmath arithmetic at the working digits.
    """
    ar = _arith(dps + math.ceil(lost) + _GUARD_DIGITS)
    with ar.context():
        total = evaluate(ar)
    return mp.mpf(total, dps=dps)


def value(name: str, h: float, dps: int | None = None):
    """The quantity ``name`` of :data:`_TERMS` at spacing h.

    With ``dps=None``: the float series, accurate for h <= ``_H_MAX``.
    With ``dps``: the printed sum of c * h^a * e^(b*h), an mpmath float good
    to ``dps`` digits.  The sum is taken by :func:`extended`, the digits lost
    being ~(order * log10(1/h)), the order being the power of h the quantity
    vanishes like.
    """
    if dps is None:
        coeffs = _coeffs(name)
        val = 0.0
        for k in range(_KMAX, -1, -1):
            val = val * h + coeffs[k]
        return val
    order = next(k for k, c in enumerate(_coeffs(name)) if c)
    return extended(dps, order * max(0.0, -math.log10(h)), partial(_printed_sum, name, h))


def _printed_sum(name: str, h, ar: _Arith):
    # sum of c * h^a * e^(b*h) over _TERMS[name], in ``ar``'s precision
    hm = ar.num(h)
    exps = (1, ar.exp(hm), ar.exp(2 * hm))
    return mp.fsum(hm**a * exps[b] * c.numerator / c.denominator for c, a, b in _TERMS[name])


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
