"""Exact integer arithmetic for the kernel, its moments and its series.

All in Python integers, with no mpmath and no numpy:

- :func:`integer_weights` writes float weights as integers over one common
  power-of-two denominator, exactly;
- :func:`exp_powers` gives q^j and q^-j, j = 0..n, for q = e^(1/n), as
  fixed-point integers, each within 1.01 units of its last place;
- :func:`head_coefficients` puts the Taylor heads x^p/p! at x = k/n over
  one integer scale;
- :func:`grid_tables` gives psi(m, k/n) and f_m(k/n), k = 0..n, each as
  the nearest float and the float nearest the remainder;
- :func:`tail` sums the kernel's series sum_j x^(p+2j)/(p+2j)! at a
  rational x as one integer ratio, and :func:`factorial_tail` gives
  sum_{k>=m} 1/(2k+1)!, its value at x = 1, in fixed point.

On the nodes i/n the kernel's sinh and cosh are q^(+-i) and e^(+-1) is
q^(+-n), so the kernel, the moments and sums over the grid need no
transcendental call beyond these tables.  The error norm and the dense
system take them at the same K = 160 + n.bit_length() bits
(:func:`grid_bits`), so both share one cached table.
"""

from __future__ import annotations

import functools
import math
import threading
from itertools import accumulate, repeat


def integer_weights(values) -> tuple[list[int], int]:
    """Floats as integers c_i over one common power-of-two denominator D: v_i = c_i / D."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [p * (den // d) for p, d in ratios], den


def _exp_inverse_n(n: int, bits: int) -> int:
    # 2^bits e^(1/n), from the Taylor series with each term floored: at most
    # one unit low per term and one for the tail, over t terms (t = 43 at
    # n = 1 and 178 bits, fewer at larger n, under 65 up to 300 bits)
    term = total = 1 << bits
    k = 1
    while term:
        term //= n * k
        total += term
        k += 1
    return total


_CACHED_POWERS = 1 << 18  # powers the table cache keeps, over all its tables: about 16 MiB
_tables: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
_tables_lock = threading.Lock()


def exp_powers(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(up, down): up[j] ~ 2^bits q^j and down[j] ~ 2^bits q^-j, j = 0..n, q = e^(1/n).

    Each power is the previous one times q, one multiply and shift, at
    ``bits + n.bit_length() + 16`` working bits, and is then truncated to
    ``bits``.  With q within t + 2 units (t series terms), the working
    error over the n steps is at most n e (e (t + 2) + 1) units, under
    500 n for bits <= 300, which the guard bits cut below 0.01 unit; with
    the final truncation each entry is within 1.01 units of 2^bits q^(+-j).
    The tables are cached by (n, bits), the least recently used dropped
    first once the cache holds more than 2^18 powers.
    """
    with _tables_lock:
        tables = _tables.pop((n, bits), None) or _exp_powers(n, bits)
        _tables[n, bits] = tables  # the most recently used last
        while sum(2 * len(up) for up, _ in _tables.values()) > _CACHED_POWERS:
            del _tables[next(iter(_tables))]
    return tables


def _exp_powers(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    guard = n.bit_length() + 16
    work = bits + guard
    one = 1 << work
    up = _exp_inverse_n(n, work)
    down = (one << work) // up
    return tuple(
        tuple([p >> guard for p in accumulate(repeat(q, n), lambda p, q: p * q >> work, initial=one)])
        for q in (up, down)
    )


def grid_bits(n: int) -> int:
    """K = 160 + n.bit_length(), the fixed-point bits of the q^(+-j) tables on n intervals."""
    return 160 + n.bit_length()


def head_coefficients(m: int, n: int) -> tuple[int, list[int]]:
    """(S, h): S = n^(2m-2) (2m-2)! and h[p] = S / (n^p p!), p = 0..2m-2, integers.

    So (k/n)^p / p! = k^p h[p] / S for every head term of the kernel
    (odd p <= 2m-3) and of the moments (even p <= 2m-2).
    """
    scale = n ** (2 * m - 2) * math.factorial(2 * m - 2)
    return scale, [scale // (n**p * math.factorial(p)) for p in range(2 * m - 1)]


def grid_tables(m: int, n: int) -> tuple[tuple[list[float], list[float]], tuple[list[float], list[float]]]:
    """((hi, lo) of psi(m, k/n), (hi, lo) of f_m(k/n)), k = 0..n.

    hi is the float nearest the value and lo the float nearest the
    remainder.  With S and h from :func:`head_coefficients` and
    u_k ~ 2^K q^k, d_k ~ 2^K q^-k from :func:`exp_powers`, K =
    :func:`grid_bits`, 4 S 2^K psi(k/n) is the integer
    S (u_k - d_k) - 2^(K+1) sum_{odd p} h[p] k^p and 4 S 2^K f_m(k/n) is
    S (u_k + d_k + u_(n-k) + d_(n-k) - 2^(K+2)) -
    2^(K+1) sum_{even p > 0} h[p] (k^p + (n-k)^p), within 2.02 S and
    4.04 S, so psi is within 0.51 and f_m within 1.01 units of 2^-K.
    Each is divided by S to 2^-(K+66), and hi is its nearest float: the
    float nearest the value unless that lies closer than 0.52 or 1.02
    units of 2^-K to a tie.  f_m(k/n) = f_m((n-k)/n): the moments are
    taken for k <= n/2 and mirrored.
    """
    bits = grid_bits(n)
    up, down = exp_powers(n, bits)
    scale, h = head_coefficients(m, n)
    # 2^(K+1) sum_p h[p] k^p, k = 0..n, over the kernel's odd p and the
    # moments' even p > 0: one list per p, summed element by element
    odd, even = ([sum(terms) for terms in zip(repeat(0, n + 1), *(
        [h[p] * k**p << bits + 1 for k in range(n + 1)] for p in range(first, 2 * m - 1, 2)))]
        for first in (1, 2))
    kernel = [scale * (u - d) - o for u, d, o in zip(up, down, odd)]
    moments = [scale * (up[k] + down[k] + up[n - k] + down[n - k] - (4 << bits)) - even[k] - even[n - k]
               for k in range(n // 2 + 1)]
    kernel, (hi, lo) = _rounded(kernel, scale, bits), _rounded(moments, scale, bits)
    return kernel, (hi + hi[(n - 1) // 2 :: -1], lo + lo[(n - 1) // 2 :: -1])


def _rounded(values: list[int], scale: int, bits: int) -> tuple[list[float], list[float]]:
    # v / (S 2^(K+2)) through w = floor(v 2^64 / S): hi the float nearest
    # w 2^-(K+66) and lo the float nearest the rest of w
    w = [(v << 64) // scale for v in values]
    hi = list(map(float, w))
    return ([math.ldexp(x, -bits - 66) for x in hi],
            [math.ldexp(float(v - int(x)), -bits - 66) for v, x in zip(w, hi)])


def tail(a: int, b: int, p: int, bits: int) -> tuple[int, int]:
    """(num, den) with num / den ~ sum_{j>=0} x^(p+2j)/(p+2j)!, x = a/b, for a >= 0, b > 0.

    The series is summed relative to its first term x^p/p!: term j over
    the first is 2^bits times x^(2j) p!/(p+2j)!, each from the one before
    and floored, until the next would floor to 0.  Every term is positive,
    so nothing cancels at any x, and every floor only lowers the sum: over
    N terms it lies below the series by at most 2N units of 2^-bits,
    relative (at most 0.65 (N + 1) measured for p = 1..7 and x from 2^-60
    to 3000).  N grows like e x at large x, and the integers by about
    1.44 x bits.
    """
    a2, b2 = a * a, b * b
    term = total = 1 << bits
    k = p
    # the next term is this one times x^2/((k+1)(k+2)), floored: summed while it is 1 or more
    while (scaled := term * a2) >= (step := b2 * (k + 1) * (k + 2)):
        term = scaled // step
        total += term
        k += 2
    return a**p * total, b**p * math.factorial(p) << bits


@functools.lru_cache(maxsize=16)
def factorial_tail(m: int, bits: int) -> int:
    """sum_{k>=m} 1/(2k+1)! scaled by 2^bits: :func:`tail` at x = 1, p = 2m + 1, within 60 units."""
    num, den = tail(1, 1, 2 * m + 1, bits)
    return (num << bits) // den
