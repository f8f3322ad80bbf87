"""Exact integer arithmetic for sums over the grid's exact nodes i/n.

Three pieces, all in Python integers, with no mpmath and no numpy:

- :func:`integer_weights` writes float weights as integers over one common
  power-of-two denominator, exactly;
- :func:`exp_powers` gives q^j and q^-j, j = 0..n, for q = e^(1/n), as
  fixed-point integers, each within 1.01 units of its last place;
- :func:`factorial_tail` gives sum_{k>=m} 1/(2k+1)! in fixed point.

On the nodes i/n the kernel's sinh and cosh are q^(+-i) and e^(+-1) is
q^(+-n), so a sum over the grid needs no transcendental call beyond these
tables.
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


@functools.lru_cache(maxsize=16)
def factorial_tail(m: int, bits: int) -> int:
    """sum_{k>=m} 1/(2k+1)! scaled by 2^bits, each term floored: within 60 units."""
    total, k = 0, m
    while term := (1 << bits) // math.factorial(2 * k + 1):
        total += term
        k += 1
    return total
