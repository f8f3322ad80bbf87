"""Extended-precision references for the benchmark, written from the kernel
definition alone.  Nothing here imports optquad, so agreement with the
program's outputs is an independent check.

The kernel is psi_m(x) = sign(x)/2 * (sinh x - sum_{k<m} x^(2k-1)/(2k-1)!),
its moment f_m(t) is the integral of psi_m(x - t) over x in [0, 1], and the
squared worst-case error of weights C on the grid x_b = b/n is the quadratic
form (-1)^m [sum C_i C_j psi_m(x_i - x_j) - 2 sum C_i f_m(x_i) + I_m].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

import mpmath as mp

DPS = 50


def psi(m: int, x):
    """Kernel at x, evaluated from its printed definition at the ambient precision."""
    ax = abs(mp.mpf(x))
    if ax == 0:
        return mp.mpf(0)
    s = mp.sinh(ax)
    for k in range(1, m):
        s -= ax ** (2 * k - 1) / mp.factorial(2 * k - 1)
    return s / 2


def _sinh_antiderivative(m: int, a):
    # integral of (sinh s - odd Taylor head) over s in [0, a]
    val = mp.cosh(a) - 1
    for k in range(1, m):
        val -= a ** (2 * k) / mp.factorial(2 * k)
    return val


def moment(m: int, t):
    """f_m(t) for t in [0, 1]: the kernel integrated over [0, 1] against x - t.

    The even kernel splits at x = t into two integrals of the odd bracket
    from 0 to t and from 0 to 1 - t.
    """
    t = mp.mpf(t)
    return (_sinh_antiderivative(m, t) + _sinh_antiderivative(m, 1 - t)) / 2


def double_integral(m: int):
    """I_m = integral of f_m over [0, 1] = sum_{k>=m} 1/(2k+1)!, summed until it stalls."""
    total = mp.mpf(0)
    k = m
    while True:
        term = 1 / mp.factorial(2 * k + 1)
        if total + term == total:
            return total
        total += term
        k += 1


@lru_cache(maxsize=None)
def kernel_table(m: int, n: int) -> tuple:
    """psi_m(k/n) for k = 0..n and f_m(b/n) for b = 0..n, at DPS digits."""
    with mp.workdps(DPS):
        psis = tuple(psi(m, mp.mpf(k) / n) for k in range(n + 1))
        moments = tuple(moment(m, mp.mpf(b) / n) for b in range(n + 1))
        return psis, moments, double_integral(m)


@lru_cache(maxsize=None)
def kkt_weights(m: int, n: int, dps: int = DPS) -> tuple:
    """Optimal weights from an mpmath LU solve of the bordered optimality system.

    Rows 0..n: sum_j C_j psi(x_i - x_j) + sum_a P_a x_i^a + d e^(-x_i) = f_m(x_i).
    Constraint rows: sum_j C_j x_j^a = 1/(a+1) for a <= m-2 and
    sum_j C_j e^(-x_j) = 1 - e^-1.  Returns C_0..C_n as mpf values.
    """
    with mp.workdps(dps):
        size = n + m + 1
        nodes = [mp.mpf(b) / n for b in range(n + 1)]
        psis = [psi(m, mp.mpf(k) / n) for k in range(n + 1)]
        A = mp.zeros(size, size)
        rhs = mp.zeros(size, 1)
        for i in range(n + 1):
            for j in range(n + 1):
                A[i, j] = psis[abs(i - j)]
            rhs[i] = moment(m, nodes[i])
        for a in range(m - 1):
            for j in range(n + 1):
                A[n + 1 + a, j] = A[j, n + 1 + a] = nodes[j] ** a
            rhs[n + 1 + a] = mp.mpf(1) / (a + 1)
        for j in range(n + 1):
            A[n + m, j] = A[j, n + m] = mp.exp(-nodes[j])
        rhs[n + m] = 1 - mp.exp(-1)
        x = mp.lu_solve(A, rhs)
        return tuple(x[b] for b in range(n + 1))


def closed_weights_m1(n: int, dps: int = DPS) -> tuple:
    """Order-1 optimal weights (e^h-1)/(e^h+1) at the ends, twice that inside."""
    with mp.workdps(dps):
        h = mp.mpf(1) / n
        w = mp.expm1(h) / (mp.exp(h) + 1)
        return (w,) + (2 * w,) * (n - 1) + (w,)


def _exact_integers(values) -> tuple[list[int], int]:
    """Floats as integers over one common power-of-two denominator, exactly."""
    ratios = [Fraction(v) for v in values]
    den = max(r.denominator for r in ratios)
    return [r.numerator * (den // r.denominator) for r in ratios], den


def quadratic_form(m: int, weights) -> mp.mpf:
    """Squared error norm of float weights on the grid of len(weights) - 1 intervals.

    The kernel sum is taken through the exact integer autocorrelation of the
    weights, so the only rounding is that of the DPS-digit kernel table.
    """
    n = len(weights) - 1
    psis, moments, im = kernel_table(m, n)
    ints, den = _exact_integers(weights)
    with mp.workdps(DPS):
        quad = mp.fsum(
            2 * mp.mpf(sum(map(mul, ints[:-k], ints[k:]))) * psis[k] for k in range(1, n + 1)
        ) / (mp.mpf(den) ** 2)
        lin = mp.fsum(mp.mpf(c) * f for c, f in zip(weights, moments))
        return (-1) ** m * (quad - 2 * lin + im)


def exactness_residuals(m: int, weights) -> dict[str, mp.mpf]:
    """|sum C_b g(x_b) - integral g| for g = e^(-x) and x^a, a <= m-2.

    ``weights`` may be floats or decimal strings; the sums run at 40 digits,
    with e^(-b/n) built as powers of e^(-1/n).
    """
    n = len(weights) - 1
    with mp.workdps(40):
        cs = [mp.mpf(c) for c in weights]
        q = mp.exp(mp.mpf(-1) / n)
        powers = [mp.mpf(1)]
        for _ in range(n):
            powers.append(powers[-1] * q)
        out = {"exp": abs(mp.fdot(cs, powers) + mp.expm1(-1))}
        for a in range(m - 1):
            total = mp.fsum(c * (mp.mpf(b) / n) ** a for b, c in enumerate(cs))
            out[f"monomial_{a}"] = abs(total - mp.mpf(1) / (a + 1))
        return out


# built-in integrands of optquad by name: (f, integral over [0, 1])
INTEGRANDS = {
    "exp-neg": (lambda x: mp.exp(-x), lambda: -mp.expm1(-1)),
    "one": (lambda x: mp.mpf(1), lambda: mp.mpf(1)),
    "x": (lambda x: x, lambda: mp.mpf(1) / 2),
    "x2": (lambda x: x * x, lambda: mp.mpf(1) / 3),
    "sin": (mp.sin, lambda: 1 - mp.cos(1)),
    "exp": (mp.exp, lambda: mp.expm1(1)),
    "runge": (lambda x: 1 / (1 + 25 * x * x), lambda: mp.atan(5) / 5),
}


def exact_integral(name: str):
    """Integral over [0, 1] of a built-in integrand, at DPS digits."""
    with mp.workdps(DPS):
        return +INTEGRANDS[name][1]()


def rule_value(name: str, weights):
    """sum C_b f(b/n) for a built-in integrand, at DPS digits."""
    f = INTEGRANDS[name][0]
    n = len(weights) - 1
    with mp.workdps(DPS):
        return mp.fsum(mp.mpf(c) * f(mp.mpf(b) / n) for b, c in enumerate(weights))


def admissible(m: int, weights) -> list[float]:
    """Nearest weights (least squares) that meet the exactness constraints.

    Trapezoid and Simpson weights do not integrate e^(-x) exactly, so their
    worst-case error in this space is unbounded and the quadratic form of
    their raw weights is not a norm; this correction makes them comparable
    with the optimal rule.  Returned as floats, the constraints then hold
    to rounding.
    """
    n = len(weights) - 1
    with mp.workdps(DPS):
        nodes = [mp.mpf(b) / n for b in range(n + 1)]
        rows = [[x**a for x in nodes] for a in range(m - 1)] + [[mp.exp(-x) for x in nodes]]
        targets = [mp.mpf(1) / (a + 1) for a in range(m - 1)] + [-mp.expm1(-1)]
        cs = [mp.mpf(c) for c in weights]
        gap = mp.matrix([t - mp.fdot(row, cs) for row, t in zip(rows, targets)])
        gram = mp.matrix([[mp.fdot(r1, r2) for r2 in rows] for r1 in rows])
        y = mp.lu_solve(gram, gap)
        return [
            float(c + mp.fsum(y[k] * rows[k][b] for k in range(len(rows))))
            for b, c in enumerate(cs)
        ]


def digits(value, reference) -> float:
    """Correct significant digits of value against reference, capped at 16."""
    with mp.workdps(DPS):
        err = abs(mp.mpf(value) - reference)
        scale = abs(reference)
        if err == 0:
            return 16.0
        if scale == 0:
            return 0.0
        return float(min(16, -mp.log10(err / scale)))


def vector_digits(values, references) -> float:
    """Normwise digits: max |value - reference| over max |reference|."""
    with mp.workdps(DPS):
        err = max(abs(mp.mpf(v) - r) for v, r in zip(values, references))
        scale = max(abs(r) for r in references)
        if err == 0:
            return 16.0
        return float(min(16, -mp.log10(err / scale)))
