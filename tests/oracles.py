"""Independent reference computations used by the test suite.

Everything here is written directly from the defining expressions, using
mpmath / scipy / numpy machinery rather than the package's own evaluation
paths, so agreement is meaningful.  The exception is the last four
sections: the straightforward loops the package's structured fast paths
and bulk writers replaced, kept as bit-identity references and built on
the package's scalar functions (the dense system's on the 50-digit
kernel above), the windowed convolution of the operator
identities with its own truncation bound and window search, which the
closed-form identity checks replaced, and the order-2 closed form over its
whole power table, built here bottom up, which the package's cut-off
layers replaced.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from optquad import _series
from optquad.core import psi
from optquad.operator import build_operator, characteristic_polynomial, operator_value, stable_roots

DPS = 45


def mp_psi(m: int, x, dps: int = DPS) -> mp.mpf:
    """Kernel from its printed definition: sign(x)/2 (sinh x - odd Taylor head)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(0)
        s = mp.sinh(x)
        for k in range(1, m):
            s -= x ** (2 * k - 1) / mp.factorial(2 * k - 1)
        return mp.sign(x) / 2 * s


def mp_tail(x, p: int, dps: int = DPS) -> mp.mpf:
    """sum_{j>=0} x^(p+2j)/(p+2j)! from its printed form: sinh x (odd p) or cosh x (even p) minus the head."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        whole = mp.sinh(x) if p % 2 else mp.cosh(x)
        return whole - mp.fsum(x**k / mp.factorial(k) for k in range(p % 2, p, 2))


def mp_moment(m: int, t, dps: int = DPS) -> mp.mpf:
    """Kernel moment from its printed exponential form (not the series tail)."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        val = (mp.exp(t) + mp.exp(-t) + mp.exp(1 - t) + mp.exp(t - 1) - 4) / 4
        for k in range(1, m):
            val -= (t ** (2 * k) + (1 - t) ** (2 * k)) / (2 * mp.factorial(2 * k))
        return val


@functools.lru_cache(maxsize=None)
def _mp_norm_tables(m: int, n: int, dps: int) -> tuple:
    # psi(k/n) and f_m(b/n) at the exact offsets and nodes, and
    # I_m = sum_{k>=m} 1/(2k+1)! = sinh 1 minus its first m terms
    with mp.workdps(dps):
        psis = [mp_psi(m, mp.mpf(k) / n, dps) for k in range(n + 1)]
        moments = [mp_moment(m, mp.mpf(b) / n, dps) for b in range(n + 1)]
        im = mp.sinh(1) - mp.fsum(1 / mp.factorial(2 * k + 1) for k in range(m))
        return psis, moments, im


def mp_error_norm_squared(rule, dps: int = 50) -> mp.mpf:
    """Squared error norm of the rule's float weights at the exact nodes i/n, at ``dps`` digits.

    (-1)^m [sum_ij C_i C_j psi((i-j)/n) - 2 sum_i C_i f_m(i/n) + I_m] from
    :func:`mp_psi` and :func:`mp_moment`.  The kernel sum goes through the
    exact integer autocorrelation sum_i c_i c_(i+k) of the weights written
    over one common denominator, so the only roundings are those of the
    dps-digit tables and sums.
    """
    m, n = rule.grid.m, rule.grid.n
    psis, moments, im = _mp_norm_tables(m, n, dps)
    ratios = [Fraction(c) for c in rule.coefficients]
    den = max(r.denominator for r in ratios)
    ints = [r.numerator * (den // r.denominator) for r in ratios]
    with mp.workdps(dps):
        pairs = mp.fsum(2 * sum(map(operator.mul, ints[:-k], ints[k:])) * psis[k]
                        for k in range(1, n + 1)) / mp.mpf(den) ** 2
        lin = mp.fsum(mp.mpf(c) * f for c, f in zip(rule.coefficients, moments))
        return (-1) ** m * (pairs - 2 * lin + im)


@functools.lru_cache(maxsize=None)
def mp_kkt_weights(m: int, n: int, dps: int = 50) -> tuple:
    """Optimal weights C_0..C_n from an mpmath LU solve of the bordered system.

    Rows 0..n: sum_j C_j psi(x_i - x_j) + sum_a P_a x_i^a + d e^(-x_i) = f_m(x_i);
    then sum_j C_j x_j^a = 1/(a+1) for a <= m-2 and sum_j C_j e^(-x_j) = 1 - e^-1.
    Kernel and moments come from :func:`mp_psi` / :func:`mp_moment` with 20
    guard digits, as the kernel's Taylor head cancels digits at small x.
    Returns mpf values at ``dps`` digits.
    """
    with mp.workdps(dps):
        size = n + m + 1
        nodes = [mp.mpf(b) / n for b in range(n + 1)]
        psis = [mp_psi(m, mp.mpf(k) / n, dps + 20) for k in range(n + 1)]
        A = mp.zeros(size, size)
        rhs = mp.zeros(size, 1)
        for i in range(n + 1):
            for j in range(n + 1):
                A[i, j] = psis[abs(i - j)]
            rhs[i] = mp_moment(m, nodes[i], dps + 20)
        for a in range(m - 1):
            for j in range(n + 1):
                A[n + 1 + a, j] = A[j, n + 1 + a] = nodes[j] ** a
            rhs[n + 1 + a] = mp.mpf(1) / (a + 1)
        for j in range(n + 1):
            A[n + m, j] = A[j, n + m] = mp.exp(-nodes[j])
        rhs[n + m] = -mp.expm1(-1)
        x = mp.lu_solve(A, rhs)
        return tuple(x[b] for b in range(n + 1))


def quad_moment(m: int, t: float) -> float:
    """Adaptive integration of psi(m, x - t) over [0, 1], split at the kink."""

    def f(x: float) -> float:
        return float(mp_psi(m, x - t))

    points = [t] if 0.0 < t < 1.0 else None
    val, err = quad(f, 0.0, 1.0, points=points, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-12
    return val


def mp_char_coeffs(m: int, h, dps: int = DPS) -> list[mp.mpf]:
    """Characteristic coefficients, ascending, straight from the defining product."""
    with mp.workdps(dps):
        h = mp.mpf(h)
        E, E2 = mp.exp(h), mp.exp(2 * h)
        if m == 2:
            p = 1 - E2 + 2 * h * E
            p1 = 2 * (E2 - 1) - 2 * h * (E2 + 1)
            return [p, p1, p]
        b0 = h + h**3 / 6
        b1 = -2 * h + 2 * h**3 / 3
        p4 = (1 - E2) + 2 * E * b0
        p3 = -4 * (1 - E2) + 2 * E * b1 - 2 * (E2 + 1) * b0
        p2 = 6 * (1 - E2) + 4 * E * b0 - 2 * (E2 + 1) * b1
        return [p4, p3, p2, p3, p4]


def mp_inner_roots(m: int, h) -> list[float]:
    """All |lambda| < 1 roots by generic polynomial root finding."""
    with mp.workdps(DPS):
        coeffs = mp_char_coeffs(m, h)
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=300, extraprec=160)
        return sorted(float(r.real) for r in roots if abs(r) < 1)


@functools.cache
def mp_stable_roots(m: int, h: float, dps: int = 80) -> tuple[mp.mpf, ...]:
    """The |lambda| < 1 roots to ~dps digits, by generic root finding.

    The printed coefficients cancel to ~h^(2m-1), so they are evaluated with
    (2m-1) * log10(1/h) + 10 digits beyond dps.
    """
    work = dps + int((2 * m - 1) * max(0.0, -math.log10(h))) + 10
    with mp.workdps(work):
        coeffs = mp_char_coeffs(m, h, dps=work)
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=300, extraprec=2 * work)
        return tuple(sorted(r.real for r in roots if abs(r) < 1))


def np_inner_roots(m: int, h: float) -> list[float]:
    coeffs = [float(c) for c in mp_char_coeffs(m, h)]
    roots = np.roots(list(reversed(coeffs)))
    return sorted(float(r.real) for r in roots if abs(r) < 1 and abs(r.imag) < 1e-12)


def panel_double_integral(m: int, panels: int = 24, order: int = 12) -> float:
    """Composite Gauss-Legendre value of the kernel's double integral.

    The kernel is even, so its integral over the unit square is
    2 * int_0^1 (1 - t) psi(t) dt, whose integrand is analytic on [0, 1];
    this sums it over ``panels`` equal panels of ``order`` points each.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    terms = []
    for i in range(panels):
        for xi, wi in zip(x, w):
            t = (i + (xi + 1.0) / 2.0) / panels
            terms.append(wi / (2.0 * panels) * (1.0 - t) * float(mp_psi(m, t)))
    return 2.0 * math.fsum(terms)


def central_difference(f, x: float, k: int) -> float:
    """k-th derivative by central differences (k <= 3), roundoff-aware steps."""
    if k == 0:
        return f(x)
    if k == 1:
        step = 1e-6
        return (f(x + step) - f(x - step)) / (2 * step)
    if k == 2:
        step = 1e-5
        return (f(x + step) - 2 * f(x) + f(x - step)) / step**2
    if k == 3:
        step = 1e-3
        return (f(x + 2 * step) - 2 * f(x + step) + 2 * f(x - step) - f(x - 2 * step)) / (
            2 * step**3
        )
    raise ValueError(k)


def mp_series_reference(name: str, h: float) -> float:
    """Direct high-precision values of the series-stabilised quantities.

    The quartic coefficients cancel through fifth order, so tiny h burns
    ~5*log10(1/h) digits; 130 digits covers the whole test grid.
    """
    with mp.workdps(130):
        hm = mp.mpf(h)
        E, E2 = mp.exp(hm), mp.exp(2 * hm)
        refs = {
            "p_m2": 1 - E2 + 2 * hm * E,
            "p1_m2": 2 * (E2 - 1) - 2 * hm * (E2 + 1),
            "radicand_factor": hm * (E + 1) ** 2 + 2 * (1 - E2),
            "k_num": 2 * E - 2 - hm * E - hm,
            "p4_m3": (1 - E2) + 2 * E * (hm + hm**3 / 6),
            "p3_m3": -4 * (1 - E2) + 2 * E * (-2 * hm + 2 * hm**3 / 3)
            - 2 * (E2 + 1) * (hm + hm**3 / 6),
            "p2_m3": 6 * (1 - E2) + 4 * E * (hm + hm**3 / 6)
            - 2 * (E2 + 1) * (-2 * hm + 2 * hm**3 / 3),
        }
        return float(refs[name])


# --- naive loops: one scalar call per panel point or matrix entry ------------


def fixed_panel_sobolev_norm(f, m: int) -> tuple[float, float]:
    """(value, error estimate) of ||f^(m) + f^(m-1)||_L2 on 256 fixed panels.

    10-point Gauss-Legendre panels, one point at a time; the estimate
    compares them with 128 panels.
    """
    fm = f.derivative(m)
    fm1 = f.derivative(m - 1)
    x, w = np.polynomial.legendre.leggauss(10)

    def integral(panels: int) -> float:
        vals = []
        for i in range(panels):
            a = i / panels
            half = 0.5 / panels
            mid = a + half
            for xg, wg in zip(x, w):
                t = mid + half * xg
                g = fm(t) + fm1(t)
                vals.append(half * wg * g * g)
        return math.fsum(vals)

    coarse = integral(128)
    fine = integral(256)
    norm_sq = max(fine, 0.0)
    value = math.sqrt(norm_sq)
    diff = abs(fine - coarse) + 4.0 * np.finfo(float).eps * (1.0 + norm_sq)
    err = diff / (2.0 * value) if value > 0.0 else math.sqrt(diff)
    return value, float(err)


def naive_assemble_system(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bordered system's matrix and rhs at the exact nodes, one entry at a time.

    Kernel entry (i, j) is the float nearest psi(m, |i - j|/n) and rhs row i
    the float nearest f_m(i/n): :func:`mp_psi` and :func:`mp_moment` at 50
    digits of the exact fraction, rounded once.  The border rows are the
    constraint functions at the float nodes.
    """
    size = n + m + 1
    A = np.zeros((size, size))
    b = np.zeros(size)
    with mp.workdps(50):
        kernel = [float(mp_psi(m, mp.mpf(k) / n, 50)) for k in range(n + 1)]
        for i in range(n + 1):
            for j in range(i + 1):
                A[i, j] = A[j, i] = kernel[i - j]
            b[i] = float(mp_moment(m, mp.mpf(i) / n, 50))
    nodes = naive_nodes(n)
    for row, (_, g, integral) in enumerate(constraint_functions(m), start=n + 1):
        for j in range(n + 1):
            A[row, j] = A[j, row] = g(nodes[j])
        b[row] = integral
    return A, b


# --- windowed convolution: the operator identities summed term by term -----

_TAIL_TARGET = 1e-13  # truncation tail the identity windows must reach


def tail_bound(spec, window: int, growth: float = 1.0) -> float:
    """Bound on sum_{|gamma|>window} |D_m(gamma)| * growth^|gamma|.

    For samples with |g(t)| <= G * growth^|t| the truncation error of
    :func:`per_term_convolution` at offset beta is at most G * growth^|beta|
    times this bound (growth = e^h covers exponential and kernel samples;
    growth slightly above 1 dominates polynomial ones).  Returns inf when a
    tail ratio |lambda| * growth reaches 1: the bilateral sum is
    non-summable.
    """
    if not spec.roots:
        return 0.0
    total = 0.0
    for lam, amp in zip(spec.roots, spec.amplitudes):
        al = abs(float(lam))
        r = al * growth
        if r >= 1.0:
            return math.inf
        total += 2.0 * abs(float(amp / spec.p)) / al * r ** (window + 1) / (1.0 - r)
    return total


def doubling_window_for(spec, tol: float, growth: float = 1.0, cap: int = 200000) -> int:
    """Smallest window with tail_bound <= tol: doubling from 2, clamped at cap, then bisection.

    Raises ValueError for a non-summable tail, and when no window up to cap
    reaches tol.
    """
    if not spec.roots:
        return 1
    if spec.lambda_max * growth >= 1.0:
        raise ValueError("tail is non-summable")
    lo, hi = 1, 2
    while tail_bound(spec, hi, growth) > tol:
        if hi == cap:
            raise ValueError(f"window above {cap} needed")
        hi = min(2 * hi, cap)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(spec, mid, growth) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def per_term_convolution(spec, g, beta: int, window: int):
    """sum_{|gamma|<=window} D_m(gamma) g(beta - gamma), one operator value and sample per term.

    Float64 specs round each product and sum them with math.fsum; extended
    specs form each product exactly and sum with mp.fsum at the spec's digits.
    """
    if spec.dps is None:
        return math.fsum(operator_value(spec, gamma) * g(beta - gamma) for gamma in range(-window, window + 1))
    with mp.workdps(spec.dps):
        return mp.fsum(mp.fmul(operator_value(spec, gamma), g(beta - gamma), exact=True)
                       for gamma in range(-window, window + 1))


def naive_identity_residuals(m: int, h: float, betas, dps: int = 50):
    """The operator identities as windowed sums, rebuilding every D_m(gamma) and sample for each beta.

    The window is the largest of the convergent families' own windows, each
    with a tail bound of _TAIL_TARGET / margin.  Returns (window, residuals,
    bounds): the max |residual| of each family over betas, and the bound on
    its truncation error at that window, which is inf for a family whose
    bilateral sums do not converge (|lambda_max| * e^h >= 1): its windowed
    values do not vanish.
    """
    spec = build_operator(m, h, dps=dps)
    growth = math.exp(h)
    beta_span = max((abs(int(b)) for b in betas), default=0)
    margin = 8.0 * max(1.0, beta_span) ** (2 * m) * math.exp(h * beta_span)
    with mp.workdps(dps):
        hm = mp.mpf(h)
        families = [
            ("exp_growing", lambda j: mp.exp(hm * j), growth),
            ("exp_decaying", lambda j: mp.exp(-hm * j), growth),
            ("delta", lambda j: psi(m, hm * j, dps), growth),
        ]
        for k in range(0, 2 * m - 2):
            families.append((f"monomial_{k}", lambda j, k=k: (hm * j) ** k, 1.1))
        window = max(doubling_window_for(spec, _TAIL_TARGET / margin, growth=gr)
                     for _, _, gr in families if spec.lambda_max * gr < 1.0)
        bounds = {name: margin * tail_bound(spec, window, gr) for name, _, gr in families}
        residuals = {}
        for name, g, _ in families:
            worst = mp.mpf(0)
            for beta in betas:
                val = per_term_convolution(spec, g, beta, window)
                if name == "delta" and beta == 0:
                    val -= 1
                worst = max(worst, abs(val))
            residuals[name] = float(worst)
    return window, residuals, bounds


# --- per-element writers and sums: one call per value ------------------------


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def per_element_json17(obj, indent: int = 0) -> str:
    """Minimal JSON writer with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {per_element_json17(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {per_element_json17(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _f17(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def per_element_document_csv(rule) -> str:
    lines = ["beta,node,coefficient"]
    n = rule.grid.n
    for beta, c in enumerate(rule.coefficients):
        lines.append(f"{beta},{_f17(beta / n)},{_f17(c)}")
    return "\n".join(lines) + "\n"


def naive_nodes(n: int) -> tuple[float, ...]:
    """The grid nodes beta/n, one scalar division each."""
    return tuple(beta / n for beta in range(n + 1))


def constraint_functions(m: int) -> list:
    """The side constraints as scalar functions: (name, g, integral of g over [0, 1]).

    x**a for a = 0..m-2, then math.exp(-x), in the system's row order.
    """
    rows = [(f"monomial_{a}", lambda x, a=a: x**a, 1.0 / (a + 1)) for a in range(m - 1)]
    return rows + [("exp", lambda x: math.exp(-x), -math.expm1(-1.0))]


def naive_apply_rule(rule, f) -> float:
    """Sum C_beta * f(beta/n) with exact (compensated) summation."""
    n = rule.grid.n
    return math.fsum(c * f(beta / n) for beta, c in enumerate(rule.coefficients))


# --- closed weights over the whole power table -------------------------------


def binary_power_table(x, top: int) -> list:
    """x^0 .. x^top, each rounded as right-to-left binary powering rounds it.

    Bottom up: x^b is x^(b - 2^k) * x^(2^k), k the top bit of b, and
    x^(2^k) is the square of x^(2^(k-1)), the last product binary
    powering forms, so each entry equals it bit for bit.
    """
    table = [x ** 0, x]
    for b in range(2, top + 1):
        high = 1 << (b.bit_length() - 1)
        table.append(table[b - high] * table[high] if b > high else table[high >> 1] * table[high >> 1])
    return table


def full_table_closed_weights(n: int, dps: int | None = None) -> list:
    """Order-2 closed weights with every power lambda1^0 .. lambda1^(n+1) tabulated.

    The formula of ``coefficients._closed_weights`` at m = 2, evaluated at
    every interior node, with no cutoff and its powers from
    :func:`binary_power_table`, not from the package.
    """
    ar = _series._arith(dps)
    with ar.context():
        h = ar.num(1) / n
        E, em1 = ar.exp(h), ar.expm1(h)
        lam = stable_roots(characteristic_polynomial(2, h, dps))[0]
        pw = binary_power_table(lam, n + 1)
        K = _series.value("k_num", h, dps) * (lam - 1) / (2 * em1 ** 2 * (lam + pw[n + 1]))
        t = h / em1
        kterm = K * (lam - pw[n])
        a, b = E - lam, 1 - lam * E
        interior = [h + K * (a * pw[beta] + b * pw[n - beta]) for beta in range(1, n)]
        return [1 - t - kterm] + interior + [-1 + E * (t - kterm)]
