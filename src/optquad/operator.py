"""Discrete analogue of d^2m/dx^2m - d^(2m-2)/dx^(2m-2) on the grid.

The operator is a two-sided sequence D_m(beta): three explicit central values
plus geometric tails A_k * lambda_k^(|beta|-1) built from the stable roots
(|lambda| < 1) of a palindromic characteristic polynomial.  Its defining
property is that discrete convolution with the sinh-type kernel yields the
unit impulse; it also annihilates samples of e^(+-x) and, for m >= 2,
polynomials of degree up to 2m-3.

Every formula is written once and evaluated in the precision chosen by
``dps``: float64 by default, with the polynomial coefficients from the
series of :mod:`optquad._series`, or mpmath at ``dps`` digits for
verification-grade convolution checks, where float64 rounding of the large
central values would swamp the identities.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import mpmath as mp

from . import _series
from .core import ConstructionError, ORDERS, ToleranceError


class _Arith(NamedTuple):
    """The operations the formulas need, in one precision."""

    num: Callable
    exp: Callable
    expm1: Callable
    sqrt: Callable
    copysign: Callable
    fsum: Callable
    context: Callable  # () -> context manager that sets the working precision


_FLOAT = _Arith(
    float, math.exp, math.expm1, math.sqrt, math.copysign, math.fsum, contextlib.nullcontext
)


def _arith(dps: int | None) -> _Arith:
    if dps is None:
        return _FLOAT
    return _Arith(
        mp.mpf, mp.exp, mp.expm1, mp.sqrt, lambda x, y: mp.sign(y) * abs(x), mp.fsum,
        lambda: mp.workdps(dps),
    )


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """P(lambda) of degree 2m-2, coefficients ascending (palindromic).

    ``dps`` marks coefficients that are mpmath floats at that precision.
    """

    m: int
    h: float
    coeffs: tuple
    dps: int | None = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, lam):
        val = 0.0 * lam
        for c in reversed(self.coeffs):
            val = val * lam + c
        return val

    def derivative(self, lam):
        val = 0.0 * lam
        for s in range(self.degree, 0, -1):
            val = val * lam + s * self.coeffs[s]
        return val


# _series names of the palindromic coefficients, outer to middle
_HALF_COEFFS = {2: ("p_m2", "p1_m2"), 3: ("p4_m3", "p3_m3", "p2_m3")}


def characteristic_polynomial(m: int, h: float, dps: int | None = None) -> CharacteristicPolynomial:
    """Characteristic polynomial whose stable roots drive the operator tails.

    Defined for m = 2 (quadratic) and m = 3 (quartic, via the degree-2
    Euler-Frobenius polynomial lambda^2 + 4*lambda + 1).  The order-1 operator
    is degenerate, has no polynomial, and is built directly by
    :func:`build_operator`.
    """
    if m == 1:
        raise ValueError("order 1 has no characteristic polynomial; use build_operator")
    if m not in ORDERS:
        raise ValueError(f"order m must be in {ORDERS}, got {m}")
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    half = [_series.value(name, h, dps) for name in _HALF_COEFFS[m]]
    return CharacteristicPolynomial(m, h, tuple(half + half[-2::-1]), dps)


def _stable_quadratic_root(a, b, sqrt_disc, ar: _Arith):
    # roots of a*x^2 + b*x + a with disc = b^2 - 4a^2 >= 0; returns the one
    # inside the unit disk without subtractive cancellation (root product is 1)
    q = -(b + ar.copysign(sqrt_disc, b)) / 2
    return a / q


def _validate_roots(poly: CharacteristicPolynomial, roots) -> list:
    if len(roots) != poly.m - 1:
        raise ConstructionError(
            f"expected {poly.m - 1} roots inside the unit disk, found {len(roots)} (h={poly.h})"
        )
    scale = max(abs(c) for c in poly.coeffs)
    for lam in roots:
        if not abs(lam) < 1:
            raise ConstructionError(f"no root strictly inside the unit disk for h={poly.h}")
        if abs(poly(lam)) > 1e-10 * scale:
            raise ConstructionError(
                f"root residual {float(abs(poly(lam)))} exceeds 1e-10 * max|coeff| (h={poly.h})"
            )
    return roots


def _generic_inner_roots(poly: CharacteristicPolynomial, ar: _Arith) -> list:
    # fallback: generic polynomial rootfinder, real roots inside the unit
    # disk, with 20 digits to spare over extended-precision coefficients
    with mp.workdps(40 if poly.dps is None else max(40, poly.dps + 20)):
        found = mp.polyroots([mp.mpf(c) for c in reversed(poly.coeffs)],
                             maxsteps=200, extraprec=120)
        inner = [r.real for r in found if abs(r) < 1 and abs(r.imag) < 1e-25 * (1 + abs(r))]
    return sorted(ar.num(r) for r in inner)


def stable_roots(poly: CharacteristicPolynomial) -> list:
    """The m-1 real roots with |lambda| < 1, ascending.

    m=2: quadratic with root product 1; the discriminant is evaluated through
    the factored form 4h(e^h-1)^2 * (h(e^h+1)^2 + 2(1-e^(2h))) so small-h
    cancellation cannot corrupt it.  m=3: the palindromic quartic reduces to a
    quadratic in mu = lambda + 1/lambda; each mu gives a reciprocal root pair
    and we keep the inner one.  Candidates failing the residual check against
    the polynomial trigger one retry with a generic rootfinder before the
    construction is declared failed.  Arithmetic runs at the polynomial's
    precision.
    """
    ar = _arith(poly.dps)
    with ar.context():
        try:
            return _validate_roots(poly, _reduced_roots(poly, ar))
        except ConstructionError:
            return _validate_roots(poly, _generic_inner_roots(poly, ar))


def _reduced_roots(poly: CharacteristicPolynomial, ar: _Arith) -> list:
    m, h = poly.m, ar.num(poly.h)
    if m == 2:
        p, p1 = poly.coeffs[2], poly.coeffs[1]
        radicand = h * _series.value("radicand_factor", poly.h, poly.dps)
        sqrt_disc = 2 * ar.expm1(h) * ar.sqrt(radicand)
        return [_stable_quadratic_root(p, p1, sqrt_disc, ar)]
    if m != 3:
        raise ValueError(f"unsupported order {m}")
    p4, p3, p2 = poly.coeffs[4], poly.coeffs[3], poly.coeffs[2]
    # mu^2 * p4 + mu * p3 + (p2 - 2 p4) = 0, mu = lambda + 1/lambda
    disc = p3 * p3 - 4 * p4 * (p2 - 2 * p4)
    if disc <= 0:
        raise ConstructionError(f"non-real root pair for m=3, h={poly.h}")
    qq = -(p3 + ar.copysign(ar.sqrt(disc), p3)) / 2
    roots = []
    for mu in (qq / p4, (p2 - 2 * p4) / qq):
        if abs(mu) <= 2:
            raise ConstructionError(f"|mu| <= 2 gives no real reciprocal pair (h={poly.h})")
        # inner root of lambda^2 - mu*lambda + 1
        roots.append(_stable_quadratic_root(1, -mu, ar.sqrt(mu * mu - 4), ar))
    roots.sort()
    return roots


@dataclass(frozen=True)
class OperatorSpec:
    """Finite center plus geometric tails: all data needed to evaluate D_m.

    ``p`` is the leading polynomial coefficient, ``c_const`` the central
    constant, ``roots``/``amplitudes`` the tail data (empty for m = 1).
    ``exp_h`` caches e^h for the |beta| = 1 branch.  ``dps`` marks specs whose
    values are mpmath floats at that precision.
    """

    m: int
    h: float
    p: object
    c_const: object
    roots: tuple
    amplitudes: tuple
    exp_h: object
    dps: int | None = None

    @property
    def lambda_max(self) -> float:
        return max((abs(float(r)) for r in self.roots), default=0.0)


def build_operator(m: int, h: float, dps: int | None = None) -> OperatorSpec:
    """Construct the order-m discrete operator for spacing h.

    m = 1 is the degenerate case: support {-1, 0, 1} with p = 1 - e^(2h) and
    central constant 1 + e^(2h); this reproduces -2*D(1) - D(0) =
    2(e^h - 1)/(e^h + 1).  For m = 2, 3 the amplitudes follow from the stable
    roots and the derivative of the characteristic polynomial.

    With ``dps`` set, every stored value is an mpmath float computed at that
    many digits; :func:`operator_value` and :func:`convolve` then stay in
    extended precision.  Use this for identity verification at small h, where
    the operator's central values grow like h^(1-2m) and float64 rounding
    alone exceeds tight identity tolerances.
    """
    if m not in ORDERS:
        raise ValueError(f"order m must be in {ORDERS}, got {m}")
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    ar = _arith(dps)
    with ar.context():
        hh = ar.num(h)
        E, E2 = ar.exp(hh), ar.exp(2 * hh)
        if m == 1:
            return OperatorSpec(m, h, -ar.expm1(2 * hh), 1 + E2, (), (), E, dps)
        poly = characteristic_polynomial(m, h, dps=dps)
        roots = stable_roots(poly)
        p_lead, p_sub = poly.coeffs[-1], poly.coeffs[-2]
        c_const = 1 + (2 * m - 2) * E + E2 + E * p_sub / p_lead
        amps = tuple(
            2 * (1 - lam) ** (2 * m - 2) * (lam * (E2 + 1) - E * (lam * lam + 1)) * p_lead
            / (lam * poly.derivative(lam))
            for lam in roots
        )
        return OperatorSpec(m, h, p_lead, c_const, tuple(roots), amps, E, dps)


def operator_value(spec: OperatorSpec, beta: int):
    """D_m at integer offset beta; even in beta."""
    b = abs(beta)
    if b >= 2:
        if not spec.roots:
            return 0.0
        acc = spec.amplitudes[0] * spec.roots[0] ** (b - 1)
        for lam, amp in zip(spec.roots[1:], spec.amplitudes[1:]):
            acc += amp * lam ** (b - 1)
        return acc / spec.p
    if b == 1:
        acc = -2 * spec.exp_h
        for amp in spec.amplitudes:
            acc += amp
        return acc / spec.p
    acc = 2 * spec.c_const
    for lam, amp in zip(spec.roots, spec.amplitudes):
        acc += amp / lam
    return acc / spec.p


def tail_bound(spec: OperatorSpec, window: int, growth: float = 1.0) -> float:
    """Bound on sum_{|gamma|>window} |D_m(gamma)| * growth^|gamma|.

    For callbacks with |g(t)| <= G * growth^|t| the truncation error of
    :func:`convolve` at offset beta is at most G * growth^|beta| times this
    bound (growth = e^h covers exponential and kernel samples; growth
    slightly above 1 dominates polynomial ones).  Returns inf when a tail
    ratio |lambda|*growth reaches 1, i.e. the bilateral sum is non-summable.
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


_MAX_WINDOW = 200000  # largest window window_for searches


def window_for(spec: OperatorSpec, tol: float, growth: float = 1.0) -> int:
    """Smallest window with tail_bound <= tol (never below 1).

    Raises :class:`ToleranceError` when the tail is non-summable at this
    growth rate (|lambda_max| * growth >= 1), i.e. no window can achieve tol,
    or when tol needs a window above 200000.
    """
    if not spec.roots:
        return 1
    if spec.lambda_max * growth >= 1.0:
        raise ToleranceError(
            f"tail is non-summable: |lambda_max| * growth = {spec.lambda_max * growth:.6g} >= 1",
            achievable=math.inf,
        )
    lo, hi = 1, 2
    while tail_bound(spec, hi, growth) > tol:
        hi *= 2
        if hi > _MAX_WINDOW:
            raise ToleranceError(
                f"window above {_MAX_WINDOW} needed for tol {tol:g}",
                achievable=tail_bound(spec, _MAX_WINDOW, growth),
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(spec, mid, growth) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def convolve(
    spec: OperatorSpec,
    g: Callable[[int], object],
    beta: int,
    window: int,
    tail_tol: float | None = None,
    growth: float = 1.0,
) -> object:
    """Windowed discrete convolution sum_{|gamma|<=window} D_m(gamma) g(beta-gamma).

    The truncation error is bounded by tail_bound(spec, window, growth) times
    the callback's growth constant; pass ``tail_tol`` to enforce that
    g-independent factor up front (raises :class:`ToleranceError` with the
    achievable bound if the window is too small).  Summation is exact for
    float inputs and keeps mpmath precision for extended-precision specs.
    """
    if window < 1:
        raise ValueError("window must be a positive integer")
    if tail_tol is not None:
        bound = tail_bound(spec, window, growth)
        if not bound <= tail_tol:
            raise ToleranceError(
                f"window {window} gives tail bound {bound:.3g} > {tail_tol:.3g}",
                achievable=bound,
            )
    # term arithmetic must run at the spec's precision, not the ambient one
    with _arith(spec.dps).context():
        return _windowed_sum(spec, _operator_table(spec, window), g, beta)


def _operator_table(spec: OperatorSpec, window: int) -> list:
    """D_m(gamma) for gamma = -window..window, one evaluation per |gamma|."""
    half = [operator_value(spec, gamma) for gamma in range(window + 1)]
    return half[:0:-1] + half


def _windowed_sum(spec: OperatorSpec, table: list, g: Callable[[int], object], beta: int):
    """sum_gamma D_m(gamma) g(beta - gamma) over the table's offsets, summed exactly."""
    window = len(table) // 2
    terms = (d * g(beta - gamma) for gamma, d in zip(range(-window, window + 1), table))
    return _arith(spec.dps).fsum(terms)


# identity families checked by identity_residuals
_EXP_GROWING = "exp_growing"
_EXP_DECAYING = "exp_decaying"
_DELTA = "delta"


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute residuals of the operator's defining identities.

    Families: exp_growing / exp_decaying (annihilation of e^(+-x) samples),
    monomial_k for k <= 2m-3 (annihilation of polynomial samples), and delta
    (kernel convolution minus the unit impulse).  ``divergent`` lists families
    whose bilateral convolution is non-summable at this (m, h): samples of
    e^(+-x) and of the kernel grow like e^(h|gamma|), so those sums only
    converge when |lambda_max| * e^h < 1.  Their reported residual is the
    windowed value at ``window``, which does not shrink as the window grows.
    """

    m: int
    h: float
    window: int
    residuals: dict[str, float]
    divergent: tuple[str, ...]

    @property
    def max_convergent_residual(self) -> float:
        vals = [v for k, v in self.residuals.items() if k not in self.divergent]
        return max(vals) if vals else 0.0


_IDENTITY_DPS = 50  # working digits of identity_residuals
_WINDOW_FLOOR = 1e-14  # identity_residuals' window reaches |lambda_max|^window <= this


def identity_residuals(
    m: int,
    h: float,
    betas: Sequence[int] = tuple(range(-5, 6)),
    tail_target: float = 1e-13,
) -> IdentityReport:
    """Evaluate the operator identities in mpmath at 50 digits.

    The window is the smallest one with |lambda_max|^window <= 1e-14,
    enlarged where needed so each convergent family's truncation tail is below
    tail_target.  Callbacks are evaluated in mpmath so the residuals reflect
    the identities themselves rather than float64 representation noise.
    The precision and the 1e-14 floor are fixed.

    D_m(gamma) is evaluated once per |gamma| <= window and each family's
    callback once per integer offset in [min(betas) - window,
    max(betas) + window]: O(window + len(betas)) extended-precision
    evaluations per family, O(window * len(betas)) products, and O(window)
    extra memory.
    """
    spec = build_operator(m, h, dps=_IDENTITY_DPS)
    lmax = spec.lambda_max
    w_floor = 1 if lmax == 0.0 else max(1, math.ceil(math.log(_WINDOW_FLOOR) / math.log(lmax)))
    growth = math.exp(h)
    beta_span = max((abs(int(b)) for b in betas), default=0)
    # callback growth constants: exponentials and the kernel carry an extra
    # e^(h |beta|); monomials are dominated by a slow geometric envelope
    margin = 8.0 * max(1.0, beta_span) ** (2 * m) * math.exp(h * beta_span)
    with mp.workdps(_IDENTITY_DPS):
        hm = mp.mpf(h)
        families: list[tuple[str, Callable[[int], object], float]] = [
            (_EXP_GROWING, lambda j: mp.exp(hm * j), growth),
            (_EXP_DECAYING, lambda j: mp.exp(-hm * j), growth),
            (_DELTA, lambda j: _psi_mp(m, hm * j), growth),
        ]
        for k in range(0, 2 * m - 3 + 1):
            families.append((f"monomial_{k}", lambda j, k=k: (hm * j) ** k, 1.1))

        divergent = tuple(
            name for name, _, gr in families if spec.roots and lmax * gr >= 1.0
        )
        window = w_floor
        for name, _, gr in families:
            if name in divergent or not spec.roots:
                continue
            window = max(window, window_for(spec, tail_target / margin, growth=gr))

        # every family shares the D_m table and samples each integer offset
        # once; the sums keep the per-beta order of convolve
        table = _operator_table(spec, window)
        points = range(min(betas, default=0) - window, max(betas, default=0) + window + 1)
        residuals: dict[str, float] = {}
        for name, g, _ in families:
            samples = {j: g(j) for j in points}
            worst = mp.mpf(0)
            for beta in betas:
                val = _windowed_sum(spec, table, samples.__getitem__, beta)
                if name == _DELTA and beta == 0:
                    val -= 1
                worst = max(worst, abs(val))
            residuals[name] = float(worst)
    return IdentityReport(m, float(h), window, residuals, divergent)


def _psi_mp(m: int, x):
    if x == 0:
        return mp.mpf(0)
    s = mp.sinh(x)
    for k in range(1, m):
        s -= x ** (2 * k - 1) / mp.factorial(2 * k - 1)
    return mp.sign(x) / 2 * s
