"""Discrete analogue of d^2m/dx^2m - d^(2m-2)/dx^(2m-2) on the grid.

The operator is a two-sided sequence D_m(beta): three explicit central values
plus geometric tails A_k * lambda_k^(|beta|-1) built from the stable roots
(|lambda| < 1) of a palindromic characteristic polynomial.  Its defining
property is that discrete convolution with the sinh-type kernel yields the
unit impulse; it also annihilates samples of e^(+-x) and, for m >= 2,
polynomials of degree up to 2m-3.

Every formula is written once and evaluated in the precision chosen by
``dps``, with the arithmetic of :mod:`optquad._series`: float64 by
default, with the polynomial coefficients from its series, or mpmath at
``dps`` digits for verification-grade convolution checks, where float64
rounding of the large central values would swamp the identities.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

from . import _series
from ._series import _Arith, _arith
from .core import ConstructionError, ToleranceError, _check_order, psi


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """P(lambda) of degree 2m-2, coefficients ascending (palindromic).

    ``dps`` marks mpmath coefficients at that precision; evaluation runs at it.
    """

    m: int
    h: float
    coeffs: tuple
    dps: int | None = None

    def __call__(self, lam):
        with _arith(self.dps).context():
            val = 0.0 * lam
            for c in reversed(self.coeffs):
                val = val * lam + c
            return val

    def derivative(self, lam):
        with _arith(self.dps).context():
            val = 0.0 * lam
            for s in range(len(self.coeffs) - 1, 0, -1):
                val = val * lam + s * self.coeffs[s]
            return val


# _series names of the palindromic coefficients, outer to middle
_HALF_COEFFS = {2: ("p_m2", "p1_m2"), 3: ("p4_m3", "p3_m3", "p2_m3")}

# smallest float64 spacing at which the roots keep full accuracy (2e-15
# relative): below it h * radicand_factor (m = 2) or p3^2 (m = 3) is
# subnormal, and at 2.5e-79 / 4.2e-32 the roots no longer validate
_FLOAT_H_MIN = {2: 1e-77, 3: 2e-31}


def characteristic_polynomial(m: int, h: float, dps: int | None = None) -> CharacteristicPolynomial:
    """Characteristic polynomial whose stable roots drive the operator tails.

    Defined for m = 2 (quadratic) and m = 3 (quartic, via the degree-2
    Euler-Frobenius polynomial lambda^2 + 4*lambda + 1).  The order-1 operator
    is degenerate, has no polynomial, and is built directly by
    :func:`build_operator`.  Float64 accepts h in [1e-77, 1.5] (m = 2) or
    [2e-31, 1.5] (m = 3), where the roots keep 2e-15 relative accuracy;
    other h raise ValueError asking for ``dps``, which accepts every h > 0.
    """
    if m == 1:
        raise ValueError("order 1 has no characteristic polynomial; use build_operator")
    _check_order(m)
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    if dps is None and not _FLOAT_H_MIN[m] <= h <= _series._H_MAX:
        side = "below" if h < _FLOAT_H_MIN[m] else "above"
        raise ValueError(f"h={h} is {side} the float64 domain [{_FLOAT_H_MIN[m]:g}, {_series._H_MAX:g}]"
                         f" of order {m}; pass dps= to characteristic_polynomial or build_operator")
    half = [_series.value(name, h, dps) for name in _HALF_COEFFS[m]]
    return CharacteristicPolynomial(m, h, tuple(half + half[-2::-1]), dps)


def _stable_quadratic_root(a, b, sqrt_disc, ar: _Arith):
    # roots of a*x^2 + b*x + a with disc = b^2 - 4a^2 >= 0; returns the one
    # inside the unit disk without subtractive cancellation (root product is 1)
    q = -(b + ar.copysign(sqrt_disc, b)) / 2
    return a / q


def stable_roots(poly: CharacteristicPolynomial) -> list:
    """The m-1 real roots with |lambda| < 1, ascending.

    m=2: quadratic with root product 1; the discriminant is evaluated through
    the factored form 4h(e^h-1)^2 * (h(e^h+1)^2 + 2(1-e^(2h))) so small-h
    cancellation cannot corrupt it.  m=3: the palindromic quartic reduces to a
    quadratic in mu = lambda + 1/lambda; each mu gives a reciprocal root pair
    and we keep the inner one.  This is the only path: a candidate outside the
    unit disk, or with a residual above 1e-10 * max|coeff|, raises
    :class:`ConstructionError`.  Arithmetic runs at the polynomial's
    precision; :func:`characteristic_polynomial` sets the float64 domain.
    """
    ar = _arith(poly.dps)
    with ar.context():
        roots = _reduced_roots(poly, ar)
        scale = max(abs(c) for c in poly.coeffs)
        for lam in roots:
            if not abs(lam) < 1:
                raise ConstructionError(f"no root strictly inside the unit disk for h={poly.h}")
            if abs(poly(lam)) > 1e-10 * scale:
                raise ConstructionError(
                    f"root residual {float(abs(poly(lam)))} exceeds 1e-10 * max|coeff| (h={poly.h})"
                )
        return roots


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

    ``center`` and ``near`` are D_m(0) and D_m(1); ``p`` (the leading
    polynomial coefficient) and ``roots``/``amplitudes`` (empty for m = 1)
    give the tails.  ``dps`` marks specs whose values are mpmath floats at
    that precision.
    """

    m: int
    h: float
    p: object
    center: object
    near: object
    roots: tuple
    amplitudes: tuple
    dps: int | None = None

    @property
    def lambda_max(self) -> float:
        return max((abs(float(r)) for r in self.roots), default=0.0)


def build_operator(m: int, h: float, dps: int | None = None) -> OperatorSpec:
    """Construct the order-m discrete operator for spacing h.

    m = 1 is the degenerate case: support {-1, 0, 1} with p = 1 - e^(2h) and
    central constant c = 1 + e^(2h); this reproduces -2*D(1) - D(0) =
    2(e^h - 1)/(e^h + 1).  For m = 2, 3 the amplitudes A_k follow from the
    stable roots and the derivative of the characteristic polynomial.  D_m(0) =
    (2c + sum A_k/lambda_k)/p and D_m(1) = (-2e^h + sum A_k)/p are stored.

    With ``dps`` set, every stored value is an mpmath float computed at that
    many digits, and :func:`operator_value` and :func:`convolve` evaluate at
    that precision whatever the caller's.  Use this for identity verification
    at small h, where the operator's central values grow like h^(1-2m) and
    float64 rounding alone exceeds tight identity tolerances.
    """
    _check_order(m)
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    ar = _arith(dps)
    with ar.context():
        hh = ar.num(h)
        E, E2 = ar.exp(hh), ar.exp(2 * hh)
        if m == 1:
            p, c, roots, amps = -ar.expm1(2 * hh), 1 + E2, (), ()
        else:
            poly = characteristic_polynomial(m, h, dps=dps)
            roots = tuple(stable_roots(poly))
            p, p_sub = poly.coeffs[-1], poly.coeffs[-2]
            c = 1 + (2 * m - 2) * E + E2 + E * p_sub / p
            amps = tuple(
                2 * (1 - lam) ** (2 * m - 2) * (lam * (E2 + 1) - E * (lam * lam + 1)) * p
                / (lam * poly.derivative(lam))
                for lam in roots
            )
        center, near = 2 * c, -2 * E
        for lam, amp in zip(roots, amps):
            center += amp / lam
            near += amp
        return OperatorSpec(m, h, p, center / p, near / p, roots, amps, dps)


def operator_value(spec: OperatorSpec, beta: int):
    """D_m at integer offset beta, at the spec's precision; even in beta."""
    with _arith(spec.dps).context():
        return _value(spec, abs(beta))


def _value(spec: OperatorSpec, b: int):
    # D_m(b) for b >= 0 at the ambient precision
    if b < 2:
        return spec.near if b else spec.center
    if not spec.roots:
        return 0.0
    acc = spec.amplitudes[0] * spec.roots[0] ** (b - 1)
    for lam, amp in zip(spec.roots[1:], spec.amplitudes[1:]):
        acc += amp * lam ** (b - 1)
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
    """Smallest window in [1, 200000] with tail_bound <= tol; tail_bound falls as the window grows.

    Raises ValueError unless tol > 0, and :class:`ToleranceError` when the
    tail is non-summable at this growth rate (|lambda_max| * growth >= 1),
    i.e. no window can achieve tol, or when tol needs a window above 200000.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if spec.lambda_max * growth >= 1.0:
        raise ToleranceError(
            f"tail is non-summable: |lambda_max| * growth = {spec.lambda_max * growth:.6g} >= 1",
            achievable=math.inf,
        )
    windows = range(1, _MAX_WINDOW + 1)
    i = bisect.bisect_left(windows, True, key=lambda w: tail_bound(spec, w, growth) <= tol)
    if i == len(windows):
        raise ToleranceError(
            f"window above {_MAX_WINDOW} needed for tol {tol:g}",
            achievable=tail_bound(spec, _MAX_WINDOW, growth),
        )
    return windows[i]


def convolve(spec: OperatorSpec, g: Callable[[int], object], beta: int, window: int) -> object:
    """Windowed discrete convolution sum_{|gamma|<=window} D_m(gamma) g(beta-gamma).

    The truncation error is bounded by tail_bound(spec, window, growth) times
    the callback's growth constant.  Each sample is taken in the spec's
    precision (float, or mpmath at ``dps`` digits).  Float64 rounds each
    product, the extended path forms each product exactly, and either sums
    the products exactly before one final rounding.
    """
    if window < 1:
        raise ValueError("window must be a positive integer")
    ar = _arith(spec.dps)
    # term arithmetic must run at the spec's precision, not the ambient one
    with ar.context():
        samples = [ar.num(g(beta - gamma)) for gamma in range(-window, window + 1)]
        return ar.dot(_operator_table(spec, window), samples)


def _operator_table(spec: OperatorSpec, window: int) -> list:
    """D_m(gamma) for gamma = -window..window, one evaluation per |gamma|, at the ambient precision."""
    num = _arith(spec.dps).num
    half = [num(_value(spec, gamma)) for gamma in range(window + 1)]
    return _mirrored(half, half)


def _mirrored(nonneg: list, neg: list) -> list:
    """g(j) for j = top..-top, descending, from nonneg[j] = g(j) and neg[j] = g(-j), j = 0..top."""
    return nonneg[::-1] + neg[1:]


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


_EXTENDED_DPS = 50  # working digits of the extended-precision checks
_TAIL_TARGET = 1e-13  # truncation tail the identity checks' window must reach
# offsets the identities are checked at: D_m is even and the samples mirror
# exactly, so each sum at -beta repeats one at beta and 0..5 covers -5..5
_OFFSETS = range(6)


def identity_residuals(m: int, h: float) -> IdentityReport:
    """Evaluate the operator identities in mpmath at 50 digits.

    The identities are checked at the offsets beta = 0..5, which give every
    sum at -5..5: the sum at -beta is the delta sum at beta, (-1)^k times
    the monomial_k sum, or the other exponential family's sum.  The window
    is the smallest one whose truncation tail is below 1e-13, with the
    margin of max|beta| = 5, for every convergent family.  Samples are
    evaluated in mpmath so the residuals reflect the identities themselves
    rather than float64 representation noise.  The precision is fixed.  An
    h whose sample growth e^(5h) is beyond float range raises ValueError.

    D_m(gamma) is evaluated once per |gamma| <= window.  The samples are
    evaluated once per |j| <= 5 + window at x_j = h*j and mirrored to -j:
    e^(+-x) swap, the kernel is even and x^k takes the sign (-1)^k, each
    exactly in round-to-nearest.  The kernel samples are psi(m, x, 50), which
    keeps all 50 digits at every x.  That is O(window) extended-precision
    evaluations and 6 windowed sums per family, and O(window) extra memory.
    Each windowed sum is mp.fdot over the window: exact products, summed
    exactly, then one rounding to 50 digits.
    """
    beta_span = _OFFSETS[-1]
    # sample growth constants: exponentials and the kernel carry an extra
    # e^(h |beta|); monomials are dominated by a slow geometric envelope
    try:
        margin = 8.0 * beta_span ** (2 * m) * math.exp(h * beta_span)
    except OverflowError:
        margin = math.inf
    if math.isinf(margin):
        raise ValueError(
            f"the sample growth e^(h*max|beta|) at h = {h}, max|beta| = {beta_span}"
            " is beyond float range"
        )
    spec = build_operator(m, h, dps=_EXTENDED_DPS)
    lmax = spec.lambda_max
    growth = math.exp(h)
    degrees = range(0, 2 * m - 3 + 1)
    families = {"exp_growing": growth, "exp_decaying": growth, "delta": growth}
    families.update((f"monomial_{k}", 1.1) for k in degrees)
    summable = {gr for gr in families.values() if lmax * gr < 1.0}
    divergent = tuple(name for name, gr in families.items() if gr not in summable)
    # tail_bound grows with the growth rate, so the fastest summable one sets the window
    window = window_for(spec, _TAIL_TARGET / margin, growth=max(summable))

    ar = _arith(_EXTENDED_DPS)
    with ar.context():
        # every family shares the D_m table; samples[i] is g(top - i), so the
        # slice for beta lists g(beta - gamma) in convolve's gamma order
        table = _operator_table(spec, window)
        top = beta_span + window
        hm = ar.num(h)
        xs = [hm * j for j in range(top + 1)]
        grow = [ar.exp(x) for x in xs]
        decay = [ar.exp(-x) for x in xs]
        kernel = [psi(m, x, _EXTENDED_DPS) for x in xs]
        samples = {
            "exp_growing": _mirrored(grow, decay),
            "exp_decaying": _mirrored(decay, grow),
            "delta": _mirrored(kernel, kernel),
        }
        for k in degrees:
            powers = [x**k for x in xs]
            samples[f"monomial_{k}"] = _mirrored(powers, [-v for v in powers] if k % 2 else powers)
        residuals: dict[str, float] = {}
        for name, values in samples.items():
            worst = ar.num(0)
            for beta in _OFFSETS:
                first = top - beta - window
                val = ar.dot(table, values[first : first + 2 * window + 1])
                if name == "delta" and beta == 0:
                    val -= 1
                worst = max(worst, abs(val))
            residuals[name] = float(worst)
    return IdentityReport(m, float(h), window, residuals, divergent)

