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
``dps`` digits for verification-grade identity checks, where float64
rounding of the large central values would swamp the identities.  Those
checks (:func:`identity_residuals`) sum the few central terms one by one
and the geometric tails in closed form, so they need no truncation window
and also hold where the tails against e^(+-x) do not converge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import _series
from ._series import _Arith, _arith
from .core import ConstructionError, _check_order, psi


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
    many digits, and :func:`operator_value` evaluates at that precision
    whatever the caller's.  Use this for identity verification at small h,
    where the operator's central values grow like h^(1-2m) and float64
    rounding alone exceeds tight identity tolerances.
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


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute residuals of the operator's defining identities.

    Families: exp_growing / exp_decaying (annihilation of e^(+-x) samples),
    monomial_k for k <= 2m-3 (annihilation of polynomial samples), and delta
    (kernel convolution minus the unit impulse).  ``window`` is the largest
    |gamma| whose term is summed one by one; the rest is in closed form.
    """

    m: int
    h: float
    window: int
    residuals: dict[str, float]


_EXTENDED_DPS = 50  # working digits of the extended-precision checks
# offsets the identities are checked at: D_m is even and the samples mirror
# exactly, so each sum at -beta repeats one at beta and 0..5 covers -5..5
_OFFSETS = range(6)


def identity_residuals(m: int, h: float) -> IdentityReport:
    """Evaluate the operator identities in mpmath at 50 digits.

    The identities are checked at the offsets beta = 0..5, which give every
    sum at -5..5: the sum at -beta is the delta sum at beta, (-1)^k times
    the monomial_k sum, or the other exponential family's sum.  Each sum
    over gamma takes the terms gamma = -1..max(1, beta) one by one, with
    exact products summed exactly (mp.fdot), from one table of D_m(0..5)
    and the samples at x = h*(beta - gamma): psi(m, x, 50), e^(+-x), x^k.

    The two tails gamma <= -2 and gamma > max(1, beta) are summed in closed
    form.  There D_m(gamma) = sum_k alpha_k lambda_k^|gamma| with alpha_k =
    A_k / (p lambda_k), and each sample is a sum of terms c t^s e^(w h t)
    at t = beta - gamma; for the kernel, in |t|, those are e^(h|t|)/4,
    -e^(-h|t|)/4 and -(h|t|)^(2r-1) / (2 (2r-1)!) for r < m.  So each tail
    is a binomial combination of the power sums
    :func:`optquad._series.tail_power_sums` at q = lambda_k e^(+-w h).
    Where |lambda_k| e^h > 1 (m = 3 at h = 1) the tails against e^(+-x)
    and the kernel do not converge, and their closed form is the analytic
    continuation: the value of the operator's symbol, at which the
    identities still hold.  The precision is fixed.  An h whose sample
    growth e^(5h) is beyond float range raises ValueError.
    """
    beta_span = _OFFSETS[-1]
    # the residuals are absolute and scale like the samples at |t| <= beta_span + 1
    try:
        growth = 8.0 * beta_span ** (2 * m) * math.exp(h * beta_span)
    except OverflowError:
        growth = math.inf
    if math.isinf(growth):
        raise ValueError(
            f"the sample growth e^(h*max|beta|) at h = {h}, max|beta| = {beta_span}"
            " is beyond float range"
        )
    spec = build_operator(m, h, dps=_EXTENDED_DPS)
    ar = _arith(_EXTENDED_DPS)
    with ar.context():
        table = [ar.num(_value(spec, b)) for b in range(beta_span + 1)]
        hm = ar.num(h)
        geometric = [(lam, amp / (spec.p * lam)) for lam, amp in zip(spec.roots, spec.amplitudes)]
        degree = max(0, 2 * m - 3)  # the highest power of t in a sample term
        exp = functools.cache(lambda t: ar.exp(hm * t))  # e^(h t) at integer t

        @functools.cache
        def tail_sums(w, lo):
            # sum_k alpha_k sum_{j >= lo} (lambda_k e^(w h))^j j^s for s = 0..degree
            sums = [_series.tail_power_sums(lam * exp(w), lo, degree) for lam, _ in geometric]
            return [sum(alpha * S[s] for (_, alpha), S in zip(geometric, sums)) for s in range(degree + 1)]

        def tail(terms, beta, sign, lo):
            # sum_{j >= lo} D_m(j) g(beta + sign*j) for g(t) = sum c t^s e^(w h t),
            # with (beta + sign*j)^s expanded binomially
            total = 0
            for c, s, w in terms:
                sums = tail_sums(sign * w, lo)
                expanded = sum(math.comb(s, i) * beta ** (s - i) * sign**i * sums[i] for i in range(s + 1))
                total += c * exp(w * beta) * expanded
            return total

        # each family: its sample g(t) at x = h*t, and the (c, s, w) terms of
        # g(t) = sum c t^s e^(w h t) for t > 0 and for t < 0
        kernel = [(0.25, 0, 1), (-0.25, 0, -1)]
        kernel += [(-hm ** (2 * r - 1) / (2 * math.factorial(2 * r - 1)), 2 * r - 1, 0) for r in range(1, m)]
        # the kernel is even: at t < 0 its terms in |t| = -t change sign with s and w
        mirrored = [(c * (-1) ** s, s, -w) for c, s, w in kernel]
        families = {
            "exp_growing": (exp, [(1, 0, 1)], [(1, 0, 1)]),
            "exp_decaying": (lambda t: exp(-t), [(1, 0, -1)], [(1, 0, -1)]),
            "delta": (lambda t: psi(m, hm * t, _EXTENDED_DPS), kernel, mirrored),
        }
        for k in range(2 * m - 2):
            terms = [(hm**k, k, 0)]
            families[f"monomial_{k}"] = (lambda t, k=k: (hm * t) ** k, terms, terms)
        residuals: dict[str, float] = {}
        for name, (sample, positive, negative) in families.items():
            # samples[t + 1] = g(t) at the central points t = -1..beta_span + 1
            samples = [sample(t) for t in range(-1, beta_span + 2)]
            worst = ar.num(0)
            for beta in _OFFSETS:
                top = max(1, beta)
                gammas = range(-1, top + 1)
                val = ar.dot([table[abs(g)] for g in gammas], [samples[beta - g + 1] for g in gammas])
                # t = beta + j over gamma = -j <= -2, t = beta - j over gamma = j > top
                val += tail(positive, beta, 1, 2) + tail(negative, beta, -1, top + 1)
                if name == "delta" and beta == 0:
                    val -= 1
                worst = max(worst, abs(val))
            residuals[name] = float(worst)
    return IdentityReport(m, float(h), beta_span, residuals)
