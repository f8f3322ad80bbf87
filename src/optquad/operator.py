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
and also hold where the tails against e^(+-x) do not converge.  They take
each 50-digit value once into a Python-integer fixed point of 256 or more
fractional bits and sum there (:mod:`optquad._exact`), so the sums add
nothing to the 50-digit rounding of the values they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _exact, _series
from ._series import _Arith, _arith, _horner
from .core import ConstructionError, _check_order, _real, psi


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
            return _horner(self.coeffs, lam)

    def derivative(self, lam):
        with _arith(self.dps).context():
            return _horner([s * c for s, c in enumerate(self.coeffs)][1:], lam)


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
    Without ``dps`` any real h (a float32, say) is taken as a float64; with
    it a numpy float is taken as a float64, a numpy integer as an int and an
    mpmath float as it is.
    """
    if m == 1:
        raise ValueError("order 1 has no characteristic polynomial; use build_operator")
    _check_order(m)
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    h = _real(h, dps)
    if dps is None and not _FLOAT_H_MIN[m] <= h <= _series._H_MAX:
        side = "below" if h < _FLOAT_H_MIN[m] else "above"
        raise ValueError(f"h={h} is {side} the float64 domain [{_FLOAT_H_MIN[m]:g}, {_series._H_MAX:g}]"
                         f" of order {m}; pass dps= to characteristic_polynomial or build_operator")
    half = [_series.value(name, h, dps) for name in _HALF_COEFFS[m]]
    return CharacteristicPolynomial(m, h, tuple(half + half[-2::-1]), dps)


def _quadratic_roots(a, b, c, sqrt_disc, ar: _Arith) -> tuple:
    # both roots (q/a, c/q) of a*x^2 + b*x + c, sqrt_disc = sqrt(b^2 - 4ac)
    # real: q adds two terms of one sign, so neither root cancels
    q = -(b + ar.copysign(sqrt_disc, b)) / 2
    return q / a, c / q


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
        return [_quadratic_roots(p, p1, p, sqrt_disc, ar)[1]]  # root product 1: c/q is the inner one
    if m != 3:
        raise ValueError(f"unsupported order {m}")
    p4, p3, p2 = poly.coeffs[4], poly.coeffs[3], poly.coeffs[2]
    # mu^2 * p4 + mu * p3 + (p2 - 2 p4) = 0, mu = lambda + 1/lambda
    c = p2 - 2 * p4
    disc = p3 * p3 - 4 * p4 * c
    if disc <= 0:
        raise ConstructionError(f"non-real root pair for m=3, h={poly.h}")
    roots = []
    for mu in _quadratic_roots(p4, p3, c, ar.sqrt(disc), ar):
        if abs(mu) <= 2:
            raise ConstructionError(f"|mu| <= 2 gives no real reciprocal pair (h={poly.h})")
        # inner root of lambda^2 - mu*lambda + 1
        roots.append(_quadratic_roots(1, -mu, 1, ar.sqrt(mu * mu - 4), ar)[1])
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
    rounding alone exceeds tight identity tolerances.  h is taken as
    :func:`characteristic_polynomial` takes it, and stored so.
    """
    _check_order(m)
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    h = _real(h, dps)
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
    |gamma| whose term is summed one by one (D_1 is zero past 1); the rest
    is in closed form.
    """

    m: int
    h: float
    window: int
    residuals: dict[str, float]


_EXTENDED_DPS = 50  # working digits of the extended-precision checks
# offsets the identities are checked at: D_m is even and the samples mirror
# exactly, so each sum at -beta repeats one at beta and 0..5 covers -5..5
_OFFSETS = range(6)
# fractional bits of the identity sums' fixed point (about 77 digits), 2 ceil(h) more at spacing h
_FIXED_BITS = 256


def _fixed(x, bits: int) -> int:
    # x as the integer x * 2^bits, its magnitude floored
    a, b = _series.ratio(x)
    v = (a << bits) // b
    return -v if x < 0 else v


def identity_residuals(m: int, h: float) -> IdentityReport:
    """Evaluate the operator identities on 50-digit values, summed in integers.

    The identities are checked at the offsets beta = 0..5, which give every
    sum at -5..5: the sum at -beta is the delta sum at beta, (-1)^k times
    the monomial_k sum, or the other exponential family's sum.  Each sum
    over gamma takes the terms gamma = -1..max(1, beta) one by one
    (:func:`optquad._exact.dot`), from one table of D_m(0..5) and the
    samples at x = h*(beta - gamma): psi(m, x, 50), e^(+-x), x^k.
    At m = 1, D_1 vanishes past |gamma| = 1, so the sum is its three terms.

    For m >= 2 the two tails gamma <= -2 and gamma > max(1, beta) are
    summed in closed form.  There D_m(gamma) = sum_k alpha_k lambda_k^|gamma|
    with alpha_k = A_k / (p lambda_k), and each sample is a sum of terms
    c t^s e^(w h t) at t = beta - gamma; for the kernel, in |t|, those are
    e^(h|t|)/4, -e^(-h|t|)/4 and -(h|t|)^(2r-1) / (2 (2r-1)!) for r < m.
    So each tail is a combination of the power sums
    :func:`optquad._exact.tail_power_sums` at q = lambda_k e^(w h), one set
    per root and w: over gamma = -j <= -2 a binomial one in t = beta + j,
    and past gamma = max(1, beta) lambda_k^beta times a sum over
    u = gamma - beta that is the same at every beta >= 1 (at beta = 0 it
    starts at u = 2).  Where |lambda_k| e^h > 1 (m = 3 at h = 1) the tails
    against e^(+-x) and the kernel do not converge, and their closed form
    is the analytic continuation: the value of the operator's symbol, at
    which the identities still hold.

    The operator values, roots, alpha_k, e^(h t) and psi samples are
    computed at 50 digits and each becomes an integer once: x * 2^B,
    floored, with B = 256 + 2 ceil(h) fractional bits (h^k is exact).
    Products, sums and the divisions of the power sums then run in Python
    integers, and each family's largest |residual| is rounded once to a
    float.  Each floor adds at most a unit of 2^-B times the size of the
    values it meets, some 10^-27 of the 50-digit rounding of those values,
    which sets the residuals' floor near 1e-50 * h^(1-2m); the 2 ceil(h)
    bits keep that margin for D_1(1), about e^-h, against samples up to
    e^(6h).  The precision is fixed.  An h whose sample growth e^(5h) is
    beyond float range raises ValueError.  A numpy float h is taken as a
    float64 and a numpy integer as an int.
    """
    h = _real(h, _EXTENDED_DPS)
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
    bits = _FIXED_BITS + 2 * math.ceil(h)
    one, central = 1 << bits, range(-1, beta_span + 2)  # t at the central terms
    with ar.context():
        hm = ar.num(h)
        table = [_fixed(_value(spec, b), bits) for b in _OFFSETS]
        exp = {t: _fixed(ar.exp(hm * t), bits) for t in range(-beta_span - 1, beta_span + 2)}  # e^(h t)
        kernel_samples = [_fixed(psi(m, hm * t, _EXTENDED_DPS), bits) for t in central]
        geometric = [(_fixed(lam, bits), _fixed(amp / (spec.p * lam), bits))
                     for lam, amp in zip(spec.roots, spec.amplitudes)]
    num, den = _series.ratio(h)
    h_power = [(num**k << bits) // den**k for k in range(2 * m - 1)]  # h^k
    degree = max(0, 2 * m - 3)  # the highest power of t in a sample term
    # sums[k, w, lo][s] = sum_{j >= lo} q^j j^s at q = lambda_k e^(w h); powers[k][beta] = lambda_k^beta
    sums = {(k, w, lo): _exact.tail_power_sums(lam * exp[w] >> bits, lo, degree, bits)
            for k, (lam, _) in enumerate(geometric) for w in (-1, 0, 1) for lo in (1, 2)}
    powers = [[(lam**b << bits) >> bits * b for b in _OFFSETS] for lam, _ in geometric]
    # each family: its samples g(t) at the central t, and the (c, s, w) terms of
    # g(t) = sum c t^s e^(w h t) and of g(-u) = sum c u^s e^(w h u) for t, u > 0
    kernel = [(one >> 2, 0, 1), (-(one >> 2), 0, -1)]  # in |t|: the kernel is even
    kernel += [(-(h_power[2 * r - 1] // (2 * math.factorial(2 * r - 1))), 2 * r - 1, 0) for r in range(1, m)]
    families = {
        "exp_growing": ([exp[t] for t in central], [(one, 0, 1)], [(one, 0, -1)]),
        "exp_decaying": ([exp[-t] for t in central], [(one, 0, -1)], [(one, 0, 1)]),
        "delta": (kernel_samples, kernel, kernel),
    }
    for k in range(2 * m - 2):
        families[f"monomial_{k}"] = ([h_power[k] * t**k for t in central], [(h_power[k], k, 0)],
                                     [((-1) ** k * h_power[k], k, 0)])
    residuals: dict[str, float] = {}
    for name, (samples, positive, negative) in families.items():
        # the tail over gamma = -j <= -2, t = beta + j, binomial in the sums from j = 2;
        # past gamma = max(1, beta), t = -u: lambda_k^beta times the sum from u = 1
        # (from u = 2 at beta = 0).  Both are 0 without roots (m = 1)
        near = [[sum(alpha * sums[k, w, 2][i] for k, (_, alpha) in enumerate(geometric)) >> bits
                 for i in range(s + 1)] for _, s, w in positive]
        far = [[alpha * sum(c * sums[k, w, lo][s] for c, s, w in negative) >> 2 * bits for lo in (2, 1)]
               for k, (_, alpha) in enumerate(geometric)]
        worst = 0
        for beta in _OFFSETS:
            # without roots (m = 1) D_m vanishes past |gamma| = 1
            top = max(1, beta) if geometric else 1
            gammas = range(-1, top + 1)
            val = _exact.dot([table[abs(g)] for g in gammas], [samples[beta - g + 1] for g in gammas], bits)
            binomial = (sum(math.comb(s, i) * beta ** (s - i) * S[i] for i in range(s + 1))
                        for (_, s, _), S in zip(positive, near))
            val += (sum((c * exp[w * beta] >> bits) * b for (c, _, w), b in zip(positive, binomial))
                    + sum(lam[beta] * f[beta > 0] for lam, f in zip(powers, far))) >> bits
            if name == "delta" and beta == 0:
                val -= one
            worst = max(worst, abs(val))
        residuals[name] = worst / one
    return IdentityReport(m, float(h), beta_span, residuals)
