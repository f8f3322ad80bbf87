"""Discrete analogue of d^2m/dx^2m - d^(2m-2)/dx^(2m-2) on the grid.

The operator is a two-sided sequence D_m(beta): three explicit central values
plus geometric tails A_k * lambda_k^(|beta|-1) built from the stable roots
(|lambda| < 1) of a palindromic characteristic polynomial.  Its defining
property is that discrete convolution with the sinh-type kernel yields the
unit impulse; it also annihilates samples of e^(+-x) and, for m >= 2,
polynomials of degree up to 2m-3.

The operator is built in two arithmetics.  Float64 is the default, with
the polynomial coefficients from the series of :mod:`optquad._series`.
Past float64 it is one integer operator (:func:`_fixed_operator`): the
coefficients, roots, amplitudes and central values in a Python-integer
fixed point at the exact rational h, with the guard bits the coefficients
cancel.  The ``dps=`` entry points round its integers once to mpmath
floats of ``dps`` digits.  The identity checks (:func:`identity_residuals`)
use its integers directly, since float64 rounding of the large central
values would swamp the identities; they sum the few central terms one by
one and the geometric tails in closed form (:mod:`optquad._exact`), so
they need no truncation window, also hold where the tails against
e^(+-x) do not converge, and load no mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _exact, _series
from ._series import _arith, _horner
from .core import ConstructionError, _check_order, _real


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """P(lambda) of degree 2m-2, coefficients ascending (palindromic).

    ``dps`` marks mpmath coefficients at that precision; evaluation runs at
    it.
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
    other h raise ValueError asking for ``dps``, which accepts every h > 0
    and gives each coefficient as its printed sum in integers at the exact
    h (:func:`_fixed_coeffs`), rounded once to ``dps`` digits.
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
    if dps is None:
        half = [_series.value(name, h) for name in _HALF_COEFFS[m]]
        return CharacteristicPolynomial(m, h, tuple(half + half[-2::-1]))
    num, den = _series.ratio(h)
    # the coefficients cancel to h^(2m-1)
    bits = _series.working_bits(2 * m - 1, num, den, _series.dps_bits(dps))
    coeffs = _fixed_coeffs(m, *_series.basis(num, den, bits), bits)
    return CharacteristicPolynomial(m, h, tuple(_series.quotient(c, 1 << bits, dps) for c in coeffs), dps)


def _fixed_coeffs(m: int, powers, exps, bits: int) -> tuple:
    # the characteristic coefficients, ascending, over 2^bits from _series.basis
    half = [_series.fixed(name, powers, exps, bits) for name in _HALF_COEFFS[m]]
    return (*half, *half[-2::-1])


def _quadratic_roots(a, b, c, sqrt_disc) -> tuple:
    # both roots (q/a, c/q) of a*x^2 + b*x + c, sqrt_disc = sqrt(b^2 - 4ac)
    # real: q adds two terms of one sign, so neither root cancels
    q = -(b + math.copysign(sqrt_disc, b)) / 2
    return q / a, c / q


def stable_roots(poly: CharacteristicPolynomial) -> list:
    """The m-1 real roots with |lambda| < 1, ascending.

    m=2: quadratic with root product 1; in float64 the discriminant is
    evaluated through the factored form 4h(e^h-1)^2 * (h(e^h+1)^2 +
    2(1-e^(2h))) so small-h cancellation cannot corrupt it.  m=3: the
    palindromic quartic reduces to a quadratic in mu = lambda + 1/lambda;
    each mu gives a reciprocal root pair and we keep the inner one.  This
    is the only path: a candidate outside the unit disk, or with a
    residual above 1e-10 * max|coeff|, raises :class:`ConstructionError`.
    :func:`characteristic_polynomial` sets the float64 domain.  With
    ``dps`` the coefficients are taken at their exact values, as integers
    over a common denominator, the roots found in fixed point
    (:func:`_fixed_roots`) and each rounded once to ``dps`` digits.
    """
    if poly.dps is not None:
        ratios = [_series.ratio(c) for c in poly.coeffs]
        den = math.lcm(*(b for _, b in ratios))
        coeffs = [(-a if c < 0 else a) * (den // b) for c, (a, b) in zip(poly.coeffs, ratios)]
        bits = _series.dps_bits(poly.dps)
        roots = _fixed_roots(poly.m, coeffs, den, bits, poly.h)
        return [_series.quotient(lam, 1 << bits, poly.dps) for lam in roots]
    roots = _reduced_roots(poly)
    scale = max(abs(c) for c in poly.coeffs)
    for lam in roots:
        if not abs(lam) < 1:
            raise ConstructionError(f"no root strictly inside the unit disk for h={poly.h}")
        if abs(poly(lam)) > 1e-10 * scale:
            raise ConstructionError(f"root residual {abs(poly(lam))} exceeds 1e-10 * max|coeff| (h={poly.h})")
    return roots


def _reduced_roots(poly: CharacteristicPolynomial) -> list:
    m, h = poly.m, poly.h
    if m == 2:
        p, p1 = poly.coeffs[2], poly.coeffs[1]
        radicand = h * _series.value("radicand_factor", h)
        sqrt_disc = 2 * math.expm1(h) * math.sqrt(radicand)
        return [_quadratic_roots(p, p1, p, sqrt_disc)[1]]  # root product 1: c/q is the inner one
    if m != 3:
        raise ValueError(f"unsupported order {m}")
    p4, p3, p2 = poly.coeffs[4], poly.coeffs[3], poly.coeffs[2]
    # mu^2 * p4 + mu * p3 + (p2 - 2 p4) = 0, mu = lambda + 1/lambda
    c = p2 - 2 * p4
    disc = p3 * p3 - 4 * p4 * c
    if disc <= 0:
        raise ConstructionError(f"non-real root pair for m=3, h={h}")
    roots = []
    for mu in _quadratic_roots(p4, p3, c, math.sqrt(disc)):
        if abs(mu) <= 2:
            raise ConstructionError(f"|mu| <= 2 gives no real reciprocal pair (h={h})")
        # inner root of lambda^2 - mu*lambda + 1
        roots.append(_quadratic_roots(1, -mu, 1, math.sqrt(mu * mu - 4))[1])
    roots.sort()
    return roots


def _fixed_quadratic_roots(a: int, b: int, c: int, disc: int, bits: int) -> tuple[int, int]:
    # both roots (q/a, c/q) of a*x^2 + b*x + c over 2^bits, disc = b^2 - 4ac
    # exactly; 2q adds two terms of one sign, so neither root cancels
    q2 = -(b + (math.isqrt(disc) if b >= 0 else -math.isqrt(disc)))
    return (q2 << bits) // (2 * a), (2 * c << bits) // q2


def _fixed_horner(coeffs, x: int, bits: int) -> int:
    # sum_s coeffs[s] x^s with x over 2^bits, in the coefficients' units
    val = 0
    for c in reversed(coeffs):
        val = (val * x >> bits) + c
    return val


def _fixed_roots(m: int, coeffs: list[int], den: int, bits: int, h) -> list[int]:
    """The m-1 stable roots over 2^bits of the polynomial sum_s (coeffs[s] / den) lambda^s.

    The reduced quadratics of :func:`stable_roots` with exact integer
    discriminants and :func:`math.isqrt`, and its checks and messages
    (``h`` names the spacing in them).  The coefficients are first scaled
    up to bits + 16 bits, which leaves the roots unchanged, so each square
    root keeps every bit the quotients need.  Each root is then within a
    few units of 2^-bits of the root of the coefficients as given.
    """
    if m not in (2, 3):
        raise ValueError(f"unsupported order {m}")
    one = 1 << bits
    scale = max(map(abs, coeffs))
    shift = max(0, bits + 16 - scale.bit_length())
    coeffs, den, scale = [c << shift for c in coeffs], den << shift, scale << shift
    if m == 2:
        # root product 1: c/q is the inner one
        p, p1 = coeffs[2], coeffs[1]
        disc = p1 * p1 - 4 * p * p
        if disc < 0:
            raise ConstructionError(f"non-real root pair for m=2, h={h}")
        roots = [_fixed_quadratic_roots(p, p1, p, disc, bits)[1]]
    else:
        p4, p3, p2 = coeffs[4], coeffs[3], coeffs[2]
        c = p2 - 2 * p4
        disc = p3 * p3 - 4 * p4 * c
        if disc <= 0:
            raise ConstructionError(f"non-real root pair for m=3, h={h}")
        roots = []
        for mu in _fixed_quadratic_roots(p4, p3, c, disc, bits):
            if abs(mu) <= 2 * one:
                raise ConstructionError(f"|mu| <= 2 gives no real reciprocal pair (h={h})")
            roots.append(_fixed_quadratic_roots(one, -mu, one, mu * mu - 4 * one * one, bits)[1])
        roots.sort()
    for lam in roots:
        if not abs(lam) < one:
            raise ConstructionError(f"no root strictly inside the unit disk for h={h}")
        residual = abs(_fixed_horner(coeffs, lam, bits))
        if residual * 10**10 > scale:
            raise ConstructionError(f"root residual {residual / den} exceeds 1e-10 * max|coeff| (h={h})")
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

    Without ``dps`` the values are float64.  With ``dps`` set, they are the
    integer operator of :func:`_fixed_operator`, built at :func:`optquad._series.dps_bits`
    bits beyond what h cancels and each rounded once to an mpmath float of
    that many digits; :func:`operator_value` evaluates such a spec at that
    precision whatever the caller's.  Use it at small h, where the
    operator's central values grow like h^(1-2m) and float64 rounding alone
    exceeds tight identity tolerances.  h is taken as
    :func:`characteristic_polynomial` takes it, and stored so.
    """
    _check_order(m)
    if not h > 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    h = _real(h, dps)
    if dps is not None:
        op = _fixed_operator(m, h, _series.dps_bits(dps))

        def rounded(values):
            return tuple(_series.quotient(v, 1 << op.bits, dps) for v in values)

        p, center, near = rounded((op.p, op.center, op.near))
        return OperatorSpec(m, h, p, center, near, rounded(op.roots), rounded(op.amplitudes), dps)
    E, E2 = math.exp(h), math.exp(2 * h)
    if m == 1:
        p, c, roots, amps = -math.expm1(2 * h), 1 + E2, (), ()
    else:
        poly = characteristic_polynomial(m, h)
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
    return OperatorSpec(m, h, p, center / p, near / p, roots, amps)


class _FixedOperator(NamedTuple):
    """D_m's data as integers over 2^bits: p, the roots and amplitudes, D_m(0) and D_m(1).

    ``exp`` is e^h, and ``alphas`` are the tails' amplitudes
    alpha_k = A_k / (p lambda_k): D_m(b) = sum_k alpha_k lambda_k^b for
    b >= 2.
    """

    bits: int
    exp: int
    p: int
    roots: tuple
    amplitudes: tuple
    center: int
    near: int
    alphas: tuple


def _fixed_operator(m: int, h, bits: int, growth: int = 2) -> _FixedOperator:
    """The order-m operator at spacing h > 0 in Python integers, each value within 2^-bits relative.

    h is taken at its exact value (:func:`optquad._series.ratio`).  The
    formulas are :func:`build_operator`'s, in fixed point over 2^B with
    B = :func:`optquad._series.working_bits` of order 2m - 1 and ``growth``:
    the coefficients are the printed sums (:func:`optquad._series.fixed`),
    which cancel to h^(2m-1), D_m's values grow like h^(1-2m), and D_1(1)
    falls like 2 e^-h, which ``growth`` = 2 covers (measured within 3e-85
    relative for m = 1..3, h = 1/1024 to 140, against a 110-digit build);
    a caller that uses the values against larger terms asks for more.
    The roots come from
    :func:`_fixed_roots`, with its checks, and the amplitudes are
    2 (1 - lambda)^(2m-2) (lambda - e^h)(1 - lambda e^h) p / (lambda P'(lambda)),
    whose factors do not cancel.  Every product and quotient is floored.
    """
    num, den = _series.ratio(h)
    bits = _series.working_bits(2 * m - 1, num, den, bits, growth)
    one = 1 << bits
    powers, exps = _series.basis(num, den, bits)
    _, E, E2 = exps
    if m == 1:
        roots, amps, p, c = (), (), one - E2, one + E2
    else:
        coeffs = _fixed_coeffs(m, powers, exps, bits)
        roots = tuple(_fixed_roots(m, list(coeffs), one, bits, h))
        p, p_sub = coeffs[-1], coeffs[-2]
        c = one + (2 * m - 2) * E + E2 + E * p_sub // p
        derivative = [s * a for s, a in enumerate(coeffs)][1:]
        # (lambda - E)(1 - lambda E) over 2^(2 bits), (1 - lambda)^(2m-2) over 2^((2m-2) bits)
        amps = tuple(2 * (one - lam) ** (2 * m - 2) * (lam - E) * (one - (lam * E >> bits)) * p
                     // (lam * _fixed_horner(derivative, lam, bits) << (2 * m - 2) * bits)
                     for lam in roots)
    center = 2 * c + sum((amp << bits) // lam for lam, amp in zip(roots, amps))
    near = sum(amps) - 2 * E
    alphas = tuple((amp << 2 * bits) // (p * lam) for lam, amp in zip(roots, amps))
    return _FixedOperator(bits, E, p, roots, amps, (center << bits) // p, (near << bits) // p, alphas)


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


_EXTENDED_DPS = 50  # digits of verify's extended-precision closed weights
# offsets the identities are checked at: D_m is even and the samples mirror
# exactly, so each sum at -beta repeats one at beta and 0..5 covers -5..5
_OFFSETS = range(6)
# fractional bits of the identity sums' fixed point (about 77 digits), and the
# growth e^(6h) of the samples the operator's values are summed against
_FIXED_BITS = 256
_SAMPLE_GROWTH = 6


def identity_residuals(m: int, h: float) -> IdentityReport:
    """Evaluate the operator identities on the integer operator, summed in integers.

    The identities are checked at the offsets beta = 0..5, which give every
    sum at -5..5: the sum at -beta is the delta sum at beta, (-1)^k times
    the monomial_k sum, or the other exponential family's sum.  Each sum
    over gamma takes the terms gamma = -1..max(1, beta) one by one
    (:func:`optquad._exact.dot`), from one table of D_m(0..5) and the
    samples at x = h*(beta - gamma): psi(m, x), e^(+-x), x^k.
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

    No mpmath is used.  D_m's center, near value, roots and alpha_k come
    from :func:`_fixed_operator`, over 2^B with B at least
    256 + 6h / ln 2 fractional bits and each within 2^-256 relative; e^(h t)
    are powers of its e^h; the kernel samples are
    :func:`optquad._exact.tail` at the exact x; and h^k is exact.
    Products, sums and the divisions of the power sums run in Python
    integers, and each family's largest |residual| is rounded once to a
    float.  That sets the residuals' floor near 1e-77 * h^(1-2m), and the
    6h / ln 2 bits keep it for D_m(1), about e^-h, against samples up to
    e^(6h).  An h whose sample growth e^(5h) is beyond float range raises
    ValueError.  h is taken at its exact value: a numpy float as a float64,
    a numpy integer as an int and an mpmath float as it is.
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
    op = _fixed_operator(m, h, _FIXED_BITS, _SAMPLE_GROWTH)
    bits = op.bits
    one, central = 1 << bits, range(-1, beta_span + 2)  # t at the central terms
    exp = {0: one}  # e^(h t), |t| <= beta_span + 1
    for t in range(1, beta_span + 2):
        exp[t] = exp[t - 1] * op.exp >> bits
        exp[-t] = (one << bits) // exp[t]
    num, den = _series.ratio(h)
    kernel_samples = [(a << bits) // (2 * b) for a, b in
                      (_exact.tail(num * abs(t), den, 2 * m - 1, bits) for t in central)]
    geometric = list(zip(op.roots, op.alphas))
    powers = [[(lam**b << bits) >> bits * b for b in _OFFSETS] for lam, _ in geometric]
    # D_m(0..5); powers[k][b] = lambda_k^b
    table = [op.center, op.near]
    table += [sum(alpha * pw[b] for (_, alpha), pw in zip(geometric, powers)) >> bits for b in _OFFSETS[2:]]
    h_power = [(num**k << bits) // den**k for k in range(2 * m - 1)]  # h^k
    degree = max(0, 2 * m - 3)  # the highest power of t in a sample term
    # sums[k, w, lo][s] = sum_{j >= lo} q^j j^s at q = lambda_k e^(w h)
    sums = {(k, w, lo): _exact.tail_power_sums(lam * exp[w] >> bits, lo, degree, bits)
            for k, (lam, _) in enumerate(geometric) for w in (-1, 0, 1) for lo in (1, 2)}
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
