import dataclasses
import math
import random

import mpmath as mp
import pytest

import optquad.operator
from optquad import (
    CharacteristicPolynomial,
    ConstructionError,
    build_operator,
    characteristic_polynomial,
    identity_residuals,
    lambda1,
    operator_value,
    psi,
    stable_roots,
)
from optquad.operator import _FLOAT_H_MIN

import oracles

H_SET = [1.0, 0.5, 0.1, 1.0 / 64.0]


class TestCharacteristicPolynomial:
    def test_quadratic_at_unit_spacing(self):
        poly = characteristic_polynomial(2, 1.0)
        p = 1.0 - math.e**2 + 2.0 * math.e
        assert poly.coeffs[0] == pytest.approx(p, rel=1e-14)
        assert poly.coeffs[2] == poly.coeffs[0]
        # middle coefficient 2(e^2-1) - 2(e^2+1) collapses to -4 exactly
        assert poly.coeffs[1] == pytest.approx(-4.0, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("h", H_SET)
    def test_matches_reference_coefficients(self, m, h):
        poly = characteristic_polynomial(m, h)
        ref = oracles.mp_char_coeffs(m, h)
        for got, want in zip(poly.coeffs, ref):
            assert got == pytest.approx(float(want), rel=5e-16)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 160, 1024])
    def test_extended_coefficients_match_reference(self, m, n):
        # the printed sums cancel to ~h^(2m-1): that many digits of dps are lost
        dps = 50
        poly = characteristic_polynomial(m, 1.0 / n, dps=dps)
        ref = oracles.mp_char_coeffs(m, 1.0 / n, dps=2 * dps)
        tol = mp.mpf(10) ** (5 - dps) * n ** (2 * m - 1)
        assert poly.dps == dps
        for got, want in zip(poly.coeffs, ref):
            assert abs(got - want) <= tol * abs(want)

    @pytest.mark.parametrize("h", H_SET)
    def test_quartic_is_palindromic(self, h):
        poly = characteristic_polynomial(3, h)
        assert poly.coeffs[0] == poly.coeffs[4]
        assert poly.coeffs[1] == poly.coeffs[3]

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            characteristic_polynomial(1, 0.5)


class TestStableRoots:
    def test_known_quadratic_root(self):
        poly = characteristic_polynomial(2, 1.0)
        (lam,) = stable_roots(poly)
        assert lam == pytest.approx(-0.25341520148259034, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("h", H_SET)
    def test_against_generic_rootfinder(self, m, h):
        poly = characteristic_polynomial(m, h)
        got = stable_roots(poly)
        ref = oracles.mp_inner_roots(m, h)
        assert len(got) == m - 1
        for a, b in zip(got, ref):
            assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("h", H_SET)
    def test_residuals_tiny_relative_to_coefficients(self, m, h):
        poly = characteristic_polynomial(m, h)
        scale = max(abs(c) for c in poly.coeffs)
        for lam in stable_roots(poly):
            assert abs(poly(lam)) <= 1e-12 * scale

    @pytest.mark.parametrize("h", H_SET)
    def test_reciprocal_pairing(self, h):
        # discarded root of the quadratic is the reciprocal of the kept one
        poly = characteristic_polynomial(2, h)
        (lam,) = stable_roots(poly)
        p, p1 = poly.coeffs[0], poly.coeffs[1]
        other = (-p1 / p) - lam  # root sum
        assert lam * other == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("h", H_SET)
    def test_quartic_roots_closed_under_inversion(self, h):
        poly = characteristic_polynomial(3, h)
        inner = stable_roots(poly)
        scale = max(abs(c) for c in poly.coeffs)
        for lam in inner:
            assert abs(poly(1.0 / lam)) <= 1e-10 * scale

    def test_no_inner_root_raises(self):
        fake = CharacteristicPolynomial(2, 1.0, (1.0, -2.0, 1.0))  # double root at 1
        with pytest.raises(ConstructionError):
            stable_roots(fake)

    @pytest.mark.parametrize("dps", [None, 50])
    def test_non_palindromic_quartic_raises(self, dps):
        # (x-0.2)(x-0.5)(x-3)(x-4) is not palindromic: the reciprocal-pair
        # reduction finds no real pair, and no second rootfinder retries it
        with mp.workdps(50):
            coeffs = tuple(mp.mpf(c) if dps else float(c) for c in ("1.2", "-9.1", "17", "-7.7", "1"))
        with pytest.raises(ConstructionError, match="non-real root pair"):
            stable_roots(CharacteristicPolynomial(3, 1.0, coeffs, dps=dps))


def _euler_frobenius_roots(m):
    # the h -> 0 limits of the stable roots, inner roots of lambda^2 + 4 lambda + 1
    # (m = 2) and lambda^4 + 26 lambda^3 + 66 lambda^2 + 26 lambda + 1 (m = 3)
    with mp.workdps(60):
        mus = [mp.mpf(-4)] if m == 2 else [-13 - mp.sqrt(105), -13 + mp.sqrt(105)]
        return sorted((mu + mp.sqrt(mu * mu - 4)) / 2 for mu in mus)


# geometric spacings from 1e-8 to 1.5
EXTENDED_SPACINGS = [10.0 ** (-8 + (math.log10(1.5) + 8) * i / 39) for i in range(40)]


class TestRootDomain:
    """The one root path on dense grids, in float64 and in extended precision."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_float_path_on_dense_grids(self, m):
        rng = random.Random(13)
        lo = math.log10(_FLOAT_H_MIN[m])
        spacings = [1.0 / n for n in range(1, 20001)]
        spacings += [rng.uniform(0.0, 1.5) for _ in range(5000)]
        spacings += [10.0 ** (lo + (math.log10(1.5) - lo) * i / 2000) for i in range(2000)]
        for h in spacings:
            assert len(stable_roots(characteristic_polynomial(m, h))) == m - 1, h

    @pytest.mark.parametrize("m", [2, 3])
    def test_float_roots_keep_full_accuracy_down_to_the_domain_edge(self, m):
        lo = math.log10(_FLOAT_H_MIN[m])
        for i in range(200):
            h = min(1.5, 10.0 ** (lo + (math.log10(1.5) - lo) * i / 199))
            got = stable_roots(characteristic_polynomial(m, h))
            want = stable_roots(characteristic_polynomial(m, h, dps=50))
            assert got == pytest.approx([float(r) for r in want], rel=2e-15), h

    @pytest.mark.parametrize("dps", [15, 20, 30, 50])
    @pytest.mark.parametrize("m", [2, 3])
    def test_extended_path_delivers_its_digits(self, m, dps):
        # the printed coefficient sums cancel ~(2m-1) log10(1/h) digits, which
        # the extended path must work above dps to keep
        for h in EXTENDED_SPACINGS:
            got = stable_roots(characteristic_polynomial(m, h, dps=dps))
            want = oracles.mp_stable_roots(m, h)
            assert len(got) == m - 1
            for a, b in zip(got, want):
                assert abs(a - b) <= mp.mpf(10) ** (1 - dps), h

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("h", [1e-31, 1e-80, 1e-300])
    def test_tiny_spacings(self, m, h):
        ext = stable_roots(characteristic_polynomial(m, h, dps=50))
        # the roots move from their h -> 0 limits by O(h)
        for a, b in zip(ext, _euler_frobenius_roots(m)):
            assert abs(a - b) <= 1e-48 + 10 * h
        if h >= _FLOAT_H_MIN[m]:
            got = stable_roots(characteristic_polynomial(m, h))
            assert got == pytest.approx([float(r) for r in ext], rel=2e-15)
        else:
            with pytest.raises(ValueError, match=rf"h={h} is below the float64 domain .*pass dps"):
                characteristic_polynomial(m, h)

    @pytest.mark.parametrize(
        "m, h, side",
        [(2, 1e-300, "below"), (3, 1e-70, "below"), (3, 1e-31, "below"), (2, 2.0, "above"), (3, 1.6, "above")],
    )
    def test_float_gate_names_the_dps_path(self, m, h, side):
        # the polynomial is refused before any coefficient underflows or loses series accuracy
        lo = f"{_FLOAT_H_MIN[m]:g}"
        msg = rf"h={h} is {side} the float64 domain \[{lo}, 1\.5\] of order {m}; pass dps= to characteristic_polynomial"
        with pytest.raises(ValueError, match=msg):
            characteristic_polynomial(m, h)
        with pytest.raises(ValueError, match=msg):
            build_operator(m, h)
        if m == 2:
            with pytest.raises(ValueError, match=msg):
                lambda1(h)
        # with dps the same spacing is accepted
        assert len(stable_roots(characteristic_polynomial(m, h, dps=30))) == m - 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_float_gate_accepts_its_endpoints(self, m):
        for h in (_FLOAT_H_MIN[m], 1.5):
            assert len(stable_roots(characteristic_polynomial(m, h))) == m - 1
        assert build_operator(1, 2.0).roots == ()  # order 1 has no polynomial and no gate


class TestOperatorValues:
    @pytest.mark.parametrize("h", H_SET)
    def test_order_one_proof_line(self, h):
        spec = build_operator(1, h)
        lhs = -2.0 * operator_value(spec, 1) - operator_value(spec, 0)
        assert lhs == pytest.approx(2.0 * math.expm1(h) / (math.exp(h) + 1.0), rel=1e-14)

    def test_order_one_support(self):
        spec = build_operator(1, 0.25)
        for beta in (2, 3, 10, -7):
            assert operator_value(spec, beta) == 0.0
        assert operator_value(spec, 1) == pytest.approx(
            -2.0 * math.exp(0.25) / -math.expm1(0.5), rel=1e-14
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.5, 0.1])
    def test_even_in_beta(self, m, h):
        spec = build_operator(m, h)
        for beta in range(0, 9):
            assert operator_value(spec, -beta) == operator_value(spec, beta)

    def test_matches_independent_assembly(self):
        # rebuild the three branch values from generically found roots
        h = 0.5
        spec = build_operator(2, h)
        (lam,) = oracles.np_inner_roots(2, h)
        E, E2 = math.exp(h), math.exp(2 * h)
        coeffs = [float(c) for c in oracles.mp_char_coeffs(2, h)]
        p, p1 = coeffs[0], coeffs[1]
        dP = 2 * p * lam + p1
        A = 2 * (1 - lam) ** 2 * (lam * (E2 + 1) - E * (lam**2 + 1)) * p / (lam * dP)
        C = 1 + 2 * E + E2 + E * p1 / p
        assert operator_value(spec, 0) == pytest.approx((2 * C + A / lam) / p, rel=1e-12)
        assert operator_value(spec, 1) == pytest.approx((-2 * E + A) / p, rel=1e-12)
        for beta in (2, 3, 5):
            assert operator_value(spec, beta) == pytest.approx(
                A * lam ** (beta - 1) / p, rel=1e-12
            )

    @pytest.mark.parametrize("m, h", [(2, 0.5), (3, 0.25)])
    def test_geometric_tail_bound(self, m, h):
        spec = build_operator(m, h)
        lmax = spec.lambda_max
        K = sum(abs(float(a / spec.p)) for a in spec.amplitudes)
        for beta in range(2, 40):
            assert abs(operator_value(spec, beta)) <= K * lmax ** (beta - 1) * (1 + 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.5, 0.1, 1.0 / 64.0, 1.0 / 160.0])
    def test_float_and_extended_modes_agree(self, m, h):
        spec_f = build_operator(m, h)
        spec_mp = build_operator(m, h, dps=40)
        for beta in (0, 1, 2, 5):
            ref = float(operator_value(spec_mp, beta))
            assert operator_value(spec_f, beta) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_extended_spec_evaluates_at_its_precision(self, m):
        # a 50-digit spec read at the ambient 15 digits gives its 50-digit values
        spec = build_operator(m, 1.0 / 64.0, dps=50)
        top = [operator_value(spec, beta) for beta in range(6)]
        with mp.workdps(50):
            assert top == [operator_value(spec, beta) for beta in range(6)]
        assert [spec.center, spec.near] == top[:2]

    def test_extended_polynomial_evaluates_at_its_precision(self):
        poly = characteristic_polynomial(2, 0.1, dps=50)
        (lam,) = stable_roots(poly)
        top = (poly(lam), poly.derivative(lam))
        with mp.workdps(50):
            assert top == (poly(lam), poly.derivative(lam))
        assert abs(top[0]) <= mp.mpf(10) ** -45 * abs(top[1])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_operator(5, 0.5)
        with pytest.raises(ValueError):
            build_operator(2, 0.0)


def float_identity_window(spec, growth, target=1e-13, beta_span=5):
    # truncation at offset beta scales like growth^|beta|; budget for the span
    return oracles.doubling_window_for(spec, target / growth**beta_span, growth=growth)


class TestConvolutionIdentities:
    """Float-mode windowed sums at spacings where float64 noise stays below 1e-9."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
    def test_annihilates_exponentials(self, m, h):
        spec = build_operator(m, h)
        growth = math.exp(h)
        if spec.roots and spec.lambda_max * growth >= 1.0:
            pytest.skip("bilateral sum not summable at this spacing")
        if m == 3 and h == 0.1:
            pytest.skip("float64 rounding floor exceeds the tolerance here")
        window = float_identity_window(spec, growth)
        for beta in range(-5, 6):
            for sign in (+1.0, -1.0):
                val = oracles.per_term_convolution(spec, lambda j: math.exp(sign * h * j), beta, window)
                assert abs(val) <= 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_annihilates_low_degree_polynomials(self, m, h):
        spec = build_operator(m, h)
        window = float_identity_window(spec, 1.0)
        for deg in range(0, 2 * m - 2):
            for beta in range(-5, 6):
                val = oracles.per_term_convolution(spec, lambda j, d=deg: (h * j) ** d, beta, window)
                assert abs(val) <= 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
    def test_kernel_gives_unit_impulse(self, m, h):
        spec = build_operator(m, h)
        growth = math.exp(h)
        if spec.roots and spec.lambda_max * growth >= 1.0:
            pytest.skip("bilateral sum not summable at this spacing")
        # the float64 floor scales like the kernel value at h*beta; order 3
        # already reaches 1e-9 near beta ~ 13 (the dps tests cover that range)
        beta_hi = 14 if m < 3 else 11
        window = float_identity_window(spec, growth, beta_span=beta_hi - 1)
        for beta in range(-5, beta_hi):
            val = oracles.per_term_convolution(spec, lambda j: psi(m, h * j), beta, window)
            assert abs(val - (1.0 if beta == 0 else 0.0)) <= 1e-9

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
    def test_quadratic_moment_value(self, h):
        # order-2 convolution with (h beta)^2 is the constant -2h
        spec = build_operator(2, h)
        window = float_identity_window(spec, 1.0)
        for beta in (-3, 0, 4):
            val = oracles.per_term_convolution(spec, lambda j: (h * j) ** 2, beta, window)
            assert abs(val + 2.0 * h) <= 1e-10

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
    def test_moment_convolution_value(self, h):
        # order-2 convolution with the kernel moment is the constant h
        spec = build_operator(2, h)
        growth = math.exp(h)
        window = float_identity_window(spec, growth)
        val = oracles.per_term_convolution(spec, lambda j: float(oracles.mp_moment(2, h * j)), 0, window)
        assert abs(val - h) <= 1e-10


# m = 1..3 at these spacings, the gate's grid
GATE_SPACINGS = [1.0, 0.5, 0.1, 1.0 / 64.0, 1.0 / 160.0, 1.0 / 1024.0]


class TestExtendedPrecisionIdentities:
    @pytest.mark.parametrize("m, h", [(2, 1.0 / 64.0), (3, 0.1), (3, 1.0 / 64.0)])
    def test_small_spacing_through_extended_mode(self, m, h):
        report = identity_residuals(m, h)
        assert max(report.residuals.values()) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", GATE_SPACINGS)
    def test_every_family_near_the_working_precision(self, m, h):
        # the operator's central values grow like h^(1-2m), so 50 digits
        # leave an absolute floor near 1e-50 * h^(1-2m); the largest family
        # measured 0.35 of this bound.  At m = 3, h = 1 the tails against
        # e^(+-x) and the kernel do not converge (|lambda_max| e^h = 1.141)
        report = identity_residuals(m, h)
        assert set(report.residuals) == {"exp_growing", "exp_decaying", "delta"} | {
            f"monomial_{k}" for k in range(2 * m - 2)
        }
        bound = 1e-45 * h ** (1 - 2 * m)
        assert all(value <= bound for value in report.residuals.values()), report.residuals

    @pytest.mark.parametrize("m, h", [(1, 0.5), (2, 0.25), (2, 1.0 / 160.0), (3, 1.0 / 16.0), (3, 1.0)])
    def test_detects_an_operator_off_by_1e_30(self, monkeypatch, m, h):
        # the check is not vacuous: D_m(0) off by 1e-30 relative moves every
        # family above 1e-31 (measured 4.3e-30 to 1.5e-22)
        build = optquad.operator.build_operator

        def perturbed(m, h, dps=None):
            spec = build(m, h, dps)
            with mp.workdps(dps):
                return dataclasses.replace(spec, center=spec.center * (1 + mp.mpf(10) ** -30))

        monkeypatch.setattr(optquad.operator, "build_operator", perturbed)
        report = identity_residuals(m, h)
        assert min(report.residuals.values()) > 1e-31, report.residuals

    def test_wide_offset_range_through_extended_mode(self):
        # beyond the float64 floor: offsets out to n+5 on an n=8 grid
        _, residuals, bounds = oracles.naive_identity_residuals(3, 0.125, range(-5, 14))
        assert max(bounds.values()) <= oracles._TAIL_TARGET
        assert max(residuals.values()) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", [141.0, 150.0])
    def test_rejects_sample_growth_beyond_float_range(self, m, h):
        # e^(150 * 5) overflows math.exp; at h = 141, e^705 is finite but
        # the margin 8 * 5^(2m) * e^705 is not
        with pytest.raises(ValueError, match=rf"h = {h}, max\|beta\| = 5 is beyond float range"):
            identity_residuals(m, h)


class TestAgainstClosedForm:
    @pytest.mark.parametrize("h", H_SET)
    def test_quadratic_root_matches_closed_form(self, h):
        poly = characteristic_polynomial(2, h)
        (lam,) = stable_roots(poly)
        assert lam == pytest.approx(lambda1(h), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_extended_mode_delta_identity_is_sharp(self, m):
        # at dps=50 the only residual left is the geometric tail truncation:
        # |psi(x)| <= e^|x|, so a window whose tail bound at growth e^h is
        # 1e-24 leaves at most 1e-24 * e^(h |beta|) at offset beta
        h = 0.5
        spec = build_operator(m, h, dps=50)
        window = oracles.doubling_window_for(spec, 1e-24, math.exp(h))
        for beta in range(-2, 3):
            val = oracles.per_term_convolution(spec, lambda j: psi(m, mp.mpf(h) * j, 50), beta, window)
            assert abs(val - (1 if beta == 0 else 0)) <= 1e-24 * math.exp(h * abs(beta))


_KERNEL_POINTS = [k / n for n in (4, 64, 1024, 65536) for k in (1, 2, n // 2, n)] + [4.0, 4.5, 25.0, 50.0]


@pytest.mark.parametrize("dps", [30, 50, 70])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_extended_psi_keeps_its_digits(m, dps):
    # the head cancels up to (2m - 1) log10(1/x) digits at small x; the
    # extended kernel must keep all dps of them against the printed formula
    # at 120 digits
    for x in _KERNEL_POINTS:
        ref = oracles.mp_psi(m, x, dps=120)
        with mp.workdps(120):
            assert abs(psi(m, x, dps) - ref) <= mp.mpf(10) ** (2 - dps) * abs(ref), x


def test_mp_psi_consistent_with_float():
    with mp.workdps(40):
        for m in (1, 2, 3):
            for x in (0.3, 1.7):
                assert psi(m, x) == pytest.approx(float(oracles.mp_psi(m, x)), rel=1e-14)
