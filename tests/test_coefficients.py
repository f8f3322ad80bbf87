import math

import mpmath as mp
import numpy as np
import pytest

from optquad import (
    RuleMethod,
    apply_rule,
    build_rule,
    characteristic_polynomial,
    closed_form_m1,
    closed_form_m2,
    coefficients_via_convolution,
    constraint_residuals,
    lambda1,
    stable_roots,
)
from optquad.coefficients import METHODS, _closed_weights, _powers

import oracles

EXP_NEG = -math.expm1(-1.0)
END_WEIGHT_H1 = 0.46211715726000974  # (e-1)/(e+1)


class TestClosedFormOrderOne:
    def test_single_interval(self):
        rule = closed_form_m1(1)
        assert rule.coefficients == (END_WEIGHT_H1, END_WEIGHT_H1)
        assert rule.method is RuleMethod.CLOSED_FORM
        assert rule.multiplier_d == 0.0
        # (e-1)/(e+1) * (1 + 1/e) = (e-1)/e exactly
        total = math.fsum(c * math.exp(-beta) for beta, c in enumerate(rule.coefficients))
        assert total == pytest.approx(EXP_NEG, abs=1e-15)

    def test_two_intervals(self):
        rule = closed_form_m1(2)
        assert rule.coefficients[0] == pytest.approx(0.24491866240370913, abs=1e-16)
        assert rule.coefficients[1] == pytest.approx(0.48983732480741826, abs=1e-16)
        assert rule.coefficients[0] == rule.coefficients[2]
        total = math.fsum(
            c * math.exp(-beta / 2) for beta, c in enumerate(rule.coefficients)
        )
        assert total == pytest.approx(EXP_NEG, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64])
    def test_symmetric_weights(self, n):
        rule = closed_form_m1(n)
        for beta in range(n + 1):
            assert rule.coefficients[beta] == rule.coefficients[n - beta]

    @pytest.mark.parametrize("n", range(1, 65))
    def test_exponential_constraint(self, n):
        assert constraint_residuals(closed_form_m1(n))["exp"] <= 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            closed_form_m1(0)


class TestLambda1:
    def test_value_at_unit_spacing(self):
        assert lambda1(1.0) == pytest.approx(-0.25341520148259034, abs=1e-15)

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1.0 / 64.0, 1e-3, 1e-6])
    def test_matches_generic_rootfinder(self, h):
        ref = oracles.mp_inner_roots(2, h)[0]
        assert lambda1(h) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1.0 / 64.0])
    def test_reciprocal_product(self, h):
        lam = lambda1(h)
        poly = characteristic_polynomial(2, h)
        other = -poly.coeffs[1] / poly.coeffs[0] - lam
        assert lam * other == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1.0 / 64.0])
    def test_polynomial_residual(self, h):
        poly = characteristic_polynomial(2, h)
        scale = max(abs(c) for c in poly.coeffs)
        assert abs(poly(lambda1(h))) <= 1e-12 * scale

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 1.0 / 64.0])
    def test_agrees_with_stable_roots(self, h):
        (lam,) = stable_roots(characteristic_polynomial(2, h))
        assert abs(lam - lambda1(h)) <= 1e-12

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            lambda1(0.0)

    @pytest.mark.parametrize("h, side", [(2.0, "above"), (1e-80, "below")])
    def test_outside_float_domain_names_a_call_that_takes_dps(self, h, side):
        msg = rf"h={h} is {side} the float64 domain \[1e-77, 1\.5\] of order 2; pass dps= to characteristic_polynomial"
        with pytest.raises(ValueError, match=msg):
            lambda1(h)
        (lam,) = stable_roots(characteristic_polynomial(2, h, dps=30))
        assert -1 < lam < 0


class TestClosedFormOrderTwo:
    def test_single_interval(self):
        rule = closed_form_m2(1)
        c0, c1 = rule.coefficients
        # boundary layers cancel at n=1, leaving 1 - 1/(e-1) and 1/(e-1)
        assert c0 == pytest.approx(0.41802329313067355, abs=1e-15)
        assert c1 == pytest.approx(0.5819767068693265, abs=1e-15)
        assert c0 + c1 == pytest.approx(1.0, abs=1e-15)
        assert c0 + c1 * math.exp(-1.0) == pytest.approx(EXP_NEG, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_constraints(self, n):
        res = constraint_residuals(closed_form_m2(n))
        assert res["exp"] <= 1e-12
        assert res["monomial_0"] <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_interior_boundary_layer_envelope(self, n):
        rule = closed_form_m2(n)
        h = rule.grid.h
        lam = lambda1(h)
        E = math.exp(h)
        # the boundary constant K of the source paper's order-2 closed form
        k_num = oracles.mp_series_reference("k_num", h)  # 2e^h - 2 - h e^h - h
        K = k_num * (lam - 1.0) / (2.0 * math.expm1(h) ** 2 * (lam + lam ** (n + 1)))
        for beta in range(1, n):
            envelope = abs(K) * (
                abs(E - lam) * abs(lam) ** beta + abs(1.0 - lam * E) * abs(lam) ** (n - beta)
            )
            assert abs(rule.coefficients[beta] - h) <= envelope * (1.0 + 1e-12) + 1e-15

    @pytest.mark.parametrize("n", range(1, 65))
    def test_positive_weights(self, n):
        # observed empirically across the tested range, not a proven property
        assert min(closed_form_m2(n).coefficients) > 0.0
        assert min(closed_form_m1(n).coefficients) > 0.0

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_positive_weights_order_three(self, n):
        from optquad import assemble_system, solve

        assert min(solve(assemble_system(3, n)).coefficients) > 0.0


class TestDeprecatedAlias:
    """``coefficients_via_convolution`` is now ``build_rule(m, n, "closed")``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
    def test_order_one_is_the_closed_form(self, n):
        alias = coefficients_via_convolution(1, n)
        assert alias == build_rule(1, n, "closed")
        assert alias.coefficients == closed_form_m1(n).coefficients

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
    def test_order_two_is_the_closed_form(self, n):
        alias = coefficients_via_convolution(2, n)
        assert alias == build_rule(2, n, "closed")
        assert alias.coefficients == closed_form_m2(n).coefficients

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            coefficients_via_convolution(3, 4)


class TestExtendedPrecisionRun:
    """The closed forms against an independent 50-digit solve of the bordered system."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 31, 64])
    def test_matches_mpmath_kkt_solve(self, m, n):
        ref = oracles.mp_kkt_weights(m, n, dps=50)
        extended = _closed_weights(m, n, dps=50)
        with mp.workdps(50):
            assert max(abs(a - b) for a, b in zip(extended, ref)) <= mp.mpf("1e-40")
        rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
        assert max(abs(a - b) for a, b in zip(rule.coefficients, ref)) <= 1e-15

    def test_power_table_matches_binary_powering(self):
        def powi(x, b):
            acc, base = 1.0, x
            while b:
                if b & 1:
                    acc *= base
                base *= base
                b >>= 1
            return acc

        for x in (lambda1(1.0 / 28), lambda1(1.0), -0.9999, 0.999999, 1.3, -7.5):
            table = _powers(x, 3000)
            assert table == [powi(x, b) for b in range(3001)]


class TestBuildRule:
    def test_auto_dispatch(self):
        assert build_rule(1, 4).method is RuleMethod.CLOSED_FORM
        assert build_rule(3, 4).method is RuleMethod.DIRECT_SOLVE

    def test_explicit_methods(self):
        assert build_rule(2, 4, "closed").method is RuleMethod.CLOSED_FORM
        assert build_rule(2, 4, "solve").method is RuleMethod.DIRECT_SOLVE

    def test_method_names(self):
        assert METHODS == ("closed", "solve", "auto")
        assert {tag.value for tag in RuleMethod} == {"closed", "solve", "trapezoid", "simpson"}

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            build_rule(3, 4, "closed")
        with pytest.raises(ValueError):
            build_rule(3, 4, "conv")
        with pytest.raises(ValueError):
            build_rule(1, 4, "newton")

    @pytest.mark.parametrize("m, n, msg", [
        (2.0, 8, r"order m must be in \(1, 2, 3\), got 2\.0"),
        (1.0, 4, r"order m must be in \(1, 2, 3\), got 1\.0"),
        (3.0, 8, r"order m must be in \(1, 2, 3\), got 3\.0"),
        (1, 3.0, r"interval count n must be an integer, got 3\.0"),
        (2, 2.5, r"interval count n must be an integer, got 2\.5"),
    ])
    def test_rejects_non_integral_order_and_size(self, m, n, msg):
        with pytest.raises(ValueError, match=msg):
            build_rule(m, n)

    @pytest.mark.parametrize("method", ["closed", "solve", "auto"])
    def test_accepts_numpy_integers(self, method):
        assert build_rule(np.int64(2), np.int32(8), method) == build_rule(2, 8, method)


class TestExactness:
    """Exactness on the reproducing functions, across methods and sizes."""

    @pytest.mark.parametrize("maker", [
        closed_form_m1,
        closed_form_m2,
        lambda n: coefficients_via_convolution(2, n),
    ])
    @pytest.mark.parametrize("n", [1, 3, 8, 31, 64])
    def test_exponential(self, maker, n):
        rule = maker(n)
        value = apply_rule(rule, lambda x: math.exp(-x))
        assert abs(value - EXP_NEG) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 8, 31, 64])
    def test_constants_order_two(self, n):
        rule = closed_form_m2(n)
        assert abs(apply_rule(rule, lambda x: 1.0) - 1.0) <= 1e-12
