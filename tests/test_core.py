import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from optquad import (
    GridSpec,
    QuadratureRule,
    RuleMethod,
    apply_rule,
    builtin_integrand,
    closed_form_m1,
    closed_form_m2,
    constraint_residuals,
    moment_f,
    psi,
)
from optquad.core import _tail

import oracles

EXP_NEG_INTEGRAL = -math.expm1(-1.0)


class TestKernel:
    def test_zero_at_origin(self):
        assert psi(1, 0.0) == 0.0
        assert psi(3, -0.0) == 0.0

    @pytest.mark.parametrize("m, x, expected", [
        (1, 1.0, 0.5876005968219007),    # sinh(1)/2
        (2, 1.0, 0.08760059682190072),   # (sinh(1) - 1)/2
        (3, 1.0, 0.0042672634885673895), # (sinh(1) - 1 - 1/6)/2
    ])
    def test_values_at_one(self, m, x, expected):
        assert psi(m, x) == pytest.approx(expected, abs=1e-16)
        assert abs(psi(m, x) - float(oracles.mp_psi(m, x))) < 1e-16

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [1e-8, 1e-3, 0.13, 0.5, 1.0, 3.9999, 4.0001, 12.0, 34.0])
    def test_matches_reference_everywhere(self, m, x):
        ref = float(oracles.mp_psi(m, x))
        assert psi(m, x) == pytest.approx(ref, rel=1e-15)

    @given(st.integers(1, 3), st.floats(-30.0, 30.0, allow_nan=False))
    def test_even_in_x(self, m, x):
        # the sign(x)/2 prefactor times the odd bracket makes an even function
        assert psi(m, -x) == psi(m, x)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("x", [2.0**-20, 0.25, 1.0, 4.0, 4.5, 25.0])
    def test_tail_at_both_parities(self, p, x):
        # sinh (odd p) or cosh (even p) minus its head, as printed at 120
        # digits, against the float64 and the 50-digit tail
        with mp.workdps(120):
            whole = mp.sinh(x) if p % 2 else mp.cosh(x)
            ref = whole - mp.fsum(mp.mpf(x) ** k / mp.factorial(k) for k in range(p % 2, p, 2))
            assert abs(_tail(x, p, 50) - ref) <= mp.mpf(10) ** -48 * ref
        assert _tail(x, p) == pytest.approx(float(ref), rel=1e-15)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi(0, 1.0)
        with pytest.raises(ValueError):
            psi(4, 1.0)
        with pytest.raises(ValueError):
            psi(2, math.inf)
        with pytest.raises(ValueError, match=r"order m must be in \(1, 2, 3\), got 2\.0"):
            psi(2.0, 0.5)


class TestMoment:
    def test_endpoint_value(self):
        # (e + 1/e - 2)/4 at beta = 0, n = 1
        got = moment_f(1, 0, GridSpec(1, 1))
        assert got == pytest.approx(0.2715403174076219, abs=3e-16)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 64])
    def test_symmetric_in_beta(self, m, n):
        if n + 1 < m:
            pytest.skip("grid too small for order")
        grid = GridSpec(m, n)
        for beta in range(n + 1):
            assert moment_f(m, beta, grid) == moment_f(m, n - beta, grid)

    @given(st.integers(1, 3), st.integers(2, 64), st.data())
    def test_symmetric_in_beta_property(self, m, n, data):
        grid = GridSpec(m, n)
        beta = data.draw(st.integers(0, n))
        assert moment_f(m, beta, grid) == moment_f(m, n - beta, grid)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n, beta", [(1, 0), (2, 1), (5, 2), (8, 3), (8, 8)])
    def test_equals_kernel_integral(self, m, n, beta):
        # adaptive quadrature of the defining integral as the oracle
        if n + 1 < m:
            pytest.skip("grid too small for order")
        grid = GridSpec(m, n)
        assert moment_f(m, beta, grid) == pytest.approx(
            oracles.quad_moment(m, beta / n), abs=1e-12
        )

    def test_rejects_out_of_range_index(self):
        grid = GridSpec(2, 4)
        with pytest.raises(ValueError):
            moment_f(2, -1, grid)
        with pytest.raises(ValueError):
            moment_f(2, 5, grid)

    @pytest.mark.parametrize("beta", [2.5, 2.0, 0.5])
    def test_index_must_be_an_integer(self, beta):
        # 2.5 on n = 4 would be the moment at x = 0.625, which is no node
        grid = GridSpec(2, 4)
        with pytest.raises(ValueError, match=rf"node index beta must be an integer in \[0, 4\], got {beta}"):
            moment_f(2, beta, grid)
        assert moment_f(2, np.int64(3), grid) == moment_f(2, 3, grid)


class TestGridSpec:
    def test_spacing(self):
        grid = GridSpec(2, 8)
        assert grid.h * grid.n == pytest.approx(1.0, abs=0.0)
        assert grid.nodes()[-1] == 1.0

    @pytest.mark.parametrize("m, n", [(0, 4), (4, 4), (1, 0), (2, -3), (3, 1), (2.0, 8), (1, 3.0), (2, 2.5)])
    def test_rejects_invalid(self, m, n):
        with pytest.raises(ValueError):
            GridSpec(m, n)

    def test_accepts_numpy_integers(self):
        assert GridSpec(np.int64(3), np.int32(8)).nodes() == GridSpec(3, 8).nodes()

    def test_single_interval_allowed_for_low_orders(self):
        assert GridSpec(1, 1).nodes() == (0.0, 1.0)
        assert GridSpec(2, 1).h == 1.0


class TestApplyRule:
    @pytest.mark.parametrize("rule", [
        closed_form_m1(1), closed_form_m1(7), closed_form_m2(1), closed_form_m2(12),
    ])
    def test_exponential_exactness(self, rule):
        value = apply_rule(rule, lambda x: math.exp(-x))
        assert abs(value - EXP_NEG_INTEGRAL) <= 1e-12

    def test_constants_for_order_two(self):
        value = apply_rule(closed_form_m2(9), lambda x: 1.0)
        assert abs(value - 1.0) <= 1e-12

    def test_order_one_is_not_exact_for_constants(self):
        # weight sum is 2n(e^h - 1)/(e^h + 1), not 1
        value = apply_rule(closed_form_m1(1), lambda x: 1.0)
        assert value == pytest.approx(0.9242343145200195, abs=1e-15)

    def test_callback_errors_propagate(self):
        def bad(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            apply_rule(closed_form_m1(2), bad)


class TestRuleValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(GridSpec(1, 2), (1.0, 2.0), RuleMethod.CLOSED_FORM)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(GridSpec(1, 1), (math.nan, 1.0), RuleMethod.CLOSED_FORM)

    def test_constraint_residuals_keys(self):
        res = constraint_residuals(closed_form_m2(4))
        assert set(res) == {"exp", "monomial_0"}
        assert max(res.values()) <= 1e-12


class TestIntegrands:
    @pytest.mark.parametrize("name", ["exp-neg", "one", "x", "x2", "sin", "exp", "runge"])
    def test_derivatives_match_finite_differences(self, name):
        f = builtin_integrand(name)
        for k in (1, 2, 3):
            for x in (0.12, 0.43, 0.87):
                fd = oracles.central_difference(f.fn, x, k)
                assert f.derivative(k)(x) == pytest.approx(fd, rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_rejects_negative_derivative_order(self, k):
        with pytest.raises(ValueError, match=rf"sin: derivative order {k} not available"):
            builtin_integrand("sin").derivative(k)

    @pytest.mark.parametrize("k", [1.5, 1.0, 4])
    def test_rejects_order_that_names_no_derivative(self, k):
        with pytest.raises(ValueError, match=rf"sin: derivative order {k} not available"):
            builtin_integrand("sin").derivative(k)

    def test_accepts_numpy_integer_orders(self):
        f = builtin_integrand("sin")
        for k in range(4):
            assert f.derivative(np.int64(k)) is f.derivative(k)

    @pytest.mark.parametrize("name, value", [
        ("exp-neg", -math.expm1(-1.0)),
        ("one", 1.0),
        ("x", 0.5),
        ("x2", 1.0 / 3.0),
        ("sin", 1.0 - math.cos(1.0)),
        ("exp", math.expm1(1.0)),
        ("runge", math.atan(5.0) / 5.0),
    ])
    def test_exact_integrals(self, name, value):
        assert builtin_integrand(name).exact_integral == pytest.approx(value, rel=1e-15)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_integrand("cos")
