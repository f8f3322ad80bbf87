import math
from fractions import Fraction

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
    kernel_double_integral,
    moment_f,
    psi,
)
from optquad import _exact
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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [2.0**-20, 0.1, 0.3, 1.0, 3.9, 4.0, 4.5, 25.0, 700.0, 710.0])
    def test_float_kernel_is_correctly_rounded(self, m, x):
        # the float nearest the 60-digit kernel: the series is rounded once
        assert psi(m, x) == float(oracles.mp_psi(m, x, 60))

    @pytest.mark.parametrize("m, x", [(2, 1.8e-104), (2, 5.6e-104), (3, 1e-63), (3, 1e-62)])
    def test_float_kernel_is_correctly_rounded_below_the_normal_range(self, m, x):
        # a subnormal kernel: halving the rounded tail would round twice
        assert psi(m, x) == float(oracles.mp_psi(m, x, 60 + (2 * m - 1) * 105))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kernel_double_integral_is_correctly_rounded(self, m):
        # I_m = sum_{k>=m} 1/(2k+1)!, exact to well below 2^-200 at 60 terms
        exact = sum(Fraction(1, math.factorial(2 * k + 1)) for k in range(m, m + 60))
        assert kernel_double_integral(m) == float(exact)

    @pytest.mark.parametrize(("a", "b"), [(0, 1), (1, 1 << 20), (3, 10), (1, 1), (39, 10), (9, 2), (700, 1)])
    @pytest.mark.parametrize("p", [1, 2, 5, 7])
    def test_integer_series_is_floored_below_its_value(self, a, b, p):
        # every term is floored: the ratio lies below the series, by at most
        # 2 units of 2^-bits, relative, per term summed
        bits = 64
        num, den = _exact.tail(a, b, p, bits)
        with mp.workdps(150):
            ref, value = oracles.mp_tail(mp.mpf(a) / b, p, 150), mp.mpf(num) / den
            assert value <= ref
            terms, ratio, k = 1, mp.mpf(1), p
            while a and ratio >= mp.mpf(2) ** -bits:
                ratio *= mp.mpf(a) ** 2 / (b * b * (k + 1) * (k + 2))
                terms, k = terms + 1, k + 2
            assert ref - value <= 2 * terms * ref * mp.mpf(2) ** -bits

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x, message", [
        (math.nan, "x must be finite"),
        (math.inf, "x must be finite"),
        (-math.inf, "x must be finite"),
        # sinh overflows float64 past |x| = 710.48
        (711.0, r"\|x\| = 711\.0 is beyond the float64 range; pass dps="),
        (-711.0, r"\|x\| = 711\.0 is beyond the float64 range; pass dps="),
    ])
    def test_rejects_x_outside_float64(self, m, x, message):
        with pytest.raises(ValueError, match=message):
            psi(m, x)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_extended_kernel_past_float64_range(self, m):
        value = psi(m, 711.0, dps=50)
        with mp.workdps(80):
            assert abs(value - oracles.mp_psi(m, 711.0, dps=80)) <= mp.mpf(10) ** -48 * value

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.1, -0.5, 3.0, 5.0])
    def test_float32_argument_computed_in_float64(self, m, x):
        x32 = np.float32(x)
        value, expected = psi(m, x32), psi(m, float(x32))
        assert type(value) is float
        assert value.hex() == expected.hex()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_float32_argument_in_extended_precision(self, m):
        # a numpy float is taken as a float64; mpmath would refuse the float32 itself
        x32 = np.float32(0.125)
        assert psi(m, x32, dps=50) == psi(m, float(x32), dps=50)
        with mp.workdps(50):  # an mpmath float keeps its digits
            assert psi(m, mp.mpf(1) / 10, dps=50) != psi(m, 0.1, dps=50)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_extended_argument_keeps_its_digits_outside_workdps(self, m, sign):
        # |x| is taken at the working digits, not at the ambient 15
        with mp.workdps(50):
            x = sign * mp.mpf(1) / 10
        value = psi(m, x, dps=50)
        assert value != psi(m, 0.1, dps=50)
        with mp.workdps(60):
            reference = oracles.mp_psi(m, x, 60)
            assert abs(value - reference) <= mp.mpf(10) ** -45 * reference

    def test_extended_argument_below_the_float_range(self):
        # float(x) underflows to 0 here; the printed head cancels ~1200 digits
        x = mp.mpf("1e-400")
        value = psi(2, x, dps=50)
        with mp.workdps(60):
            reference = oracles.mp_psi(2, x, 1300)
            assert abs(value - reference) <= mp.mpf(10) ** -45 * reference

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi(0, 1.0)
        with pytest.raises(ValueError):
            psi(4, 1.0)
        with pytest.raises(ValueError):
            psi(2, math.inf)
        with pytest.raises(ValueError, match=r"order m must be in \(1, 2, 3\), got 2\.0"):
            psi(2.0, 0.5)
        with pytest.raises(ValueError, match=r"order m must be in \(1, 2, 3\), got True"):
            psi(True, 0.5)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 7, 64, 1000])
    def test_moment_is_correctly_rounded(self, m, n):
        # the float nearest the 60-digit (T(t) + T(s))/2, T the tail of order
        # 2m, at the moment's own floats t = beta/n and s = (n - beta)/n
        grid = GridSpec(m, n)
        for beta in range(n + 1):
            t, s = beta / n, (n - beta) / n
            with mp.workdps(60):
                ref = (oracles.mp_tail(t, 2 * m, 60) + oracles.mp_tail(s, 2 * m, 60)) / 2
            assert moment_f(m, beta, grid) == float(ref), beta

    def test_rejects_out_of_range_index(self):
        grid = GridSpec(2, 4)
        with pytest.raises(ValueError):
            moment_f(2, -1, grid)
        with pytest.raises(ValueError):
            moment_f(2, 5, grid)

    @pytest.mark.parametrize("beta", [2.5, 2.0, 0.5, True])
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
        assert grid.node_array()[-1] == 1.0

    # True equals 1 and is an int, but it is no order and no interval count
    @pytest.mark.parametrize("m, n", [(0, 4), (4, 4), (1, 0), (2, -3), (3, 1), (2.0, 8), (1, 3.0), (2, 2.5),
                                      (True, 8), (2, True)])
    def test_rejects_invalid(self, m, n):
        with pytest.raises(ValueError):
            GridSpec(m, n)

    def test_accepts_numpy_integers(self):
        nodes = GridSpec(np.int64(3), np.int32(8)).node_array()
        assert nodes.tolist() == GridSpec(3, 8).node_array().tolist()

    def test_stores_plain_ints(self):
        grid = GridSpec(np.int64(3), np.int32(8))
        assert (type(grid.m), type(grid.n)) == (int, int)
        assert grid == GridSpec(3, 8)

    def test_single_interval_allowed_for_low_orders(self):
        assert GridSpec(1, 1).node_array().tolist() == [0.0, 1.0]
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

    @pytest.mark.parametrize("k", [1.5, 1.0, 4, True])
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
