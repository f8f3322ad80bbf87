import math

import numpy as np
import pytest

import optquad.analysis
from optquad import (
    QuadratureRule,
    RuleMethod,
    apply_rule,
    assemble_system,
    build_rule,
    builtin_integrand,
    cauchy_schwarz_check,
    classical_rule,
    closed_form_m1,
    closed_form_m2,
    constraint_rows,
    convergence_study,
    error_norm_squared,
    error_report,
    kernel_double_integral,
    sobolev_norm,
    solve,
    stationarity_margin,
)

import oracles


class TestKernelDoubleIntegral:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_panel_oracle(self, m):
        assert kernel_double_integral(m) == pytest.approx(
            oracles.panel_double_integral(m), abs=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_panel_oracle_stable_under_refinement(self, m):
        coarse = oracles.panel_double_integral(m, panels=12)
        fine = oracles.panel_double_integral(m, panels=24)
        assert abs(fine - coarse) <= 1e-12

    def test_factorial_tail_values(self):
        assert kernel_double_integral(1) == pytest.approx(math.sinh(1.0) - 1.0, rel=1e-15)
        assert kernel_double_integral(2) == pytest.approx(
            math.sinh(1.0) - 1.0 - 1.0 / 6.0, rel=1e-13
        )


class TestErrorNorm:
    @pytest.mark.parametrize("maker, n_values", [
        (closed_form_m1, (1, 2, 4, 8, 16, 64)),
        (closed_form_m2, (1, 2, 4, 8, 16, 64)),
        (lambda n: solve(assemble_system(3, n)), (2, 4, 8, 16)),
    ])
    def test_nonnegative(self, maker, n_values):
        for n in n_values:
            assert error_norm_squared(maker(n)) >= -1e-12

    @pytest.mark.parametrize("maker", [closed_form_m1, closed_form_m2])
    def test_strictly_decreasing_when_doubling(self, maker):
        values = [error_norm_squared(maker(n)) for n in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_optimal_beats_admissible_flat_weights(self):
        # flat weights rescaled to satisfy the exponential constraint
        n = 8
        rule = closed_form_m1(n)
        nodes = [beta / n for beta in range(n + 1)]
        scale = -math.expm1(-1.0) / math.fsum(math.exp(-x) for x in nodes)
        flat = QuadratureRule(
            rule.grid, tuple(scale for _ in nodes), RuleMethod.CLOSED_FORM
        )
        assert error_norm_squared(rule) < error_norm_squared(flat)

    @pytest.mark.parametrize("m, n", [(1, 4), (1, 16), (2, 4), (2, 16)])
    def test_stationary_under_admissible_perturbations(self, m, n):
        rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
        assert stationarity_margin(rule) >= -1e-14

    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_perturbations_are_admissible(self, m, n):
        # each direction has length 1e-3 and leaves every constraint sum unchanged
        nodes = [beta / n for beta in range(n + 1)]
        for v in optquad.analysis.admissible_perturbations(build_rule(m, n)):
            assert np.linalg.norm(v) == pytest.approx(1e-3, rel=1e-14)
            for name, g, _ in constraint_rows(m):
                assert abs(math.fsum(dv * g(x) for dv, x in zip(v, nodes))) <= 1e-15, name


class TestSobolevNorm:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exponential_is_in_the_kernel(self, m):
        # f^(m) + f^(m-1) vanishes identically for exp(-x)
        est = sobolev_norm(builtin_integrand("exp-neg"), m)
        assert est.value == 0.0

    @pytest.mark.parametrize("m, name", [(2, "one"), (3, "one"), (3, "x")])
    def test_low_degree_polynomials_vanish(self, m, name):
        est = sobolev_norm(builtin_integrand(name), m)
        assert est.value == 0.0

    def test_quadratic_order_one_value(self):
        # integral of (2x + x^2)^2 over [0,1] is 38/15
        est = sobolev_norm(builtin_integrand("x2"), 1)
        assert est.value == pytest.approx(math.sqrt(38.0 / 15.0), rel=1e-13)
        assert est.error_estimate < 1e-12

    def test_missing_derivatives_rejected(self):
        from optquad import Integrand

        bare = Integrand("bare", lambda x: x)
        with pytest.raises(ValueError):
            sobolev_norm(bare, 2)


class TestCauchySchwarz:
    @pytest.mark.parametrize("m", [1, 2])
    def test_exponential_certificate(self, m):
        rule = closed_form_m1(8) if m == 1 else closed_form_m2(8)
        entry = cauchy_schwarz_check(rule, builtin_integrand("exp-neg"))
        assert entry.abs_error <= 1e-12
        assert entry.bound == 0.0
        assert entry.within_bound

    @pytest.mark.parametrize("name", ["sin", "exp", "x2"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_error_within_bound(self, name, m, n):
        rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
        entry = cauchy_schwarz_check(rule, builtin_integrand(name))
        assert entry.within_bound
        assert entry.abs_error <= entry.bound + entry.slack

    def test_constant_for_order_two(self):
        entry = cauchy_schwarz_check(closed_form_m2(6), builtin_integrand("one"))
        assert entry.abs_error <= 1e-12
        assert entry.within_bound

    def test_report_assembly(self):
        report = error_report(
            closed_form_m2(4),
            [builtin_integrand("sin"), builtin_integrand("exp-neg")],
        )
        assert report.norm_sq >= -1e-12
        assert [e.name for e in report.entries] == ["sin", "exp-neg"]
        assert all(e.within_bound for e in report.entries)

    def test_report_evaluates_norm_once(self, monkeypatch):
        calls = []
        original = optquad.analysis.error_norm_squared
        monkeypatch.setattr(
            optquad.analysis, "error_norm_squared", lambda rule: calls.append(rule) or original(rule)
        )
        error_report(closed_form_m2(8), [builtin_integrand(name) for name in ("sin", "exp", "x2")])
        assert len(calls) == 1

    @pytest.mark.parametrize("m, n", [(1, 32), (2, 64)])
    def test_report_entries_equal_single_checks(self, m, n):
        rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
        integrands = [builtin_integrand(name) for name in ("sin", "exp", "runge", "x2")]
        report = error_report(rule, integrands)
        assert report.norm_sq == error_norm_squared(rule)
        assert report.entries == tuple(cauchy_schwarz_check(rule, f) for f in integrands)


class TestConvergenceStudy:
    def test_exact_integrand_flagged(self):
        table = convergence_study(1, [2, 4, 8], builtin_integrand("exp-neg"))
        assert all(row.value <= 1e-12 for row in table.rows)
        assert all(row.order is None for row in table.rows)

    def test_errors_decrease_for_exp_order_two(self):
        table = convergence_study(2, [2, 4, 8, 16], builtin_integrand("exp"))
        values = [row.value for row in table.rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_errors_decrease_for_sin_order_one(self):
        table = convergence_study(1, [2, 4, 8, 16, 32], builtin_integrand("sin"))
        values = [row.value for row in table.rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_order_one_rule_also_reproduces_growing_exponential(self):
        # symmetric weights plus exp(-x) exactness force exp(+x) exactness:
        # sum C_b e^(x_b) telescopes to e - 1 exactly
        table = convergence_study(1, [2, 4, 8, 16, 32], builtin_integrand("exp"))
        assert all(row.value <= 1e-12 for row in table.rows)

    def test_norm_mode_decreases(self):
        table = convergence_study(2, [2, 4, 8, 16], norm_mode=True)
        values = [row.value for row in table.rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert table.quantity == "norm"
        orders = [row.order for row in table.rows[1:]]
        assert all(o is not None and math.isfinite(o) for o in orders)

    def test_ratio_only_for_doubling(self):
        table = convergence_study(1, [2, 3, 6], builtin_integrand("sin"))
        assert table.rows[1].ratio is None        # 3 is not 2*2
        assert table.rows[2].ratio is not None    # 6 = 2*3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            convergence_study(1, [4, 2], builtin_integrand("sin"))

    def test_requires_function_or_norm_mode(self):
        with pytest.raises(ValueError):
            convergence_study(1, [2, 4])


class TestClassicalRules:
    def test_trapezoid_weights(self):
        rule = classical_rule("trapezoid", 2)
        assert rule.coefficients == (0.25, 0.5, 0.25)
        assert rule.method is RuleMethod.TRAPEZOID
        assert not rule.method.is_optimal

    def test_simpson_weights(self):
        rule = classical_rule("simpson", 2)
        assert rule.coefficients == pytest.approx((1 / 6, 4 / 6, 1 / 6), rel=1e-15)

    def test_simpson_rejects_odd(self):
        with pytest.raises(ValueError):
            classical_rule("simpson", 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classical_rule("midpoint", 4)

    def test_trapezoid_exact_for_constants(self):
        rule = classical_rule("trapezoid", 10)
        assert apply_rule(rule, lambda x: 1.0) == pytest.approx(1.0, abs=1e-15)
