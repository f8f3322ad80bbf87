import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import optquad.analysis
from optquad import (
    BUILTIN_INTEGRANDS,
    Integrand,
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
from optquad.analysis import _CHUNK, _exact_parts

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
        _assert_admissible(m, n, optquad.analysis.admissible_perturbations(build_rule(m, n)))

    def test_perturbations_take_memory_linear_in_n(self):
        # the projector holds the m constraint directions, not a null-space
        # basis of (n+1)^2 doubles (129 MiB at n = 4096)
        rule = build_rule(2, 4096)
        tracemalloc.start()
        try:
            directions = optquad.analysis.admissible_perturbations(rule, count=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(directions) == 2
        _assert_admissible(2, 4096, directions)

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
    def test_no_directions_when_constraints_fix_the_weights(self, m, n):
        # n + 1 == m nodes: the m constraint rows have full rank, so the
        # admissible set is one point and the margin is exactly zero
        rule = build_rule(m, n)
        assert optquad.analysis.admissible_perturbations(rule) == []
        assert stationarity_margin(rule) == 0.0


def _assert_admissible(m, n, directions):
    # each direction has length 1e-3 and leaves every constraint sum unchanged
    nodes = [beta / n for beta in range(n + 1)]
    for v in directions:
        assert np.linalg.norm(v) == pytest.approx(1e-3, rel=1e-14)
        for name, g, _ in constraint_rows(m):
            assert abs(math.fsum(dv * g(x) for dv, x in zip(v, nodes))) <= 1e-15, name


def _fsum_outcome(values):
    """math.fsum's result as a comparable key: its bits, or the error it raised."""
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(total) else total.hex()


class TestExactParts:
    """math.fsum of _exact_parts(x) against math.fsum of x itself."""

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        parts = _exact_parts(x)
        assert _fsum_outcome(parts) == _fsum_outcome(x.tolist())
        return parts

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_any_finite_floats(self, values):
        # the order of huge terms can decide an intermediate overflow
        assume(_fsum_outcome(values) is not OverflowError)
        self._check(values)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 3 * _CHUNK),
        low=st.integers(-1100, 990),
        span=st.integers(0, 300),
    )
    def test_wide_exponents_with_cancellation(self, seed, size, low, span):
        # exponents from `low` to `low + span`, from subnormal to 2^1000,
        # and one third of the terms cancelled exactly by later ones
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.standard_normal(size), rng.integers(low, min(low + span, 1000) + 1, size))
        x = np.concatenate([x, -rng.permutation(x)[: size // 3]])
        self._check(x)

    @pytest.mark.parametrize(
        "x",
        [
            [2.0**1000, 1.0, -(2.0**1000)],
            [2.0**1020, 3.0, -(2.0**1020), 2.0**-1074],  # beyond any sigma: passed through
            [math.ldexp(k, -1074) for k in range(-50, 200, 7)],  # all subnormal
            [0.0] * 100,
            [-0.0, 0.0, -0.0],
            [2.5],
            [5e-324],
            [-1.7e308],
            [],
        ],
        ids=["cancel-2^1000", "huge", "subnormal", "zeros", "signed-zeros", "one", "one-subnormal",
             "one-huge", "empty"],
    )
    def test_edge_cases(self, x):
        self._check(x)

    def test_cancellation_across_chunk_boundary(self):
        # 2^13 + 1 elements: the two 2^1000 land in different chunks
        x = np.full(_CHUNK + 1, 0.1)
        x[0], x[-1] = 2.0**1000, -(2.0**1000)
        self._check(x)
        assert math.fsum(_exact_parts(x)) == math.fsum([0.1] * (_CHUNK - 1))

    def test_huge_elements_in_a_full_chunk(self):
        # sigma is 2^14 times max|x| for 2^13 elements: from 2^1009 on an
        # element is passed through, and the largest extracted one is below
        x = np.full(_CHUNK, 0.5)
        x[:4] = 2.0**1020, -(2.0**1009), 1.5 * 2.0**1008, -(2.0**1008)
        self._check(x)

    @pytest.mark.parametrize(
        "x",
        [[math.inf, 1.0], [1.0, -math.inf], [math.inf, 2.0, -math.inf], [math.nan, 1.0],
         [math.inf, math.nan, 3.0], [math.inf, 1e308, 1e308], [1e308, 1e308, -1e308]],
        ids=["inf", "-inf", "inf-inf", "nan", "inf-nan", "inf-overflow", "overflow"],
    )
    def test_non_finite_outcome_of_fsum(self, x):
        # inf, nan, ValueError or an intermediate OverflowError, as math.fsum
        self._check(x)

    def test_parts_are_few(self):
        x = np.random.default_rng(7).standard_normal(4 * _CHUNK)
        assert len(self._check(x)) <= 4 * 4


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
        bare = Integrand("bare", lambda x: x)
        with pytest.raises(ValueError):
            sobolev_norm(bare, 2)

    @pytest.mark.parametrize("m", [0, 4, 2.0])
    def test_rejects_invalid_order(self, m):
        # order 0 would return 0.0 for the norm of f' + f^(-1), which does not exist
        with pytest.raises(ValueError, match=rf"order m must be in \(1, 2, 3\), got {m}"):
            sobolev_norm(builtin_integrand("sin"), m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BUILTIN_INTEGRANDS))
    def test_builtins_within_estimate_of_mpmath(self, name, m):
        est = sobolev_norm(builtin_integrand(name), m)
        assert type(est.value) is float and type(est.error_estimate) is float
        d = _MP_DERIVATIVES[name]
        with mp.workdps(30):
            ref = mp.sqrt(mp.quad(lambda t: (d(m, t) + d(m - 1, t)) ** 2, [0, 0.25, 0.5, 1]))
            assert abs(est.value - ref) <= est.error_estimate

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [10, 150, 400])
    def test_oscillatory_within_estimate(self, k, m):
        # f = sin(kx): f^(j) = P_j sin(kx) + Q_j cos(kx), and the square of
        # P sin + Q cos integrates in closed form over [0, 1]
        f = Integrand(
            f"sin{k}",
            lambda x: math.sin(k * x),
            (
                lambda x: k * math.cos(k * x),
                lambda x: -k * k * math.sin(k * x),
                lambda x: -k * k * k * math.cos(k * x),
            ),
        )
        est = sobolev_norm(f, m)
        with mp.workdps(30):
            pq = [(1, 0), (0, k), (-k * k, 0), (0, -k * k * k)]
            p, q = (a + b for a, b in zip(pq[m], pq[m - 1]))
            s2, c2 = mp.sin(2 * k), mp.cos(2 * k)
            ref = mp.sqrt(
                p * p * (mp.mpf(1) / 2 - s2 / (4 * k))
                + q * q * (mp.mpf(1) / 2 + s2 / (4 * k))
                + p * q * (1 - c2) / (2 * k)
            )
            assert abs(est.value - ref) <= est.error_estimate

    @pytest.mark.parametrize("name", sorted(BUILTIN_INTEGRANDS))
    def test_smooth_builtins_stop_early(self, name):
        # the fixed 256-vs-128-panel scheme made 7,680 callback calls; three
        # agreeing levels end at 32 panels (1,120 calls), and runge, whose
        # 8- and 16-panel levels differ, at 64 (2,400)
        f, calls = _counted(builtin_integrand(name))
        last = 64 if name == "runge" else 32
        for m in (1, 2, 3):
            calls.clear()
            sobolev_norm(f, m)
            assert len(calls) == 2 * 10 * (2 * last - 8), m

    def test_jump_reaches_the_cap_with_the_fixed_panel_bits(self):
        # f' jumps at 1/3, inside a panel at every level, so no two levels
        # agree: all six levels run and the last two are the old 128 and 256
        f, calls = _counted(
            Integrand("kink", lambda x: min(x, 1.0 / 3.0), (lambda x: 1.0 if x < 1.0 / 3.0 else 0.0,))
        )
        est = sobolev_norm(f, 1)
        assert len(calls) == 2 * 10 * (8 + 16 + 32 + 64 + 128 + 256)
        assert (est.value, est.error_estimate) == oracles.fixed_panel_sobolev_norm(f, 1)

    def test_bump_between_the_first_two_levels_is_covered(self):
        # a bump of width 1e-3 in the widest gap shared by the 8- and
        # 16-panel nodes: those two levels agree on almost nothing, the
        # 32-panel level sees the bump and the loop refines to the cap
        c = 0.45965
        est = sobolev_norm(_bump(c, 1e-3), 1)
        assert abs(est.value - _bump_norm(c, 1e-3)) <= est.error_estimate
        assert est.value == pytest.approx(0.035402, rel=1e-4)

    def test_bump_covered_wherever_the_fixed_scheme_covers(self):
        # every level repeats with period 1/8, so centres spread over one
        # period meet every placement of a bump against the nodes
        sigma = 6e-4
        for c in np.arange(0.375, 0.5, 1e-3):
            f = _bump(c, sigma)
            ref = _bump_norm(c, sigma)
            value, estimate = oracles.fixed_panel_sobolev_norm(f, 1)
            if abs(value - ref) <= estimate:
                est = sobolev_norm(f, 1)
                assert abs(est.value - ref) <= est.error_estimate, c

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, bad):
        f = Integrand("broken", lambda x: bad, (lambda x: bad,))
        with pytest.raises(ValueError, match="broken"):
            sobolev_norm(f, 1)
        with pytest.raises(ValueError, match="broken"):
            cauchy_schwarz_check(closed_form_m1(4), f)

    def test_square_beyond_float_range_rejected(self):
        f = Integrand("huge", lambda x: 1e200, (lambda x: 0.0,))
        with pytest.raises(ValueError, match="huge"):
            sobolev_norm(f, 1)

    def test_import_leaves_gauss_table_unloaded(self):
        # the Gauss nodes come from numpy.polynomial on first use only
        src = os.path.dirname(os.path.dirname(optquad.analysis.__file__))
        code = f"import sys; sys.path.insert(0, {src!r}); import optquad; print('numpy.polynomial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


def _counted(f):
    # f with every callback logging its argument to the returned list
    calls = []

    def wrap(fn):
        return lambda x: calls.append(x) or fn(x)

    return Integrand(f.name, wrap(f.fn), tuple(map(wrap, f.derivatives)), f.exact_integral), calls


def _bump(c, sigma):
    # f^(1) + f^(0) is a Gaussian bump of width sigma at c (f itself is 0)
    return Integrand("bump", lambda x: 0.0, (lambda x: math.exp(-(((x - c) / sigma) ** 2)),))


def _bump_norm(c, sigma):
    # L2 norm over [0, 1] of the bump: exp(-2u^2/sigma^2) integrates to erfs
    s = sigma / math.sqrt(2.0)
    return math.sqrt(s * math.sqrt(math.pi) / 2.0 * (math.erf((1.0 - c) / s) + math.erf(c / s)))


def _mp_runge(k, x):
    # 1/(1 + 25x^2) = Re 1/(1 + 5ix), whose k-th derivative is k! (-5i)^k / (1 + 5ix)^(k+1)
    return mp.re(mp.factorial(k) * (-5j) ** k / (1 + 5j * x) ** (k + 1))


_MP_DERIVATIVES = {
    "exp-neg": lambda k, x: (-1) ** k * mp.exp(-x),
    "one": lambda k, x: mp.mpf(k == 0),
    "x": lambda k, x: (x, 1, 0, 0)[k],
    "x2": lambda k, x: (x * x, 2 * x, 2, 0)[k],
    "sin": lambda k, x: mp.sin(x + k * mp.pi / 2),
    "exp": lambda k, x: mp.exp(x),
    "runge": _mp_runge,
}


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
        # without an integrand the table is the error-functional norm
        table = convergence_study(2, [2, 4, 8, 16])
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

    def test_integrand_selects_its_error_over_the_norm(self):
        f = builtin_integrand("sin")
        errors = convergence_study(1, [2, 4], f)
        norms = convergence_study(1, [2, 4])
        assert (errors.quantity, norms.quantity) == ("sin", "norm")
        for row, n in zip(errors.rows, (2, 4)):
            assert row.value == abs(apply_rule(build_rule(1, n), f.fn) - f.exact_integral)
        for row, n in zip(norms.rows, (2, 4)):
            assert row.value == math.sqrt(error_norm_squared(build_rule(1, n)))


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

    def test_trapezoid_rejects_fractional_n(self):
        with pytest.raises(ValueError, match=r"interval count n must be an integer, got 2\.5"):
            classical_rule("trapezoid", 2.5)

    def test_simpson_rejects_integral_float_n(self):
        with pytest.raises(ValueError, match=r"interval count n must be an integer, got 4\.0"):
            classical_rule("simpson", 4.0)
        assert classical_rule("simpson", np.int64(4)) == classical_rule("simpson", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classical_rule("midpoint", 4)

    def test_trapezoid_exact_for_constants(self):
        rule = classical_rule("trapezoid", 10)
        assert apply_rule(rule, lambda x: 1.0) == pytest.approx(1.0, abs=1e-15)
