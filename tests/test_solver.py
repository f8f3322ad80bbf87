import math

import numpy as np
import pytest

from optquad import (
    GridSpec,
    RuleMethod,
    SolveError,
    WienerHopfSystem,
    assemble_system,
    closed_form_m1,
    closed_form_m2,
    constraint_residuals,
    constraint_rows,
    solve,
)


class TestAssembly:
    @pytest.mark.parametrize("m, n, size", [(1, 1, 3), (2, 2, 5), (3, 2, 6), (2, 8, 11)])
    def test_dimensions(self, m, n, size):
        system = assemble_system(m, n)
        assert system.matrix.shape == (size, size)
        assert system.rhs.shape == (size,)

    @pytest.mark.parametrize("m, n", [(1, 4), (2, 6), (3, 5)])
    def test_kernel_block_symmetric_with_zero_diagonal(self, m, n):
        system = assemble_system(m, n)
        block = system.matrix[: n + 1, : n + 1]
        assert np.array_equal(block, block.T)
        assert np.all(np.diag(block) == 0.0)

    def test_layout(self):
        # order 3: C_0..C_n take columns 0..n, rows n+1, n+2 are the monomials
        # 1, x and row n+3 is e^(-x), each mirrored into its column
        n = 4
        system = assemble_system(3, n)
        nodes = np.array([beta / n for beta in range(n + 1)])
        A = system.matrix
        assert np.array_equal(A[n + 1, : n + 1], np.ones(n + 1))
        assert np.array_equal(A[n + 2, : n + 1], nodes)
        assert np.allclose(A[n + 3, : n + 1], np.exp(-nodes), rtol=1e-16)
        assert np.array_equal(A[: n + 1, n + 1 :], A[n + 1 :, : n + 1].T)
        assert list(system.rhs[n + 1 :]) == [1.0, 0.5, -math.expm1(-1.0)]
        assert [name for name, _, _ in constraint_rows(3)] == ["monomial_0", "monomial_1", "exp"]

    def test_constraint_rows(self):
        n = 4
        system = assemble_system(2, n)
        nodes = np.array([beta / n for beta in range(n + 1)])
        assert np.allclose(system.matrix[n + 1, : n + 1], np.ones(n + 1), atol=0)
        assert np.allclose(system.matrix[n + 2, : n + 1], np.exp(-nodes), rtol=1e-16)
        assert system.rhs[n + 1] == 1.0
        assert system.rhs[n + 2] == pytest.approx(-math.expm1(-1.0), abs=0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            assemble_system(3, 1)


class TestSolve:
    def test_order_one_single_interval(self):
        rule = solve(assemble_system(1, 1))
        closed = closed_form_m1(1)
        assert rule.method is RuleMethod.DIRECT_SOLVE
        for a, b in zip(rule.coefficients, closed.coefficients):
            assert abs(a - b) <= 1e-12
        assert abs(rule.multiplier_d) <= 1e-12
        assert rule.polynomial_multipliers is None

    def test_order_two_single_interval(self):
        rule = solve(assemble_system(2, 1))
        closed = closed_form_m2(1)
        for a, b in zip(rule.coefficients, closed.coefficients):
            assert abs(a - b) <= 1e-12
        assert rule.polynomial_multipliers is not None

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_order_three_constraints_reevaluated(self, n):
        rule = solve(assemble_system(3, n))
        nodes = [beta / n for beta in range(n + 1)]
        sums = {
            "one": math.fsum(rule.coefficients),
            "x": math.fsum(c * x for c, x in zip(rule.coefficients, nodes)),
            "exp": math.fsum(c * math.exp(-x) for c, x in zip(rule.coefficients, nodes)),
        }
        assert abs(sums["one"] - 1.0) <= 1e-11
        assert abs(sums["x"] - 0.5) <= 1e-11
        assert abs(sums["exp"] + math.expm1(-1.0)) <= 1e-11

    @pytest.mark.parametrize("m, n", [(1, 8), (2, 8), (3, 8), (3, 64)])
    def test_condition_estimate_attached(self, m, n):
        rule = solve(assemble_system(m, n))
        assert rule.condition_estimate is not None
        assert rule.condition_estimate > 1.0

    @pytest.mark.parametrize("m, n", [(1, 16), (2, 16), (3, 16)])
    def test_solved_rules_satisfy_constraints(self, m, n):
        rule = solve(assemble_system(m, n))
        assert max(constraint_residuals(rule).values()) <= 1e-11

    def test_singular_system_raises(self):
        grid = GridSpec(1, 1)
        matrix = np.ones((3, 3))
        system = WienerHopfSystem(grid, matrix, np.ones(3))
        with pytest.raises(SolveError):
            solve(system)

    def test_condition_threshold(self):
        # m = 3 is past the fixed 1e14 limit from n = 128 on; no caller can lift it
        with pytest.raises(SolveError, match=r"cond ~ 2\.4\d*e\+14"):
            solve(assemble_system(3, 128))
