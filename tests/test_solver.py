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
from optquad.coefficients import _closed_weights

import oracles


def _refuse_memory(*args, **kwargs):
    raise MemoryError


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

    def test_too_large_to_allocate(self):
        # 284 PiB, beyond any 64-bit address space, so no host allocates part of it
        with pytest.raises(SolveError, match=r"cannot allocate the order-1 system for n = 200000000: "
                                             r"200000002 x 200000002 doubles, 2\.98e\+08 GiB"):
            assemble_system(1, 200_000_000)


class TestSolve:
    @pytest.mark.parametrize("stage", ["eigvalsh", "solve"])
    def test_out_of_memory_names_order_and_size(self, monkeypatch, stage):
        system = assemble_system(3, 8)
        monkeypatch.setattr(np.linalg, stage, _refuse_memory)
        with pytest.raises(SolveError, match=r"^out of memory solving the order-3 system for n = 8: "
                                             r"12 x 12 doubles, 1\.07e-06 GiB$"):
            solve(system)

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

    def test_zero_system_has_infinite_condition(self):
        # every eigenvalue is exactly zero: cond is inf, with no 0/0 warning
        system = WienerHopfSystem(GridSpec(1, 1), np.zeros((3, 3)), np.ones(3))
        with pytest.raises(SolveError, match=r"too ill-conditioned: cond ~ inf$"):
            solve(system)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_entry_raises(self, entry):
        system = assemble_system(1, 2)
        matrix = system.matrix.copy()
        matrix[1, 1] = entry
        with pytest.raises(SolveError, match="non-finite entry"):
            solve(WienerHopfSystem(system.grid, matrix, system.rhs))

    def test_non_symmetric_matrix_raises(self):
        # the eigenvalue solve reads one triangle, so one ulp off is refused
        system = assemble_system(1, 2)
        matrix = system.matrix.copy()
        matrix[0, 1] = np.nextafter(matrix[0, 1], 1.0)
        with pytest.raises(SolveError, match="not exactly symmetric"):
            solve(WienerHopfSystem(system.grid, matrix, system.rhs))

    def test_non_finite_rhs_raises(self):
        system = assemble_system(1, 2)
        rhs = system.rhs.copy()
        rhs[0] = math.nan
        with pytest.raises(SolveError, match="residual nan"):
            solve(WienerHopfSystem(system.grid, system.matrix, rhs))

    def test_condition_threshold(self):
        # m = 3 is past the fixed 1e14 limit from n = 110 on; no caller can lift it
        with pytest.raises(SolveError, match=r"cond ~ 2\.4\d*e\+14"):
            solve(assemble_system(3, 128))

    def test_order_three_crosses_the_limit_at_110(self):
        # cond 9.94e13 at n = 109 and 1.046e14 at n = 110, 0.6% below and 4.6%
        # above the limit: both ends hold under either 2-norm estimator
        assert solve(assemble_system(3, 109)).condition_estimate < 1e14
        with pytest.raises(SolveError, match=r"too ill-conditioned: cond ~ 1\.04\d*e\+14"):
            solve(assemble_system(3, 110))

    @pytest.mark.parametrize(
        "m, n", [(1, 1), (1, 64), (1, 512), (2, 2), (2, 160), (2, 300), (3, 2), (3, 64), (3, 105), (3, 109)]
    )
    def test_condition_number_is_the_singular_value_ratio(self, m, n):
        # max|lambda| / min|lambda| of the symmetric matrix is sigma_max / sigma_min;
        # the two computations round differently, by 7.5e-4 at most (at (3, 105))
        system = assemble_system(m, n)
        cond = solve(system).condition_estimate
        assert cond == pytest.approx(np.linalg.cond(system.matrix), rel=1e-3)


# the dense solve's envelope at m = 3: the largest weight error against a
# 50-digit solve of the same bordered system.  Each row is (n, the error of
# the former float-gap kernel block, which names the cell, the error
# measured with the correctly rounded entries and their remainders); it is
# held to twice the latter.  The rounding of the longdouble residual, not
# the entries and not the number of refinement steps, limits it now.
M3_ENVELOPE = [(8, 8.9e-14, 8.01e-15), (16, 1.15e-12, 2.63e-14), (32, 2.61e-10, 2.02e-13),
               (64, 1.25e-8, 1.73e-11), (96, 9.66e-8, 2.47e-10)]


@pytest.mark.parametrize("n, measured", [(n, e) for n, _, e in M3_ENVELOPE],
                         ids=[f"{n}-{gap}" for n, gap, _ in M3_ENVELOPE])
def test_order_three_solve_envelope(n, measured):
    rule = solve(assemble_system(3, n))
    ref = oracles.mp_kkt_weights(3, n, 50)
    assert max(abs(float(c - r)) for c, r in zip(rule.coefficients, ref)) <= 2 * measured


# the dense solve's envelope at m = 1, 2: the largest weight error against
# the closed form evaluated at 50 digits, which is independent of the
# solve, in rows laid out as M3_ENVELOPE's.  At m = 2 it stays below
# verify's 1e-9 closed_vs_solve tolerance through n = 512.
CLOSED_ORDER_ENVELOPE = {
    1: [(8, 6.1e-16, 3.48e-17), (16, 3.08e-15, 2.48e-17), (32, 2.9e-15, 2.87e-17),
        (64, 5.3e-15, 2.78e-17), (96, 2.59e-14, 2.7e-17), (128, 1.62e-14, 2.44e-17),
        (160, 2.22e-14, 4.16e-17), (192, 4.89e-14, 5.53e-17), (256, 3.07e-14, 9.39e-17),
        (512, 9.79e-14, 2.38e-16)],
    2: [(8, 7.9e-15, 4.65e-16), (16, 9.27e-14, 7.07e-16), (32, 2.02e-12, 2.22e-15),
        (64, 1.74e-11, 2.24e-14), (96, 6.16e-11, 6.8e-14), (128, 1.51e-10, 2.38e-13),
        (160, 3.77e-10, 1.27e-12), (192, 1.6e-9, 1.18e-12), (256, 2.05e-9, 6.08e-12),
        (512, 1.89e-8, 5.25e-11)],
}
CLOSED_ORDER_CELLS = [(m, n, gap, e) for m, rows in CLOSED_ORDER_ENVELOPE.items() for n, gap, e in rows]


@pytest.mark.parametrize("m, n, measured", [(m, n, e) for m, n, _, e in CLOSED_ORDER_CELLS],
                         ids=[f"{m}-{n}-{gap}" for m, n, gap, _ in CLOSED_ORDER_CELLS])
def test_closed_order_solve_envelope(m, n, measured):
    rule = solve(assemble_system(m, n))
    ref = _closed_weights(m, n, dps=50)
    assert max(abs(float(c - r)) for c, r in zip(rule.coefficients, ref)) <= 2 * measured
