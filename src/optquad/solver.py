"""Dense constrained solve for the optimal weights at any supported order.

The optimality conditions form a symmetric bordered (KKT-style) system: a
kernel block psi(x_i - x_j) bordered by the constraint rows/columns (the
monomials x^a for a <= m-2 and e^(-x)), with the multipliers P_0..P_(m-2), d
as extra unknowns.  At desk scale (n <= a few hundred) a pivoted dense solve
plus one step of extended-precision iterative refinement is accurate to near
machine level, which is what the closed forms are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, QuadratureRule, RuleMethod, SolveError, moment_f, psi


@dataclass(frozen=True)
class SystemLayout:
    """Column/row indices of each unknown block."""

    coefficients: range
    polynomial: range
    exponential: int


@dataclass(frozen=True)
class WienerHopfSystem:
    """Assembled bordered system: matrix, right-hand side, unknown layout."""

    grid: GridSpec
    matrix: np.ndarray
    rhs: np.ndarray
    layout: SystemLayout

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def assemble_system(m: int, n: int) -> WienerHopfSystem:
    """Build the (n+m+1) x (n+m+1) system for order m on n intervals.

    Rows 0..n pair the kernel block with the multiplier columns against the
    kernel moments; the final m rows impose the monomial sums 1/(a+1) and the
    exponential sum 1 - e^-1.  The kernel block is symmetric because the
    kernel is even, and its diagonal is zero.

    The block is filled one diagonal at a time, with one kernel call per
    distinct float x_i - x_j.  Rounding makes i/n - j/n differ from (i-j)/n,
    so a diagonal holds several such values: 1 to 3.6 on average for
    n < 1200.  So the cost is O(n) kernel and moment evaluations, O(n^2)
    float work and O(n) extra memory.
    """
    grid = GridSpec(m, n)
    size = n + m + 1
    A = np.zeros((size, size))
    b = np.zeros(size)
    nodes = [grid.node(beta) for beta in range(n + 1)]
    x = np.array(nodes)
    for k in range(1, n + 1):
        rows = np.arange(k, n + 1)
        gaps, where = np.unique(x[k:] - x[: n + 1 - k], return_inverse=True)
        vals = np.array([psi(m, float(gap)) for gap in gaps])[where]
        A[rows, rows - k] = vals
        A[rows - k, rows] = vals
    for i in range(n + 1):
        b[i] = moment_f(m, i, grid)
    for alpha in range(m - 1):
        row = n + 1 + alpha
        for j in range(n + 1):
            A[row, j] = A[j, row] = nodes[j] ** alpha
        b[row] = 1.0 / (alpha + 1)
    for j in range(n + 1):
        A[n + m, j] = A[j, n + m] = math.exp(-nodes[j])
    b[n + m] = -math.expm1(-1.0)
    layout = SystemLayout(range(0, n + 1), range(n + 1, n + m), n + m)
    return WienerHopfSystem(grid, A, b, layout)


def solve(
    system: WienerHopfSystem,
    refine: int = 1,
    cond_threshold: float = 1e14,
    residual_tol: float = 1e-10,
) -> QuadratureRule:
    """Solve the assembled system; returns a rule tagged DIRECT_SOLVE.

    The 2-norm condition number is estimated for every solve and attached to
    the rule; beyond ``cond_threshold`` the solve is declared failed.  After
    ``refine`` steps of iterative refinement (residuals accumulated in
    extended precision) the max-norm residual must be within
    ``residual_tol * ||rhs||_inf``.
    """
    A, b = system.matrix, system.rhs
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > cond_threshold:
        raise SolveError(f"system too ill-conditioned: cond ~ {cond:.3e}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"singular system (cond ~ {cond:.3e}): {exc}") from exc
    A_wide = A.astype(np.longdouble)
    b_wide = b.astype(np.longdouble)
    for _ in range(refine):
        r = b_wide - A_wide @ x.astype(np.longdouble)
        dx = np.linalg.solve(A, np.asarray(r, dtype=np.float64))
        x = np.asarray(x.astype(np.longdouble) + dx.astype(np.longdouble), dtype=np.float64)
    residual = float(np.max(np.abs(A @ x - b)))
    scale = float(np.max(np.abs(b)))
    if residual > residual_tol * scale:
        raise SolveError(
            f"residual {residual:.3e} exceeds {residual_tol:.1e} * ||rhs|| (cond ~ {cond:.3e})"
        )
    n, m = system.grid.n, system.grid.m
    poly = tuple(float(x[i]) for i in system.layout.polynomial) or None
    return QuadratureRule(
        system.grid,
        tuple(float(v) for v in x[: n + 1]),
        RuleMethod.DIRECT_SOLVE,
        multiplier_d=float(x[system.layout.exponential]),
        polynomial_multipliers=poly,
        condition_estimate=cond,
    )
