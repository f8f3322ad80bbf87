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

from .core import GridSpec, QuadratureRule, RuleMethod, SolveError, constraint_rows, moment_table, psi


@dataclass(frozen=True)
class WienerHopfSystem:
    """Assembled bordered system for order m on n intervals.

    The unknowns are laid out as C_0..C_n (indices 0..n), the polynomial
    multipliers P_0..P_(m-2) (n+1..n+m-1) and d (n+m).
    """

    grid: GridSpec
    matrix: np.ndarray
    rhs: np.ndarray


def assemble_system(m: int, n: int) -> WienerHopfSystem:
    """Build the (n+m+1) x (n+m+1) system for order m on n intervals.

    Rows 0..n pair the kernel block with the multiplier columns against the
    kernel moments; the final m rows are :func:`optquad.core.constraint_rows`,
    each g sampled at the nodes against its exact integral.  The kernel
    block is symmetric because the kernel is even, and its diagonal is zero.

    The block is filled one diagonal at a time, with one kernel call per
    distinct float x_i - x_j.  Rounding makes i/n - j/n differ from (i-j)/n,
    so a diagonal holds several such values: 1 to 3.6 on average for
    n < 1200.  The moments are mirror-symmetric bit for bit, so
    :func:`optquad.core.moment_table` evaluates n//2 + 1 of them.  The cost
    is O(n) kernel and moment evaluations, O(n^2) float work and O(n) extra
    memory.  A Toeplitz fill psi(|i-j|/n) is 4-9x faster, but it is not
    this system: it is bit-identical only when n is a
    power of two, and elsewhere its weights are less accurate against a
    40-60-digit KKT solve in 11 of 14 cells tried, by up to 1.9x.  The
    float-gap block is the consistent system of the float nodes that the
    constraint rows and apply_rule use.  A matrix too large to allocate
    raises :class:`optquad.core.SolveError`.
    """
    grid = GridSpec(m, n)
    size = n + m + 1
    try:
        A = np.zeros((size, size))
    except MemoryError as exc:
        raise SolveError(f"cannot allocate the order-{m} system for n = {n}:"
                         f" {size} x {size} doubles, {8 * size * size / 2**30:.3g} GiB") from exc
    b = np.zeros(size)
    nodes = grid.nodes()
    x = np.array(nodes)
    for k in range(1, n + 1):
        rows = np.arange(k, n + 1)
        gaps, where = np.unique(x[k:] - x[: n + 1 - k], return_inverse=True)
        vals = np.array([psi(m, float(gap)) for gap in gaps])[where]
        A[rows, rows - k] = vals
        A[rows - k, rows] = vals
    b[: n + 1] = moment_table(m, grid)
    for row, (_, g, integral) in enumerate(constraint_rows(m), start=n + 1):
        A[row, : n + 1] = A[: n + 1, row] = [g(x) for x in nodes]
        b[row] = integral
    return WienerHopfSystem(grid, A, b)


_COND_LIMIT = 1e14  # largest 2-norm condition number solve accepts
_RESIDUAL_TOL = 1e-10  # largest refined max-norm residual, relative to ||rhs||_inf


def solve(system: WienerHopfSystem) -> QuadratureRule:
    """Solve the assembled system; returns a rule tagged DIRECT_SOLVE.

    The 2-norm condition number (one SVD) is attached to the rule, and a
    system with cond > 1e14 raises :class:`SolveError`.  An LU solve is
    followed by one step of iterative refinement: the residual is formed in
    extended precision and the correction solved for with a second LU
    factorisation.  A max-norm residual above 1e-10 * ||rhs||_inf after that
    step also raises :class:`SolveError`.  Neither limit can be changed.
    """
    A, b = system.matrix, system.rhs
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SolveError(f"system too ill-conditioned: cond ~ {cond:.3e}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"singular system (cond ~ {cond:.3e}): {exc}") from exc
    r = b.astype(np.longdouble) - A.astype(np.longdouble) @ x.astype(np.longdouble)
    dx = np.linalg.solve(A, np.asarray(r, dtype=np.float64))
    x = np.asarray(x.astype(np.longdouble) + dx.astype(np.longdouble), dtype=np.float64)
    residual = float(np.max(np.abs(A @ x - b)))
    scale = float(np.max(np.abs(b)))
    if residual > _RESIDUAL_TOL * scale:
        raise SolveError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e} * ||rhs|| (cond ~ {cond:.3e})"
        )
    n, m = system.grid.n, system.grid.m
    return QuadratureRule(
        system.grid,
        tuple(float(v) for v in x[: n + 1]),
        RuleMethod.DIRECT_SOLVE,
        multiplier_d=float(x[n + m]),
        polynomial_multipliers=tuple(float(v) for v in x[n + 1 : n + m]) or None,
        condition_estimate=cond,
    )
