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

from .core import (GridSpec, QuadratureRule, RuleMethod, SolveError, constraint_rows, kernel_table,
                   moment_table)


@dataclass(frozen=True)
class WienerHopfSystem:
    """Assembled bordered system for order m on n intervals.

    The unknowns are laid out as C_0..C_n (indices 0..n), the polynomial
    multipliers P_0..P_(m-2) (n+1..n+m-1) and d (n+m).
    """

    grid: GridSpec
    matrix: np.ndarray
    rhs: np.ndarray


def _memory_error(what: str, grid: GridSpec) -> SolveError:
    # names the order and the size of the system that did not fit in memory
    size = grid.n + grid.m + 1
    return SolveError(f"{what} the order-{grid.m} system for n = {grid.n}:"
                      f" {size} x {size} doubles, {8 * size * size / 2**30:.3g} GiB")


def assemble_system(m: int, n: int) -> WienerHopfSystem:
    """Build the (n+m+1) x (n+m+1) system for order m on n intervals.

    Rows 0..n pair the kernel block with the multiplier columns against the
    kernel moments; the final m rows are :func:`optquad.core.constraint_rows`,
    each g sampled at the nodes against its exact integral.  The kernel
    block is symmetric because the kernel is even, and its diagonal is zero.

    The block is filled in whole-array passes: |x_i - x_j| is written into
    it in place, :func:`optquad.core.kernel_table` takes the kernel once at
    each distinct float gap (found in one sorted copy of the block), and
    the values are mapped back with ``np.searchsorted``.  Rounding makes
    i/n - j/n differ from (i-j)/n, so a diagonal holds several such gaps:
    1 to 3.6 on average for n < 1200.  IEEE subtraction is sign-symmetric
    and the kernel is even, so each entry is the kernel at the gap of the
    lower-triangle pair.  The moments come from
    :func:`optquad.core.moment_table`.  Both tables run in whole-array
    passes from 32 points on, with no numpy transcendental ufunc, and as
    scalar calls below; either way they are bit-identical to psi and
    moment_f.  The cost is O(n) kernel and moment evaluations on average,
    O(n^2 log n) float work for the sort and, at the peak, two temporary
    arrays the size of the block.  A Toeplitz fill psi(|i-j|/n) needs no
    sort, but it is not this system: it is bit-identical only when n is a
    power of two.  Elsewhere, solved with the same border and rhs, its
    largest weight error against a 50-digit reference is a coin flip at
    m = 1, 2 (larger in 259 of 496 cells, n = 3..257, by a factor of
    0.47-2.49) but larger in 11 of 18 cells at m = 3 (n = 5..96: 1.24 in
    geometric mean, 6.4x at n = 6, 1.67x at n = 96).  The float-gap block
    is the consistent system of the float nodes that the constraint rows
    and apply_rule use.  A matrix too large to allocate,
    or a sort or index pass that then runs out of memory, raises
    :class:`optquad.core.SolveError` naming the order and the size.
    """
    grid = GridSpec(m, n)
    size = n + m + 1
    try:
        A = np.zeros((size, size))
    except (MemoryError, ValueError) as exc:  # numpy refuses a size past its index range with ValueError
        raise _memory_error("cannot allocate", grid) from exc
    b = np.zeros(size)
    x = grid.node_array()
    block = A[: n + 1, : n + 1]
    np.subtract.outer(x, x, out=block)
    np.abs(block, out=block)
    # the distinct gaps, from one sorted copy of the block (np.unique would
    # also import numpy.ma, 18 ms on a process's first assembly)
    try:  # the sorted copy and the indices are each the size of the block
        gaps = np.sort(block, axis=None)
        gaps = gaps[np.concatenate(([True], gaps[1:] != gaps[:-1]))]
        np.take(kernel_table(m, gaps), np.searchsorted(gaps, block), out=block)
    except MemoryError as exc:
        raise _memory_error("out of memory assembling", grid) from exc
    b[: n + 1] = moment_table(grid)
    for row, (_, g, integral) in enumerate(constraint_rows(m), start=n + 1):
        A[row, : n + 1] = A[: n + 1, row] = g(x)
        b[row] = integral
    return WienerHopfSystem(grid, A, b)


_COND_LIMIT = 1e14  # largest 2-norm condition number solve accepts
_RESIDUAL_TOL = 1e-10  # largest refined max-norm residual, relative to ||rhs||_inf


def solve(system: WienerHopfSystem) -> QuadratureRule:
    """Solve the assembled system; returns a rule tagged DIRECT_SOLVE.

    The matrix must be finite and exactly symmetric, as
    :func:`assemble_system` builds it; any other raises :class:`SolveError`.
    Its 2-norm condition number, max|lambda| / min|lambda| over the
    eigenvalues of one symmetric eigenvalue solve (``np.linalg.eigvalsh``),
    is attached to the rule; a system with cond > 1e14, or with a zero
    eigenvalue (cond = inf), raises :class:`SolveError`.  An LU solve is
    followed by one step of iterative refinement: the residual is formed in
    extended precision and the correction solved for with a second LU
    factorisation.  A max-norm residual above 1e-10 * ||rhs||_inf after that
    step also raises :class:`SolveError`.  Neither limit can be changed.
    A stage that runs out of memory raises :class:`SolveError` naming the
    order and the size of the system.
    """
    A, b = system.matrix, system.rhs
    try:  # the checks, eigvalsh, the LUs and the longdouble copies take O(size^2) memory
        if not np.isfinite(A).all():
            raise SolveError("system matrix has a non-finite entry")
        # eigvalsh reads one triangle, so the other must hold the same values
        if not np.array_equal(A, A.T):
            raise SolveError("system matrix is not exactly symmetric")
        moduli = np.abs(np.linalg.eigvalsh(A))
        smallest, largest = float(moduli.min()), float(moduli.max())
        cond = largest / smallest if smallest else math.inf
        if cond > _COND_LIMIT:
            raise SolveError(f"system too ill-conditioned: cond ~ {cond:.3e}")
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"singular system (cond ~ {cond:.3e}): {exc}") from exc
        r = b.astype(np.longdouble) - A.astype(np.longdouble) @ x.astype(np.longdouble)
        dx = np.linalg.solve(A, np.asarray(r, dtype=np.float64))
        x = np.asarray(x.astype(np.longdouble) + dx.astype(np.longdouble), dtype=np.float64)
        residual = float(np.max(np.abs(A @ x - b)))
    except MemoryError as exc:
        raise _memory_error("out of memory solving", system.grid) from exc
    scale = float(np.max(np.abs(b)))
    if not residual <= _RESIDUAL_TOL * scale:  # a nan residual fails too
        raise SolveError(
            f"residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e} * ||rhs|| (cond ~ {cond:.3e})"
        )
    n, m = system.grid.n, system.grid.m
    return QuadratureRule(
        system.grid,
        x[: n + 1],
        RuleMethod.DIRECT_SOLVE,
        multiplier_d=float(x[n + m]),
        polynomial_multipliers=tuple(float(v) for v in x[n + 1 : n + m]) or None,
        condition_estimate=cond,
    )
