"""Dense constrained solve for the optimal weights at any supported order.

The optimality conditions form a symmetric bordered (KKT-style) system: a
kernel block psi((i - j)/n) bordered by the constraint rows/columns (the
monomials x^a for a <= m-2 and e^(-x)), with the multipliers P_0..P_(m-2), d
as extra unknowns.  The kernel and moment entries are the floats nearest
their exact values at the nodes, from :mod:`optquad._exact`.  At desk scale
(n <= a few hundred) a pivoted dense solve plus one step of iterative
refinement, whose extended-precision residual also takes the remainders
of those entries, is what the closed forms are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._exact import grid_tables
from .core import GridSpec, QuadratureRule, RuleMethod, SolveError, constraint_rows


@dataclass(frozen=True)
class WienerHopfSystem:
    """Assembled bordered system for order m on n intervals.

    The unknowns are laid out as C_0..C_n (indices 0..n), the polynomial
    multipliers P_0..P_(m-2) (n+1..n+m-1) and d (n+m).  ``low`` holds the
    remainders of the kernel and moment entries, psi(m, k/n) and
    f_m(k/n) less their floats for k = 0..n, as :func:`assemble_system`
    fills it; a system built by hand leaves it None.
    """

    grid: GridSpec
    matrix: np.ndarray
    rhs: np.ndarray
    low: tuple[np.ndarray, np.ndarray] | None = None


def _memory_error(what: str, grid: GridSpec) -> SolveError:
    # names the order and the size of the system that did not fit in memory
    size = grid.n + grid.m + 1
    return SolveError(f"{what} the order-{grid.m} system for n = {grid.n}:"
                      f" {size} x {size} doubles, {8 * size * size / 2**30:.3g} GiB")


def _mirrored(table: np.ndarray) -> np.ndarray:
    # t(|d|) for d = -n..n from t(k), k = 0..n
    return np.concatenate((table[:0:-1], table))


def assemble_system(m: int, n: int) -> WienerHopfSystem:
    """Build the (n+m+1) x (n+m+1) system for order m on n intervals.

    Rows 0..n pair the kernel block psi(m, (i-j)/n) with the multiplier
    columns against the moments f_m(i/n); the final m rows are
    :func:`optquad.core.constraint_rows`, each g sampled at the float
    nodes against its exact integral.  The kernel and moment values are
    the nearest floats of :func:`optquad._exact.grid_tables`, and their
    remainders go into ``low``.  The kernel block is the symmetric
    Toeplitz matrix of the n + 1 kernel values, copied from a strided
    view of their mirror, with a zero diagonal.  A matrix too large to
    allocate raises :class:`optquad.core.SolveError` naming the order and
    the size.
    """
    grid = GridSpec(m, n)
    size = n + m + 1
    try:
        A = np.zeros((size, size))
    except (MemoryError, ValueError) as exc:  # numpy refuses a size past its index range with ValueError
        raise _memory_error("cannot allocate", grid) from exc
    b = np.zeros(size)
    (kernel, kernel_lo), (moments, moment_lo) = grid_tables(grid.m, grid.n)  # ints, not numpy integers
    # entry (i, j) of the view is the mirror at offset n - i + j: psi(|j - i| / n)
    mirror = _mirrored(np.array(kernel))
    A[: n + 1, : n + 1] = as_strided(mirror[n:], (n + 1, n + 1), (-mirror.itemsize, mirror.itemsize))
    b[: n + 1] = moments
    x = grid.node_array()
    for row, (_, g, integral) in enumerate(constraint_rows(m), start=n + 1):
        A[row, : n + 1] = A[: n + 1, row] = g(x)
        b[row] = integral
    return WienerHopfSystem(grid, A, b, (np.array(kernel_lo), np.array(moment_lo)))


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
    extended precision, plus moment_lo - Toeplitz(kernel_lo) C from the
    system's ``low`` when it has one, and the correction solved for with a
    second LU factorisation.  A max-norm residual above
    1e-10 * ||rhs||_inf after that step also raises :class:`SolveError`.
    Neither limit can be changed.
    A stage that runs out of memory raises :class:`SolveError` naming the
    order and the size of the system.
    """
    A, b = system.matrix, system.rhs
    n, m = system.grid.n, system.grid.m
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
        if system.low is not None:  # the remainders of the exact entries: (kernel lo, moment lo)
            r[: n + 1] += system.low[1] - np.convolve(_mirrored(system.low[0]), x[: n + 1])[n : 2 * n + 1]
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
    return QuadratureRule(
        system.grid,
        x[: n + 1],
        RuleMethod.DIRECT_SOLVE,
        multiplier_d=float(x[n + m]),
        polynomial_multipliers=tuple(float(v) for v in x[n + 1 : n + m]) or None,
        condition_estimate=cond,
    )
