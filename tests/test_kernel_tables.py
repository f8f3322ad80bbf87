"""The tabulated kernel and operator evaluations against the naive loops.

assemble_system takes the kernel psi(m, k/n) and the moments f_m(k/n),
k = 0..n, from the exact tables of optquad._exact.grid_tables, each the
float nearest the value plus the float nearest the remainder.  Its matrix
and rhs must equal, bit for bit, the loop that rounds the 50-digit kernel
at each exact offset |i - j|/n and the 50-digit moment at each node, the
remainders must bring the tables within 1e-32 of the 50-digit values, and
it must take one table of n + 1 powers, with no float kernel or moment
call, for n + 1 offsets and n//2 + 1 mirrored moments.
error_norm_squared takes the kernel and the moments from the n + 1
fixed-point powers q^(+-j), q = e^(1/n), with no float table, in O(n)
memory.  It must return the float nearest the 50-digit double loop over
the pairs of weights at the exact nodes, for optimal, perturbed,
admissible classical and random weights, and inf with its sign where that
value is past the float range, also when the table cache holds fewer
powers than one table, and its moments make no float moment call and are
the same for the weights reversed.  identity_residuals evaluates
each central operator value once and sums the geometric tails in closed
form; it must agree with the windowed sums of one term per (beta, gamma)
pair within their truncation bound.  apply_rule
streams its products into one correctly rounded sum, which must equal the
per-node generator loop.  The nodes and the constraint rows are sampled as
whole arrays, which must equal the scalar beta / n, x**a and math.exp(-x)
at every node, and constraint_residuals sums them in blocks of exact
extraction, which must equal one generator loop per row on both sides of
_exact_parts' crossover and of a block boundary, in O(2^13) extra memory.  The
order-2 closed form computes its powers only through the boundary layers;
its weights must equal those over the whole power table.
"""
import functools
import math
import struct
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import optquad._exact
import optquad.analysis
import optquad.coefficients
import optquad.core
import optquad.operator
import optquad.solver
from optquad import (
    BUILTIN_INTEGRANDS,
    GridSpec,
    QuadratureRule,
    RuleMethod,
    apply_rule,
    assemble_system,
    build_operator,
    build_rule,
    classical_rule,
    constraint_residuals,
    constraint_rows,
    error_norm_squared,
    identity_residuals,
    solve,
)
from optquad.analysis import admissible_perturbations

import oracles

# at n = 160, i/n - j/n != (i-j)/n for 6,465 pairs i > j: the float nodes'
# gaps are not the exact offsets the kernel block takes, except at powers of two
SIZES = (7, 63, 100, 160, 256)


def _optimal(m, n):
    # solve refuses m = 3 from n = 110 on (cond > 1e14); bit identity needs
    # some fixed weights, not accurate ones, so take the plain LU solution
    if m < 3:
        return build_rule(m, n)
    system = assemble_system(m, n)
    weights = np.linalg.solve(system.matrix, system.rhs)[: n + 1]
    return QuadratureRule(system.grid, weights, RuleMethod.DIRECT_SOLVE)


def _rules(m, n):
    optimal = _optimal(m, n)
    rules = {"optimal": optimal}
    # at n + 1 = m the constraints fix the weights: no direction is admissible
    for step in admissible_perturbations(optimal, count=1):
        rules["perturbed"] = QuadratureRule(
            optimal.grid, tuple(c + d for c, d in zip(optimal.coefficients, step)), optimal.method
        )
    for kind in ("trapezoid", "simpson") if n % 2 == 0 else ("trapezoid",):
        classical = classical_rule(kind, n)
        rules[kind] = QuadratureRule(GridSpec(m, n), classical.coefficients, classical.method)
    return rules


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _admissible(rule, m):
    # the nearest weights, in least squares, that meet the order-m
    # constraints: a classical rule made comparable with the optimal one
    grid = GridSpec(m, rule.grid.n)
    x = grid.node_array()
    rows = constraint_rows(m)
    R = np.array([g(x) for _, g, _ in rows])
    w = np.array(rule.coefficients)
    gap = np.array([integral for _, _, integral in rows]) - R @ w
    return QuadratureRule(grid, w + R.T @ np.linalg.solve(R @ R.T, gap), rule.method)


def _norm_rules(m, n):
    # optimal, perturbed along an admissible direction, admissible
    # trapezoid and Simpson, and random dyadic weights
    optimal = _optimal(m, n)
    rules = {"optimal": optimal}
    for step in admissible_perturbations(optimal, count=1):
        rules["perturbed"] = QuadratureRule(
            optimal.grid, tuple(c + d for c, d in zip(optimal.coefficients, step)), optimal.method
        )
    for kind in ("trapezoid", "simpson") if n % 2 == 0 else ("trapezoid",):
        rules[kind] = _admissible(classical_rule(kind, n), m)
    dyadic = np.random.default_rng([m, n]).integers(-2**20, 2**20, n + 1) / 2**26
    rules["dyadic"] = QuadratureRule(optimal.grid, dyadic, RuleMethod.TRAPEZOID)
    return rules


NORM_SIZES = (*range(1, 41), 63, 64, 100, 127, 128, 160, 256)


# the float nearest the 50-digit value of the exact-node sum, which is an
# O(n^2) double loop over the pairs of weights, through their exact integer
# autocorrelation
@pytest.mark.parametrize(
    "m, n", [(m, n) for m in (1, 2, 3) for n in NORM_SIZES if n + 1 >= m]
    + [(m, n) for m in (1, 2) for n in (512, 1024)]
)
def test_error_norm_equals_double_loop(m, n):
    for name, rule in _norm_rules(m, n).items():
        assert error_norm_squared(rule) == float(oracles.mp_error_norm_squared(rule)), name


def _bound_table_cache(monkeypatch, powers):
    # an empty q^(+-j) table cache that keeps at most `powers` powers
    monkeypatch.setattr(optquad._exact, "_CACHED_POWERS", powers)
    monkeypatch.setattr(optquad._exact, "_tables", {})


@pytest.mark.parametrize("n", [100, 160])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_error_norm_equals_double_loop_in_small_chunks(monkeypatch, m, n):
    # a cache of 64 powers, fewer than one table of 2 (n + 1): each table is
    # dropped as soon as it is built, and every call builds its own
    rules = _norm_rules(m, n)
    _bound_table_cache(monkeypatch, 64)
    for name, rule in rules.items():
        assert error_norm_squared(rule) == float(oracles.mp_error_norm_squared(rule)), name
        assert not optquad._exact._tables, name


# the weights whose float products overflowed: C_0 C_n, C_0 C_50 and C_n^2
# are about 1e310.  An exact norm past the float range comes back as inf
# with its sign.  With one huge weight ("last") C_n^2 meets psi(0) = 0, so
# the norm, about 4.5e149, is in range.  A hundredth of the huge weights
# gives a norm in range everywhere
@pytest.mark.parametrize(
    "m, n, big, beyond",
    [(1, 2, {0: 1e155, 1: 1.0, 2: -1e155}, True), (1, 2, {0: 1e155, 1: -1e155, 2: 1e155}, True),
     (2, 100, {100: 1e155}, False), (2, 100, {0: 1e155, 100: 1e155}, True),
     (2, 100, {0: 1e155, 50: -1e155, 100: 1e155}, True)],
    ids=["n2-ends-opposite", "n2-alternating", "last", "ends", "ends-middle"],
)
def test_error_norm_beyond_float_range(m, n, big, beyond):
    for scale in (1.0, 1e-2):
        coeffs = list(classical_rule("trapezoid", n).coefficients)
        for i, c in big.items():
            coeffs[i] = c * scale
        rule = QuadratureRule(GridSpec(m, n), coeffs, RuleMethod.TRAPEZOID)
        exact = oracles.mp_error_norm_squared(rule)
        assert (abs(exact) > sys.float_info.max) == (beyond and scale == 1.0)
        expect = math.copysign(math.inf, exact) if abs(exact) > sys.float_info.max else float(exact)
        assert error_norm_squared(rule) == expect, scale


@pytest.mark.parametrize("cached", [64, 8192])
@pytest.mark.parametrize(
    "big", [{100: 1e155}, {0: 1e155, 100: 1e155}, {0: 1e155, 50: -1e155, 100: 1e155}],
    ids=["last", "ends", "ends-middle"],
)
def test_error_norm_overflow_in_late_block_as_streamed_fsum(monkeypatch, cached, big):
    # the weights of the "last", "ends" and "ends-middle" cells above, after
    # a table of 2 * 4096 powers (4095 intervals) that fills a cache of
    # 8192: the norm's table at n = 100 pushes it out, least recently used
    # first, and stays; a cache of 64 keeps neither.  The norm is the
    # oracle's, inf with its sign past the float range
    _bound_table_cache(monkeypatch, cached)
    optquad._exact.exp_powers(4095, 160)
    assert [key[0] for key in optquad._exact._tables] == ([4095] if cached == 8192 else [])
    coeffs = list(classical_rule("trapezoid", 100).coefficients)
    for i, c in big.items():
        coeffs[i] = c
    rule = QuadratureRule(GridSpec(2, 100), coeffs, RuleMethod.TRAPEZOID)
    exact = oracles.mp_error_norm_squared(rule)
    expect = math.copysign(math.inf, exact) if abs(exact) > sys.float_info.max else float(exact)
    assert error_norm_squared(rule) == expect
    assert [key[0] for key in optquad._exact._tables] == ([100] if cached == 8192 else [])


def test_error_norm_extra_memory_bounded():
    # O(n) memory, tables included: the peak at 16,384 intervals is about
    # twice that at 8,192, not four times.  8193^2 float products would
    # take 512 MiB
    peaks = []
    for n in (8192, 16384):
        rule = build_rule(2, n)
        optquad._exact._tables.clear()
        tracemalloc.start()
        try:
            error_norm_squared(rule)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6 * 2**20
    assert peaks[1] < 2.3 * peaks[0]


# bits, not values: np.array_equal takes -0.0 for 0.0
@pytest.mark.parametrize(
    "m, n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, *SIZES, 511) if n + 1 >= m]
)
def test_assembly_equals_entrywise_loop(m, n):
    system = assemble_system(m, n)
    matrix, rhs = oracles.naive_assemble_system(m, n)
    assert np.array_equal(system.matrix.view(np.uint64), matrix.view(np.uint64))
    assert np.array_equal(system.rhs.view(np.uint64), rhs.view(np.uint64))


# (m, h, betas): summable cells at several spacings, m = 3 at h = 1, where
# the exponential and kernel tails diverge, and the cells optquad verify runs
# (h = 1/n).  betas is an offset set for the mirror check of the windowed
# reference: a wide one, ones without 0, ones of only negative offsets
IDENTITY_CELLS = [
    (1, 0.5, (0, 1, 4)),
    (2, 0.125, (-2, 5)),
    (2, 1.0 / 64.0, (1, 3)),
    (3, 0.1, (-4, 0)),
    (3, 0.125, range(7, 14)),
    (3, 1.0, (-1, 2)),
    # cells optquad verify runs
    (2, 1.0 / 16.0, (0, 1)),
    (3, 0.25, (2, 5)),
    (3, 1.0 / 64.0, (-3, 0)),
    (2, 1.0 / 160.0, (4,)),
    (3, 0.125, range(3, 9)),
    (2, 0.125, range(-7, -1)),
]


@functools.cache
def _windowed(m, h, lo):
    # the windowed reference over offsets lo..5; cells share their (m, h)
    return oracles.naive_identity_residuals(m, h, range(lo, 6))


def _exp_swapped(residuals):
    return {**residuals, "exp_growing": residuals["exp_decaying"], "exp_decaying": residuals["exp_growing"]}


@pytest.mark.parametrize("m, h, betas", IDENTITY_CELLS)
def test_identity_report_equals_per_beta_loop(m, h, betas):
    report = identity_residuals(m, h)
    window, residuals, bounds = _windowed(m, h, 0)
    assert (report.m, report.h, report.window) == (m, h, 5)
    assert report.residuals.keys() == residuals.keys()
    # the windowed sums are the closed ones up to their truncation, which
    # has no bound (inf) where the tails do not converge: m = 3, h = 1
    for name, bound in bounds.items():
        assert abs(report.residuals[name] - residuals[name]) <= bound, name
    divergent = [name for name, bound in bounds.items() if math.isinf(bound)]
    assert divergent == (["exp_growing", "exp_decaying", "delta"] if (m, h) == (3, 1.0) else [])
    # the offsets -5..-1 add no sum to the windowed reference: the same
    # window and values, except that the exp families at -beta are each
    # other's at beta
    full_window, full, full_bounds = _windowed(m, h, -5)
    assert (full_window, full_bounds) == (window, bounds)
    exp = max(residuals["exp_growing"], residuals["exp_decaying"])
    assert full == {**residuals, "exp_growing": exp, "exp_decaying": exp}
    # and the mirror holds at any offset set
    direct = oracles.naive_identity_residuals(m, h, betas)[1]
    assert oracles.naive_identity_residuals(m, h, [-b for b in betas])[1] == _exp_swapped(direct)


# the kernel and the moments come from the n + 1 powers q^(+-j), with no
# float kernel or moment table; the cells are those of the former float
# tables, below their crossover (n + 1 < 32) and above it
@pytest.mark.parametrize("m, n", [(1, 16), (1, 30), (3, 7), (2, 30), (2, 31), (1, 63), (1, 64), (2, 64),
                                  (3, 100), (2, 256)])
def test_error_norm_kernel_calls_linear(monkeypatch, m, n):
    rule = _rules(m, n)["trapezoid"]
    tables = []
    exp_powers = optquad.analysis.exp_powers

    def recorded(*args):
        tables.append(exp_powers(*args))
        return tables[-1]

    monkeypatch.setattr(optquad.analysis, "exp_powers", recorded)
    error_norm_squared(rule)
    (up, down), = tables
    assert len(up) == len(down) == n + 1


# f_m(t) = f_m(1 - t): the float moment table took the n//2 + 1 moments of
# one half.  The moments now come from the totals of c_i q^(+-i), with no
# float moment call, and the norm of the reversed weights is the same float
@pytest.mark.parametrize("m, n", [(1, 30), (3, 7), (1, 63), (2, 31), (2, 64), (3, 100)])
def test_error_norm_moment_calls_half(monkeypatch, m, n):
    # at m = 3 the rules are built through assemble_system: build them uncounted
    rule = _norm_rules(m, n)["dyadic"]
    mirrored = QuadratureRule(rule.grid, rule.coefficients[::-1], rule.method)
    monkeypatch.setattr(optquad.core, "moment_f", lambda *args: pytest.fail("float moment"))
    norm = error_norm_squared(rule)
    assert norm == error_norm_squared(mirrored) == float(oracles.mp_error_norm_squared(rule))


def _assembly_points(monkeypatch, m, n):
    # assemble_system with every float kernel and moment routine refused:
    # the system, the q^(+-j) tables it took and the number of values it
    # rounded, kernel first, then moments
    for name in ("_tail", "psi", "moment_f"):
        monkeypatch.setattr(optquad.core, name, lambda *args, name=name: pytest.fail(f"float {name}"))
    tables, rounded = [], []
    exp_powers, split = optquad._exact.exp_powers, optquad._exact._rounded

    def recorded(*args):
        tables.append(exp_powers(*args))
        return tables[-1]

    def counted(values, *args):
        rounded.append(len(values))
        return split(values, *args)

    monkeypatch.setattr(optquad._exact, "exp_powers", recorded)
    monkeypatch.setattr(optquad._exact, "_rounded", counted)
    system = assemble_system(m, n)
    (up, down), = tables
    assert len(up) == len(down) == n + 1
    return system, rounded


# the block is Toeplitz: the kernel is taken once at each of the n + 1
# exact gaps k/n, from one table of n + 1 powers
@pytest.mark.parametrize("m, n", [(1, 12), (2, 16), (3, 14), (1, 64), (2, 256), (3, 160)])
def test_assembly_kernel_calls_bounded_by_distinct_gaps(monkeypatch, m, n):
    system, rounded = _assembly_points(monkeypatch, m, n)
    assert rounded[0] == n + 1
    block = system.matrix[: n + 1, : n + 1]
    assert len(np.unique(block)) == n + 1


# f_m(t) = f_m(1 - t): the moments of one half, n//2 + 1 of them, mirrored,
# from the same table as the kernel
@pytest.mark.parametrize("m, n", [(1, 30), (3, 7), (1, 63), (2, 31), (2, 64), (3, 100)])
def test_assembly_moment_calls_half(monkeypatch, m, n):
    system, rounded = _assembly_points(monkeypatch, m, n)
    assert rounded == [n + 1, n // 2 + 1]
    rhs = system.rhs[: n + 1]
    assert _same_bits(rhs, rhs[::-1])
    assert _same_bits(system.low[1], system.low[1][::-1])


def _same_bits(a, b):
    # bits, not values: np.array_equal takes -0.0 for 0.0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _rounded_50_digit_tables(m, n):
    # psi(m, k/n) and f_m(k/n), k = 0..n, at 50 digits of the exact fractions
    with mp.workdps(50):
        kernel = [oracles.mp_psi(m, mp.mpf(k) / n, 50) for k in range(n + 1)]
        moments = [oracles.mp_moment(m, mp.mpf(k) / n, 50) for k in range(n + 1)]
    return kernel, moments


def _check_tables(m, n):
    # hi is the rounded 50-digit value and hi + lo within 1e-32 of it
    for (hi, lo), exact in zip(optquad._exact.grid_tables(m, n), _rounded_50_digit_tables(m, n)):
        assert hi == [float(v) for v in exact]
        with mp.workdps(50):
            assert all(abs(mp.mpf(h) + l - v) <= 1e-32 * abs(v) for h, l, v in zip(hi, lo, exact))


# the sizes of the former float tables' crossover (31, 32 and 33 points)
@pytest.mark.parametrize("size", [31, 32, 33])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_tables_equal_scalar_calls_at_the_crossover(m, size):
    _check_tables(m, size - 1)


@pytest.mark.parametrize("n", [160, 511, 1000])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_assembly_kernel_values_equal_psi_at_every_gap(m, n):
    # each entry (i, j) of the kernel block is the float nearest psi(m, |i - j|/n),
    # and the remainders of the kernel and the moments are the ones in `low`
    _check_tables(m, n)
    system = assemble_system(m, n)
    (kernel, kernel_lo), (moments, moment_lo) = optquad._exact.grid_tables(m, n)
    i, j = np.indices((n + 1, n + 1))
    assert _same_bits(system.matrix[: n + 1, : n + 1], np.array(kernel)[abs(i - j)])
    assert _same_bits(system.rhs[: n + 1], moments)
    assert _same_bits(system.low[0], kernel_lo) and _same_bits(system.low[1], moment_lo)


@pytest.mark.parametrize("m, h", [(1, 0.5), (2, 0.125), (3, 0.1), (3, 1.0)])
def test_identity_operator_calls_linear_in_window(monkeypatch, m, h):
    # the D_m table is filled once, one value per offset 0..window
    calls = _counting(monkeypatch, optquad.operator, "_value")
    report = identity_residuals(m, h)
    assert len(calls) == report.window + 1


def _large_rules(m, n):
    # apply_rule sums any weights, so the perturbed rule needs no admissible
    # direction: it moves along a seeded random one.  Order 3 has no closed
    # form, so its rules are the classical ones
    grid = GridSpec(m, n)
    rules = {}
    if m < 3:
        closed = build_rule(m, n, "closed")
        step = np.random.default_rng(n).standard_normal(n + 1) * 1e-3
        rules["closed"] = closed
        rules["perturbed"] = QuadratureRule(grid, np.add(closed.coefficients, step), closed.method)
    for kind in ("trapezoid", "simpson") if n % 2 == 0 else ("trapezoid",):
        classical = classical_rule(kind, n)
        rules[kind] = QuadratureRule(grid, classical.coefficients, classical.method)
    return rules


# node counts one below _exact_parts' crossover and at it, and one below a
# block boundary, at it and one above
EXTRACT_EDGES = [optquad.core._EXTRACT_MIN - 1, optquad.core._EXTRACT_MIN] + \
    [optquad.core._CHUNK + d for d in (-1, 0, 1)]


@functools.cache
def _sum_rules():
    rules = {}
    for m in (1, 2, 3):
        for n in (7, 64):
            rules[f"solve-m{m}-n{n}"] = solve(assemble_system(m, n))
        for n in SIZES:
            rules.update({f"{name}-m{m}-n{n}": rule for name, rule in _rules(m, n).items()})
        for n in (nodes - 1 for nodes in EXTRACT_EDGES):
            rules.update({f"{name}-m{m}-n{n}": rule for name, rule in _large_rules(m, n).items()})
    for m in (1, 2):
        for n in (1024, 65536):
            rules.update({f"{name}-m{m}-n{n}": rule for name, rule in _large_rules(m, n).items()})
    return rules


@pytest.mark.parametrize("integrand", sorted(BUILTIN_INTEGRANDS))
def test_apply_rule_equals_generator_loop(integrand):
    f = BUILTIN_INTEGRANDS[integrand].fn
    for name, rule in _sum_rules().items():
        assert apply_rule(rule, f) == oracles.naive_apply_rule(rule, f), name


def test_constraint_residuals_equal_per_row_apply_rule():
    for name, rule in _sum_rules().items():
        rows = oracles.constraint_functions(rule.m)
        expected = {row: abs(oracles.naive_apply_rule(rule, g) - integral)
                    for row, g, integral in rows[-1:] + rows[:-1]}
        residuals = constraint_residuals(rule)
        assert list(residuals) == list(expected), name
        assert [struct.pack("<d", v) for v in residuals.values()] == \
            [struct.pack("<d", v) for v in expected.values()], name


def test_nodes_equal_scalar_division():
    for n in [*range(1, 3001), 65536, 999983, 10**6]:
        assert _same_bits(GridSpec(1, n).node_array(), oracles.naive_nodes(n)), n


@pytest.mark.parametrize("m", [1, 2, 3])
def test_constraint_samples_equal_scalar_functions(m):
    # x**0 is 1.0 and x**1 is x, and e^(-x) is libm's, at every node
    rows = constraint_rows(m)
    functions = oracles.constraint_functions(m)
    assert [row[::2] for row in rows] == [row[::2] for row in functions]  # names and integrals
    for n in [*range(max(1, m - 1), 600), 8191, 65536, 10**5, 999983]:
        x = GridSpec(m, n).node_array()
        for (name, g, _), (_, scalar, _) in zip(rows, functions):
            assert _same_bits(g(x), [scalar(v) for v in oracles.naive_nodes(n)]), (name, n)


def _sum_outcome(total):
    # a sum's repr, or the type of the error it raises
    try:
        return repr(total())
    except (ValueError, OverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize("nodes", [8, *EXTRACT_EDGES])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308], ids=["nan", "inf", "-inf", "huge"])
def test_apply_rule_non_finite_as_generator_loop(nodes, value):
    # f is nan or +-inf at the first node, or times weights of 1e300
    # overflows; f = inf below 1/4 and -inf above makes fsum raise ValueError
    trapezoid = classical_rule("trapezoid", nodes - 1)
    for weights in (trapezoid.coefficients, [1e300] * nodes):
        rule = QuadratureRule(trapezoid.grid, weights, RuleMethod.TRAPEZOID)
        for f in (lambda x: value if x == 0.0 else x, lambda x: value if x < 0.25 else -value):
            expect = _sum_outcome(lambda: oracles.naive_apply_rule(rule, f))
            assert _sum_outcome(lambda: apply_rule(rule, f)) == expect


@pytest.mark.parametrize("size", [optquad.core._EXTRACT_MIN + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("kind", ["finite", "huge", "overflow", "inf", "-inf", "inf-inf", "nan"])
def test_exact_parts_sum_as_fsum_at_the_crossover(size, kind):
    # the elements themselves below 448, extracted parts from 448 on: either
    # way math.fsum of the parts gives what math.fsum of the array gives
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * np.exp2(rng.integers(-60, 60, size))
    if kind == "huge":  # cancelling pairs from 2^1009 up, among the others
        x[::7] = 1.7e308
        x[3::7] = -1.7e308
    elif kind == "overflow":  # a sum past the float range
        x[:] = 1e308
    elif kind != "finite":
        values = {"inf": [math.inf], "-inf": [-math.inf], "inf-inf": [math.inf, -math.inf],
                  "nan": [math.nan]}[kind]
        x[100 : 100 + len(values)] = values
    assert _sum_outcome(lambda: math.fsum(optquad.core._exact_parts(x))) == \
        _sum_outcome(lambda: math.fsum(x.tolist()))


def _naive_constraint_residuals(rule):
    # one generator loop per row, in constraint_residuals' key order
    rows = oracles.constraint_functions(rule.m)
    return {name: abs(oracles.naive_apply_rule(rule, g) - integral)
            for name, g, integral in rows[-1:] + rows[:-1]}


@pytest.mark.parametrize("nodes", [8, *EXTRACT_EDGES])
@pytest.mark.parametrize("weights", ["huge", "alternating", "huge-and-large"])
def test_constraint_residuals_huge_weights_as_generator_loop(nodes, weights):
    # products near 2^1024: sums that overflow fsum's partial sums
    # (OverflowError), that cancel, and one huge product among many large ones
    coeffs = {"huge": [1e308] * nodes,
              "alternating": [1.7e308 if b % 2 else -1.7e308 for b in range(nodes)],
              "huge-and-large": [1.7e308] + [1e300] * (nodes - 1)}[weights]
    for m in (1, 2, 3):
        rule = QuadratureRule(GridSpec(m, nodes - 1), coeffs, RuleMethod.TRAPEZOID)
        expect = _sum_outcome(lambda: _naive_constraint_residuals(rule))
        assert _sum_outcome(lambda: constraint_residuals(rule)) == expect, m


def test_constraint_residuals_take_huge_products_first():
    # from the crossover on, fsum takes each block's products from 2^1009
    # up before the others.  In node order 1.79e308 plus the weights of
    # 3e303 overflows fsum's partial sums from about 260 of them on; here
    # the two huge weights cancel first
    nodes = optquad.core._EXTRACT_MIN
    coeffs = [1.79e308] + [3e303] * (nodes - 2) + [-1.79e308]
    rule = QuadratureRule(GridSpec(2, nodes - 1), coeffs, RuleMethod.TRAPEZOID)
    with pytest.raises(OverflowError):
        _naive_constraint_residuals(rule)
    assert constraint_residuals(rule)["monomial_0"] == abs(math.fsum([3e303] * (nodes - 2)) - 1.0)


def test_constraint_residuals_extra_memory_bounded():
    # blocks of 2^13 nodes: one list of all 65,537 sample floats would
    # take over 2 MiB
    rule = build_rule(2, 65536)
    tracemalloc.start()
    try:
        constraint_residuals(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_closed_weights_equal_full_table():
    # float64 bits past the cutoff and up to 10^6 nodes; a signed zero or
    # a 1-ulp move would show
    for n in [*range(1, 3001), 4096, 65536, 10**5, 10**6]:
        assert _same_bits(optquad.coefficients._closed_weights(2, n), oracles.full_table_closed_weights(n)), n


@pytest.mark.parametrize("n", [1, 2, 8, 29, 64, 127, 128, 160, 512, 4096])
def test_extended_closed_weights_equal_full_table(n):
    extended = optquad.coefficients._closed_weights(2, n, dps=50)
    reference = oracles.full_table_closed_weights(n, dps=50)
    assert [(v.man, v.exp) for v in extended] == [(v.man, v.exp) for v in reference]


def test_closed_weights_table_stops_at_a_fixed_top(monkeypatch):
    # the layers stop at the first power of two where they fall below a
    # quarter ulp of h: 32 in float64 (the bound _layer_top proves), 128 at
    # 50 digits; below that they cover every node
    tops = []
    layer_top = optquad.coefficients._layer_top

    def recorded(*args):
        tops.append(layer_top(*args))
        return tops[-1]

    monkeypatch.setattr(optquad.coefficients, "_layer_top", recorded)
    for dps, top in [(None, 32), (50, 128)]:
        for n in [1, 2, 27, 28, 29, 30, 31, 32, 64, 126, 127, 128, 1000, 4096, 65536, 10**6]:
            optquad.coefficients._closed_weights(2, n, dps)
            assert tops.pop() == min(n + 1, top), (dps, n)
    assert not tops


@pytest.mark.parametrize("kind", ["array", "generator"])
def test_rule_converts_and_validates_any_iterable(kind):
    def weights(values):
        return np.array(values) if kind == "array" else (v for v in values)

    rule = QuadratureRule(GridSpec(2, 2), weights([0.25, 0.5, 0.25]), RuleMethod.TRAPEZOID)
    assert rule.coefficients == (0.25, 0.5, 0.25)
    assert all(type(c) is float for c in rule.coefficients)
    assert apply_rule(rule, lambda x: x) == 0.5
    with pytest.raises(ValueError, match="expected 3 coefficients, got 2"):
        QuadratureRule(GridSpec(2, 2), weights([0.5, 0.5]), RuleMethod.TRAPEZOID)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            QuadratureRule(GridSpec(2, 2), weights([0.25, bad, 0.25]), RuleMethod.TRAPEZOID)
