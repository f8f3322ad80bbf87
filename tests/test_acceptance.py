"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4 appears twice: once over the summable part of its grid
(expected to pass) and once literally over the full stated grid, where the
order-3, h=1 exponential/impulse convolutions are non-summable bilateral
series (|lambda_max| * e^h = 1.141 > 1), so no window satisfies the stated
tolerance; that test documents the measured values and fails honestly.
"""

import math
import time

from optquad import (
    assemble_system,
    build_operator,
    builtin_integrand,
    cauchy_schwarz_check,
    characteristic_polynomial,
    closed_form_m1,
    closed_form_m2,
    constraint_residuals,
    convolve,
    error_norm_squared,
    identity_residuals,
    lambda1,
    moment_integral,
    solve,
    stationarity_margin,
    window_for,
)
from optquad.cli import main as cli_main

import oracles

H_GRID = (1.0, 0.5, 0.1, 1.0 / 64.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_closed_vs_solve_order_one():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 4, 8, 16, 32, 64):
        closed = closed_form_m1(n)
        direct = solve(assemble_system(1, n))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(closed.coefficients, direct.coefficients)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "order-1 closed form vs dense solve", ok,
           f"max dev {worst:.3e} <= 1e-12, {elapsed:.2f}s < 1s")


def test_criterion_2_closed_vs_solve_order_two():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 65):
        closed = closed_form_m2(n)
        direct = solve(assemble_system(2, n))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(closed.coefficients, direct.coefficients)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(2, "order-2 closed form vs dense solve", ok,
           f"max dev {worst:.3e} <= 1e-9, {elapsed:.2f}s < 5s")


def iter_constructed_rules():
    for n in range(1, 65):
        yield closed_form_m1(n)
        yield closed_form_m2(n)
    for m in (1, 2, 3):
        for n in range(max(1, m - 1), 65):
            yield solve(assemble_system(m, n))


def test_criterion_3_exactness_constraints():
    worst_exp = worst_poly = 0.0
    count = 0
    for rule in iter_constructed_rules():
        count += 1
        res = constraint_residuals(rule)
        worst_exp = max(worst_exp, res["exp"])
        for key, value in res.items():
            if key.startswith("monomial"):
                worst_poly = max(worst_poly, value)
    ok = worst_exp <= 1e-12 and worst_poly <= 1e-12
    report(3, "exactness constraints on every constructed rule", ok,
           f"{count} rules, worst exp residual {worst_exp:.3e}, "
           f"worst monomial residual {worst_poly:.3e}, tolerance 1e-12")


def _identity_grid(include_divergent):
    worst = 0.0
    failures = []
    for m in (1, 2, 3):
        for h in H_GRID:
            rep = identity_residuals(m, h, betas=range(-5, 6))
            for family, value in rep.residuals.items():
                if family in rep.divergent and not include_divergent:
                    continue
                if value > 1e-9:
                    failures.append(f"m={m} h={h:g} {family}: {value:.3e}")
                worst = max(worst, value)
    return worst, failures


def test_criterion_4_operator_identity_suite_summable_cells():
    worst, failures = _identity_grid(include_divergent=False)
    ok = not failures
    report(4, "operator identity suite (summable cells)", ok,
           f"worst residual {worst:.3e} <= 1e-9" if ok else "; ".join(failures))


def test_criterion_4_operator_identity_suite_full_grid():
    # The literal grid includes order 3 at h=1, where e^h exceeds the radius
    # of convergence 1/|lambda_max| of the bilateral sums against e^(+-x) and
    # the kernel: windowed values grow with the window instead of vanishing.
    # Verified analysis in the decisions ledger; this red is honest.
    worst, failures = _identity_grid(include_divergent=True)
    ok = not failures
    report(4, "operator identity suite (full stated grid)", ok,
           f"worst residual {worst:.3e} <= 1e-9" if ok
           else "non-summable cells: " + "; ".join(failures))


def test_criterion_5_quadratic_moment_convolution():
    worst_sq = worst_f = 0.0
    for h in (1.0, 0.5, 0.1):
        spec = build_operator(2, h)
        window = window_for(spec, 1e-13, growth=math.exp(h))
        for beta in (-2, 0, 3):
            val = convolve(spec, lambda j: (h * j) ** 2, beta, window)
            worst_sq = max(worst_sq, abs(val + 2.0 * h))
        val = convolve(spec, lambda j: moment_integral(2, h * j), 0, window)
        worst_f = max(worst_f, abs(val - h))
    ok = worst_sq <= 1e-10 and worst_f <= 1e-10
    report(5, "quadratic and moment convolution values", ok,
           f"|conv(x^2) + 2h| worst {worst_sq:.3e}, |conv(moment) - h| worst {worst_f:.3e}, "
           "tolerance 1e-10")


def test_criterion_6_stable_root_certification():
    worst_resid = worst_prod = 0.0
    for h in H_GRID:
        lam = lambda1(h)
        poly = characteristic_polynomial(2, h)
        scale = max(abs(c) for c in poly.coeffs)
        worst_resid = max(worst_resid, abs(poly(lam)) / scale)
        other = -poly.coeffs[1] / poly.coeffs[0] - lam
        worst_prod = max(worst_prod, abs(lam * other - 1.0))
        assert abs(lam) < 1.0
    # oracle-derived reference at h=1 (quadratic root of the characteristic
    # polynomial); frozen from the generic rootfinder
    oracle_root = oracles.np_inner_roots(2, 1.0)[0]
    frozen = -0.25341520148259034
    dev = abs(lambda1(1.0) - frozen)
    ok = worst_resid <= 1e-12 and worst_prod <= 1e-12 and dev <= 1e-6
    ok = ok and abs(oracle_root - frozen) <= 1e-12
    report(6, "stable-root certification", ok,
           f"worst relative residual {worst_resid:.3e}, worst |l1*l2 - 1| {worst_prod:.3e}, "
           f"|lambda1(1) - oracle| {dev:.3e} <= 1e-6")


def test_criterion_7_error_norm_properties():
    most_negative = 0.0
    rules = {}
    for m in (1, 2):
        maker = closed_form_m1 if m == 1 else closed_form_m2
        for n in (1, 2, 4, 8, 16, 32, 64):
            rules[(m, n)] = maker(n)
    for n in (2, 4, 8, 16):
        rules[(3, n)] = solve(assemble_system(3, n))
    for rule in rules.values():
        most_negative = min(most_negative, error_norm_squared(rule))
    monotone = True
    for m in (1, 2):
        seq = [error_norm_squared(rules[(m, n)]) for n in (2, 4, 8, 16)]
        monotone = monotone and all(a > b for a, b in zip(seq, seq[1:]))
    worst_margin = 0.0
    for m in (1, 2):
        for n in (2, 4, 8, 16):
            worst_margin = min(worst_margin, stationarity_margin(rules[(m, n)]))
    ok = most_negative >= -1e-12 and monotone and worst_margin >= -1e-14
    report(7, "error-norm nonnegativity, decrease, stationarity", ok,
           f"min norm^2 {most_negative:.3e} >= -1e-12, decreasing={monotone}, "
           f"worst perturbation drop {worst_margin:.3e} >= -1e-14")


def test_criterion_8_cauchy_schwarz_certificates():
    violations = []
    for name in ("sin", "exp", "x2"):
        f = builtin_integrand(name)
        for m in (1, 2):
            for n in (4, 8, 16):
                rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
                entry = cauchy_schwarz_check(rule, f)
                if not entry.within_bound:
                    violations.append(f"{name} m={m} n={n}")
    exp_neg_ok = True
    for m in (1, 2):
        rule = closed_form_m1(8) if m == 1 else closed_form_m2(8)
        entry = cauchy_schwarz_check(rule, builtin_integrand("exp-neg"))
        exp_neg_ok = exp_neg_ok and entry.abs_error <= 1e-12 and entry.bound == 0.0
    ok = not violations and exp_neg_ok
    report(8, "Cauchy-Schwarz certificates", ok,
           "all 18 certificates hold; kernel-function bound is 0 + slack"
           if ok else "violations: " + ", ".join(violations))


def test_criterion_9_cli_golden_stability(tmp_path):
    identical = True
    round_trip = True
    for m, n in ((1, 1), (2, 1), (2, 8)):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"rule_{m}_{n}_{tag}.json"
            code = cli_main(
                ["coeffs", "--m", str(m), "--n", str(n), "--out", str(out)]
            )
            assert code == 0
            paths.append(out.read_bytes())
        identical = identical and paths[0] == paths[1]
        import json

        doc = json.loads(paths[0])
        rule = closed_form_m1(n) if m == 1 else closed_form_m2(n)
        round_trip = round_trip and doc["coefficients"] == list(rule.coefficients)
    ok = identical and round_trip
    report(9, "CLI golden stability and exact round-trip", ok,
           f"byte-identical={identical}, bit-exact round-trip={round_trip}")
