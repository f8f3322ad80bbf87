"""The benchmark's three workloads: their operations and the checks of their outputs.

Each workload is a fixed list of operations in two classes.  The small class
runs at small n, where fixed costs and the dense solve or mpmath identity
checks dominate; the large class runs at large n, where the O(n) and O(n^2)
loops dominate.  Only the order of operations within a pass depends on the
seed (and, on `norms`, the direction of the perturbed rule), so every seed
does the same work.

Every operation's first output is checked against `reference` (mpmath,
written from the kernel definition) or against a property the method must
have; later passes must reproduce that output exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import mpmath as mp

import reference as ref

# weights of the closed forms (m = 1, 2) are claimed to near machine
# precision; the m = 3 float64 dense solve keeps 6.2 digits at n = 64
MIN_WEIGHT_DIGITS = {1: 12, 2: 12, 3: 5}
# a float64 norm loses digits to cancellation down to the small optimal value
MIN_NORM_DIGITS = 2
EXACTNESS_TOL = 1e-12
VALUE_TOL = 1e-14
# optquad's own stationarity criterion (analysis.stationarity_margin)
STATIONARITY_TOL = 1e-14


class OpFailed(Exception):
    """The program refused or failed an operation (nonzero exit status)."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    digits: float | None = None


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass(frozen=True)
class Workload:
    small: tuple[Op, ...]
    large: tuple[Op, ...]
    small_passes_per_round: int


def _combine(parts: list[Verdict]) -> Verdict:
    bad = [p.detail for p in parts if not p.ok]
    found = [p.digits for p in parts if p.digits is not None]
    return Verdict(not bad, "; ".join(bad) or "ok", min(found) if found else None)


def _cli(oq, argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = oq.cli.main(argv)
        if status != 0:
            raise OpFailed(f"exit {status}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def _argv(command: str, m: int, **options) -> list[str]:
    argv = [command, "--m", str(m)]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


# --- rules -----------------------------------------------------------------

def _check_weights(m: int, n: int, nodes: list[str], weights: list[str], small_n: bool) -> Verdict:
    parts = []
    if len(weights) != n + 1 or any(float(x) != b / n for b, x in enumerate(nodes)):
        return Verdict(False, f"m={m} n={n}: wrong grid")
    for name, res in ref.exactness_residuals(m, weights).items():
        parts.append(Verdict(res <= EXACTNESS_TOL, f"m={m} n={n}: {name} exactness {float(res):.2e}"))
    if small_n:
        got = ref.vector_digits(weights, ref.kkt_weights(m, n))
        need = MIN_WEIGHT_DIGITS[m]
        parts.append(Verdict(got >= need, f"m={m} n={n}: weights {got:.2f} < {need} digits", got))
    return _combine(parts)


def _check_json_rule(m: int, n: int, small_n: bool):
    def check(text: str) -> Verdict:
        doc = json.loads(text, parse_float=str)
        if (doc["m"], doc["n"]) != (m, n):
            return Verdict(False, f"document is for m={doc['m']} n={doc['n']}")
        return _check_weights(m, n, doc["nodes"], doc["coefficients"], small_n)

    return check


def _check_csv_rule(m: int, n: int, small_n: bool):
    def check(text: str) -> Verdict:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(n + 1)):
            return Verdict(False, f"m={m} n={n}: wrong beta column")
        return _check_weights(m, n, [r[1] for r in rows], [r[2] for r in rows], small_n)

    return check


def _check_exact_integral(m: int, n: int, function: str):
    def check(text: str) -> Verdict:
        value = text.splitlines()[0].split(":")[1].strip()
        exact = ref.exact_integral(function)
        err = abs(mp.mpf(value) - exact)
        return Verdict(
            err <= EXACTNESS_TOL,
            f"integrate m={m} n={n} {function}: error {float(err):.2e}",
            ref.digits(value, exact),
        )

    return check


def rules(oq, seed: int) -> Workload:
    small, large = [], []
    for m, n in [(1, 8), (1, 64), (2, 8), (2, 64), (3, 8), (3, 16), (3, 32), (3, 64)]:
        small.append(Op(f"coeffs json m={m} n={n}", _cli(oq, _argv("coeffs", m, n=n)),
                        _check_json_rule(m, n, True)))
    for m, n in [(2, 32), (3, 64)]:
        small.append(Op(f"coeffs csv m={m} n={n}", _cli(oq, _argv("coeffs", m, n=n, format="csv")),
                        _check_csv_rule(m, n, True)))
    # integrands each rule must integrate exactly: e^(-x), and x^a for a <= m-2
    for m, n, f in [(1, 64, "exp-neg"), (2, 64, "one"), (3, 32, "x"), (3, 64, "exp-neg")]:
        small.append(Op(f"integrate m={m} n={n} {f}", _cli(oq, _argv("integrate", m, n=n, function=f)),
                        _check_exact_integral(m, n, f)))
    n = 65536
    for m in (1, 2):
        large.append(Op(f"coeffs json m={m} n={n}", _cli(oq, _argv("coeffs", m, n=n)),
                        _check_json_rule(m, n, False)))
    large.append(Op(f"coeffs csv m=2 n={n}", _cli(oq, _argv("coeffs", 2, n=n, format="csv")),
                    _check_csv_rule(2, n, False)))
    for m in (1, 2):
        large.append(Op(f"integrate m={m} n={n} exp-neg",
                        _cli(oq, _argv("integrate", m, n=n, function="exp-neg")),
                        _check_exact_integral(m, n, "exp-neg")))
    return _shuffled(small, large, 8, seed)


# --- verify ----------------------------------------------------------------

def _check_verify(oq, m: int, n: int):
    def check(text: str) -> Verdict:
        doc = json.loads(text)
        if (doc["m"], doc["n"]) != (m, n) or doc["passed"] is not True:
            return Verdict(False, f"verify m={m} n={n}: not passed")
        failing = [c["name"] for c in doc["checks"]
                   if not (c["passed"] is True and c["value"] <= c["tolerance"])]
        if failing:
            return Verdict(False, f"verify m={m} n={n}: {failing} out of tolerance")
        # the one check whose value is a computed quantity, not a residual:
        # the squared error norm of the solved rule (reported negated)
        norms = [c["value"] for c in doc["checks"] if c["name"].startswith("error_norm")]
        if len(norms) != 1:
            return Verdict(False, f"verify m={m} n={n}: no single error_norm check to take digits from")
        weights = oq.solve(oq.assemble_system(m, n)).coefficients
        got = ref.digits(abs(norms[0]), ref.quadratic_form(m, weights))
        return Verdict(got >= MIN_NORM_DIGITS, f"verify m={m} n={n}: norm {got:.2f} digits", got)

    return check


def verify(oq, seed: int) -> Workload:
    small = [(1, 4), (1, 16), (2, 4), (2, 8), (2, 16), (3, 4), (3, 8), (3, 16)]
    large = [(1, 512), (2, 128), (2, 160), (3, 64)]

    def ops(grid):
        return tuple(Op(f"verify m={m} n={n}", _cli(oq, _argv("verify", m, n=n)), _check_verify(oq, m, n))
                     for m, n in grid)

    return _shuffled(ops(small), ops(large), 1, seed)


# --- norms -----------------------------------------------------------------

def _check_norm(m: int, weights, value: float, label: str, squared: bool = True) -> Verdict:
    q = ref.quadratic_form(m, weights)
    target = q if squared else mp.sqrt(q)
    got = ref.digits(value, target)
    return Verdict(got >= MIN_NORM_DIGITS, f"{label}: norm {got:.2f} digits", got)


def _check_below_classical(m: int, n: int, weights, label: str) -> Verdict:
    """The optimal weights' norm is at most that of trapezoid and Simpson weights made admissible."""
    q = ref.quadratic_form(m, weights)
    parts = []
    for kind, classical in _classical_weights(n).items():
        qc = ref.quadratic_form(m, ref.admissible(m, classical))
        parts.append(Verdict(q <= qc, f"{label}: optimal {float(q):.3e} above {kind} {float(qc):.3e}"))
    return _combine(parts)


def _classical_weights(n: int) -> dict[str, list[float]]:
    h = 1.0 / n
    out = {"trapezoid": [h / 2.0] + [h] * (n - 1) + [h / 2.0]}
    if n % 2 == 0:
        out["simpson"] = [h / 3.0] + [h * (4.0 if b % 2 else 2.0) / 3.0 for b in range(1, n)] + [h / 3.0]
    return out


def _check_norm_table(oq, m: int, ns: list[int]):
    def check(text: str) -> Verdict:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if [int(r[0]) for r in rows] != ns:
            return Verdict(False, f"convergence m={m}: wrong n column")
        parts = []
        for n, row in zip(ns, rows):
            weights = oq.build_rule(m, n).coefficients
            label = f"convergence m={m} n={n}"
            parts.append(_check_norm(m, weights, float(row[1]), label, squared=False))
            parts.append(_check_below_classical(m, n, weights, label))
        return _combine(parts)

    return check


def _check_error_table(oq, m: int, ns: list[int], function: str, fmt: str):
    def check(text: str) -> Verdict:
        if fmt == "json":
            values = [(r["n"], r["value"]) for r in json.loads(text)["rows"]]
        else:
            values = [(int(r[0]), float(r[1])) for r in (line.split(",") for line in text.splitlines()[1:])]
        if [n for n, _ in values] != ns:
            return Verdict(False, f"convergence m={m} {function}: wrong n column")
        exact = ref.exact_integral(function)
        parts = []
        for n, value in values:
            err = abs(ref.rule_value(function, oq.build_rule(m, n).coefficients) - exact)
            parts.append(Verdict(abs(value - err) <= VALUE_TOL,
                                 f"convergence m={m} n={n} {function}: {value:.3e} vs {float(err):.3e}"))
        return _combine(parts)

    return check


def _check_compare(oq, m: int, n: int, function: str):
    def check(text: str) -> Verdict:
        # rows are "name value abs_error"; a note line follows when Simpson is omitted
        rows = {f[0]: f[1:] for f in (line.split() for line in text.splitlines()[1:]) if len(f) == 3}
        rules = {"optimal": oq.build_rule(m, n).coefficients, **_classical_weights(n)}
        if set(rows) != set(rules):
            return Verdict(False, f"compare m={m} n={n}: rows {sorted(rows)}")
        exact = ref.exact_integral(function)
        parts = []
        for name, (value, abs_error) in rows.items():
            want = ref.rule_value(function, rules[name])
            parts.append(Verdict(abs(mp.mpf(value) - want) <= VALUE_TOL,
                                 f"compare m={m} n={n} {name}: value {value} vs {float(want):.17g}"))
            # abs_error is printed with 4 significant digits
            printed, true_error = float(abs_error), float(abs(want - exact))
            parts.append(Verdict(abs(printed - true_error) <= 1e-3 * printed + VALUE_TOL,
                                 f"compare m={m} n={n} {name}: abs_error {abs_error}"))
        return _combine(parts)

    return check


def _check_report(m: int, n: int, rule, names: list[str]):
    def check(report) -> Verdict:
        label = f"error_report m={m} n={n}"
        parts = [_check_norm(m, rule.coefficients, report.norm_sq, label)]
        for entry, name in zip(report.entries, names):
            want = ref.rule_value(name, rule.coefficients)
            parts.append(Verdict(entry.within_bound,
                                 f"{label} {name}: |error| {entry.abs_error:.3e} above bound"))
            parts.append(Verdict(abs(mp.mpf(entry.quadrature) - want) <= VALUE_TOL,
                                 f"{label} {name}: quadrature {entry.quadrature!r}"))
        return _combine(parts)

    return check


def norms(oq, seed: int) -> Workload:
    small, large = [], []
    ns = [4, 8, 16, 32, 64]
    for m in (1, 2, 3):
        small.append(Op(f"convergence norm m={m}",
                        _cli(oq, _argv("convergence", m, n_list=",".join(map(str, ns))) + ["--norm-mode"]),
                        _check_norm_table(oq, m, ns)))
    tables = [(1, "runge", "csv", ns), (2, "sin", "json", ns), (3, "exp", "csv", ns[:-1])]
    for m, function, fmt, grid in tables:
        argv = _argv("convergence", m, n_list=",".join(map(str, grid)), function=function, format=fmt)
        small.append(Op(f"convergence {function} m={m}", _cli(oq, argv),
                        _check_error_table(oq, m, grid, function, fmt)))
    for m, n, function in [(1, 10, "sin"), (2, 63, "runge"), (3, 32, "exp")]:
        small.append(Op(f"compare m={m} n={n} {function}",
                        _cli(oq, _argv("compare", m, n=n, function=function)),
                        _check_compare(oq, m, n, function)))
    names = ["sin", "exp", "runge", "x2"]
    for m, n in [(1, 32), (2, 64), (3, 16)]:
        rule = oq.build_rule(m, n)
        integrands = [oq.builtin_integrand(name) for name in names]
        small.append(Op(f"error_report m={m} n={n}",
                        lambda rule=rule, integrands=integrands: oq.error_report(rule, integrands),
                        _check_report(m, n, rule, names)))

    def norm_op(name: str, rule, extra: Callable[[], Verdict] | None = None) -> Op:
        m, n = rule.grid.m, rule.grid.n

        def check(value: float) -> Verdict:
            parts = [_check_norm(m, rule.coefficients, value, f"{name} m={m} n={n}")]
            if extra is not None:
                parts.append(extra())
            return _combine(parts)

        return Op(f"{name} m={m} n={n}", lambda: oq.error_norm_squared(rule), check)

    for m, n in [(1, 512), (2, 512), (2, 1024)]:
        rule = oq.build_rule(m, n)
        large.append(norm_op("norm-optimal", rule, partial(_check_below_classical, m, n, rule.coefficients,
                                                           f"m={m} n={n}")))
    for kind, m, n in [("trapezoid", 2, 512), ("simpson", 1, 512)]:
        weights = ref.admissible(m, _classical_weights(n)[kind])
        method = oq.RuleMethod.TRAPEZOID if kind == "trapezoid" else oq.RuleMethod.SIMPSON
        large.append(norm_op(f"norm-{kind}", oq.QuadratureRule(oq.GridSpec(m, n), weights, method)))
    # perturbed along an admissible direction, tagged like the optimal rule it
    # came from (as stationarity_margin does): a shortcut valid only at the
    # optimum must not be taken here
    optimal = oq.build_rule(2, 512)
    step = oq.analysis.admissible_perturbations(optimal, count=1, seed=seed)[0]
    perturbed = oq.QuadratureRule(optimal.grid, tuple(c + v for c, v in zip(optimal.coefficients, step)),
                                  optimal.method)

    def above_optimal() -> Verdict:
        gain = ref.quadratic_form(2, perturbed.coefficients) - ref.quadratic_form(2, optimal.coefficients)
        return Verdict(gain >= -STATIONARITY_TOL, f"perturbed rule lowers the norm by {float(-gain):.2e}")

    large.append(norm_op("norm-perturbed", perturbed, above_optimal))
    station = oq.build_rule(2, 128)
    large.append(Op("stationarity_margin m=2 n=128",
                    lambda: oq.stationarity_margin(station, count=8),
                    lambda margin: Verdict(margin >= -STATIONARITY_TOL, f"stationarity margin {margin:.2e}")))
    return _shuffled(small, large, 4, seed)


WORKLOADS = {"rules": rules, "verify": verify, "norms": norms}


def _shuffled(small, large, small_passes_per_round: int, seed: int) -> Workload:
    """The workload with each class in the seed's order."""
    rng = random.Random(seed)
    small, large = list(small), list(large)
    rng.shuffle(small)
    rng.shuffle(large)
    return Workload(tuple(small), tuple(large), small_passes_per_round)
