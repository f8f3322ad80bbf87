"""Command-line front end: build rules, integrate, verify, sweep, compare.

Each ``cmd_*`` function maps the parsed arguments to ``(text, status)`` and
writes nothing.  :func:`main` alone writes the text, to ``--out`` or stdout,
and sets the exit code: 0 success, 1 verification failure (the status
``cmd_verify`` returns), 2 usage error, 3 numeric failure.

All float serialization uses 17 significant decimal digits, which round-trips
IEEE doubles exactly.  Runs are deterministic: with one numpy/BLAS build and
one BLAS thread count, repeated invocations are byte-identical.  The dense
solve's weights change with the thread count, by more than their last bits:
between one and two OpenBLAS threads, ``coeffs --m 3 --n 96`` differed in all
97 weights, by up to 3.8e-8 relative, and ``--method solve`` at m = 2,
n = 300 by up to 4.6e-9.  ``OPENBLAS_NUM_THREADS=1`` gives reproducible output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

import numpy as np

from .analysis import classical_rule, convergence_study, error_norm_squared
from .coefficients import _METHODS, METHODS, _closed_weights, build_rule
from .core import (
    QuadratureError,
    QuadratureRule,
    apply_rule,
    builtin_integrand,
    constraint_residuals,
)
from .operator import _EXTENDED_DPS, identity_residuals

SCHEMA_VERSION = 1

VERIFY_FAILED = 1
USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _runs17(values) -> list[tuple[str, int]] | None:
    """(.17g text, length) of each run of bit-equal doubles in ``values``.

    None when no two neighbours are bit-equal.  Runs compare bits, not
    values: 0.0 and -0.0 print differently, and a nan equals nothing.
    """
    bits = np.fromiter(values, np.float64, len(values)).view(np.uint64)
    ends = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist() + [len(values)]
    if len(ends) == len(values):
        return None
    return [("%.17g" % values[i], j - i) for i, j in zip([0] + ends, ends)]


def _json17(obj) -> str:
    """Minimal JSON writer with 17-significant-digit floats.

    Every level appends to one list of parts, joined once: a document is
    copied once, not once per container level.
    """
    out: list[str] = []
    _json17_into(out, obj, "")
    return "".join(out)


def _json17_into(out: list[str], obj, pad: str) -> None:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n"
        for k, v in obj.items():
            out.append(f'{sep}{inner}"{k}": ')
            _json17_into(out, v, inner)
            sep = ",\n"
        out.append("\n" + pad + "}")
        return
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {float}:
            # "%.17g" % x is format(x, ".17g") for every double, nan and the
            # infinities too: one C-level format call for an array of
            # distinct doubles, else one call per run of bit-equal ones
            out.append("[\n")
            runs = _runs17(obj)
            if runs is None:
                out.append(((inner + "%.17g,\n") * len(obj))[:-2] % tuple(obj))
            else:
                # one piece per run, so the document's one join copies each once
                pieces = [(inner + text + ",\n") * count for text, count in runs]
                pieces[-1] = pieces[-1][:-2]
                out += pieces
        else:
            sep = "[\n"
            for v in obj:
                out.append(sep + inner)
                _json17_into(out, v, inner)
                sep = ",\n"
        out.append("\n" + pad + "]")
        return
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_f17(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def rule_document(rule: QuadratureRule) -> dict:
    """JSON-ready document for a rule (schema_version 1)."""
    grid = rule.grid
    return {
        "schema_version": SCHEMA_VERSION,
        "m": grid.m,
        "n": grid.n,
        "h": grid.h,
        "nodes": grid.node_array().tolist(),
        "coefficients": list(rule.coefficients),
        "method": rule.method.value,
        "d": rule.multiplier_d,
        "diagnostics": {
            "condition_number": rule.condition_estimate,
            "constraint_residuals": constraint_residuals(rule),
        },
    }


def document_json(rule: QuadratureRule) -> str:
    return _json17(rule_document(rule)) + "\n"


def document_csv(rule: QuadratureRule) -> str:
    # one format call for the document; with runs of bit-equal weights, the
    # weight column holds their texts, each converted once per run
    column, row = rule.coefficients, "%d,%.17g,%.17g\n"
    runs = _runs17(column)
    if runs is not None:
        column, row = [], "%d,%.17g,%s\n"
        for text, count in runs:
            column += [text] * count
    cells = zip(range(len(column)), rule.grid.node_array().tolist(), column)
    return "beta,node,coefficient\n" + (row * len(column)) % tuple(itertools.chain.from_iterable(cells))


def cmd_coeffs(args) -> tuple[str, int]:
    rule = build_rule(args.m, args.n, args.method)
    return (document_csv(rule) if args.format == "csv" else document_json(rule)), 0


def cmd_integrate(args) -> tuple[str, int]:
    rule = build_rule(args.m, args.n, args.method)
    f = builtin_integrand(args.function)
    value = apply_rule(rule, f.fn)
    lines = [
        f"quadrature value: {_f17(value)}",
        f"reference value:  {_f17(f.exact_integral)}",
        f"absolute error:   {abs(value - f.exact_integral):.3e}",
    ]
    return "\n".join(lines) + "\n", 0


def _verify_checks(m: int, n: int) -> list[dict]:
    checks: list[dict] = []

    def add(name: str, value: float, tol: float) -> None:
        checks.append({"name": name, "value": value, "tolerance": tol, "passed": bool(value <= tol)})

    # every construction the method table offers for m; auto repeats one of them.
    # The dense solve is built first, so a system too large to allocate fails
    # before any other construction runs; the checks keep the table's order.
    names = [name for name, (orders, _) in _METHODS.items() if name != "auto" and m in orders]
    rules = {name: build_rule(m, n, name) for name in sorted(names, key=lambda name: name != "solve")}
    for name in names:
        add(f"{name}_constraints", max(constraint_residuals(rules[name]).values()), 1e-12)
    if "closed" in rules:
        closed = rules["closed"].coefficients
        dev = max(abs(a - b) for a, b in zip(closed, rules["solve"].coefficients))
        add("closed_vs_solve", dev, 1e-12 if m == 1 else 1e-9)
        # the same closed-form code run in extended precision, with the exact spacing 1/n
        extended = _closed_weights(m, n, dps=_EXTENDED_DPS)
        add("closed_vs_extended", float(max(abs(a - b) for a, b in zip(closed, extended))), 1e-12)
    add("operator_identities", max(identity_residuals(m, 1.0 / n).residuals.values()), 1e-9)
    norm_sq = error_norm_squared(rules["solve"])
    add("error_norm_nonnegative", -norm_sq, 1e-12)
    return checks


def cmd_verify(args) -> tuple[str, int]:
    checks = _verify_checks(args.m, args.n)
    passed = all(c["passed"] for c in checks)
    doc = _json17({"m": args.m, "n": args.n, "passed": passed, "checks": checks}) + "\n"
    return doc, 0 if passed else VERIFY_FAILED


def cmd_convergence(args) -> tuple[str, int]:
    n_values = _parse_n_list(args.n_list)
    if args.norm_mode and args.function:
        raise ValueError("--norm-mode and --function are mutually exclusive")
    if not (args.norm_mode or args.function):
        raise ValueError("pass --function NAME or --norm-mode")
    f = builtin_integrand(args.function) if args.function else None
    table = convergence_study(args.m, n_values, f, method=args.method)
    if args.format == "csv":
        return "n,value,ratio,order\n" + "".join(
            f"{r.n},{_f17(r.value)},{'' if r.ratio is None else _f17(r.ratio)},"
            f"{'' if r.order is None else _f17(r.order)}\n"
            for r in table.rows
        ), 0
    rows = [{"n": r.n, "value": r.value, "ratio": r.ratio, "order": r.order} for r in table.rows]
    return _json17({"m": table.m, "quantity": table.quantity, "rows": rows}) + "\n", 0


def cmd_compare(args) -> tuple[str, int]:
    optimal = build_rule(args.m, args.n, args.method)
    f = builtin_integrand(args.function)
    rows = [("optimal", apply_rule(optimal, f.fn)),
            ("trapezoid", apply_rule(classical_rule("trapezoid", args.n), f.fn))]
    note = ""
    if args.n % 2 == 0:
        rows.append(("simpson", apply_rule(classical_rule("simpson", args.n), f.fn)))
    else:
        note = "simpson omitted: n is odd\n"
    lines = [f"{'rule':<10} {'value':<24} {'abs_error':<12}"]
    for name, value in rows:
        lines.append(f"{name:<10} {_f17(value):<24} {abs(value - f.exact_integral):.3e}")
    return "\n".join(lines) + "\n" + note, 0


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError("--n-list is empty")
    if values != sorted(values) or len(set(values)) != len(values):
        raise ValueError("--n-list must be strictly ascending")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optquad",
        description="Optimal-weight quadrature rules on [0,1], exact for exp(-x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, summary, func, with_n=True, function=None):
        # function: None for no --function, else whether it is required
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--m", type=int, required=True, help="derivative order (1, 2 or 3)")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of grid intervals")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if name != "verify":
            p.add_argument("--method", default="auto", choices=METHODS)
        if function is not None:
            p.add_argument("--function", required=function, help="built-in integrand name")
        return p

    p = common("coeffs", "construct a rule and emit its document", cmd_coeffs)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common("integrate", "apply a rule to a built-in integrand", cmd_integrate, function=True)
    common("verify", "run the invariant checks for (m, n)", cmd_verify)
    p = common("convergence", "sweep n and tabulate errors or norms", cmd_convergence,
               with_n=False, function=False)
    p.add_argument("--n-list", required=True, help="comma-separated ascending interval counts")
    p.add_argument("--norm-mode", action="store_true", help="tabulate the error-functional norm")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    common("compare", "optimal vs trapezoid vs simpson on one integrand", cmd_compare, function=True)
    return parser


# main's parser, built once per process on first use: building one costs
# more than a small command
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, status = args.func(args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except MemoryError as exc:
        # a request past the memory there is, such as a weight list of 2^60 entries
        print("numeric failure: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return NUMERIC_ERROR
    except OSError as exc:
        # only --out is ever written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


def console_entry() -> None:
    sys.exit(main())
