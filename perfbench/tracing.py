"""Spans and counters around optquad's public functions, installed from outside.

Each wrapped call records one span: name, start, end, parent span, and the
grid (m, n) it ran on.  Spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its direct children cover.
The kernel functions `psi` and `moment_f` run up to a million times per
operation, so they are counted, not spanned.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (module, function, layer name); the layer is the module the function lives in
SPANNED = (
    ("optquad.cli", "document_json", "cli.document_json"),
    ("optquad.cli", "document_csv", "cli.document_csv"),
    ("optquad.cli", "rule_document", "cli.rule_document"),
    ("optquad.core", "constraint_residuals", "core.constraint_residuals"),
    ("optquad.core", "apply_rule", "core.apply_rule"),
    ("optquad.coefficients", "closed_form_m1", "coefficients.closed_form_m1"),
    ("optquad.coefficients", "closed_form_m2", "coefficients.closed_form_m2"),
    ("optquad.coefficients", "lambda1", "coefficients.lambda1"),
    ("optquad.coefficients", "coefficients_via_convolution", "coefficients.coefficients_via_convolution"),
    ("optquad.solver", "assemble_system", "solver.assemble_system"),
    ("optquad.solver", "solve", "solver.solve"),
    ("optquad.analysis", "error_norm_squared", "analysis.error_norm_squared"),
    ("optquad.analysis", "sobolev_norm", "analysis.sobolev_norm"),
    ("optquad.analysis", "cauchy_schwarz_check", "analysis.cauchy_schwarz_check"),
    ("optquad.analysis", "stationarity_margin", "analysis.stationarity_margin"),
    ("optquad.operator", "identity_residuals", "operator.identity_residuals"),
    ("optquad.operator", "build_operator", "operator.build_operator"),
    ("optquad.operator", "stable_roots", "operator.stable_roots"),
)
COUNTED = (
    ("optquad.core", "psi", "core.psi.calls"),
    ("optquad.core", "moment_f", "core.moment_f.calls"),
)
# constructors whose order is fixed by their name take n alone
FIXED_ORDER = {"coefficients.closed_form_m1": 1, "coefficients.closed_form_m2": 2}
# error_norm_squared inside these spans runs on perturbed, not optimal, weights
GENERAL_CONTEXTS = ("analysis.stationarity_margin", "op:norm-perturbed")


def _grid_of(args) -> tuple[int | None, int | None]:
    """(m, n) of a call, read from its rule, system, (m, n) or (m, h) arguments."""
    if not args:
        return None, None
    first = args[0]
    grid = getattr(first, "grid", None)
    if grid is not None:
        return grid.m, grid.n
    h = getattr(first, "h", None)
    if isinstance(h, float) and hasattr(first, "m"):  # characteristic polynomial
        return first.m, round(1.0 / h)
    if isinstance(first, float):  # lambda1(h)
        return 2, round(1.0 / first)
    if isinstance(first, int) and len(args) > 1:
        second = args[1]
        if isinstance(second, int) and not isinstance(second, bool):
            return first, second
        if isinstance(second, float) and second > 0:
            return first, round(1.0 / second)
    return None, None


class Tracer:
    """In-memory span recorder; `install` wraps optquad, `uninstall` undoes it."""

    def __init__(self):
        # span: [name, start, end, parent index, m, n, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, m=None, n=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, m, n, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][6] += span[2] - span[1]

    def in_context(self, prefixes) -> bool:
        return any(self.spans[i][0].startswith(prefixes) for i in self.stack)

    def record_max(self, name: str, value) -> None:
        if value is not None:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def _spanned(self, fn, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if layer in FIXED_ORDER:
                m, n = FIXED_ORDER[layer], args[0]
            else:
                m, n = _grid_of(args)
            name = layer
            if layer == "analysis.error_norm_squared":
                general = not args[0].method.is_optimal or tracer.in_context(GENERAL_CONTEXTS)
                name += ".general" if general else ".optimal"
            index = tracer.open(name, m, n)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if layer == "solver.solve":
                tracer.record_max("solver.cond.max", result.condition_estimate)
            elif layer == "operator.identity_residuals":
                tracer.record_max("operator.identity_residuals.window", result.window)
            return result

        return wrapper

    def _counted(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace each target in every optquad namespace that bound it by import."""
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "optquad"]
        targets = [(mod, fn, self._spanned, layer) for mod, fn, layer in SPANNED]
        targets += [(mod, fn, self._counted, counter) for mod, fn, counter in COUNTED]
        for mod_name, fn_name, make, label in targets:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = make(original, label)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> list[tuple[str, int | None, int | None, float]]:
        """(name, m, n, self seconds) for every closed span."""
        return [(s[0], s[4], s[5], (s[2] - s[1]) - s[6]) for s in self.spans if s[2] is not None]

    def layer_table(self) -> dict[str, dict[str, dict]]:
        """Per layer and grid: call count, total and median self time in ms."""
        groups: dict[tuple[str, str], list[float]] = defaultdict(list)
        for name, m, n, seconds in self.self_times():
            key = f"m{m}.n{n}" if n is not None else "all"
            groups[(name, key)].append(seconds * 1e3)
        table: dict[str, dict[str, dict]] = defaultdict(dict)
        for (name, key), values in sorted(groups.items()):
            table[name][key] = {
                "calls": len(values),
                "self_ms_total": sum(values),
                "self_ms_median": statistics.median(values),
            }
        return dict(table)
