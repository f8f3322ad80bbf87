#!/usr/bin/env python3
"""Benchmark of optquad: rule construction, verification and error norms.

Run from the repository root:

    python3 perfbench/run.py --workload rules --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload norms --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload verify --seed 1 --quick

One process imports optquad from ./src once and drives its CLI
(`optquad.cli.main(argv)`, stdout captured) and its library API.  Every
operation runs once untimed and its output is checked; then whole rounds
(a fixed number of small-class passes and one large-class pass) repeat until
`--seconds` have passed, each output compared with the checked one.
`--trace 1` measures untraced rounds for half the time and traced rounds for
the other half, and reports per-layer metrics instead of end-to-end ones.
`--quick` runs one round with one small pass and takes no extra set-up samples.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Full results and spans go to perfbench/results/.
"""

import os

# One BLAS thread, fixed before numpy loads.  On a 2-core machine the default
# two-thread OpenBLAS pool made np.linalg.cond on a 99x99 system take about
# 128 ms per call for stretches of calls, against 0.7-0.9 ms single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, besides this one (untraced runs)
SPEED_STRETCH_S = 0.05  # operations run between two timings of the speed kernel

UNITS = {"setup_s": "s", "small_s": "s", "large_s": "s", "digits": "digits", "peak_rss_mb": "MiB"}
# per-layer self time, ms per round
LAYER_MS = (
    "cli.document_json", "cli.document_csv", "cli.rule_document",
    "core.constraint_residuals", "core.apply_rule",
    "coefficients.closed_form_m1", "coefficients.closed_form_m2", "coefficients.lambda1",
    "coefficients.coefficients_via_convolution",
    "solver.assemble_system", "solver.solve",
    "analysis.error_norm_squared.optimal", "analysis.error_norm_squared.general",
    "analysis.sobolev_norm", "analysis.cauchy_schwarz_check", "analysis.stationarity_margin",
    "operator.identity_residuals", "operator.build_operator", "operator.stable_roots",
)
LAYER_COUNTS = ("core.psi.calls", "core.moment_f.calls")  # calls per round
LAYER_MAXIMA = {"solver.cond.max": "1", "operator.identity_residuals.window": "count"}
# median self time per call at one grid, ms: how each layer's cost grows with n
PER_GRID = (
    # rules
    ("coefficients.closed_form_m1", "m1.n65536"),
    ("coefficients.closed_form_m2", "m2.n64"),
    ("coefficients.closed_form_m2", "m2.n65536"),
    ("cli.document_json", "m3.n64"),
    ("cli.document_json", "m2.n65536"),
    ("cli.document_csv", "m2.n65536"),
    ("core.constraint_residuals", "m2.n65536"),
    ("solver.assemble_system", "m3.n16"),
    ("solver.assemble_system", "m3.n32"),
    ("solver.assemble_system", "m3.n64"),
    ("solver.solve", "m3.n16"),
    ("solver.solve", "m3.n32"),
    ("solver.solve", "m3.n64"),
    # verify
    ("solver.assemble_system", "m1.n512"),
    ("solver.assemble_system", "m2.n128"),
    ("solver.assemble_system", "m2.n160"),
    ("solver.solve", "m1.n512"),
    ("solver.solve", "m2.n160"),
    ("coefficients.coefficients_via_convolution", "m2.n160"),
    ("operator.identity_residuals", "m1.n16"),
    ("operator.identity_residuals", "m2.n16"),
    ("operator.identity_residuals", "m2.n160"),
    ("operator.identity_residuals", "m3.n4"),
    ("operator.identity_residuals", "m3.n16"),
    ("operator.identity_residuals", "m3.n64"),
    ("analysis.error_norm_squared.optimal", "m1.n512"),
    ("analysis.error_norm_squared.optimal", "m2.n160"),
    ("analysis.error_norm_squared.optimal", "m3.n64"),
    # norms
    ("analysis.error_norm_squared.optimal", "m2.n64"),
    ("analysis.error_norm_squared.optimal", "m2.n512"),
    ("analysis.error_norm_squared.optimal", "m2.n1024"),
    ("analysis.error_norm_squared.general", "m1.n512"),
    ("analysis.error_norm_squared.general", "m2.n128"),
    ("analysis.error_norm_squared.general", "m2.n512"),
)


class Failure:
    """Stands for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def run_op(op, tracer=None):
    index = tracer.open("op:" + op.name) if tracer else None
    try:
        return op.run()
    except Exception as exc:  # an operation that fails is counted, and the run goes on
        return Failure(exc)
    finally:
        if tracer:
            tracer.close(index)


def warm_up(workload) -> dict:
    """Run every operation once, untimed; later passes must reproduce these outputs.

    The order is by name, not the seeded pass order, so that the peak RSS
    read after it does not depend on the seed.
    """
    ops = sorted(workload.small + workload.large, key=lambda op: op.name)
    return {op.name: run_op(op) for op in ops}


def check(workload, outputs: dict, verdict_type) -> dict:
    """Check the output of every operation that did not fail."""
    verdicts = {}
    for op in workload.small + workload.large:
        out = outputs[op.name]
        if isinstance(out, Failure):
            continue
        try:
            verdicts[op.name] = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            verdicts[op.name] = verdict_type(False, f"{op.name}: check raised {type(exc).__name__}: {exc}")
    return verdicts


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched: set[str] = set()
        self.op_seconds: dict[str, list[float]] = {}  # per operation, at reference speed


def timed_pass(ops, expected: dict, tally: Tally, tracer=None) -> tuple[float, float]:
    """Wall time of one pass, and the same at reference speed.

    The speed kernel is timed at the start of the pass, after each stretch of
    operations that ran SPEED_STRETCH_S or longer, and at the end; every
    operation in a stretch is scaled by the mean of the two kernel times
    around it.
    """
    gc.collect()
    outputs = []
    wall = scaled = 0.0
    before = speed.sample()
    stretch: list[tuple[str, float]] = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        outputs.append(run_op(op, tracer))
        stretch.append((op.name, time.perf_counter() - start))
        if index + 1 < len(ops) and sum(t for _, t in stretch) < SPEED_STRETCH_S:
            continue
        after = speed.sample()
        for name, elapsed in stretch:
            at_reference = elapsed * speed.REFERENCE_S * 2 / (before + after)
            tally.op_seconds.setdefault(name, []).append(at_reference)
            wall += elapsed
            scaled += at_reference
        before, stretch = after, []
    for op, out in zip(ops, outputs):
        tally.attempted += 1
        if isinstance(out, Failure):
            tally.failed += 1
        elif out != expected[op.name]:
            tally.mismatched.add(op.name)
    return wall, scaled


def measure(workload, seconds: float, quick: bool, expected: dict, tally: Tally, tracer=None,
            between_rounds=lambda: None) -> dict:
    """Whole rounds until `seconds` have passed; pass times in seconds at reference speed."""
    repeats = 1 if quick else workload.small_passes_per_round
    times = {key: [] for key in ("small", "large", "rounds", "small_wall", "large_wall")}
    deadline = time.perf_counter() + seconds
    while True:
        passes = [timed_pass(workload.small, expected, tally, tracer) for _ in range(repeats)]
        large = timed_pass(workload.large, expected, tally, tracer)
        times["small_wall"] += [wall for wall, _ in passes]
        times["small"] += [scaled for _, scaled in passes]
        times["large_wall"].append(large[0])
        times["large"].append(large[1])
        times["rounds"].append(sum(scaled for _, scaled in passes) + large[1])
        if quick or time.perf_counter() >= deadline:
            return times
        between_rounds()


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SetupSampler:
    """Set-up times from fresh interpreters, spread over the run.

    Samples taken back to back share the host's speed of the moment, which
    the speed kernel does not fully correct for an import; spreading them
    over the rounds lets the median see several states of the host.
    """

    def __init__(self, first: float, wanted: int, seconds: float):
        self.samples = [first]
        self.wanted = wanted
        self.interval = seconds / (wanted + 1)
        self.last = time.perf_counter()

    def _take(self) -> None:
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def between_rounds(self) -> None:
        if len(self.samples) <= self.wanted and time.perf_counter() - self.last >= self.interval:
            self._take()

    def finish(self) -> list[float]:
        while len(self.samples) <= self.wanted:
            self._take()
        return self.samples


def layer_metrics(tracer, rounds: int, timing_untraced: dict, timing_traced: dict, import_s: float) -> dict:
    totals: dict[str, float] = {}
    for name, _, _, seconds in tracer.self_times():
        totals[name] = totals.get(name, 0.0) + seconds
    table = tracer.layer_table()
    metrics = {f"{name}.ms": (totals.get(name, 0.0) * 1e3 / rounds, "ms") for name in LAYER_MS}
    metrics.update({name: (tracer.counts.get(name, 0) // rounds, "count") for name in LAYER_COUNTS})
    metrics.update({name: (tracer.maxima.get(name, 0), unit) for name, unit in LAYER_MAXIMA.items()})
    for layer, grid in PER_GRID:
        entry = table.get(layer, {}).get(grid)
        metrics[f"{layer}.{grid}.ms"] = (entry["self_ms_median"] if entry else 0.0, "ms")
    metrics["import.optquad.s"] = (import_s, "s")
    overhead = statistics.median(timing_traced["rounds"]) - statistics.median(timing_untraced["rounds"])
    metrics["trace.overhead.s"] = (overhead, "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["rules", "verify", "norms"])
    parser.add_argument("--seed", type=int, default=1, help="fixes the order of operations in a pass")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="one tiny round, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s, first_setup = setup_probe.measure_setup()
    except ImportError as exc:
        print(f"error: cannot import optquad from {setup_probe.SRC}: {exc}", file=sys.stderr)
        return 2
    first_setup *= speed.scale()
    import optquad

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](optquad, args.seed)
    expected = warm_up(workload)
    # peak RSS through set-up and one pass of every operation; after 30 s of
    # rounds it reads 49 or 56 MiB on verify, with no pattern in the seed
    peak_rss_mb = peak_rss()

    tally = Tally()
    tracer = None
    if args.trace:
        untraced = measure(workload, args.seconds / 2, args.quick, expected, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, args.quick, expected, tally, tracer)
        finally:
            tracer.uninstall()
        timing, setups = traced, None
        metrics = layer_metrics(tracer, len(traced["rounds"]), untraced, traced, import_s)
    else:
        setup = SetupSampler(first_setup, 0 if args.quick else SETUP_SAMPLES, args.seconds)
        timing = measure(workload, args.seconds, args.quick, expected, tally,
                         between_rounds=setup.between_rounds)
        setups = setup.finish()
    rss_after_rounds = peak_rss()
    verdicts = check(workload, expected, workloads.Verdict)
    if not args.trace:
        digits = [v.digits for v in verdicts.values() if v.digits is not None]
        metrics = {
            "setup_s": (statistics.median(setups), UNITS["setup_s"]),
            "small_s": (statistics.median(timing["small"]), UNITS["small_s"]),
            "large_s": (statistics.median(timing["large"]), UNITS["large_s"]),
            "digits": (min(digits) if digits else 0.0, UNITS["digits"]),
            "peak_rss_mb": (peak_rss_mb, UNITS["peak_rss_mb"]),
        }

    problems = [v.detail for v in verdicts.values() if not v.ok]
    problems += [f"{name}: output changed between passes" for name in sorted(tally.mismatched)]
    for name, out in expected.items():
        if isinstance(out, Failure):
            problems.append(f"{name}: failed: {out.message}")
    for line in problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not [v for v in verdicts.values() if not v.ok] and not tally.mismatched,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_results(args, result, tracer, {
        "setup_samples_s": setups,
        "peak_rss_mb_after_rounds": rss_after_rounds,
        "pass_times_s": timing,
        "op_median_s": {name: statistics.median(v) for name, v in tally.op_seconds.items()},
        "checks": {name: vars(v) for name, v in verdicts.items()},
    })
    print(json.dumps(result))
    return 0


def write_results(args, result: dict, tracer, detail: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"result": result, "seconds": args.seconds, "quick": args.quick, **detail}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = {
            "layers": tracer.layer_table(),
            "counts": dict(tracer.counts),
            "maxima": tracer.maxima,
            "spans": [[s[0], s[1], s[2], s[3], s[4], s[5]] for s in tracer.spans],
        }
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
