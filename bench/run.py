"""Benchmark for luderskit: seeded CLI workloads in one process.

Run from the repository root:

    python3 bench/run.py --workload spin_dense --seed 1 --seconds 14 --trace 0

One caller runs the workload's commands through `luderskit.cli.run`, each
starting after the previous one ends (a closed loop), in passes until
`--seconds` is used up (at least MIN_PASSES).  Workloads whose ordering
engine has caches to fill get one untimed warm-up pass first.  Every
command's report is parsed and cross-checked (checks.py); a command that
raises or exits other than 0 or 1 counts as a failed op.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  pass_s and setup_s are wall times scaled to a
fixed machine speed: a reference mix (reference.py) is timed before and
after each pass or fresh interpreter, because the shared machine's speed
drifts by tens of percent from minute to minute.  The raw wall times are
printed too.  With `--trace 1` untraced and traced passes alternate and
the object holds the per-layer metrics, unscaled, from the spans the
benchmark records around calls into each module (spans.py).  The lines
before it, each starting with '#', record the environment, the sizings,
the raw samples, the check failures and the probe's outcome.

The package is imported from `src/` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import checks
import reference
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")

# One BLAS thread: check values repeat bit for bit, and a pass is not at
# the mercy of a second core that other work on the machine may hold.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_PASSES = 3          # untraced timed passes per run
MIN_TRACE_PAIRS = 2     # untraced/traced pass pairs per traced run
SETUP_REPEATS = 5       # fresh interpreters timed for setup_s

END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("checks_passed_frac", "ratio"),
    ("headroom_digits", "log10"),
)

SELF_TIMES = (
    "channel.family", "channel.build", "channel.spectrum", "channel.apply",
    "spin.quadrature", "spin.states", "spin.q_symbol", "spin.harmonic",
    "fock.states", "fock.q_symbol", "fock.apply", "fock.damping", "fock.xi",
    "fock.point_state", "fock.disk_image",
    "expr.parse",
    "ordering.normal_order", "ordering.luders", "ordering.anti_normal",
    "ordering.well_ordered", "ordering.to_source", "ordering.to_normal",
    "ordering.fixed_space",
    "reports.write",
    "cli",
)
CALL_COUNTS = (
    "channel.apply", "spin.states", "spin.q_symbol", "spin.harmonic",
    "fock.states", "fock.apply", "fock.point_state", "expr.parse",
    "ordering.normal_order", "ordering.luders",
)
# metric name -> (layer, counter summed over the layer's spans, unit)
COUNTERS = {
    "channel.superop_bytes": ("channel.build", "superop_bytes", "bytes"),
    "expr.parse.chars": ("expr.parse", "chars", "count"),
    "ordering.normal_order.terms_out": ("ordering.normal_order", "terms_out", "count"),
    "reports.bytes": ("reports.write", "bytes", "bytes"),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {f"{layer}.self_s": "s" for layer in SELF_TIMES}
    units.update({f"{layer}.calls": "count" for layer in CALL_COUNTS})
    units.update({name: unit for name, (_, _, unit) in COUNTERS.items()})
    units.update({"fock.states.distinct": "count", "fock.states.reuse": "ratio",
                  "trace.pass_s": "s", "trace.overhead_s": "s"})
    return units


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_cli():
    """Import luderskit.cli from the checkout's src/, or exit with status 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "luderskit", "__init__.py")):
        print(f"error: no luderskit package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import luderskit.cli
    if not os.path.abspath(luderskit.cli.__file__).startswith(src + os.sep):
        print(f"error: imported luderskit from {luderskit.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return luderskit.cli


class Outcome:
    """What one command did: exit status, or the exception it raised."""

    __slots__ = ("status", "stdout", "raised")

    def __init__(self, status, stdout, raised):
        self.status, self.stdout, self.raised = status, stdout, raised

    @property
    def failed(self) -> bool:
        return self.raised is not None or self.status not in (0, 1)


def run_command(cli, argv, tracer=None, index=0) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    status = raised = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                status = cli.run(list(argv))
            else:
                status = tracer.run_command(index, cli.run, list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a crash is a failed op, not the end of the run
            raised = f"{type(exc).__name__}: {str(exc)[:200]}"
    return Outcome(status, out.getvalue(), raised)


class Bench:
    """Runs passes of one workload and collects what its outputs show."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.dir = os.path.join(WORK_DIR, workload.name)
        self.argvs = [self._argv(i, c) for i, c in enumerate(workload.commands)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs = None   # normalized outputs of the first pass
        self.rows = None            # its check rows, per command

    def _argv(self, index, command):
        if not self.workload.writes_reports:
            return list(command)
        stem = os.path.join(self.dir, f"cmd{index:02d}")
        return list(command) + ["--json", stem + ".json", "--csv", stem + ".csv"]

    def run_pass(self, tracer=None) -> float:
        """One timed pass; then check every output against the first pass."""
        start = time.perf_counter()
        outcomes = [run_command(self.cli, argv, tracer, i) for i, argv in enumerate(self.argvs)]
        elapsed = time.perf_counter() - start
        self._verify(outcomes, "traced" if tracer else "untraced")
        return elapsed

    def _verify(self, outcomes, label):
        self.attempted += len(outcomes)
        normalized, rows = [], []
        for index, outcome in enumerate(outcomes):
            where = f"{label} command {index} {self.argvs[index][:2]}"
            if outcome.failed:
                self.failed += 1
                normalized.append(f"failed: {outcome.status} {outcome.raised}")
                rows.append([])
                continue
            command_rows, problems = checks.check_command(
                outcome.status, outcome.stdout, self.workload.fixed_space.get(index))
            text = outcome.stdout
            if self.workload.writes_reports:
                stem = os.path.join(self.dir, f"cmd{index:02d}")
                report, more = checks.read_reports(stem + ".json", stem + ".csv", command_rows)
                problems += more
                text += report
            self.problems += [f"{where}: {p}" for p in problems]
            normalized.append(text)
            rows.append(command_rows)
        if self.first_outputs is None:
            self.first_outputs, self.rows = normalized, rows
        elif normalized != self.first_outputs:
            differing = [i for i, (a, b) in enumerate(zip(normalized, self.first_outputs))
                         if a != b]
            self.problems.append(f"{label} pass output differs from the first pass "
                                 f"in commands {differing}")

    def run_probe(self) -> Outcome | None:
        """Run the workload's known-crash probe once, outside the passes.

        Its outcome enters ops_ok_frac but not `attempted`/`failed`, which
        count the commands of the passes.
        """
        if self.workload.probe is None:
            return None
        return run_command(self.cli, self.workload.probe)


def timed_loop(seconds, minimum, step):
    """Call step() until the next call would end past `seconds`; return its values."""
    values = []
    start = time.perf_counter()
    while True:
        values.append(step())
        used = time.perf_counter() - start
        if len(values) >= minimum and used * (len(values) + 1) / len(values) > seconds:
            return values


class SpeedScale:
    """Scales wall times to a fixed machine speed with the reference mix.

    `scaled(wall)` times the mix after the measured step and scales the
    wall time by NOMINAL_S over the mean of the mixes before and after it.
    """

    def __init__(self):
        self.reference = reference.Reference()
        self.reference.seconds()  # first call pays numpy's lazy set-up
        self.mark()

    def mark(self):
        self.before = self.reference.seconds()

    def scaled(self, wall: float) -> float:
        after = self.reference.seconds()
        factor = reference.NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return wall * factor


def measure_setup(name, seed, scale) -> list:
    """(wall, scaled) seconds of SETUP_REPEATS fresh interpreters."""
    probe = os.path.join(ROOT, "bench", "setup_probe.py")
    times = []
    scale.mark()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, name, str(seed)], check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        wall = time.perf_counter() - start
        times.append((wall, scale.scaled(wall)))
    return times


def tail_percentile(values):
    """(label, value) of the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < len(ordered) // 2:
        return f"none above the median (n={len(ordered)} < 21)", None
    return f"p{100 * (k + 1) // len(ordered)}", ordered[k]


def environment(args, workload) -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": workload.name,
        "sizings": workload.sizings,
        "commands": len(workload.commands),
    }


def note(label, value):
    print(f"# {label}: {json.dumps(value, default=str)}")


def end_to_end(bench, args) -> dict:
    scale = SpeedScale()
    setup = measure_setup(bench.workload.name, args.seed, scale)
    if bench.workload.warm_up:
        bench.run_pass()
    probe = bench.run_probe()
    scale.mark()

    def timed_pass():
        wall = bench.run_pass()
        return wall, scale.scaled(wall)

    passes = timed_loop(args.seconds, MIN_PASSES, timed_pass)
    scaled = [s for _, s in passes]
    rows = [row for command_rows in bench.rows for row in command_rows]
    passed = sum(row.passed for row in rows)
    headrooms = [h for h in (row.headroom() for row in rows) if h is not None]
    label, tail = tail_percentile(scaled)
    note("pass_s", {"n": len(passes), "median": statistics.median(scaled),
                    "tail": label, "tail_value": tail, "scaled": scaled,
                    "wall_median": statistics.median(w for w, _ in passes),
                    "wall": [w for w, _ in passes]})
    note("setup_s", {"n": len(setup), "scaled": [s for _, s in setup],
                     "wall": [w for w, _ in setup]})
    note("checks", {"rows": len(rows), "checks_failed": len(rows) - passed,
                    "fail_rows": sorted({r.name for r in rows if not r.passed})})
    # Per pass plus the probe, so the share does not move with the pass count.
    ops = len(bench.argvs) + (probe is not None)
    failed = (bench.failed * len(bench.argvs) / bench.attempted
              + (probe is not None and probe.failed))
    note("ops", {"attempted": bench.attempted, "failed": bench.failed,
                 "ops_failed_frac": failed / ops,
                 "probe": None if probe is None else {
                     "argv": bench.workload.probe, "status": probe.status,
                     "raised": probe.raised, "failed_op": probe.failed}})
    return {
        "pass_s": statistics.median(scaled),
        "setup_s": statistics.median(s for _, s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": (ops - failed) / ops,
        "checks_passed_frac": passed / len(rows) if rows else 0.0,
        "headroom_digits": min(headrooms, default=checks.HEADROOM_CAP),
    }


def layer_metrics(spans_of_pass) -> dict:
    totals = spans.layer_totals(spans_of_pass)
    empty = {"self_s": 0.0, "calls": 0, "keys": set()}
    values = {f"{layer}.self_s": totals.get(layer, empty)["self_s"] for layer in SELF_TIMES}
    values.update({f"{layer}.calls": totals.get(layer, empty)["calls"] for layer in CALL_COUNTS})
    for name, (layer, counter, _) in COUNTERS.items():
        values[name] = totals.get(layer, empty).get(counter, 0)
    states = totals.get("fock.states", empty)
    values["fock.states.distinct"] = len(states["keys"])
    values["fock.states.reuse"] = len(states["keys"]) / states["calls"] if states["calls"] else 0.0
    return values


def per_layer(bench, args) -> dict:
    if bench.workload.warm_up:
        bench.run_pass()
    bench.run_probe()
    tracer = spans.Tracer()
    untraced, traced, layers, unaccounted = [], [], [], []

    def pair():
        untraced.append(bench.run_pass())
        first = len(tracer.spans)
        with tracer:
            traced.append(bench.run_pass(tracer))
        layers.append(layer_metrics(tracer.spans[first:]))
        unaccounted.append(traced[-1] - sum(layers[-1][f"{layer}.self_s"]
                                            for layer in SELF_TIMES))

    timed_loop(args.seconds, MIN_TRACE_PAIRS, pair)
    units = per_layer_units()
    values = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        series = [layer[name] for layer in layers]
        if unit == "s":
            values[name] = statistics.median(series)
        elif len(set(series)) == 1:
            values[name] = series[0]
        else:
            bench.problems.append(f"count {name} differs between traced passes: {series}")
            values[name] = statistics.median(series)
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    # Self times partition the root spans, so what a traced pass spends
    # outside them is the benchmark's own loop.
    note("trace", {"pairs": len(traced), "untraced_pass_s": untraced, "traced_pass_s": traced,
                   "unaccounted_s": unaccounted, "missing_targets": tracer.missing})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    cli = import_cli()
    workload = workloads.build(args.workload, args.seed)
    bench = Bench(cli, workload)
    os.makedirs(bench.dir, exist_ok=True)
    note("environment", environment(args, workload))

    values = per_layer(bench, args) if args.trace else end_to_end(bench, args)
    units = per_layer_units() if args.trace else dict(END_TO_END)
    for problem in bench.problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
