"""Self-tests of the benchmark, and a comparison with the ROADMAP baseline.

Run from the repository root (about a minute on two cores):

    python3 bench/selftest.py

It checks that the same seed gives the same argv lists, that every metric
name in BENCHMARK.json is well formed and matches what run.py prints, and
that an untraced pass records no spans.  Exit status 1 means one of these
failed.  It then times one traced pass per workload and compares per-call
numbers with the ROADMAP baseline rows whose sizing matches; a gap above
2x is reported, not failed.
"""

from __future__ import annotations

import json
import os
import re
import sys

import run
import spans
import workloads

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# ROADMAP baseline rows whose sizing a workload repeats:
# (description, workload, how to read it from one traced pass, seconds)
BASELINE = (
    ("build_luders_channel, two_s 30", "spin_dense", ("channel.build", 30), 0.23),
    ("channel_spectrum, two_s 30", "spin_dense", ("channel.spectrum", None), 1.18),
    ("luders_fixed_space(12)", "order_exact", ("ordering.fixed_space", 12), 0.119),
    ("CLI fock --dim 160 --radius 6.3", "fock_tight", ("cli", None), 10.8),
)
NOT_COMPARABLE = (
    "fock coherent_state_matrix / Q-symbol / grid_channel_apply / verify_damping: "
    "measured on an 80x128 grid; the CLI runs a fixed 40x64 grid",
    "two_s 50 rows and CLI spin --two-s 50: no workload runs two_s 50",
    "CLI fock at dim 40, radius 3: no workload runs that sizing",
    "normal_order((q+p)^120) and the criterion-8 test: not run by any workload",
)


def check_argv() -> list:
    problems = []
    for name in workloads.NAMES:
        for seed in (1, 2, 3):
            if workloads.build(name, seed) != workloads.build(name, seed):
                problems.append(f"{name} seed {seed}: argv differ between builds")
    for name in ("order_exact", "cli_small"):
        if workloads.build(name, 1).commands == workloads.build(name, 2).commands:
            problems.append(f"{name}: seeds 1 and 2 give the same argv")
    return problems


def check_names() -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME_RE.match(n)]
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != dict(run.END_TO_END):
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.per_layer_units():
        problems.append("per_layer metrics differ from run.per_layer_units()")
    if tuple(w["name"] for w in spec["workloads"]) != workloads.NAMES:
        problems.append("workloads differ from workloads.NAMES")
    return problems


def check_untraced(cli) -> list:
    """An untraced pass records no spans, before and after a traced one."""
    bench = run.Bench(cli, workloads.build("cli_small", 1))
    os.makedirs(bench.dir, exist_ok=True)
    tracer = spans.Tracer()
    originals = [cli.build_luders_channel, cli.fock.coherent_state_matrix]
    bench.run_pass()
    problems = [] if not tracer.spans else ["spans recorded before install"]
    with tracer:
        bench.run_pass(tracer)
    recorded = len(tracer.spans)
    bench.run_pass()
    if recorded == 0:
        problems.append("the traced pass recorded no spans")
    if len(tracer.spans) != recorded:
        problems.append("an untraced pass after uninstall recorded spans")
    if [cli.build_luders_channel, cli.fock.coherent_state_matrix] != originals:
        problems.append("uninstall did not restore the wrapped functions")
    if tracer.missing:
        problems.append(f"trace targets missing: {tracer.missing}")
    return problems + bench.problems


def compare_baseline(cli):
    print("ROADMAP baseline rows at matching sizings (one traced pass after a warm-up):")
    passes = {}
    for name in sorted({row[1] for row in BASELINE}):
        bench = run.Bench(cli, workloads.build(name, 1))
        bench.run_pass()
        tracer = spans.Tracer()
        with tracer:
            bench.run_pass(tracer)
        passes[name] = tracer.spans
    for label, name, (layer, arg), baseline in BASELINE:
        matching = [s for s in passes[name]
                    if s.name == layer and (arg is None or s.info.get("arg") == arg)]
        if not matching:
            print(f"  {label}: no matching span")
            continue
        # per call, with the time of nested spans included, as the ROADMAP timed it
        now = sum(s.duration for s in matching) / len(matching)
        ratio = now / baseline
        flag = "  GAP > 2x" if not 0.5 <= ratio <= 2 else ""
        print(f"  {label}: ROADMAP {baseline:.3g} s, now {now:.3g} s "
              f"({ratio:.2f}x, {len(matching)} calls){flag}")
    print(f"  (ROADMAP thread count unstated; this run pins {run.BLAS_THREADS} BLAS thread)")
    print("Rows not compared:")
    for reason in NOT_COMPARABLE:
        print(f"  {reason}")


def main() -> int:
    run.pin_threads()
    cli = run.import_cli()
    failed = False
    for label, test in (("argv", check_argv), ("names", check_names),
                        ("untraced", lambda: check_untraced(cli))):
        problems = test()
        failed |= bool(problems)
        print(f"{label}: {'FAIL' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    compare_baseline(cli)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
