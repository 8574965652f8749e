"""Benchmark of the udes library and CLI.

Run from the root of a checkout:

    python3 udesbench/run.py --workload design_stream --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` runs a fixed number of cycles twice, plain and then with spans
recorded around the public functions of every udes module, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full report, with the
machine facts, goes to udesbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import harness  # imports no numpy, so the BLAS cap below still applies
from tracer import Tracer, metric_specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("mc_oracle", "design_stream", "cli_structure")

#: the metrics of the untraced run that BENCHMARK.json gates, with units
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: printed and recorded, but not gated: defined on some workloads only, or 0
REPORTED = (
    ("latency_p90_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("error_rate", "1"),
    ("defect_rate", "1"),
    ("predicted_defect_rate", "1"),
    ("latency_samples", "count"),
    ("latency_p50_samples", "count"),
    ("repeats", "count"),
)

SETUP_REPEATS = 21


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_checkout_udes():
    """Import udes from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "udes", "cli.py")):
        raise RuntimeError(f"no udes sources under {SRC}")
    sys.path.insert(0, SRC)
    import udes
    import udes.cli

    where = os.path.realpath(udes.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported udes from {where}, not from {SRC}")
    return udes


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.cap_blas_threads(os.cpu_count() or 1)
    try:
        udes = import_checkout_udes()
        harness.check_child_import(SRC)
    except (RuntimeError, ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports numpy, after the BLAS cap

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](udes, args.seed, workdir)
        report, values, specs, printed = measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = harness.machine_facts(args.seed, getattr(udes, "__version__", "?"))
    report["facts"] = facts
    report["metrics"] = {n: {"value": values[n], "unit": u} for n, u in specs}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print_human(report, facts, specs, values)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in printed},
    }
    print(json.dumps(result))
    return 0


def measure(args, workload):
    """Warm up, run the loop (twice when tracing) and collect the metrics."""
    problems = harness.warm_up(workload)
    report = {"workload": args.workload, "trace": args.trace, "why": workload.why}
    if args.trace == 0:
        clock = harness.SetupClock(SRC, SETUP_REPEATS, args.seconds)
        stats = harness.run_loop(workload, seconds=args.seconds, between=clock)
        problems += stats.problems + workload.finish()
        values = {"setup_s": clock.setup_s()}
        values.update(loop_metrics(stats))
        values["peak_rss_mb"] = harness.peak_rss_mb()
        specs = list(END_TO_END) + [(n, u) for n, u in REPORTED if n in values]
        printed = list(END_TO_END)
    else:
        cycles = workload.trace_cycles
        plain = harness.run_loop(workload, cycles=cycles)
        tracer = Tracer()
        tracer.install()
        try:
            stats = harness.run_loop(workload, cycles=cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        problems += plain.problems + stats.problems + workload.finish()
        values = tracer.summary()
        values.update(harness.import_floors(SRC, SETUP_REPEATS))
        values["trace.overhead_pct"] = 100.0 * (stats.busy_s / plain.busy_s - 1.0)
        specs = [(n, u) for n, u, _ in metric_specs()]
        printed = specs
        report["cycles"] = cycles
        report["spans"] = write_spans(tracer, args)
    report.update(
        attempted=stats.attempted,
        failed=stats.failed,
        wrong_answers=stats.wrong,
        errors=dict(stats.errors),
        defects=stats.defects,
        predicted_defects=stats.predicted_defects,
        cycles_run=stats.cycles,
        kind_p50_ms=harness.kind_medians_ms(stats),
        cycle_ops_per_s=cycle_rates(stats.latencies, len(workload.cycle)),
        problems=problems,
        correct=stats.wrong == 0 and not problems,
    )
    return report, values, specs, printed


def loop_metrics(stats) -> dict[str, float]:
    out = harness.latency_metrics(stats.latencies)
    per_cycle = stats.attempted // stats.cycles, stats.samples // stats.cycles
    out.update(harness.best_of_cycles_metrics(stats.latencies, stats.kinds, *per_cycle))
    out["error_rate"] = stats.failed / stats.attempted
    out["defect_rate"] = stats.defects / stats.attempted
    out["predicted_defect_rate"] = stats.predicted_defects / stats.attempted
    return out


def cycle_rates(latencies_s, cycle_ops: int) -> list[float]:
    """Ops per second of each cycle in turn: shows how the host's speed
    moved during the run."""
    return [cycle_ops / sum(latencies_s[i : i + cycle_ops]) for i in range(0, len(latencies_s), cycle_ops)]


def write_spans(tracer, args) -> str:
    import numpy as np

    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")
    np.savez(
        path,
        names=np.array(tracer.names),
        fn=np.array(tracer.fn),
        parent=np.array(tracer.parent),
        op=np.array(tracer.op),
        start=np.array(tracer.start),
        end=np.array(tracer.end),
        outermost=np.array(tracer.outer, dtype=bool),
    )
    return os.path.relpath(path, ROOT)


def print_human(report, facts, specs, values) -> None:
    print(f"workload {report['workload']} (trace {report['trace']}): {report['why']}")
    print(
        f"machine: {facts['nproc']} CPUs, {facts['cpu_model']}; Python {facts['python']}, "
        f"numpy {facts['numpy']}, BLAS {facts['blas'].get('name')} {facts['blas'].get('version')} "
        f"with {facts['blas_threads']} threads; seed {facts['seed']}"
    )
    print(
        f"ops {report['attempted']} in {report['cycles_run']} cycles, failed {report['failed']} "
        f"(wrong answers {report['wrong_answers']}, exceptions {report['errors']}); "
        f"known-defect ops {report['defects']} (predicted {report['predicted_defects']})"
    )
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for name, unit in specs:
        print(f"  {name} = {values[name]!r} {unit}")


if __name__ == "__main__":
    sys.exit(main())
