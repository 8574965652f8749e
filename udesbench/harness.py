"""The closed-loop caller, latency statistics, fresh-interpreter import
timings and the machine facts recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

#: the smallest number of samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# --------------------------------------------------------------------------
# statistics


def percentile(sorted_values, q: int) -> float:
    """q-th percentile (q an integer 0..100) by linear interpolation between
    closest ranks, numpy's default rule."""
    n = len(sorted_values)
    pos = q * (n - 1) / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_defined(n: int, q: int) -> bool:
    """Whether at least TAIL_SAMPLES of n samples lie beyond percentile q."""
    return n * (100 - q) // 100 >= TAIL_SAMPLES


def latency_metrics(latencies_s) -> dict[str, float]:
    """The sample count, and latency_p90_ms over all ops where its tail
    holds enough samples."""
    ms = sorted(1e3 * x for x in latencies_s)
    out = {"latency_samples": len(ms)}
    if tail_defined(len(ms), 90):
        out["latency_p90_ms"] = percentile(ms, 90)
    return out


def slot_best(latencies_s, kinds, cycle_ops: int) -> list[float]:
    """Each op slot of a cycle timed as the fastest latency of its op kind
    over all of a run's whole cycles."""
    best: dict[str, float] = {}
    for kind, dt in zip(kinds, latencies_s):
        best[kind] = min(dt, best.get(kind, dt))
    return [best[kind] for kind in kinds[:cycle_ops]]


def best_of_cycles_metrics(latencies_s, kinds, cycle_ops: int, cycle_samples: int) -> dict[str, float]:
    """ops_per_s (and samples_per_s) and the median op latency, with each op
    slot timed as the best of the repeats of its kind over the run.

    Every cycle runs the same op kinds, and ops of one kind differ only in
    their seeded inputs and in how much the host slowed them.  On a shared
    host the machine runs up to 2x slower for seconds at a time, and a
    mean or median over a run moves with the share of time spent slowed.
    The fastest repeat of each kind, as timeit takes it, leaves out that
    interference and keeps every kind's own cost; pooling the slots of a
    kind gives each minimum more repeats."""
    best = slot_best(latencies_s, kinds, cycle_ops)
    busy = sum(best)
    out = {
        "ops_per_s": cycle_ops / busy,
        "latency_p50_ms": 1e3 * statistics.median(best),
        "latency_p50_samples": cycle_ops,
        "repeats": len(latencies_s) // cycle_ops,
    }
    if cycle_samples:
        out["samples_per_s"] = cycle_samples / busy
    return out


# --------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopStats:
    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    samples: int = 0
    cycles: int = 0
    defects: int = 0
    predicted_defects: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_once(op, tracer=None):
    """Time one op; returns (seconds, result, exception)."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the op boundary: a failing op must not end the run
        return time.perf_counter() - t0, None, exc
    finally:
        if tracer is not None:
            tracer.active = False
    return time.perf_counter() - t0, result, None


def run_loop(workload, seconds: float | None = None, cycles: int | None = None, tracer=None, between=None) -> LoopStats:
    """One closed-loop caller: each op starts after the previous one returned
    and was checked.  Runs whole cycles until `seconds` of wall time have
    passed or `cycles` cycles are done.  Only the op calls are timed.
    `between(elapsed)`, when given, runs after each cycle and returns the
    seconds it took, which do not count towards `seconds`."""
    stats = LoopStats()
    start = time.perf_counter()
    while True:
        for slot in range(len(workload.cycle)):
            op = workload.op(stats.cycles, slot)
            if tracer is not None:
                tracer.op_id = stats.attempted
            dt, result, exc = run_once(op, tracer)
            stats.latencies.append(dt)
            stats.kinds.append(op.kind)
            stats.attempted += 1
            stats.samples += op.samples
            stats.predicted_defects += op.predicted_defect
            if exc is not None:
                stats.failed += 1
                stats.errors[type(exc).__name__] += 1
                if len(stats.problems) < 20:
                    stats.problems.append(f"{op.kind}: unexpected {type(exc).__name__}: {exc}")
                continue
            if op.defect is not None:
                stats.defects += op.defect(result)
            problem = op.check(result)
            if problem is not None:
                stats.failed += 1
                stats.wrong += 1
                if len(stats.problems) < 20:
                    stats.problems.append(f"{op.kind}: {problem}")
        stats.cycles += 1
        if between is not None:
            start += between(time.perf_counter() - start)
        if cycles is not None and stats.cycles >= cycles:
            return stats
        if seconds is not None and time.perf_counter() - start >= seconds:
            return stats


def warm_up(workload) -> list[str]:
    """Run the warm-up slots once, untimed; returns their problems."""
    problems = []
    for slot in workload.warmup:
        op = workload.op(0, slot)
        _, result, exc = run_once(op)
        if exc is None:
            problem = op.check(result)
        else:
            problem = f"unexpected {type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"warm-up {op.kind}: {problem}")
    return problems


def kind_medians_ms(stats: LoopStats) -> dict[str, float]:
    """Median latency of each op kind, cheapest first: shows which kinds
    hold the median and the tail."""
    by_kind: dict[str, list] = {}
    for kind, dt in zip(stats.kinds, stats.latencies):
        by_kind.setdefault(kind, []).append(1e3 * dt)
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    return dict(sorted(medians.items(), key=lambda kv: kv[1]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# fresh-interpreter set-up time and import floors


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # let the first import write the bytecode cache, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _wall(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def check_child_import(src: str) -> None:
    """Import udes.cli once in a fresh interpreter (which also writes the
    bytecode cache) and make sure it is the checkout's copy."""
    out = subprocess.run(
        [sys.executable, "-c", "import udes.cli; print(udes.cli.__file__)"],
        env=child_env(src), check=True, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    ).stdout.strip()
    if not os.path.realpath(out).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"a fresh interpreter imports udes from {out}, not from {src}")


class SetupClock:
    """setup_s: the median wall time of `repeats` fresh interpreters
    importing udes.cli, run one at a time, never in parallel.

    Called between the cycles of a run of `seconds`, it starts one each time
    the run passes another 1/repeats of its length, so that the samples see
    the host as the ops do rather than as it was during a few seconds after
    the run."""

    def __init__(self, src: str, repeats: int, seconds: float):
        self.env = child_env(src)
        self.repeats = repeats
        self.seconds = seconds
        self.walls: list[float] = []

    def __call__(self, elapsed: float) -> float:
        t0 = time.perf_counter()
        due = min(self.repeats, 1 + int(self.repeats * elapsed / self.seconds))
        while len(self.walls) < due:
            self.walls.append(_wall("import udes.cli", self.env))
        return time.perf_counter() - t0

    def setup_s(self) -> float:
        self(self.seconds)
        return statistics.median(self.walls)


def import_floors(src: str, repeats: int) -> dict[str, float]:
    """Medians of fresh interpreters doing nothing, importing numpy and
    importing udes.cli, run one at a time: split setup_s into the bare
    interpreter, numpy and the package's own import."""
    env = child_env(src)
    walls: dict[str, list] = {"pass": [], "import numpy": [], "import udes.cli": []}
    for _ in range(repeats):
        for code, times in walls.items():
            times.append(_wall(code, env))
    python, numpy, udes = (statistics.median(w) for w in walls.values())
    return {
        "import.python_ms": 1e3 * python,
        "import.numpy_ms": 1e3 * (numpy - python),
        "import.udes_ms": 1e3 * (udes - numpy),
    }


# --------------------------------------------------------------------------
# machine and build facts


def cap_blas_threads(nproc: int) -> None:
    """Cap the BLAS pool at nproc through this process's environment; must
    run before numpy is imported."""
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def blas_threads() -> int | None:
    """Threads of the OpenBLAS loaded into this process, asked from the
    library itself; None where it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(seed: int, udes_version: str) -> dict:
    import numpy as np

    blas = {}
    config = getattr(np, "__config__", None)
    deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {}) if config else {}
    if "blas" in deps:
        blas = {"name": deps["blas"].get("name"), "version": deps["blas"].get("version")}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_ENV},
        "udes": udes_version,
        "platform": platform.platform(),
    }
