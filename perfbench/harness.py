"""Measurement loop, set-up timing, environment block and the printed result.

One run makes passes of the workload for ``--seconds`` seconds.  It sets up
``SETUP_REPS`` times (fresh import of polydet, input generation, warm-up):
once before the first pass and then at evenly spaced points of the run, so
the median, ``setup_s``, does not hang on one moment of a shared host.
Set-up time does not count against ``--seconds``.  The benchmark's own
references are computed outside both the set-up and the pass timers.

``wall_s`` is the time of one pass with each program call at its fastest:
the sum over the pass's call slots of the fastest untraced time of that
slot, or on ``ladder`` the median (perfbench/README.md gives the measurements
behind the choice).  The fastest, median and a tail percentile of the pass
times and of every slot's times go to the run record.

With ``--trace 1`` passes alternate in pairs, two untraced then two traced,
so the same run also gives the tracing overhead (median traced pass minus
median untraced pass).  A name to trace that the program no longer binds is
a failed operation, so a lost hook makes the result not correct instead of
reading as a layer that got faster.

The last line of standard output is the result object (correct, attempted,
failed, metrics), with the metrics BENCHMARK.json declares; the line before
it is the full run record, also written, with the spans of a traced run,
under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import layers
from .tracer import NullTracer, Tracer
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 15
MODULES = ("matrices", "combinatorics", "engines", "symbolic", "anomaly", "verify")
TAIL_PERMILLES = (999, 990, 950, 900, 750)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "POLYDET_THREADS")


def load_program() -> SimpleNamespace:
    """Import polydet afresh from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "polydet" or m.startswith("polydet.")]:
        del sys.modules[name]
    pkg = importlib.import_module("polydet")
    if Path(pkg.__file__).resolve().parent != SRC / "polydet":
        raise RuntimeError(f"imported polydet from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"polydet.{m}") for m in MODULES})


def series_stats(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    out = {"min": xs[0] if xs else None, "p50": statistics.median(xs) if xs else None}
    out.update({"samples": n, "tail": None, "tail_pct": None})
    for permille in TAIL_PERMILLES:
        rank = -(-permille * n // 1000)  # nearest rank, ceil(permille * n / 1000)
        if rank and n - rank >= 10:
            out["tail"] = xs[rank - 1]
            out["tail_pct"] = permille / 10
            break
    return out


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """The checkout's commit, read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = getattr(np, "__config__", None)
    deps = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {}) if blas else {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": deps.get("name"), "version": deps.get("version"), "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "seed": seed,
    }


def _check_group(label: str) -> str:
    return re.sub(r"\.\d+$", "", label)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (run record, result object)."""
    cls = WORKLOADS[workload]
    setup_times: list[float] = []

    def set_up():
        start = time.perf_counter()
        prog = load_program()
        wl = cls(prog, seed)
        wl.warm_up()
        setup_times.append(time.perf_counter() - start)
        return prog, wl

    prog, wl = set_up()

    spec = json.loads(SPEC.read_text())
    tracer = Tracer() if trace else None
    missing_hooks: list[str] = []
    untraced = NullTracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpu: list[float] = []
    series: dict[str, list[float]] = defaultdict(list)
    slots: dict[str, list[float]] = defaultdict(list)
    pass_layers: list[dict[str, float]] = []
    pass_counts: list[dict] = []
    attempted = failed = missed = 0
    failures: list[str] = []
    skips: list[tuple[str, str]] = []
    worst: dict[str, float] = {}

    begin = time.perf_counter()
    deadline = begin + seconds
    k = 0
    # whole pairs of passes, so ladder's unit and scaled passes stay balanced
    while k < (4 if trace else 2) or k % 2 or time.perf_counter() < deadline:
        if len(setup_times) < SETUP_REPS and time.perf_counter() - begin >= seconds * len(setup_times) / SETUP_REPS:
            start = time.perf_counter()
            prog, wl = set_up()
            deadline += time.perf_counter() - start
        inp = wl.inputs(k)
        refs = wl.references(inp)
        traced = trace and k % 4 >= 2
        if traced:
            missing_hooks = layers.instrument(prog, tracer)
            tracer.counts.clear()
            lo = tracer.mark()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            out, attempt = wl.run(inp, tracer if traced else untraced)
        finally:
            wall = time.perf_counter() - start
            cpu_used = time.process_time() - cpu_start
            if traced:
                tracer.restore()
        walls[traced].append(wall)
        if traced:
            figures = layers.pass_metrics(tracer.totals(lo), tracer.counts)
            pass_layers.append(figures)
            pass_counts.append({key: figures[key] for key in layers.REPEATABLE_COUNTS})
        else:
            cpu.append(cpu_used)
            series[cls.pass_series].append(wall * 1e3)
            for slot, seconds_taken in attempt.times.items():
                slots[slot].append(seconds_taken)

        for c in wl.check(inp, refs, out):
            attempted += 1
            missed += not c.ok
            if c.hard:
                failed += 1
                failures.append(f"pass {k}: {c.label} err={c.err}")
            if c.err is not None:
                group = _check_group(c.label)
                worst[group] = max(worst.get(group, 0.0), c.err)
        for label, message in attempt.errors:
            attempted += 1
            missed += 1
            failed += 1
            failures.append(f"pass {k}: {label}: {message}")
        skips.extend(attempt.skips)
        k += 1

    for name in missing_hooks:
        attempted += 1
        missed += 1
        failed += 1
        failures.append(f"hook {name}: not bound by the program, so its per-layer metrics would read 0")

    fail_frac = missed / attempted if attempted else 1.0
    wall_s = sum(wl.slot_statistic(values) for values in slots.values())
    record: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": k,
        "environment": environment(seed),
        "setup_s": {"value": statistics.median(setup_times), "samples": len(setup_times)},
        "wall_s": {
            "value": wall_s,
            "samples": len(walls[False]),
            "slots": len(slots),
            "statistic": f"sum over slots of {wl.slot_statistic.__name__}",
        },
        "cpu_s": {"value": statistics.median(cpu), "samples": len(cpu)},
        "series_ms": {key: series_stats(values) for key, values in series.items()},
        "slot_ms": {key: series_stats([v * 1e3 for v in values]) for key, values in slots.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "max_rel_err": max(worst.values(), default=0.0),
        "max_rel_err_by_check": worst,
        "failures": failures[:50],
        "skips": [f"{label}: {reason}" for label, reason in skips[:50]],
        "skipped": len(skips),
    }
    if trace:
        figures = layers.combine(pass_layers)
        figures["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        record["trace_metrics"] = figures
        record["trace_passes"] = {"traced": len(walls[True]), "untraced": len(walls[False])}
        record["counts_repeat"] = all(c == pass_counts[0] for c in pass_counts)
        record["missing_hooks"] = missing_hooks
    else:
        figures = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - fail_frac,
        }
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.save(OUT_DIR / f"{stem}-spans.npz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    return record, result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0
