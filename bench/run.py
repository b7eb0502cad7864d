"""poirec benchmark: end-to-end and per-layer figures for three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload text-full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1   # every workload

One workload runs in this process, in a closed loop with a single caller:
it generates its corpus from `--seed`, then runs whole rounds (see
`bench_workload`) until `--seconds` have passed, checks every output and
prints, as its last line, one JSON object:

    {"correct": true, "attempted": 107, "failed": 0,
     "metrics": {"setup_s": {"value": 2.51, "unit": "s"}, ...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from spans around every public poirec function. Each run
also writes `bench/out/<workload>-seed<seed>-trace<t>.json` (environment,
every timed sample, every failed check, notes) and, when traced, the spans as
`bench/out/<workload>-seed<seed>.spans.npz`.

`--workload all` runs each workload in a fresh process, prints every
metric with its unit and the operations attempted and failed; with
`--trace 1` it adds a traced run of each and the tracing overhead.

The benchmark sets no BLAS thread count and does no untimed BLAS warm-up:
it records the thread count it finds, and whatever start-up cost poirec's
BLAS calls pay counts in the timings, so a later change that caps threads
inside poirec shows in full.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("text-full", "ids-catalog", "text-twophase")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def run_one(args) -> int:
    import poirec  # imported before numpy, so a thread cap inside poirec applies

    if os.path.dirname(os.path.abspath(poirec.__file__)) != os.path.join(SRC, "poirec"):
        print(f"error: imported poirec from {poirec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench_trace import Tracer
    from bench_workload import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(workload, args.seed, workdir, tracer=tracer)
        rounds = runner.run(args.seconds)
        o, m = runner.o, runner.m
        metrics = runner.metrics()
        if tracer:
            tracer.save(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.npz"))
        env["blas_threads_after"] = blas_threads()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not o.problems and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} rounds = {rounds}, attempted = {o.attempted}, failed = {o.failed}, "
          f"timed = {m.timed_s / rounds:.3f} s/round")
    print(f"{args.workload} notes = {json.dumps(o.notes, sort_keys=True)}")
    for line in o.failures[:5] + o.problems:
        print(f"{args.workload} {'FAILED' if line in o.failures else 'WRONG'}: {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "rounds": rounds,
        "timed_s_per_round": m.timed_s / rounds, "samples": dataclasses.asdict(m), "correct": correct,
        "attempted": o.attempted, "failed": o.failed, "failures": o.failures,
        "problems": o.problems, "notes": o.notes,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": o.attempted, "failed": o.failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a summary table at the end."""
    rows = []
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")) as f:
                results[trace] = json.load(f)
        rows.append((name, results))

    print("\nworkload        metric                                   value        unit")
    for name, results in rows:
        r = results[0]
        print(f"{name:15} {'correct':40} {str(r['correct']):>12}")
        print(f"{name:15} {'attempted / failed':40} {r['attempted']:>6} / {r['failed']:<5}")
        for metric, v in r["metrics"].items():
            print(f"{name:15} {metric:40} {v['value']:>12.4f} {v['unit']}")
        if 1 in results:
            t = results[1]
            overhead = t["timed_s_per_round"] / r["timed_s_per_round"] - 1.0
            print(f"{name:15} {'tracing overhead (timed work per round)':40} {100 * overhead:>11.1f}% "
                  f"({r['timed_s_per_round']:.2f} s -> {t['timed_s_per_round']:.2f} s)")
            for metric, v in t["metrics"].items():
                print(f"{name:15} {metric:40} {v['value']:>12.5g} {v['unit']}")
    return 0 if all(res[0]["correct"] for _, res in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "poirec", "__init__.py")):
        print(f"error: no poirec source under {SRC}; run from a poirec checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
