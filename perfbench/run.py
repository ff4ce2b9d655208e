"""fmresynth benchmark: one workload per run, measured from outside.

    python3 perfbench/run.py --workload train_b16 --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, sets up several times, then
repeats the workload's unit of work ("round") for at least --seconds and at
least three rounds, checks the outputs, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. The first round warms
up and is left out of every figure. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-module ones from a
traced run (see README.md). --workload all runs every workload in its own
process. --smoke shrinks every workload to a few seconds for the
benchmark's own test.

Exit codes: 0 all checks passed, 1 a check or round failed, 2 the program
could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train_b16", "match_flute", "ingest_resynth")
SETUPS = 3
SETUP_SECONDS = 2.0
MIN_ROUNDS = 3     # the first round warms up and is left out of the figures
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def pin_blas_threads():
    """Cap BLAS threads at the cores this process may run on. Must run
    before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def import_program():
    """Import fmresynth from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fmresynth
    if Path(fmresynth.__file__).resolve().parent.parent != src:
        raise ImportError(f"fmresynth imported from {fmresynth.__file__}, "
                          f"not from {src}")


def blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(cores):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": cores, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(np),
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_ENV},
            "machine": platform.machine(), "system": platform.system()}


def run_workload(args, cores):
    import tracing
    import workloads

    machine = machine_info(cores)
    print("# machine " + json.dumps(machine, sort_keys=True))
    run_id = f"{args.workload}-s{args.seed}"
    work = ROOT / ".perfbench" / "work" / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
    tracer = tracing.Tracer(args.workload, run_id)
    attempted = failed = 0
    setup_s, rounds, traced_s, plain_s = [], [], [], []
    try:
        # At least SETUPS set-ups and SETUP_SECONDS of them, so that the
        # median of a set-up of a few milliseconds is steady too.
        min_setups, setup_floor = (1, 0.0) if args.smoke else (SETUPS, SETUP_SECONDS)
        start_all = time.perf_counter()
        while (len(setup_s) < min_setups
               or time.perf_counter() - start_all < setup_floor):
            if args.trace:
                tracer.install()
            start = time.perf_counter()
            with tracer.span("bench.setup"):
                wl.setup(len(setup_s))
            setup_s.append(time.perf_counter() - start)
            tracer.uninstall()

        # With --trace 1, untraced and traced rounds alternate so the
        # tracing overhead is measured on the same inputs.
        start_all = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start_all < args.seconds):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            wl.prepare_round()
            if traced:
                tracer.phase = "round"
                tracer.install()
            start = time.perf_counter()
            try:
                with tracer.span("bench.round"):
                    result = wl.run_round()
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
                break
            finally:
                tracer.uninstall()
            result["wall_s"] = time.perf_counter() - start
            (traced_s if traced else plain_s).append(result["wall_s"])
            rounds.append(result)
            attempted += result["ops"]
            wl.check_round(result)
        if rounds:
            wl.check_final()
    except Exception:
        traceback.print_exc()
        wl.check("workload ran without an exception", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name in dict.fromkeys(name for name, _ in wl.checks):
        results = [passed for n, passed in wl.checks if n == name]
        print(f"# check {'ok  ' if all(results) else 'FAIL'} "
              f"{sum(results)}/{len(results)} {name}")
    attempted += len(wl.checks)
    failed += sum(not passed for _, passed in wl.checks)
    correct = failed == 0 and bool(rounds)

    metrics = {}
    warm = rounds[1:]
    if warm and not args.trace:
        summary = wl.summary(warm)
        summary["failed_fraction"] = (failed / attempted, "ratio")
        print(f"# {args.workload}: " + ", ".join(
            f"{k}={v:.6g} {unit}" for k, (v, unit) in summary.items()))
        metrics = {
            "x_realtime": warm[0]["audio_s"] / statistics.median(
                r["wall_s"] for r in warm),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"x_realtime": "s/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    elif warm:
        overhead = (statistics.median(traced_s) / statistics.median(plain_s[1:])
                    - 1.0 if traced_s and plain_s[1:] else 0.0)
        metrics = tracer.metrics(len(setup_s), len(traced_s), wl.values, overhead)
        units = {name: tracing.metric_unit(name) for name in metrics}
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{run_id}.jsonl",
                     {"machine": machine, "workload": args.workload,
                      "run": run_id, "seed": args.seed})
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    cores = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import fmresynth: {exc}", file=sys.stderr)
        return 2
    return run_workload(args, cores)


if __name__ == "__main__":
    sys.exit(main())
