"""Benchmark a change against its parent in alternating pairs; write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --pr <n>

--parent is a second checkout of the parent commit, for example made with
`git worktree add ../parent HEAD~1` or `git archive HEAD~1 | tar -x -C
../parent`; this checkout is the change. Workloads, run length and metric
directions come from this checkout's BENCHMARK.json. For every workload,
pair i of the PAIRS pairs runs `perfbench/run.py --seed <seed + i>` once
on each side, the parent first in even pairs and the change first in odd
ones, so drift in the host's speed falls on both sides alike. Then one
traced run (`--trace 1 --seconds 0`) per side gives the per-module
figures. BENCH_<pr>.json at the root of this checkout holds every run's
end-to-end metrics, each side's median and quartiles, how many pairs the
change won, each metric's verdict (gain, worse, unresolved or unchanged;
see `verdict`, and printed per workload), each side's [failed, attempted]
operation totals, the traced metrics and the `# machine` line of the runs.
Each pair entry also holds `<side>_rusage`: the run's minor page faults
and user and system CPU seconds, taken as deltas of
getrusage(RUSAGE_CHILDREN) around it, and, for a run that printed
metrics, `<side>_rusage_per_op`: the same deltas divided by the run's
attempted operations. A run repeats rounds for a fixed time, so the
faster side does more work per run; the per-operation figures compare
like with like. Each workload holds the per-side medians of both, under
`rusage` as `<side>` and `<side>_per_op`. Peak memory is not among them:
ru_maxrss is a maximum, not a sum, so it has no delta. A run that prints
no metrics is kept in its pair entry as `<side>_error` with its exit code
and the tail of its stderr, and the pair is left out of the summary; the
other pairs still run. The script exits 1 when any run fails perfbench's
checks (`"correct": false`) or prints no metrics, so such a file cannot
pass for a win, and 2 when --parent is this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # the fewest pairs a claimed gain may rest on
RUSAGE = ("minflt", "utime_s", "stime_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="checkout of the parent commit")
    p.add_argument("--pr", required=True, type=int,
                   help="number in the name of the BENCH_<pr>.json written")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    return p.parse_args(argv)


def run_bench(checkout, workload, seed, seconds, trace):
    """One perfbench run in `checkout`: (machine info, result JSON, rusage),
    where a run that prints no metrics gives {"error": {"exit", "stderr"}}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    rusage = {"minflt": after.ru_minflt - before.ru_minflt,
              "utime_s": after.ru_utime - before.ru_utime,
              "stime_s": after.ru_stime - before.ru_stime}
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if not isinstance(result, dict) or not result.get("metrics"):
        # no round finished, so nothing to compare
        return machine, {"error": {"exit": proc.returncode,
                                   "stderr": proc.stderr[-2000:]}}, rusage
    return machine, result, rusage


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def rusage_medians(runs, key):
    """Per-field medians of the runs' `key` entries; {} when no run has one."""
    entries = [r[key] for r in runs if key in r]
    return ({k: statistics.median(e[k] for e in entries) for k in RUSAGE}
            if entries else {})


def verdict(parent, change, won, higher, bound):
    """What the pairs show for one metric: "gain" when the change won at
    least 9 in 10 pairs and the medians differ by more than the parent's
    quartile spread; "worse" when the change's
    median is worse than the parent's by more than `bound` (a fraction);
    "unresolved" when the parent's quartile spread exceeds `bound` of its
    median and not every change run beats every parent run; else
    "unchanged"."""
    p, c = quartiles(parent), quartiles(change)
    better = (c["median"] - p["median"]) * (1 if higher else -1)
    spread = p["q3"] - p["q1"]
    if 10 * won >= 9 * len(parent) and better > spread:
        return "gain"
    if -better > bound * abs(p["median"]):
        return "worse"
    beats_all = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    if spread > bound * abs(p["median"]) and not beats_all:
        return "unresolved"
    return "unchanged"


def summarize(runs, end_to_end):
    """Per metric: each side's median and quartiles, the pairs won and the
    verdict, over the pairs where both runs printed metrics (none if under
    two)."""
    runs = [r for r in runs if "parent" in r and "change" in r]
    out = {}
    if len(runs) < 2:
        return out
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        side = {"parent": quartiles(parent), "change": quartiles(change)}
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **side,
                     "median_change": side["change"]["median"]
                     / side["parent"]["median"] - 1.0,
                     "change_won": won, "pairs": len(runs),
                     "verdict": verdict(parent, change, won, higher,
                                        metric["bound"])}
    return out


def main(argv=None):
    args = parse_args(argv)
    parent = args.parent.resolve()
    if parent == ROOT:
        print(f"error: --parent {parent} is this checkout", file=sys.stderr)
        return 2
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"error: {parent} holds no perfbench/run.py", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": parent, "change": ROOT}
    report = {"pr": args.pr, "pairs": PAIRS, "seconds": seconds,
              "seeds": [args.seed + i for i in range(PAIRS)],
              "machine": None, "workloads": {}}
    incorrect, broken = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                machine, result, rusage = run_bench(sides[side], workload,
                                                    seed, seconds, trace=0)
                report["machine"] = report["machine"] or machine
                run[f"{side}_rusage"] = rusage
                if "error" in result:
                    run[f"{side}_error"] = result["error"]
                    broken.append(f"{workload} pair {i} {side}")
                    continue
                run[side] = values(result)
                run[f"{side}_failed"] = [result["failed"], result["attempted"]]
                run[f"{side}_rusage_per_op"] = {
                    k: v / result["attempted"] for k, v in rusage.items()}
                if not result["correct"]:
                    incorrect.append(f"{workload} pair {i} {side}")
            runs.append(run)
            done = "parent" in run and "change" in run
            print(f"{workload} pair {i} seed {seed}: " + (", ".join(
                f"{k} {run['parent'][k]:.4g} -> {run['change'][k]:.4g}"
                for k in run["parent"]) if done else "a run printed no metrics"),
                flush=True)
        traced = {}
        for side in ("parent", "change"):
            result = run_bench(sides[side], workload, args.seed, 0, trace=1)[1]
            if "error" in result:
                broken.append(f"{workload} traced {side}")
                traced[side] = result
            else:
                traced[side] = values(result)
        summary = summarize(runs, bench["end_to_end"])
        for name, m in summary.items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g}, won {m['change_won']}/"
                  f"{m['pairs']}: {m['verdict']}", flush=True)
        report["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "failed": {side: [sum(r[f"{side}_failed"][i] for r in runs
                                  if side in r) for i in (0, 1)]
                       for side in sides},
            "traced": traced,
            "rusage": {side + per_op: rusage_medians(
                runs, f"{side}_rusage{per_op}")
                for side in sides for per_op in ("", "_per_op")}}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if incorrect:
        print("error: perfbench checks failed in " + ", ".join(incorrect),
              file=sys.stderr)
    if broken:
        print("error: no metrics from " + ", ".join(broken), file=sys.stderr)
    return 1 if incorrect or broken else 0


if __name__ == "__main__":
    sys.exit(main())
