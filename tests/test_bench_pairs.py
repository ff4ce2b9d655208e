"""scripts/bench_pairs.py against stub perfbench checkouts in tmp_path."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# perfbench/run.py stand-in: x_realtime VALUE on every run, except that a
# run with --seed FAIL_SEED writes to stderr and exits 1 with no metrics.
# Each run writes 8 MB, so it faults pages in and spends CPU time.
STUB = """\
import argparse, json, sys
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
args = p.parse_args()
block = b"x" * (8 << 20)
print("# machine " + json.dumps({"cores": 2}))
if int(args.seed) == FAIL_SEED:
    print("Traceback: round 1 raised MemoryError", file=sys.stderr)
    sys.exit(1)
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"x_realtime": {"value": VALUE, "unit": "s/s"}}}))
"""

BENCHMARK = {"run_seconds": 0, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "x_realtime", "unit": "s/s",
                             "better": "higher", "bound": 0.25}]}


def checkout(root, value, fail_seed=-1):
    """A checkout holding the script, BENCHMARK.json and a stub run.py."""
    (root / "scripts").mkdir(parents=True)
    (root / "perfbench").mkdir()
    shutil.copy(SCRIPT, root / "scripts" / "bench_pairs.py")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(
        STUB.replace("VALUE", repr(value)).replace("FAIL_SEED", str(fail_seed)))
    return root


def bench_pairs(change, parent):
    return subprocess.run(
        [sys.executable, str(change / "scripts" / "bench_pairs.py"),
         "--parent", str(parent), "--pr", "99", "--seed", "1"],
        capture_output=True, text=True, timeout=120, check=False)


def test_all_pairs_finish_and_are_summarized(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0)
    change = checkout(tmp_path / "change", 2.0)
    proc = bench_pairs(change, parent)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((change / "BENCH_99.json").read_text())
    summary = report["workloads"]["w"]["summary"]["x_realtime"]
    assert summary["pairs"] == 10 and summary["change_won"] == 10
    assert report["workloads"]["w"]["failed"] == {"parent": [0, 30],
                                                  "change": [0, 30]}
    fields = {"minflt", "utime_s", "stime_s"}
    for run in report["workloads"]["w"]["runs"]:
        for side in ("parent", "change"):
            assert set(run[f"{side}_rusage"]) == fields
            # 8 MB is 2 048 pages of 4 KiB
            assert run[f"{side}_rusage"]["minflt"] > 2048
    medians = report["workloads"]["w"]["rusage"]
    for side in ("parent", "change"):
        assert set(medians[side]) == fields
        assert all(v > 0 for v in medians[side].values())


def test_a_run_without_metrics_is_recorded_and_the_rest_kept(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0)
    change = checkout(tmp_path / "change", 2.0, fail_seed=3)  # pair 2
    proc = bench_pairs(change, parent)
    assert proc.returncode == 1
    assert "w pair 2 change" in proc.stderr
    report = json.loads((change / "BENCH_99.json").read_text())
    runs = report["workloads"]["w"]["runs"]
    assert len(runs) == 10
    broken = runs[2]
    assert "change" not in broken and broken["parent"] == {"x_realtime": 1.0}
    assert broken["change_error"]["exit"] == 1
    assert "MemoryError" in broken["change_error"]["stderr"]
    assert all(r["change"] == {"x_realtime": 2.0} for r in runs if r is not broken)
    summary = report["workloads"]["w"]["summary"]["x_realtime"]
    assert summary["pairs"] == 9 and summary["change_won"] == 9
    assert report["workloads"]["w"]["failed"]["change"] == [0, 27]


def test_parent_that_is_this_checkout_is_refused(tmp_path):
    change = checkout(tmp_path / "change", 2.0)
    proc = bench_pairs(change, change / "scripts" / "..")
    assert proc.returncode == 2
    assert "this checkout" in proc.stderr
    assert not (change / "BENCH_99.json").exists()
