"""scripts/identity.py: the parent-against-change byte identity check."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"


def load_script():
    spec = importlib.util.spec_from_file_location("identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_is_its_own_identical_parent():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(SCRIPT.parents[1])],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-4000:]
    lines = [line.split() for line in proc.stdout.splitlines()]
    # 3 patches x (6 clips x 4 files and the manifest of the corpus, 2
    # checkpoints, the log, the resumed checkpoint and 2 match outputs);
    # the ingested corpus (8 kept clips x 3 files and the manifest) and,
    # for its 3 splits, a report each and 2 wavs per clip; and a
    # checkpoint and a log at each of 3 worker counts
    assert len(lines) == 3 * (25 + 6) + (8 * 3 + 1) + 3 + 8 * 2 + 3 * 2
    assert all(len(line) == 3 and line[1] == line[2] and len(line[1]) == 64
               for line in lines)


def test_a_difference_or_a_broken_rule_exits_1(capsys):
    identity = load_script()
    same = {f"{p}/{f}": "a" for p in identity.PATCHES
            for f in ("checkpoint_00000004.ckpt",
                      "resumed/checkpoint_00000004.ckpt")}
    same.update({f"wide/w{n}/{f}": "b" for n in (1, 2, 3)
                 for f in ("checkpoint_00000003.ckpt", "loss_log.csv")})
    assert identity.compare(same, dict(same)) == 0
    assert identity.compare(same, {**same, "brass3/loss_log.csv": "c"}) == 1
    assert "brass3/loss_log.csv - c DIFFERS" in capsys.readouterr().out
    changed = {**same, "flute1/checkpoint_00000004.ckpt": "d"}
    assert identity.compare(changed, changed) == 1
    assert "flute1/resumed/checkpoint_00000004.ckpt breaks its rule" in (
        capsys.readouterr().out)
    wide = {**same, "wide/w3/loss_log.csv": "e"}
    assert identity.compare(wide, wide) == 1
    assert "wide/w*/loss_log.csv breaks its rule" in capsys.readouterr().out
