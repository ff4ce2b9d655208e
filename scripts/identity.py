"""Check that a change keeps every output of its parent byte for byte.

    python3 scripts/identity.py --parent ../parent

--parent is a second checkout of the parent commit, for example made with
`git archive HEAD~1 | tar -x -C ../parent`; this checkout is the change.
The identity workload runs once per checkout, each in a subprocess that
imports `fmresynth` from that checkout's `src` (and whose workers do too):

- for `strings1`, `brass3` and `flute1`: a 6-clip `synth_corpus` (seed 3,
  splits 0.67 / 0.33 / 0), whose files are outputs; `train` for 4 steps
  at batch 2 (seed 5, checkpoint every 2, hidden 8, 2 blocks), whose
  checkpoints 2 and 4 and loss log (with `valid_loss`) are outputs; a
  resume from checkpoint 2 into another directory, whose checkpoint 4
  must equal the straight run's; and a 5-step `match_envelopes` (seed 1)
  on the first clip, whose envelopes and loss history are outputs;
- `ingest` (instrument violin, seed 11) of the two wavs that perfbench's
  `ingest_resynth` makes with seed 11, whose corpus files are outputs,
  then `evaluate_checkpoint` of that workload's untrained checkpoint on
  every non-empty split, whose reports and wavs are outputs;
- an 8-clip `strings1` corpus (seed 7, all train), 3 steps at batch 8
  (seed 9, hidden 32, 3 blocks) at 1, 2 and 3 workers, whose checkpoint
  and log must not depend on the worker count. Every step of it clips
  the gradient, so the global norm's last bit is covered.

One line per output gives its sha256 on both sides. The script exits 1
when any output differs between the sides, is missing on one, or breaks
one of the two rules above. A checkout may be given as its own parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATCHES = ("strings1", "brass3", "flute1")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def file_digests(out, prefix, directory):
    """Add the digest of each file in `directory` to `out`."""
    for path in sorted(Path(directory).iterdir()):
        out[f"{prefix}/{path.name}"] = digest(path.read_bytes())


def workload(root):
    """Run the identity workload under `root`; returns {output: sha256}."""
    # imported here, in the subprocess, so each side runs its own package
    from importlib import resources

    import numpy as np

    from fmresynth import dataset as ds
    from fmresynth import evaluation as ev
    from fmresynth import fmsynth as fm
    from fmresynth import training as tr
    from fmresynth import workers

    def patch(name):
        return str(resources.files("fmresynth") / "configs" / f"{name}.fm")

    out = {}
    for name in PATCHES:
        config = fm.load_config(patch(name))
        corpus = root / name / "corpus"
        ds.synth_corpus(config, 6, seed=3, out_dir=corpus,
                        split_fractions=(0.67, 0.33, 0.0))
        file_digests(out, f"{name}/corpus", corpus)
        run = tr.RunConfig(corpus_dir=str(corpus), patch_path=patch(name),
                           steps=4, batch=2, seed=5, checkpoint_every=2,
                           hidden_channels=8, blocks=2)
        tr.train(run, root / name / "run")
        tr.train(run, root / name / "resumed",
                 resume_from=root / name / "run" / "checkpoint_00000002.ckpt")
        for file in ("checkpoint_00000002.ckpt", "checkpoint_00000004.ckpt",
                     "loss_log.csv"):
            out[f"{name}/{file}"] = digest((root / name / "run" / file).read_bytes())
        out[f"{name}/resumed/checkpoint_00000004.ckpt"] = digest(
            (root / name / "resumed" / "checkpoint_00000004.ckpt").read_bytes())

        manifest = ds.load_manifest(corpus / "manifest.json")
        audio, track, _env = ds.load_clip(corpus, manifest.records[0])
        env, history = tr.match_envelopes(config, audio, track.f0_hz,
                                          steps=5, seed=1)
        out[f"{name}/match_envelopes"] = digest(np.ascontiguousarray(env).tobytes())
        out[f"{name}/match_history"] = digest(np.asarray(history).tobytes())

    # perfbench's ingest_resynth input, read from this checkout's perfbench
    sys.path.insert(0, str(Path(ds.__file__).resolve().parents[2] / "perfbench"))
    from workloads import IngestResynth
    bench = IngestResynth(11, root / "ingest", False)
    bench.setup(0)
    manifest = ds.ingest(bench.wavs, "violin", seed=11, out_dir=bench.corpus)
    file_digests(out, "ingest/corpus", bench.corpus)
    for split in ("train", "valid", "test"):
        if manifest.split_records(split):
            wavs = root / "ingest" / split
            report = ev.evaluate_checkpoint(bench.run, bench.ckpt, bench.corpus,
                                            split=split, out_dir=wavs)
            out[f"ingest/{split}/report"] = digest(json.dumps(
                dataclasses.asdict(report), sort_keys=True).encode())
            file_digests(out, f"ingest/{split}", wavs)

    corpus = root / "wide" / "corpus"
    ds.synth_corpus(fm.load_config(patch("strings1")), 8, seed=7,
                    out_dir=corpus, split_fractions=(1.0, 0.0, 0.0))
    run = tr.RunConfig(corpus_dir=str(corpus), patch_path=patch("strings1"),
                       steps=3, batch=8, seed=9, checkpoint_every=3,
                       hidden_channels=32, blocks=3)
    for n in (1, 2, 3):
        workers.cpu_count = lambda n=n: n
        tr.train(run, root / "wide" / f"w{n}")
        for file in ("checkpoint_00000003.ckpt", "loss_log.csv"):
            out[f"wide/w{n}/{file}"] = digest(
                (root / "wide" / f"w{n}" / file).read_bytes())
    return out


def run_side(checkout):
    """The identity workload's digests with `checkout`'s package."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", tmp], cwd=tmp, env=env,
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: the identity workload failed:\n"
                 f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def broken_rules(digests):
    """The outputs of one side that break the resume or worker-count rule."""
    broken = []
    for name in PATCHES:
        if (digests.get(f"{name}/resumed/checkpoint_00000004.ckpt")
                != digests.get(f"{name}/checkpoint_00000004.ckpt")):
            broken.append(f"{name}/resumed/checkpoint_00000004.ckpt")
    for file in ("checkpoint_00000003.ckpt", "loss_log.csv"):
        if len({digests.get(f"wide/w{n}/{file}") for n in (1, 2, 3)}) != 1:
            broken.append(f"wide/w*/{file}")
    return broken


def compare(parent, change):
    """Print one line per output with both digests; 1 if any differs, is
    missing on one side or breaks a rule, else 0."""
    status = 0
    for name in sorted(parent.keys() | change.keys()):
        before, after = parent.get(name, "-"), change.get(name, "-")
        status |= before != after
        print(f"{name} {before} {after}{'' if before == after else ' DIFFERS'}")
    for side, digests in (("parent", parent), ("change", change)):
        for name in broken_rules(digests):
            status = 1
            print(f"{side}: {name} breaks its rule")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--workload", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is not None:  # one side, in its own subprocess
        print(json.dumps(workload(args.workload)))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    return compare(run_side(args.parent), run_side(ROOT))


if __name__ == "__main__":
    sys.exit(main())
