"""End-to-end: synthetic corpus -> decoder training -> resynthesis.

Builds a tiny synthetic corpus from a two-oscillator patch, trains the
conditioning decoder and reverb for a short schedule, then resynthesizes
a held-out rendering and reports the reconstruction metrics. All outputs
land in ./demo_run next to this script.
"""

import csv
from importlib import resources
from pathlib import Path

import numpy as np

from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import fmsynth as fm
from fmresynth import training as tr

root = Path(__file__).with_name("demo_run")
patch = str(resources.files("fmresynth") / "configs" / "strings1_2.fm")
config = fm.load_config(patch)

print("1. synthetic corpus (4 clips, seeded envelopes and f0)")
manifest = ds.synth_corpus(config, 4, seed=0, out_dir=root / "corpus",
                           split_fractions=(0.5, 0.25, 0.25))
for split in ("train", "valid", "test"):
    print(f"   {split}: {len(manifest.split_records(split))} clips")

print("2. training (short demo schedule; real runs use tens of thousands "
      "of steps)")
run = tr.RunConfig(corpus_dir=str(root / "corpus"), patch_path=patch,
                   steps=60, batch=2, checkpoint_every=30, seed=0)
ckpt = tr.train(run, root / "train")
rows = list(csv.DictReader(
    (root / "train" / "loss_log.csv").read_text().splitlines()))
first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
print(f"   loss {first:.0f} -> {last:.0f} "
      f"({last / first:.2f}x) over {len(rows)} steps")

print("3. resynthesis of the held-out test clip")
record = manifest.split_records("test")[0]
audio, track, _env = ds.load_clip(root / "corpus", record)
pred = ev.resynthesize(run, ckpt, audio, track)
ds.write_wav(root / "target.wav", audio)
ds.write_wav(root / "resynth.wav", pred)
metrics = ev.compute_metrics(audio, pred)
print(f"   mss {metrics['mss']:.0f}, lsd {metrics['lsd_db']:.2f} dB, "
      f"f0 rmse {metrics['f0_rmse_cents']:.1f} cents")
print(f"   wavs in {root}")
