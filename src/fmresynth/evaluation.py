"""Resynthesis from checkpoints, reconstruction metrics, experiment grids.

Metrics replace the embedding-based quality score used in the original
study (which needs a pretrained network): multi-scale spectral loss, log
spectral distance, and f0 RMSE in cents over jointly-voiced frames. These
support ordinal comparisons between runs, not absolute comparison with
published numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset as ds
from . import features as ft
from . import spectral as sp
from . import training as tr

LSD_WINDOW = 1024
LSD_HOP = 256
LSD_EPSILON = 1e-6
F0_CONFIDENCE_FLOOR = 0.5  # f0 RMSE uses frames where both confidences exceed it

# Table-shaped experiment grids: which ablated variants exist per instrument
ABLATION_VARIANTS = {
    "flute": ("flute1", "flute1_4y", "flute1_2"),
    "violin": ("strings1", "strings1_4x1", "strings1_2x2", "strings1_2"),
    "trumpet": ("brass3", "brass3_4y", "brass3_2"),
}


@dataclass
class EvalReport:
    run_id: str
    config_name: str
    i_max: float
    per_clip: list            # list of metric dicts
    mss: float = 0.0          # aggregates: means over clips
    log_spectral_distance_db: float = 0.0
    f0_rmse_cents: float = 0.0

    def aggregate(self):
        if self.per_clip:
            self.mss = float(np.mean([m["mss"] for m in self.per_clip]))
            self.log_spectral_distance_db = float(
                np.mean([m["lsd_db"] for m in self.per_clip]))
            self.f0_rmse_cents = float(
                np.mean([m["f0_rmse_cents"] for m in self.per_clip]))
        return self


def resynthesize(run, checkpoint_path, audio, track=None):
    """features -> decode (inference) -> render -> reverb; same length out."""
    return _resynthesize(tr.Model.load(run, checkpoint_path), audio, track)


def _resynthesize(model, audio, track=None):
    if track is None:
        track = ft.extract_features(audio)
    _env, _dry, wet = model.forward(track)
    out = wet.values[: len(audio)]
    if len(out) < len(audio):
        out = np.pad(out, (0, len(audio) - len(out)))
    return out


def log_spectral_distance(target, prediction):
    """Mean over frames of sqrt(mean over bins of squared dB log ratio)."""
    s_t = ad.stft_magnitude(target, LSD_WINDOW, LSD_HOP).values
    s_p = ad.stft_magnitude(prediction, LSD_WINDOW, LSD_HOP).values
    ratio = 20.0 * np.log10((s_t + LSD_EPSILON) / (s_p + LSD_EPSILON))
    return float(np.mean(np.sqrt(np.mean(ratio ** 2, axis=1))))


def f0_rmse_cents(target, prediction):
    """RMSE in cents over frames where both estimates are confident.

    Returns 0.0 when no frame qualifies.
    """
    f0_t, conf_t = ft.estimate_f0(target)
    f0_p, conf_p = ft.estimate_f0(prediction)
    mask = (conf_t > F0_CONFIDENCE_FLOOR) & (conf_p > F0_CONFIDENCE_FLOOR) \
        & (f0_t > 0) & (f0_p > 0)
    if not np.any(mask):
        return 0.0
    cents = 1200.0 * np.log2(f0_p[mask] / f0_t[mask])
    return float(np.sqrt(np.mean(cents ** 2)))


def compute_metrics(target, prediction):
    """Per-clip metric dict: mss, lsd_db, f0_rmse_cents."""
    target = np.asarray(target, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    if target.shape != prediction.shape:
        raise ValueError("target and prediction must have equal lengths")
    if np.array_equal(target, prediction):
        return {"mss": 0.0, "lsd_db": 0.0, "f0_rmse_cents": 0.0}
    return {
        "mss": sp.mss_loss(target, prediction).item(),
        "lsd_db": log_spectral_distance(target, prediction),
        "f0_rmse_cents": f0_rmse_cents(target, prediction),
    }


def evaluate_checkpoint(run, checkpoint_path, corpus_dir, split="test",
                        out_dir=None, run_id=""):
    """EvalReport over a corpus split; optionally writes resynthesized wavs."""
    manifest = ds.load_manifest(Path(corpus_dir) / "manifest.json")
    records = sorted(manifest.split_records(split), key=lambda r: r.clip_id)
    if not records:
        raise ValueError(f"split {split!r} is empty")
    model = tr.Model.load(run, checkpoint_path)
    per_clip = []
    for record in records:
        audio, track, _env = ds.load_clip(corpus_dir, record)
        pred = _resynthesize(model, audio, track)
        metrics = compute_metrics(audio, pred)
        metrics["clip_id"] = record.clip_id
        per_clip.append(metrics)
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            ds.write_wav(out_dir / f"{record.clip_id}_target.wav", audio)
            ds.write_wav(out_dir / f"{record.clip_id}_resynth.wav", pred)
    report = EvalReport(run_id=run_id or Path(str(checkpoint_path)).stem,
                        config_name=model.config.name, i_max=run.i_max,
                        per_clip=per_clip)
    return report.aggregate()


def run_grid(cells, out_path=None):
    """Evaluate a list of grid cells into a results table.

    cells: list of dicts with keys name, run (RunConfig), checkpoint,
    corpus_dir. A missing checkpoint marks the row absent; the function
    raises after finishing so callers can exit nonzero.
    """
    if not cells:
        raise ValueError("empty variant list")
    rows = []
    missing = []
    for cell in cells:
        ckpt = cell.get("checkpoint")
        if ckpt is None or not Path(ckpt).exists():
            rows.append({"name": cell["name"], "status": "absent",
                         "mss": "", "lsd_db": "", "f0_rmse_cents": ""})
            missing.append(cell["name"])
            continue
        report = evaluate_checkpoint(cell["run"], ckpt, cell["corpus_dir"],
                                     run_id=cell["name"])
        rows.append({"name": cell["name"], "status": "ok",
                     "mss": f"{report.mss:.6g}",
                     "lsd_db": f"{report.log_spectral_distance_db:.6g}",
                     "f0_rmse_cents": f"{report.f0_rmse_cents:.6g}"})
    if out_path is not None:
        write_table(rows, out_path)
    if missing:
        raise FileNotFoundError(f"missing checkpoints for: {', '.join(missing)}")
    return rows


def write_table(rows, out_path):
    """CSV plus an aligned text rendering next to it."""
    out_path = Path(out_path)
    fields = ["name", "status", "mss", "lsd_db", "f0_rmse_cents"]
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    widths = {f: max(len(f), *(len(str(r[f])) for r in rows)) for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields)]
    for r in rows:
        lines.append("  ".join(str(r[f]).ljust(widths[f]) for f in fields))
    out_path.with_suffix(".txt").write_text("\n".join(lines) + "\n")
