"""Corpus ingestion, preprocessing, caching and minibatching.

Pipeline: decode wav -> downmix -> resample to 16 kHz -> strip silence ->
chop into 4 s clips -> extract features -> filter on mean pitch
confidence -> split train/valid/test. Clip audio is cached as raw float32
little-endian with a JSON sidecar; features use the versioned npz
container; the manifest is JSON.

Also generates synthetic oracle corpora (clips rendered from known
envelopes) used by the training and evaluation tests.
"""

from __future__ import annotations

import json
import logging
import wave
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.signal import resample_poly

from . import features as ft
from . import fmsynth as fm
from .features import HOP, SAMPLE_RATE

log = logging.getLogger(__name__)

CLIP_SECONDS = 4.0
CLIP_SAMPLES = int(SAMPLE_RATE * CLIP_SECONDS)
FRAMES_PER_CLIP = CLIP_SAMPLES // HOP

SILENCE_WINDOW = 1024
SILENCE_HOP = 512
SILENCE_THRESHOLD_DB = -45.0

CONFIDENCE_THRESHOLDS = {"violin": 0.85, "flute": 0.80, "trumpet": 0.85,
                         "synthetic": 0.0}
SPLIT_FRACTIONS = (0.75, 0.125, 0.125)

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ClipRecord:
    clip_id: str
    source_file: str
    instrument: str
    split: str
    mean_confidence: float
    audio_path: str
    features_path: str
    envelopes_path: str = ""    # ground truth, synthetic corpora only


@dataclass
class CorpusManifest:
    instrument: str
    seed: int
    records: list
    split_fractions: tuple = SPLIT_FRACTIONS
    silence_threshold_db: float = SILENCE_THRESHOLD_DB
    confidence_threshold: float = 0.85
    config_name: str = ""       # synthetic corpora: generating FmConfig
    version: int = MANIFEST_VERSION

    def split_records(self, split):
        return [r for r in self.records if r.split == split]


# ---------------------------------------------------------------------------
# wav I/O

def read_wav(path):
    """Read a PCM wav (16/24-bit int or 32-bit float), downmix to mono.

    Returns (audio in [-1, 1], sample_rate).
    """
    from scipy.io import wavfile
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        audio = data / 32768.0
    elif data.dtype == np.int32:
        audio = data / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        audio = data.astype(np.float64)
    elif data.dtype == np.uint8:
        audio = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported wav sample format {data.dtype} in {path}")
    if audio.ndim == 2:
        audio = audio.mean(axis=1)
    return audio.astype(np.float64), int(rate)


def write_wav(path, audio):
    """Write mono 16-bit PCM at SAMPLE_RATE."""
    clipped = np.clip(np.asarray(audio), -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def resample_to(audio, rate_in):
    """Polyphase windowed-sinc resampling (Kaiser window) to SAMPLE_RATE."""
    if rate_in == SAMPLE_RATE:
        return np.asarray(audio, dtype=np.float64)
    g = np.gcd(int(rate_in), SAMPLE_RATE)
    return resample_poly(audio, SAMPLE_RATE // g, rate_in // g, window=("kaiser", 8.0))


def strip_silence(audio):
    """Drop hop-sized blocks whose surrounding window RMS is below threshold."""
    n_blocks = len(audio) // SILENCE_HOP
    if n_blocks == 0:
        return np.zeros(0)
    keep = []
    thresh = 10.0 ** (SILENCE_THRESHOLD_DB / 20.0)
    for b in range(n_blocks):
        start = b * SILENCE_HOP
        window = audio[start: start + SILENCE_WINDOW]
        rms = np.sqrt(np.mean(window ** 2)) if window.size else 0.0
        if rms >= thresh:
            keep.append(audio[start: start + SILENCE_HOP])
    if not keep:
        return np.zeros(0)
    return np.concatenate(keep)


def chop_clips(audio):
    """Consecutive CLIP_SAMPLES-long clips; the remainder is dropped."""
    n = len(audio) // CLIP_SAMPLES
    return [audio[i * CLIP_SAMPLES: (i + 1) * CLIP_SAMPLES] for i in range(n)]


def assign_splits(n, seed, fractions=SPLIT_FRACTIONS):
    """Deterministic shuffled split labels for n records.

    train = floor(f_train * n), valid = floor(f_valid * n), test = rest.
    """
    n_train = int(np.floor(fractions[0] * n))
    n_valid = int(np.floor(fractions[1] * n))
    order = np.random.default_rng(seed).permutation(n)
    labels = [""] * n
    for rank, idx in enumerate(order):
        if rank < n_train:
            labels[idx] = "train"
        elif rank < n_train + n_valid:
            labels[idx] = "valid"
        else:
            labels[idx] = "test"
    return labels


# ---------------------------------------------------------------------------
# clip caching

def _save_clip_audio(path, audio):
    np.asarray(audio, dtype="<f4").tofile(path)
    meta = {"sample_rate": SAMPLE_RATE, "samples": int(len(audio)),
            "dtype": "float32le"}
    Path(str(path) + ".json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def load_clip_audio(path):
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text())
    _check_keys(sidecar, "clip sidecar", meta, ("samples",), ("sample_rate", "dtype"))
    audio = np.fromfile(path, dtype="<f4").astype(np.float64)
    if len(audio) != meta["samples"]:
        raise ValueError(f"clip cache {path} is truncated")
    return audio


def save_manifest(manifest, path):
    payload = {
        "version": manifest.version,
        "instrument": manifest.instrument,
        "seed": manifest.seed,
        "split_fractions": list(manifest.split_fractions),
        "silence_threshold_db": manifest.silence_threshold_db,
        "confidence_threshold": manifest.confidence_threshold,
        "config_name": manifest.config_name,
        "records": [asdict(r) for r in manifest.records],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


_MANIFEST_KEYS = {"version", "instrument", "seed", "split_fractions",
                  "silence_threshold_db", "confidence_threshold", "records"}


def _check_keys(path, what, entry, required, optional=()):
    """Raise a ValueError naming `path` unless `entry` is an object holding
    every required key and no key outside required | optional."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = sorted(set(required) - entry.keys())
    unknown = sorted(entry.keys() - set(required) - set(optional))
    if missing or unknown:
        raise ValueError(f"{path}: {what} has missing keys {missing} "
                         f"and unknown keys {unknown}")


def load_manifest(path):
    payload = json.loads(Path(path).read_text())
    _check_keys(path, "manifest", payload, _MANIFEST_KEYS, ("config_name",))
    if payload["version"] != MANIFEST_VERSION:
        raise ValueError(f"{path}: manifest version {payload['version']} "
                         f"!= {MANIFEST_VERSION}")
    if not isinstance(payload["records"], list):
        raise ValueError(f"{path}: manifest records is not a list")
    record_fields = fields(ClipRecord)
    for i, r in enumerate(payload["records"]):
        _check_keys(path, f"record {i}", r,
                    [f.name for f in record_fields if f.default is MISSING],
                    [f.name for f in record_fields])
    return CorpusManifest(
        instrument=payload["instrument"],
        seed=payload["seed"],
        records=[ClipRecord(**r) for r in payload["records"]],
        split_fractions=tuple(payload["split_fractions"]),
        silence_threshold_db=payload["silence_threshold_db"],
        confidence_threshold=payload["confidence_threshold"],
        config_name=payload.get("config_name", ""),
    )


# ---------------------------------------------------------------------------
# ingestion

def ingest(directory, instrument, seed, out_dir):
    """Preprocess a directory of wav files into a cached, split corpus."""
    directory = Path(directory)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threshold = CONFIDENCE_THRESHOLDS.get(instrument, 0.85)

    kept = []  # (clip_id, source, audio, track)
    for wav_path in sorted(directory.glob("*.wav")):
        try:
            audio, rate = read_wav(wav_path)
        except Exception as exc:  # unreadable file: skip, keep going
            log.warning("skipping unreadable file %s: %s", wav_path, exc)
            continue
        audio = resample_to(audio, rate)
        audio = strip_silence(audio)
        clips = chop_clips(audio)
        if not clips:
            log.warning("no audio survived silence stripping in %s", wav_path)
            continue
        for i, clip in enumerate(clips):
            track = ft.extract_features(clip)
            mean_conf = float(track.confidence.mean())
            if mean_conf < threshold:
                continue
            clip_id = f"{wav_path.stem}_{i:04d}"
            kept.append((clip_id, wav_path.name, clip, track))

    if not kept:
        raise ValueError(f"no clips survived preprocessing in {directory}")

    labels = assign_splits(len(kept), seed)
    records = []
    for (clip_id, source, clip, track), split in zip(kept, labels):
        audio_path = f"{clip_id}.f32"
        features_path = f"{clip_id}.features.npz"
        _save_clip_audio(out_dir / audio_path, clip)
        ft.save_features(out_dir / features_path, track)
        records.append(ClipRecord(
            clip_id=clip_id, source_file=source, instrument=instrument,
            split=split, mean_confidence=float(track.confidence.mean()),
            audio_path=audio_path, features_path=features_path,
        ))
    manifest = CorpusManifest(instrument=instrument, seed=seed, records=records,
                              confidence_threshold=threshold)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# synthetic oracle corpus

def synth_corpus(config, n_clips, seed, out_dir,
                 split_fractions=SPLIT_FRACTIONS, i_max=2.0):
    """Render a corpus from seeded random envelopes and f0 tracks.

    Envelopes are piecewise linear (8 breakpoints per channel); f0 is
    piecewise constant in [200, 600] Hz. Ground-truth envelopes are stored
    next to each clip for envelope-recovery tests.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    records = []
    labels = assign_splits(n_clips, seed, split_fractions)
    a_max = config.a_max(i_max)
    for c in range(n_clips):
        t = FRAMES_PER_CLIP
        env = np.zeros((t, config.n_oscillators))
        for k in range(config.n_oscillators):
            points = rng.uniform(0.1, 0.9, size=8) * a_max[k]
            env[:, k] = np.interp(np.arange(t), np.linspace(0, t - 1, 8), points)
        n_segments = 4
        f0 = np.repeat(rng.uniform(200.0, 600.0, size=n_segments),
                       int(np.ceil(t / n_segments)))[:t]
        spec = fm.RenderSpec(f0_frames=f0)
        audio = fm.render(config, env, spec, i_max=i_max).values
        track = ft.extract_features(audio)

        clip_id = f"synthetic_{c:04d}"
        audio_path = f"{clip_id}.f32"
        features_path = f"{clip_id}.features.npz"
        envelopes_path = f"{clip_id}.envelopes.npz"
        _save_clip_audio(out_dir / audio_path, audio)
        ft.save_features(out_dir / features_path, track)
        np.savez(out_dir / envelopes_path, envelopes=env, f0=f0)
        records.append(ClipRecord(
            clip_id=clip_id, source_file="<synthetic>", instrument="synthetic",
            split=labels[c], mean_confidence=float(track.confidence.mean()),
            audio_path=audio_path, features_path=features_path,
            envelopes_path=envelopes_path,
        ))
    manifest = CorpusManifest(
        instrument="synthetic", seed=seed, records=records,
        split_fractions=tuple(split_fractions),
        confidence_threshold=0.0, config_name=config.name,
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def load_clip(out_dir, record):
    """(audio, FeatureTrack, ground-truth envelopes or None) for a record."""
    out_dir = Path(out_dir)
    audio = load_clip_audio(out_dir / record.audio_path)
    track = ft.load_features(out_dir / record.features_path)
    env = None
    if record.envelopes_path:
        with np.load(out_dir / record.envelopes_path) as data:
            if "envelopes" not in data.files:
                raise ValueError(f"{out_dir / record.envelopes_path}: "
                                 "no 'envelopes' array")
            env = data["envelopes"]
    return audio, track, env


# ---------------------------------------------------------------------------
# minibatching

def minibatch(manifest, split, batch_size=16, seed=0, epoch=0):
    """Deterministic epoch-shuffled batches of ClipRecords.

    The final short batch is kept. Order depends only on (seed, epoch).
    """
    records = manifest.split_records(split)
    if not records:
        raise ValueError(f"split {split!r} is empty")
    order = np.random.default_rng([seed, epoch]).permutation(len(records))
    shuffled = [records[i] for i in order]
    return [shuffled[i: i + batch_size] for i in range(0, len(shuffled), batch_size)]


def lint_corpus(manifest, out_dir):
    """Verify cached clips satisfy their invariants; returns problem list."""
    problems = []
    seen = set()
    for r in manifest.records:
        if r.clip_id in seen:
            problems.append(f"{r.clip_id}: duplicate clip id")
        seen.add(r.clip_id)
        if r.split not in ("train", "valid", "test"):
            problems.append(f"{r.clip_id}: bad split {r.split!r}")
        try:
            audio, track, _env = load_clip(out_dir, r)
        except Exception as exc:
            problems.append(f"{r.clip_id}: unreadable cache ({exc})")
            continue
        if len(audio) != CLIP_SAMPLES:
            problems.append(f"{r.clip_id}: audio length {len(audio)} != {CLIP_SAMPLES}")
        if track.n_frames != FRAMES_PER_CLIP:
            problems.append(f"{r.clip_id}: {track.n_frames} frames != {FRAMES_PER_CLIP}")
        if r.mean_confidence < manifest.confidence_threshold:
            problems.append(f"{r.clip_id}: confidence below threshold")
    return problems
