"""Corpus ingestion, preprocessing, caching and minibatching.

Pipeline: decode wav -> downmix -> resample to 16 kHz -> strip silence ->
chop into 4 s clips -> round to float32 -> extract features -> filter on
mean pitch confidence -> split train/valid/test. Clip audio is cached as
raw float32 little-endian with a JSON sidecar; features use the versioned
npz container; the manifest is JSON.

Also generates synthetic oracle corpora (clips rendered from known
envelopes) used by the training and evaluation tests.
"""

from __future__ import annotations

import json
import logging
import wave
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import features as ft
from . import fmsynth as fm
from . import workers
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
    split_fractions: tuple
    silence_threshold_db: float
    confidence_threshold: float
    version: int
    config_name: str = ""       # synthetic corpora: generating FmConfig

    def split_records(self, split):
        return [r for r in self.records if r.split == split]


@dataclass(frozen=True)
class ClipSidecar:
    """The JSON next to a cached clip's raw samples."""
    samples: int
    sample_rate: int = SAMPLE_RATE
    dtype: str = "float32le"


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
    return audio.astype(np.float64, copy=False), int(rate)


def write_wav(path, audio):
    """Write mono 16-bit PCM at SAMPLE_RATE."""
    clipped = np.clip(np.asarray(audio), -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    # open the file first: wave.open(path) on a missing directory leaves a
    # half-built Wave_write whose __del__ prints a stray traceback
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def resample_to(audio, rate_in):
    """Polyphase windowed-sinc resampling (Kaiser window) to SAMPLE_RATE."""
    if rate_in == SAMPLE_RATE:
        return np.asarray(audio, dtype=np.float64)
    # imported here, and only for audio it resamples: scipy.signal takes
    # ~0.8 s to import, several times the rest of a worker's start-up
    from scipy.signal import resample_poly
    g = np.gcd(int(rate_in), SAMPLE_RATE)
    return resample_poly(audio, SAMPLE_RATE // g, rate_in // g, window=("kaiser", 8.0))


def strip_silence(audio):
    """Drop hop-sized blocks whose surrounding window RMS is below threshold.

    Block b is audio[b * SILENCE_HOP:][:SILENCE_HOP] and its window
    audio[b * SILENCE_HOP:][:SILENCE_WINDOW]; only the last block's window
    is cut short by the end of the audio."""
    n_blocks = len(audio) // SILENCE_HOP
    if n_blocks == 0:
        return np.zeros(0)
    thresh = 10.0 ** (SILENCE_THRESHOLD_DB / 20.0)
    sq = np.square(audio)
    mean_sq = np.empty(n_blocks)
    if n_blocks > 1:
        mean_sq[:-1] = sliding_window_view(sq, SILENCE_WINDOW)[
            ::SILENCE_HOP].mean(axis=1)
    mean_sq[-1] = np.mean(sq[(n_blocks - 1) * SILENCE_HOP:])
    keep = np.sqrt(mean_sq) >= thresh
    if not keep.any():
        return np.zeros(0)
    return audio[:n_blocks * SILENCE_HOP].reshape(n_blocks, SILENCE_HOP)[keep].ravel()


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

def _as_stored(audio):
    """audio rounded to the float32 samples the clip cache holds, so the
    features extracted from it are those of the stored clip."""
    return np.asarray(audio, dtype="<f4").astype(np.float64)


def _write_clip(out_dir, clip_id, audio, track, **record_fields):
    """Cache a clip's audio, with its JSON sidecar, and its features in
    out_dir; returns the clip's ClipRecord."""
    audio_path = f"{clip_id}.f32"
    features_path = f"{clip_id}.features.npz"
    np.asarray(audio, dtype="<f4").tofile(out_dir / audio_path)
    meta = asdict(ClipSidecar(samples=len(audio)))
    (out_dir / f"{audio_path}.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    ft.save_features(out_dir / features_path, track)
    return ClipRecord(clip_id=clip_id, mean_confidence=float(track.confidence.mean()),
                      audio_path=audio_path, features_path=features_path,
                      **record_fields)


def load_clip_audio(path):
    sidecar = Path(str(path) + ".json")
    meta = from_json(ClipSidecar, parse_json(sidecar.read_text(), sidecar,
                                             "clip sidecar"), sidecar, "clip sidecar")
    if (meta.sample_rate, meta.dtype) != (SAMPLE_RATE, "float32le"):
        raise ValueError(f"{sidecar}: clip sidecar says {meta.dtype} at "
                         f"{meta.sample_rate} Hz, not float32le at {SAMPLE_RATE} Hz")
    audio = np.fromfile(path, dtype="<f4").astype(np.float64)
    if len(audio) != meta.samples:
        raise ValueError(f"clip cache {path} is truncated")
    return audio


def save_manifest(manifest, path):
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def parse_json(text, path, what):
    """json.loads, with a ValueError naming `path` and `what` for text that
    is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {what} is not valid JSON ({exc})") from None


# JSON value types accepted for each field annotation (a string here)
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float),
               "list": (list,), "tuple": (list,)}


def from_json(cls, payload, path, what):
    """The dataclass `cls` from the parsed JSON object `payload`: its fields
    are the allowed keys, those without a default the required ones, and
    each value must fit its field's annotation (a bool is no number).
    Raises a ValueError naming `path` and `what` otherwise."""
    known = {f.name: f for f in fields(cls)}
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    missing = sorted(n for n, f in known.items()
                     if f.default is MISSING and n not in payload)
    unknown = sorted(payload.keys() - known.keys())
    if missing or unknown:
        raise ValueError(f"{path}: {what} has missing keys {missing} "
                         f"and unknown keys {unknown}")
    for name, value in payload.items():
        kind = known[name].type
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ValueError(f"{path}: {what} key {name!r} must be {kind}, "
                             f"got {value!r}")
    return cls(**payload)


def load_manifest(path):
    manifest = from_json(CorpusManifest,
                         parse_json(Path(path).read_text(), path, "manifest"),
                         path, "manifest")
    if manifest.version != MANIFEST_VERSION:
        raise ValueError(f"{path}: manifest version {manifest.version} "
                         f"!= {MANIFEST_VERSION}")
    manifest.records = [from_json(ClipRecord, r, path, f"record {i}")
                        for i, r in enumerate(manifest.records)]
    manifest.split_fractions = tuple(manifest.split_fractions)
    return manifest


# ---------------------------------------------------------------------------
# ingestion

def prepare_wav(out_dir, instrument, threshold, wav_path):
    """One wav's part of ``ingest``: caches in out_dir each of its clips
    whose mean pitch confidence reaches `threshold`, and returns (their
    ClipRecords, split unset, None), or ([], the warning that says why it
    gives no clips)."""
    try:
        audio, rate = read_wav(wav_path)
    except Exception as exc:  # unreadable file: skip, keep going
        return [], f"skipping unreadable file {wav_path}: {exc}"
    clips = chop_clips(strip_silence(resample_to(audio, rate)))
    if not clips:
        return [], f"no audio survived silence stripping in {wav_path}"
    records = []
    for i, clip in enumerate(clips):
        clip = _as_stored(clip)
        track = ft.extract_features(clip)
        if float(track.confidence.mean()) >= threshold:
            records.append(_write_clip(
                out_dir, f"{wav_path.stem}_{i:04d}", clip, track,
                source_file=wav_path.name, instrument=instrument, split=""))
    return records, None


def ingest(directory, instrument, seed, out_dir):
    """Preprocess a directory of wav files into a cached, split corpus.

    Each wav runs ``prepare_wav``, which caches its clips, in a worker
    process (see ``workers``): wav j of the sorted list in worker j mod n,
    with one worker per core up to the number of wavs. The replies are read
    here in sorted order, so the manifest, written last, does not depend on n.
    """
    directory = Path(directory)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threshold = CONFIDENCE_THRESHOLDS.get(instrument, 0.85)
    wav_paths = sorted(directory.glob("*.wav"))

    records = []
    with workers.pool(len(wav_paths)) as pool:
        for kept, warning in workers.scatter(
                pool, prepare_wav, (out_dir, instrument, threshold), wav_paths):
            if warning:
                log.warning("%s", warning)
            records += kept

    if not records:
        raise ValueError(f"no clips survived preprocessing in {directory}")

    labels = assign_splits(len(records), seed)
    records = [replace(r, split=split) for r, split in zip(records, labels)]
    manifest = CorpusManifest(
        instrument=instrument, seed=seed, records=records,
        split_fractions=SPLIT_FRACTIONS, silence_threshold_db=SILENCE_THRESHOLD_DB,
        confidence_threshold=threshold, version=MANIFEST_VERSION)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# synthetic oracle corpus

def synth_clip(config, i_max, out_dir, item):
    """Clip c of ``synth_corpus``, for item (c, split, (envelopes [T, n_osc],
    f0)): renders the envelopes over the f0, caches the stored render, its
    FeatureTrack and the envelopes in out_dir, and returns its ClipRecord."""
    c, split, (env, f0) = item
    clip_id = f"synthetic_{c:04d}"
    envelopes_path = f"{clip_id}.envelopes.npz"
    spec = fm.RenderSpec(f0_frames=f0)
    audio = _as_stored(fm.render(config, env, spec, i_max=i_max).values)
    np.savez(out_dir / envelopes_path, envelopes=env, f0=f0)
    return _write_clip(out_dir, clip_id, audio, ft.extract_features(audio),
                       source_file="<synthetic>", instrument="synthetic",
                       split=split, envelopes_path=envelopes_path)


def synth_corpus(config, n_clips, seed, out_dir,
                 split_fractions=SPLIT_FRACTIONS, i_max=2.0):
    """Render a corpus from seeded random envelopes and f0 tracks.

    Envelopes are piecewise linear (8 breakpoints per channel); f0 is
    piecewise constant in [200, 600] Hz. Ground-truth envelopes are stored
    next to each clip for envelope-recovery tests.

    Every clip's envelopes and f0 are drawn here; clip c is then cached by
    ``synth_clip`` in worker c mod n (see ``workers``), with one worker per
    core up to the number of clips, and the manifest is written here last,
    in clip order, so the corpus does not depend on n.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = assign_splits(n_clips, seed, split_fractions)
    a_max = config.a_max(i_max)
    t = FRAMES_PER_CLIP
    items = []
    for c in range(n_clips):
        env = np.zeros((t, config.n_oscillators))
        for k in range(config.n_oscillators):
            points = rng.uniform(0.1, 0.9, size=8) * a_max[k]
            env[:, k] = np.interp(np.arange(t), np.linspace(0, t - 1, 8), points)
        n_segments = 4
        f0 = np.repeat(rng.uniform(200.0, 600.0, size=n_segments),
                       int(np.ceil(t / n_segments)))[:t]
        items.append((c, labels[c], (env, f0)))

    with workers.pool(n_clips) as pool:
        records = list(workers.scatter(pool, synth_clip,
                                       (config, i_max, out_dir), items))
    manifest = CorpusManifest(
        instrument="synthetic", seed=seed, records=records,
        split_fractions=tuple(split_fractions),
        silence_threshold_db=SILENCE_THRESHOLD_DB, confidence_threshold=0.0,
        version=MANIFEST_VERSION, config_name=config.name,
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
        env = load_npz_array(out_dir / record.envelopes_path, "envelopes", 2)
    return audio, track, env


def load_npz_array(path, key, ndim):
    """The `key` array of an npz file as float64. A ValueError names the
    file when ``features.read_npz`` cannot read it or the key is not `ndim`-D."""
    arr = np.asarray(ft.read_npz(path, [key])[0], dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{path}: {key!r} must be {ndim}-D, got shape {arr.shape}")
    return arr


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
