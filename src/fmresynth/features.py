"""Frame-synchronous audio features: f0 with confidence, A-weighted loudness.

The pitch estimator is a deterministic YIN variant (cumulative mean
normalized difference with parabolic interpolation); confidence is derived
from the CMNDF minimum. Loudness applies the analytic A-weighting curve to
Hann-windowed power spectra and is normalized so a full-scale 1 kHz sine
reads close to 0 dB.

This module owns the one frame grid of the package: 16 kHz audio, hop 64,
so 250 frames per second. Frame t is centered at t * HOP, and
T = len(audio) // HOP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad

SAMPLE_RATE = 16000
HOP = 64

FEATURE_VERSION = 1

F0_MIN = 40.0
F0_MAX = 2000.0
YIN_THRESHOLD = 0.1
YIN_WINDOW = 1024          # integration window W
LOUDNESS_WINDOW = 1024
LOUDNESS_FLOOR_DB = -80.0


@dataclass(frozen=True)
class ConditioningSeq:
    """Normalized [T, 2] decoder input: pitch channel, loudness channel."""
    frames: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"conditioning must be [T, 2], got {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("conditioning values outside [0, 1]")
        object.__setattr__(self, "frames", arr)


@dataclass(frozen=True)
class FeatureTrack:
    f0_hz: np.ndarray
    confidence: np.ndarray
    loudness_db: np.ndarray

    def __post_init__(self):
        if not (len(self.f0_hz) == len(self.confidence) == len(self.loudness_db)):
            raise ValueError("feature tracks must share one frame count")

    @property
    def n_frames(self):
        return len(self.f0_hz)


def _centered_frames(audio, window):
    """[T, window] frames centered on the hop grid, zero-padded at edges."""
    half = window // 2
    padded = np.pad(audio, (half, window))
    centers = np.arange(len(audio) // HOP) * HOP
    idx = centers[:, None] + np.arange(window)[None, :]
    return padded[idx]


def estimate_f0(audio):
    """Per-frame (f0_hz, confidence) via YIN.

    f0 is in [40, 2000] Hz, 0 for unvoiced frames; confidence lies in
    [0, 1] and grows with periodicity strength.
    """
    audio = np.asarray(audio, dtype=np.float64)
    if audio.size == 0:
        raise ValueError("empty audio")
    tau_max = int(SAMPLE_RATE / F0_MIN)            # 400
    tau_min = max(2, int(SAMPLE_RATE / F0_MAX))    # 8
    w = YIN_WINDOW
    seg_len = w + tau_max
    frames = _centered_frames(audio, seg_len)  # [T, W + tau_max]
    n_frames = frames.shape[0]

    # difference function d(tau) = r0 + r_tau - 2 * xcorr(tau), vectorized
    # over frames via one rfft per frame
    nfft = 1
    while nfft < 2 * seg_len:
        nfft *= 2
    spec = np.fft.rfft(frames, nfft, axis=1)
    # energy of x[tau : tau + W] via cumulative sums
    sq = np.concatenate([np.zeros((n_frames, 1)), np.cumsum(frames ** 2, axis=1)],
                        axis=1)
    e0 = sq[:, w] - sq[:, 0]
    taus = np.arange(tau_max + 1)
    e_tau = sq[:, taus + w] - sq[:, taus]
    head = frames[:, :w]
    spec_head = np.fft.rfft(head, nfft, axis=1)
    xcorr = np.fft.irfft(np.conj(spec_head) * spec, nfft, axis=1)[:, :tau_max + 1]
    diff = e0[:, None] + e_tau - 2.0 * xcorr
    diff = np.maximum(diff, 0.0)

    # cumulative mean normalized difference
    cum = np.cumsum(diff[:, 1:], axis=1)
    cmndf = np.ones_like(diff)
    with np.errstate(invalid="ignore", divide="ignore"):
        cmndf[:, 1:] = diff[:, 1:] * taus[1:] / np.where(cum > 0, cum, np.inf)

    f0 = np.zeros(n_frames)
    conf = np.zeros(n_frames)
    rms = np.sqrt(np.mean(frames[:, :w] ** 2, axis=1))
    for t in range(n_frames):
        if rms[t] < 1e-6:
            continue
        row = cmndf[t]
        candidates = np.nonzero(row[tau_min:tau_max] < YIN_THRESHOLD)[0]
        if candidates.size:
            tau = int(candidates[0]) + tau_min
            # walk down to the local minimum of the dip
            while tau + 1 < tau_max and row[tau + 1] < row[tau]:
                tau += 1
        else:
            tau = int(np.argmin(row[tau_min:tau_max])) + tau_min
        tau_refined = _parabolic_min(row, tau)
        strength = max(0.0, 1.0 - row[tau])
        hz = SAMPLE_RATE / tau_refined
        if F0_MIN <= hz <= F0_MAX:
            f0[t] = hz
            conf[t] = strength ** 2
    return f0, conf


def _parabolic_min(row, tau):
    if tau <= 0 or tau >= len(row) - 1:
        return float(tau)
    a, b, c = row[tau - 1], row[tau], row[tau + 1]
    denom = a - 2.0 * b + c
    if denom <= 0:
        return float(tau)
    shift = 0.5 * (a - c) / denom
    return tau + float(np.clip(shift, -1.0, 1.0))


@lru_cache(maxsize=None)
def _a_weight_power():
    """Linear power weights of the A-curve on the rfft bin grid."""
    freqs = np.fft.rfftfreq(LOUDNESS_WINDOW, 1.0 / SAMPLE_RATE)
    f2 = freqs ** 2
    ra = (12194.0 ** 2 * f2 ** 2) / (
        (f2 + 20.6 ** 2)
        * np.sqrt((f2 + 107.7 ** 2) * (f2 + 737.9 ** 2))
        * (f2 + 12194.0 ** 2)
    )
    a_db = 20.0 * np.log10(np.where(ra > 0, ra, 1e-30)) + 2.0
    return 10.0 ** (a_db / 10.0)


@lru_cache(maxsize=None)
def _loudness_reference():
    """A-weighted frame power of a full-scale 1 kHz sine (0 dB anchor)."""
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    sine = np.sin(2.0 * np.pi * 1000.0 * t)
    return _frame_weighted_power(sine[None, :LOUDNESS_WINDOW])[0]


def _frame_weighted_power(frames):
    """A-weighted power of [T, LOUDNESS_WINDOW] frames under a Hann window."""
    spec = np.fft.rfft(frames * ad.hann_window(LOUDNESS_WINDOW), axis=1)
    power = np.abs(spec) ** 2
    return power @ _a_weight_power()


def a_weighted_loudness(audio):
    """Per-frame A-weighted loudness in dB, clamped to [-80, 0].

    Normalized so a full-scale 1 kHz sine reads about 0 dB.
    """
    audio = np.asarray(audio, dtype=np.float64)
    frames = _centered_frames(audio, LOUDNESS_WINDOW)
    power = _frame_weighted_power(frames)
    ref = _loudness_reference()
    db = 10.0 * np.log10(np.maximum(power / ref, 1e-20))
    return np.clip(db, LOUDNESS_FLOOR_DB, 0.0)


def extract_features(audio):
    f0, conf = estimate_f0(audio)
    loud = a_weighted_loudness(audio)
    return FeatureTrack(f0_hz=f0, confidence=conf, loudness_db=loud)


def hz_to_midi(f0):
    f0 = np.asarray(f0, dtype=np.float64)
    with np.errstate(divide="ignore"):
        midi = 69.0 + 12.0 * np.log2(np.where(f0 > 0, f0, np.nan) / 440.0)
    return np.where(f0 > 0, midi, 0.0)


def normalize(track):
    """FeatureTrack -> ConditioningSeq in [0, 1].

    Pitch channel: midi/127 with f0=0 mapping to 0. Loudness channel:
    (db + 80) / 80.
    """
    pitch = np.clip(hz_to_midi(track.f0_hz) / 127.0, 0.0, 1.0)
    loud = np.clip((track.loudness_db - LOUDNESS_FLOOR_DB) / -LOUDNESS_FLOOR_DB,
                   0.0, 1.0)
    return ConditioningSeq(np.stack([pitch, loud], axis=1))


# ---------------------------------------------------------------------------
# feature cache files (npz container, versioned; records the grid it was
# written on)

def save_features(path, track):
    np.savez(path,
             f0=track.f0_hz,
             confidence=track.confidence,
             loudness=track.loudness_db,
             sample_rate=np.int64(SAMPLE_RATE),
             hop=np.int64(HOP),
             version=np.int64(FEATURE_VERSION))


def load_features(path):
    """FeatureTrack from a cache file; raises ValueError naming the file for
    a missing key, another version, or a grid other than SAMPLE_RATE/HOP."""
    expected = (FEATURE_VERSION, SAMPLE_RATE, HOP)
    with np.load(path) as data:
        try:
            found = tuple(int(data[k]) for k in ("version", "sample_rate", "hop"))
            if found != expected:
                raise ValueError(f"{path}: feature cache (version, sample_rate, "
                                 f"hop) is {found}, expected {expected}")
            return FeatureTrack(f0_hz=data["f0"], confidence=data["confidence"],
                                loudness_db=data["loudness"])
        except KeyError as exc:  # "<key> is not a file in the archive"
            raise ValueError(f"{path}: {exc.args[0]}") from None
