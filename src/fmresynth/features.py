"""Frame-synchronous audio features: f0 with confidence, A-weighted loudness.

The pitch estimator is a deterministic YIN variant (cumulative mean
normalized difference with parabolic interpolation); confidence is derived
from the CMNDF minimum. It runs on all frames at once: the window of W =
16 hops splits into hop-sized blocks that neighbouring frames share, so each
block is correlated once (one 480-point FFT covers its HOP + tau_max
samples) and a frame's correlation is the sum of its 16 blocks; the window
energies are sliding sums over the whole clip, and the dip search is array
code over frames. Loudness applies the analytic A-weighting curve to
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
from numpy.lib.stride_tricks import sliding_window_view

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
class FeatureTrack:
    f0_hz: np.ndarray
    confidence: np.ndarray
    loudness_db: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(t) for t in (self.f0_hz, self.confidence,
                                        self.loudness_db)]
        if any(len(s) != 1 for s in shapes) or len(set(shapes)) != 1:
            raise ValueError("feature tracks must be 1-D with one frame count, "
                             f"got shapes {shapes}")

    @property
    def n_frames(self):
        return len(self.f0_hz)


def _centered_frames(audio, window):
    """[T, window] frames centered on the hop grid, zero-padded at edges.

    A read-only strided view of the padded audio, not a copy."""
    padded = np.pad(audio, (window // 2, window))
    n_frames = len(audio) // HOP
    return sliding_window_view(padded, window)[:n_frames * HOP:HOP]


def _window_sum(x, n):
    """Sums of n consecutive entries along axis 0: out[i] = x[i : i + n].sum(0)
    for a power-of-two n, by a fixed pairwise tree of shifted adds (shifts
    1, 2, 4, ...). A running sum would cancel catastrophically."""
    width = 1
    while width < n:
        x = x[:-width] + x[width:]
        width *= 2
    return x


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
    n_frames = len(audio) // HOP
    n_sub, rem = divmod(w, HOP)                    # 16 blocks per window
    assert rem == 0 and not (w & (w - 1) or n_sub & (n_sub - 1)), \
        "the window must be a power of two, in samples and in hops"

    # difference function d(tau) = e0 + e_tau - 2 * xcorr(tau). Frame t
    # starts at padded[t * HOP], so its window splits into 16 hop-sized
    # blocks shared with the neighbouring frames: block s correlates its
    # HOP samples with the HOP + tau_max samples that start at it, and
    # frame t sums blocks t .. t + 15. A circular correlation over
    # nfft >= HOP + tau_max does not wrap at lags 0..tau_max, so 480.
    seg_len = HOP + tau_max
    padded = np.pad(audio, ((w + tau_max) // 2, w + tau_max))
    blocks = sliding_window_view(padded, seg_len)[
        :(n_frames + n_sub - 1) * HOP:HOP]        # [T + 15, HOP + tau_max]
    nfft = ad._next_fast_len(seg_len)
    spec = np.fft.rfft(blocks, nfft, axis=1)
    spec_head = np.fft.rfft(blocks[:, :HOP], nfft, axis=1)
    xcorr = np.fft.irfft(np.conj(spec_head) * spec, nfft, axis=1)[:, :tau_max + 1]
    xcorr = _window_sum(xcorr, n_sub)
    # energy of x[tau : tau + W]: energy[i] sums padded[i : i + W] ** 2
    energy = _window_sum(padded ** 2, w)
    e_tau = sliding_window_view(energy, tau_max + 1)[:n_frames * HOP:HOP]
    e0 = e_tau[:, 0]
    diff = e0[:, None] + e_tau - 2.0 * xcorr
    diff = np.maximum(diff, 0.0)

    # cumulative mean normalized difference
    taus = np.arange(tau_max + 1)
    cum = np.cumsum(diff[:, 1:], axis=1)
    cmndf = np.ones_like(diff)
    with np.errstate(invalid="ignore", divide="ignore"):
        cmndf[:, 1:] = diff[:, 1:] * taus[1:] / np.where(cum > 0, cum, np.inf)

    # dip search over all frames at once. Take the first lag under the
    # threshold and walk down while the next lag is strictly lower (a NaN
    # stops the walk), else the global minimum over [tau_min, tau_max).
    search = cmndf[:, tau_min:tau_max]
    below = search < YIN_THRESHOLD
    first = np.argmax(below, axis=1)
    stop = np.ones_like(below)
    stop[:, :-1] = ~(search[:, 1:] < search[:, :-1])
    walked = np.argmax(stop & (np.arange(search.shape[1]) >= first[:, None]),
                       axis=1)
    tau = tau_min + np.where(below.any(axis=1), walked,
                             np.argmin(search, axis=1))

    # parabolic refinement around the interior lag tau, shift clipped to
    # +-1 lag, skipped unless the parabola opens upwards
    rows = np.arange(n_frames)
    a, b, c = cmndf[rows, tau - 1], cmndf[rows, tau], cmndf[rows, tau + 1]
    denom = a - 2.0 * b + c
    with np.errstate(invalid="ignore", divide="ignore"):
        shift = np.where(denom <= 0, 0.0,
                         np.clip(0.5 * (a - c) / denom, -1.0, 1.0))
        hz = SAMPLE_RATE / (tau + shift)
    strength = 1.0 - b
    strength = np.where(strength > 0.0, strength, 0.0)
    rms = np.sqrt(e0 / w)
    voiced = ~(rms < 1e-6) & (F0_MIN <= hz) & (hz <= F0_MAX)
    return np.where(voiced, hz, 0.0), np.where(voiced, strength ** 2, 0.0)


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
    """FeatureTrack -> [T, 2] decoder input in [0, 1].

    Pitch channel: midi/127 with f0=0 mapping to 0. Loudness channel:
    (db + 80) / 80.
    """
    pitch = np.clip(hz_to_midi(track.f0_hz) / 127.0, 0.0, 1.0)
    loud = np.clip((track.loudness_db - LOUDNESS_FLOOR_DB) / -LOUDNESS_FLOOR_DB,
                   0.0, 1.0)
    return np.stack([pitch, loud], axis=1)


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
    a missing key, a version, sample_rate or hop that is not an integer
    scalar, another version, a grid other than SAMPLE_RATE/HOP, or tracks
    that are not 1-D with one frame count."""
    expected = (FEATURE_VERSION, SAMPLE_RATE, HOP)
    with np.load(path) as data:
        try:
            grid = [data[k] for k in ("version", "sample_rate", "hop")]
            tracks = data["f0"], data["confidence"], data["loudness"]
        except KeyError as exc:  # "<key> is not a file in the archive"
            raise ValueError(f"{path}: {exc.args[0]}") from None
    if any(g.ndim or g.dtype.kind not in "iu" for g in grid):
        raise ValueError(f"{path}: version, sample_rate and hop must be "
                         "integer scalars")
    found = tuple(int(g) for g in grid)
    if found != expected:
        raise ValueError(f"{path}: feature cache (version, sample_rate, "
                         f"hop) is {found}, expected {expected}")
    try:
        return FeatureTrack(*tracks)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
