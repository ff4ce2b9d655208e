"""Pitch and loudness features on known signals.

Runs the YIN-style f0 estimator and the A-weighted loudness measure over
a gliding harmonic tone, a quiet tone and noise, then shows the [0, 1]
conditioning channels the decoder consumes.
"""

import numpy as np

from fmresynth import features as ft

SR = ft.SAMPLE_RATE

# 2-second glide from A3 to A4 with a few harmonics
t = np.arange(2 * SR) / SR
glide_hz = 220.0 * 2 ** (t / 2.0)
phase = 2 * np.pi * np.cumsum(glide_hz) / SR
tone = 0.6 * np.sin(phase) + 0.25 * np.sin(2 * phase) + 0.1 * np.sin(3 * phase)

track = ft.extract_features(tone)
voiced = track.confidence > 0.5
print(f"glide: {track.n_frames} frames at {ft.SAMPLE_RATE / ft.HOP:.0f} Hz")
print(f"  voiced fraction     {voiced.mean():.2f}")
print(f"  f0 range            {track.f0_hz[voiced].min():.1f} .. "
      f"{track.f0_hz[voiced].max():.1f} Hz (true 220 .. 440)")
print(f"  median confidence   {np.median(track.confidence):.3f}")

for label, signal in [
    ("full-scale 1 kHz sine", np.sin(2 * np.pi * 1000 * t[:SR])),
    ("same at -20 dB", 0.1 * np.sin(2 * np.pi * 1000 * t[:SR])),
    ("white noise at 0.1 rms", np.random.default_rng(0).normal(0, 0.1, SR)),
]:
    tr = ft.extract_features(signal)
    print(f"{label:<24} loudness {np.median(tr.loudness_db):6.1f} dB, "
          f"confidence {np.median(tr.confidence):.3f}")

cond = ft.normalize(track)
print()
print("conditioning channels (pitch = midi/127, loudness mapped to [0, 1]):")
mid = track.n_frames // 2
for i in (0, mid, track.n_frames - 1):
    print(f"  frame {i:>4}: pitch {cond[i, 0]:.3f}, "
          f"loudness {cond[i, 1]:.3f}")
