import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmresynth import features as ft


def sine(freq, seconds=1.0, sr=16000, amp=1.0):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestPitch:
    def test_pure_sine_within_half_hz(self):
        f0, conf = ft.estimate_f0(sine(440.0))
        voiced = conf > 0.5
        assert voiced.mean() > 0.9
        assert abs(np.median(f0[voiced]) - 440.0) < 0.5

    def test_high_confidence_on_periodic_input(self):
        _f0, conf = ft.estimate_f0(sine(330.0))
        assert np.median(conf) > 0.9

    def test_low_confidence_on_noise(self):
        noise = np.random.default_rng(0).standard_normal(16000) * 0.3
        _f0, conf = ft.estimate_f0(noise)
        assert np.median(conf) < 0.3

    def test_silence_is_unvoiced(self):
        f0, conf = ft.estimate_f0(np.zeros(16000))
        assert np.all(f0 == 0.0)
        assert np.all(conf == 0.0)

    def test_sub_range_pitch_gets_no_confident_estimate(self):
        # 20 Hz is below the 40 Hz search floor; whatever lag the search
        # settles on must score poorly
        _f0, conf = ft.estimate_f0(sine(20.0))
        assert np.median(conf) < 0.5

    def test_no_octave_errors_on_harmonic_tone(self):
        t = np.arange(16000) / 16000
        tone = sum((0.5 ** k) * np.sin(2 * np.pi * 220.0 * (k + 1) * t)
                   for k in range(4))
        f0, conf = ft.estimate_f0(tone)
        voiced = conf > 0.5
        cents = 1200 * np.log2(f0[voiced] / 220.0)
        assert np.mean(np.abs(cents) > 600) < 0.02

    def test_empty_audio_rejected(self):
        with pytest.raises(ValueError):
            ft.estimate_f0(np.zeros(0))


class TestLoudness:
    def test_full_scale_1khz_reads_zero_db(self):
        db = ft.a_weighted_loudness(sine(1000.0))
        assert abs(np.median(db)) < 0.5

    def test_a_curve_attenuates_low_frequencies(self):
        # the A-curve is about -19 dB at 100 Hz
        db = ft.a_weighted_loudness(sine(100.0))
        assert np.median(db) == pytest.approx(-19.1, abs=1.5)

    def test_floor_clamp(self):
        db = ft.a_weighted_loudness(np.zeros(16000))
        assert np.all(db == -80.0)

    def test_quieter_is_lower(self):
        loud = np.median(ft.a_weighted_loudness(sine(1000.0)))
        quiet = np.median(ft.a_weighted_loudness(sine(1000.0, amp=0.1)))
        assert quiet == pytest.approx(loud - 20.0, abs=0.5)


class TestFrameGrid:
    def test_four_seconds_gives_1000_frames(self):
        track = ft.extract_features(np.zeros(64000))
        assert track.n_frames == 1000
        assert ft.SAMPLE_RATE / ft.HOP == 250.0

    def test_frame_count_is_floor_of_hops(self):
        track = ft.extract_features(np.zeros(64 * 10 + 63))
        assert track.n_frames == 10


class TestNormalize:
    def test_channels_in_unit_range(self):
        track = ft.extract_features(sine(440.0))
        cond = ft.normalize(track)
        assert cond.frames.shape == (track.n_frames, 2)
        assert np.all(cond.frames >= 0.0) and np.all(cond.frames <= 1.0)

    def test_pitch_channel_is_midi_over_127(self):
        track = ft.extract_features(sine(440.0))
        voiced = track.confidence > 0.5
        pitch = ft.normalize(track).frames[voiced, 0]
        assert np.median(pitch) == pytest.approx(69.0 / 127.0, abs=0.01)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(50, 1900), st.floats(1.05, 1.5))
    def test_pitch_channel_monotonic_in_frequency(self, hz, factor):
        lo = np.clip(ft.hz_to_midi(np.array([hz])) / 127.0, 0, 1)
        hi = np.clip(ft.hz_to_midi(np.array([hz * factor])) / 127.0, 0, 1)
        assert hi >= lo

    def test_out_of_range_conditioning_rejected(self):
        with pytest.raises(ValueError):
            ft.ConditioningSeq(np.full((4, 2), 2.0))


class TestCache:
    def test_roundtrip(self, tmp_path):
        track = ft.extract_features(sine(440.0))
        path = tmp_path / "f.npz"
        ft.save_features(path, track)
        loaded = ft.load_features(path)
        assert np.array_equal(loaded.f0_hz, track.f0_hz)
        assert np.array_equal(loaded.loudness_db, track.loudness_db)

    def test_version_mismatch_rejected(self, tmp_path):
        track = ft.extract_features(np.zeros(6400))
        path = tmp_path / "f.npz"
        ft.save_features(path, track)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="version"):
            ft.load_features(path)
