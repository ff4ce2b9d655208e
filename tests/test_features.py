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


def yin_reference(audio):
    """Time-domain YIN, one frame and one lag at a time, with no FFT.

    Returns (f0, confidence, lag, fallback) per frame: lag is the integer
    dip the search settled on (0 where the frame is below the rms floor),
    fallback marks frames with no lag under the threshold, and f0 and
    confidence are 0 for unvoiced frames."""
    tau_max = int(ft.SAMPLE_RATE / ft.F0_MIN)
    tau_min = max(2, int(ft.SAMPLE_RATE / ft.F0_MAX))
    w = ft.YIN_WINDOW
    seg = w + tau_max
    padded = np.concatenate([np.zeros(seg // 2), audio, np.zeros(seg)])
    n_frames = len(audio) // ft.HOP
    f0, conf, lags = np.zeros(n_frames), np.zeros(n_frames), np.zeros(n_frames, int)
    fallback = np.zeros(n_frames, bool)
    for t in range(n_frames):
        x = padded[t * ft.HOP: t * ft.HOP + seg]
        if np.sqrt(np.mean(x[:w] ** 2)) < 1e-6:
            continue
        d = np.array([np.sum((x[:w] - x[tau:tau + w]) ** 2)
                      for tau in range(tau_max + 1)])
        cmndf = np.ones(tau_max + 1)
        total = 0.0
        for tau in range(1, tau_max + 1):
            total += d[tau]
            cmndf[tau] = d[tau] * tau / total if total > 0 else 0.0
        below = [tau for tau in range(tau_min, tau_max) if cmndf[tau] < ft.YIN_THRESHOLD]
        if below:
            tau = below[0]
            while tau + 1 < tau_max and cmndf[tau + 1] < cmndf[tau]:
                tau += 1
        else:
            tau = min(range(tau_min, tau_max), key=lambda k: cmndf[k])
            fallback[t] = True
        lags[t] = tau
        a, b, c = cmndf[tau - 1], cmndf[tau], cmndf[tau + 1]
        denom = a - 2.0 * b + c
        shift = 0.0 if denom <= 0 else min(1.0, max(-1.0, 0.5 * (a - c) / denom))
        hz = ft.SAMPLE_RATE / (tau + shift)
        if ft.F0_MIN <= hz <= ft.F0_MAX:
            f0[t], conf[t] = hz, max(0.0, 1.0 - b) ** 2
    return f0, conf, lags, fallback


def assert_matches_reference(audio):
    """estimate_f0 against yin_reference: same voicing, values to 1e-9."""
    f0, conf = ft.estimate_f0(audio)
    ref_f0, ref_conf, lags, fallback = yin_reference(audio)
    assert np.array_equal(f0 > 0, ref_f0 > 0)
    np.testing.assert_allclose(f0, ref_f0, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(conf, ref_conf, rtol=1e-9, atol=0.0)
    return ref_f0, lags, fallback


def vibrato(seconds, rng):
    t = np.arange(int(seconds * 16000)) / 16000
    hz = 220.0 * 2.0 ** (0.5 / 12.0 * np.sin(2 * np.pi * 5.5 * t + rng.uniform(0, 6)))
    return 0.6 * np.sin(2 * np.pi * np.cumsum(hz) / 16000)


class TestPitchReference:
    """estimate_f0 against a plain time-domain YIN on seeded signals, edge
    frames included: guards the FFT size and the vectorized dip search."""

    def test_sine_with_vibrato(self):
        assert_matches_reference(vibrato(0.5, np.random.default_rng(1)))

    def test_harmonic_tone(self):
        rng = np.random.default_rng(2)
        t = np.arange(8000) / 16000
        tone = sum(0.5 ** k * np.sin(2 * np.pi * 180.0 * (k + 1) * t + rng.uniform(0, 6))
                   for k in range(5))
        assert_matches_reference(tone)

    def test_white_noise_falls_back_to_the_global_minimum(self):
        noise = np.random.default_rng(3).standard_normal(8000) * 0.3
        _f0, _lags, fallback = assert_matches_reference(noise)
        assert fallback.mean() > 0.5

    def test_tone_with_digital_dropout(self):
        audio = vibrato(0.6, np.random.default_rng(4))
        audio[3000:3000 + int(0.075 * 16000)] = 0.0
        f0, _lags, _fallback = assert_matches_reference(audio)
        assert np.any(f0 == 0.0) and np.any(f0 > 0.0)

    def test_signal_near_the_rms_floor(self):
        # amplitude ramps through the 1e-6 rms gate
        audio = vibrato(0.5, np.random.default_rng(5)) * np.linspace(0.5e-6, 4e-6, 8000)
        _f0, lags, _fallback = assert_matches_reference(audio)
        assert np.any(lags == 0) and np.any(lags > 0)

    def test_dip_falling_to_tau_max_stops_there(self):
        # a 40 Hz period is exactly tau_max = 400 lags: the dip is still
        # falling at 399, where the walk must stop
        _f0, lags, _fallback = assert_matches_reference(sine(40.0, seconds=0.5))
        assert np.any(lags == int(ft.SAMPLE_RATE / ft.F0_MIN) - 1)

    def test_edge_frames_match_reference(self):
        # 50 frames of 0.2 s: the first 12 and the last 11 reach into the zero
        # padding at the clip edges
        audio = vibrato(0.2, np.random.default_rng(6))
        f0, _lags, _fallback = assert_matches_reference(audio)
        assert len(f0) == 50 and f0[0] > 0 and f0[-1] > 0

    # The difference function sums 16 hop-sized blocks per frame; block s
    # starts at audio sample s * HOP - BLOCK_OFFSET, BLOCK_OFFSET being the
    # (W + tau_max) // 2 samples of left padding.
    BLOCK_OFFSET = (ft.YIN_WINDOW + int(ft.SAMPLE_RATE / ft.F0_MIN)) // 2

    @pytest.mark.parametrize("n_frames", [1, 15, 16, 17])
    def test_clips_of_about_one_window_of_hops(self, n_frames):
        audio = vibrato(1.0, np.random.default_rng(7))[:n_frames * ft.HOP]
        f0, _lags, _fallback = assert_matches_reference(audio)
        assert len(f0) == n_frames and np.all(f0 > 0)

    def test_remainder_past_the_last_hop(self):
        audio = vibrato(1.0, np.random.default_rng(8))[:ft.HOP * 50 + 37]
        f0, _lags, _fallback = assert_matches_reference(audio)
        assert len(f0) == 50

    def test_dropout_starting_inside_a_block(self):
        audio = vibrato(0.6, np.random.default_rng(9))
        start = 47 * ft.HOP - self.BLOCK_OFFSET + ft.HOP // 2
        audio[start:start + int(0.075 * 16000)] = 0.0
        f0, _lags, _fallback = assert_matches_reference(audio)
        assert np.any(f0 == 0.0) and np.any(f0 > 0.0)

    @pytest.mark.parametrize("n", [1, 63])
    def test_shorter_than_one_hop_gives_empty_tracks(self, n):
        f0, conf = ft.estimate_f0(np.full(n, 0.5))
        assert f0.shape == conf.shape == (0,)


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
        assert cond.shape == (track.n_frames, 2)
        assert np.all(cond >= 0.0) and np.all(cond <= 1.0)

    def test_pitch_channel_is_midi_over_127(self):
        track = ft.extract_features(sine(440.0))
        voiced = track.confidence > 0.5
        pitch = ft.normalize(track)[voiced, 0]
        assert np.median(pitch) == pytest.approx(69.0 / 127.0, abs=0.01)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(50, 1900), st.floats(1.05, 1.5))
    def test_pitch_channel_monotonic_in_frequency(self, hz, factor):
        lo = np.clip(ft.hz_to_midi(np.array([hz])) / 127.0, 0, 1)
        hi = np.clip(ft.hz_to_midi(np.array([hz * factor])) / 127.0, 0, 1)
        assert hi >= lo


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
