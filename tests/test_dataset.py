import hashlib
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fmresynth import dataset as ds
from fmresynth import features as ft
from fmresynth import workers

from conftest import holds_array, in_process_pool


# manifest.json of synth_corpus(strings1_2, 2 clips, seed=3), with the two
# mean confidences as CONF0 and CONF1
MANIFEST_2_CLIPS = """\
{
  "confidence_threshold": 0.0,
  "config_name": "strings1_2",
  "instrument": "synthetic",
  "records": [
    {
      "audio_path": "synthetic_0000.f32",
      "clip_id": "synthetic_0000",
      "envelopes_path": "synthetic_0000.envelopes.npz",
      "features_path": "synthetic_0000.features.npz",
      "instrument": "synthetic",
      "mean_confidence": CONF0,
      "source_file": "<synthetic>",
      "split": "test"
    },
    {
      "audio_path": "synthetic_0001.f32",
      "clip_id": "synthetic_0001",
      "envelopes_path": "synthetic_0001.envelopes.npz",
      "features_path": "synthetic_0001.features.npz",
      "instrument": "synthetic",
      "mean_confidence": CONF1,
      "source_file": "<synthetic>",
      "split": "train"
    }
  ],
  "seed": 3,
  "silence_threshold_db": -45.0,
  "split_fractions": [
    0.75,
    0.125,
    0.125
  ],
  "version": 1
}
"""


def tone(freq, seconds, sr=16000, amp=0.8):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        x = tone(440.0, 0.5)
        path = tmp_path / "a.wav"
        ds.write_wav(path, x)
        back, rate = ds.read_wav(path)
        assert rate == 16000
        assert np.max(np.abs(back - x)) < 1e-4  # 16-bit quantization

    def test_stereo_downmix(self, tmp_path):
        from scipy.io import wavfile
        stereo = np.stack([tone(440.0, 0.1), tone(880.0, 0.1)], axis=1)
        path = tmp_path / "s.wav"
        wavfile.write(path, 16000, (stereo * 32767).astype(np.int16))
        mono, _ = ds.read_wav(path)
        assert mono.ndim == 1
        assert np.max(np.abs(mono - stereo.mean(axis=1))) < 1e-3


class TestPreprocess:
    def test_resample_preserves_pitch(self):
        x = tone(440.0, 0.5, sr=44100)
        y = ds.resample_to(x, 44100)
        assert len(y) == pytest.approx(0.5 * 16000, abs=2)
        spec = np.abs(np.fft.rfft(y))
        peak_hz = np.argmax(spec) * 16000 / len(y)
        assert peak_hz == pytest.approx(440.0, abs=3.0)

    def test_importing_training_leaves_scipy_signal_unloaded(self):
        # scipy.signal is about half the package's import time, which
        # every training worker and every CLI call pays
        src = Path(ds.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, fmresynth.training; "
             "print('scipy.signal' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_strip_silence_removes_gaps(self):
        loud = tone(440.0, 1.0)
        silent = np.zeros(16000)
        x = np.concatenate([loud, silent, loud])
        stripped = ds.strip_silence(x)
        assert len(stripped) < len(x) - 8000
        assert np.sqrt(np.mean(stripped ** 2)) > 0.3

    def test_strip_silence_all_quiet(self):
        assert len(ds.strip_silence(np.zeros(8000))) == 0

    @pytest.mark.parametrize("n", [511, 512, 1000, 1024, 1535, 1536, 40000, 40300])
    def test_strip_silence_keeps_what_the_block_loop_keeps(self, n):
        # a tone that fades in, then out to just above the threshold, with
        # a gap and noise near the threshold; the reference is the plain
        # loop over blocks, with the last window cut short by the end
        rng = np.random.default_rng(n)
        x = np.sin(2 * np.pi * 440.0 * np.arange(n) / 16000) * np.interp(
            np.arange(n), [0, n // 2, n - 1], [0.004, 0.02, 0.009])
        x[n // 3: n // 2] = rng.normal(0.0, 0.005, n // 2 - n // 3)
        x[n // 2: n // 2 + n // 8] = 0.0
        thresh = 10.0 ** (ds.SILENCE_THRESHOLD_DB / 20.0)
        keep = []
        for start in range(0, len(x) // ds.SILENCE_HOP * ds.SILENCE_HOP,
                           ds.SILENCE_HOP):
            window = x[start: start + ds.SILENCE_WINDOW]
            if np.sqrt(np.mean(window ** 2)) >= thresh:
                keep.append(x[start: start + ds.SILENCE_HOP])
        expected = np.concatenate(keep) if keep else np.zeros(0)
        stripped = ds.strip_silence(x)
        assert stripped.dtype == np.float64
        assert np.array_equal(stripped, expected)

    def test_chop_drops_remainder(self):
        clips = ds.chop_clips(np.zeros(ds.CLIP_SAMPLES * 2 + 100))
        assert len(clips) == 2
        assert all(len(c) == ds.CLIP_SAMPLES for c in clips)


class TestSplits:
    def test_floor_based_counts(self):
        labels = ds.assign_splits(10, seed=0)
        # floor(7.5)=7 train, floor(1.25)=1 valid, rest=2 test
        assert labels.count("train") == 7
        assert labels.count("valid") == 1
        assert labels.count("test") == 2

    def test_deterministic_in_seed(self):
        assert ds.assign_splits(20, seed=3) == ds.assign_splits(20, seed=3)
        assert ds.assign_splits(20, seed=3) != ds.assign_splits(20, seed=4)


class TestIngest:
    def test_ingest_builds_corpus(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        ds.write_wav(src / "take1.wav", tone(330.0, 9.0))
        ds.write_wav(src / "take2.wav", tone(440.0, 5.0))
        (src / "broken.wav").write_bytes(b"not a wav")
        out = tmp_path / "corpus"
        manifest = ds.ingest(src, "synthetic", seed=0, out_dir=out)
        assert len(manifest.records) == 3  # 2 + 1 full 4 s clips
        for r in manifest.records:
            audio, track, env = ds.load_clip(out, r)
            assert len(audio) == ds.CLIP_SAMPLES
            assert track.n_frames == ds.FRAMES_PER_CLIP
            assert env is None
        assert ds.lint_corpus(manifest, out) == []

    def test_ingest_caches_the_features_of_the_stored_clip(self, tmp_path):
        from scipy.io import wavfile
        src = tmp_path / "src"
        src.mkdir()
        take = tone(330.0, 4.5, sr=44100)
        wavfile.write(src / "take.wav", 44100, (take * 32767).astype(np.int16))
        out = tmp_path / "corpus"
        manifest = ds.ingest(src, "synthetic", seed=0, out_dir=out)
        for r in manifest.records:
            audio, track, _env = ds.load_clip(out, r)
            fresh = ft.extract_features(audio)
            for field in ("f0_hz", "confidence", "loudness_db"):
                assert np.array_equal(getattr(fresh, field),
                                      getattr(track, field)), field

    def test_ingest_confidence_filter(self, tmp_path, replies):
        src = tmp_path / "src"
        src.mkdir()
        rng = np.random.default_rng(0)
        ds.write_wav(src / "noise.wav", rng.uniform(-0.5, 0.5, 5 * 16000))
        with pytest.raises(ValueError, match="no clips"):
            ds.ingest(src, "violin", seed=0, out_dir=tmp_path / "c")
        # a wav whose clips all fall below the threshold replies no record
        # and caches nothing
        assert replies == [([], None)]
        assert list((tmp_path / "c").iterdir()) == []

    def test_ingest_empty_dir_rejected(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        with pytest.raises(ValueError):
            ds.ingest(src, "violin", seed=0, out_dir=tmp_path / "c")

    @pytest.fixture
    def mixed_wavs(self, tmp_path):
        """Three readable wavs of unequal length, one of them stereo at
        44.1 kHz and one ending in noise that the violin confidence filter
        drops, then an unreadable one and one all silence."""
        from scipy.io import wavfile
        src = tmp_path / "src"
        src.mkdir()
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 4 * 16000)
        ds.write_wav(src / "a.wav", np.concatenate([tone(330.0, 4.5), noise]))
        ds.write_wav(src / "b.wav", tone(440.0, 5.0))
        mono = 0.5 * tone(262.0, 13.0, sr=44100)
        wavfile.write(src / "c.wav", 44100, (np.stack(
            [0.9 * mono, 1.1 * mono], axis=1) * 32767).astype(np.int16))
        (src / "d.wav").write_bytes(b"not a wav")
        ds.write_wav(src / "e.wav", np.zeros(6 * 16000))
        return src

    def test_corpus_does_not_depend_on_the_worker_count(self, mixed_wavs,
                                                        tmp_path, monkeypatch):
        def prepare(out):
            ds.ingest(mixed_wavs, "violin", seed=0, out_dir=out)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        with monkeypatch.context() as m:
            m.setattr(workers, "pool", in_process_pool)
            reference = prepare(tmp_path / "reference")
        manifest = ds.load_manifest(tmp_path / "reference" / "manifest.json")
        assert [r.clip_id for r in manifest.records] == [
            "a_0000", "b_0000", "c_0000", "c_0001", "c_0002"]
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "cpu_count", lambda n=n: n)
            assert prepare(tmp_path / f"w{n}") == reference

    def test_replies_are_records_and_the_manifest_comes_last(
            self, mixed_wavs, tmp_path, monkeypatch, replies):
        out = tmp_path / "c"
        listed = []
        save = ds.save_manifest
        monkeypatch.setattr(ds, "save_manifest", lambda manifest, path: (
            listed.append(sorted(p.name for p in out.iterdir()))
            or save(manifest, path)))
        manifest = ds.ingest(mixed_wavs, "violin", seed=0, out_dir=out)
        # one reply per wav, holding its kept clips' records, split unset
        assert len(replies) == 5 and not any(map(holds_array, replies))
        records = [r for kept, _warning in replies for r in kept]
        assert [replace(r, split=m.split) for r, m in zip(
            records, manifest.records)] == manifest.records
        assert {r.split for r in records} == {""}
        # every clip is cached before the manifest is written
        assert listed == [sorted(p.name for p in out.iterdir()
                                 if p.name != "manifest.json")]
        assert len(listed[0]) == 3 * len(manifest.records)

    def test_an_error_in_one_wav_leaves_the_clips_before_it_and_no_manifest(
            self, mixed_wavs, tmp_path, monkeypatch, in_process_workers):
        monkeypatch.setattr(workers, "cpu_count", lambda: 1)
        resample_to = ds.resample_to

        def resample(audio, rate):  # c.wav alone is at 44.1 kHz
            if rate != ds.SAMPLE_RATE:
                raise RuntimeError("resampler failed")
            return resample_to(audio, rate)

        monkeypatch.setattr(ds, "resample_to", resample)
        out = tmp_path / "c"
        with pytest.raises(RuntimeError, match="resampler failed"):
            ds.ingest(mixed_wavs, "violin", seed=0, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == [
            f"{clip}{suffix}" for clip in ("a_0000", "b_0000")
            for suffix in (".f32", ".f32.json", ".features.npz")]

    def test_skipped_wavs_are_logged_by_the_caller(self, mixed_wavs, tmp_path,
                                                   monkeypatch, caplog):
        monkeypatch.setattr(workers, "cpu_count", lambda: 2)
        with caplog.at_level(logging.WARNING, logger="fmresynth.dataset"):
            ds.ingest(mixed_wavs, "violin", seed=0, out_dir=tmp_path / "c")
        unreadable, silent = [r.getMessage() for r in caplog.records]
        assert unreadable.startswith(
            f"skipping unreadable file {mixed_wavs / 'd.wav'}: ")
        assert silent == ("no audio survived silence stripping in "
                          f"{mixed_wavs / 'e.wav'}")


class TestSyntheticCorpus:
    def test_synth_corpus_lints_clean(self, tmp_path, two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 4, seed=0,
                                   out_dir=tmp_path)
        assert len(manifest.records) == 4
        assert manifest.config_name == "strings1_2"
        assert ds.lint_corpus(manifest, tmp_path) == []
        audio, track, env = ds.load_clip(tmp_path, manifest.records[0])
        assert env.shape == (ds.FRAMES_PER_CLIP, 2)
        assert len(audio) == ds.CLIP_SAMPLES

    def test_envelopes_that_are_no_npz_are_a_value_error_naming_the_file(
            self, tmp_path, two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 2, seed=0,
                                   out_dir=tmp_path)
        record = manifest.records[0]
        path = tmp_path / record.envelopes_path
        with open(path, "wb") as fh:  # .npy bytes under the .npz name
            np.save(fh, np.zeros((ds.FRAMES_PER_CLIP, 2)))
        with pytest.raises(ValueError, match=f"{path}: not an npz file"):
            ds.load_clip(tmp_path, record)
        assert ds.lint_corpus(manifest, tmp_path) == [
            f"{record.clip_id}: unreadable cache ({path}: not an npz file)"]

    def test_corpus_does_not_depend_on_the_worker_count(self, tmp_path,
                                                        two_osc_config,
                                                        monkeypatch):
        def build(out):
            ds.synth_corpus(two_osc_config, 5, seed=4, out_dir=out,
                            split_fractions=(0.6, 0.2, 0.2))
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in out.iterdir()}

        with monkeypatch.context() as m:
            m.setattr(workers, "pool", in_process_pool)
            reference = build(tmp_path / "reference")
        # per clip its audio, sidecar, features and envelopes; the manifest
        assert len(reference) == 5 * 4 + 1 and "manifest.json" in reference
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "cpu_count", lambda n=n: n)
            assert build(tmp_path / f"w{n}") == reference

    def test_replies_are_the_records(self, tmp_path, two_osc_config, replies):
        manifest = ds.synth_corpus(two_osc_config, 3, seed=0, out_dir=tmp_path,
                                   split_fractions=(0.34, 0.33, 0.33))
        assert replies == manifest.records
        assert not any(map(holds_array, replies))

    def test_synth_corpus_is_seeded(self, tmp_path, two_osc_config):
        m1 = ds.synth_corpus(two_osc_config, 2, seed=5, out_dir=tmp_path / "a")
        m2 = ds.synth_corpus(two_osc_config, 2, seed=5, out_dir=tmp_path / "b")
        a1, _, _ = ds.load_clip(tmp_path / "a", m1.records[0])
        a2, _, _ = ds.load_clip(tmp_path / "b", m2.records[0])
        assert np.array_equal(a1, a2)


class TestManifestAndBatches:
    def test_manifest_roundtrip(self, tmp_path, two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 3, seed=0, out_dir=tmp_path)
        loaded = ds.load_manifest(tmp_path / "manifest.json")
        assert loaded == manifest

    def test_manifest_bytes_are_pinned(self, tmp_path, two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 2, seed=3, out_dir=tmp_path)
        conf = [r.mean_confidence for r in manifest.records]
        # YIN may move the confidences in their last digits; every other
        # byte of the on-disk format is fixed
        assert conf == pytest.approx([0.9846932522196251, 0.9857423854431915],
                                     rel=1e-9)
        expected = MANIFEST_2_CLIPS.replace("CONF0", repr(conf[0]))
        expected = expected.replace("CONF1", repr(conf[1]))
        assert (tmp_path / "manifest.json").read_text() == expected

    def test_minibatch_deterministic_and_complete(self, tmp_path,
                                                  two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 10, seed=0,
                                   out_dir=tmp_path,
                                   split_fractions=(1.0, 0.0, 0.0))
        b1 = ds.minibatch(manifest, "train", batch_size=4, seed=1, epoch=0)
        b2 = ds.minibatch(manifest, "train", batch_size=4, seed=1, epoch=0)
        b3 = ds.minibatch(manifest, "train", batch_size=4, seed=1, epoch=1)
        ids = lambda batches: [[r.clip_id for r in b] for b in batches]
        assert ids(b1) == ids(b2)
        assert ids(b1) != ids(b3)
        assert [len(b) for b in b1] == [4, 4, 2]  # short final batch kept
        assert sorted(sum(ids(b1), [])) == sorted(r.clip_id
                                                  for r in manifest.records)

    def test_lint_detects_truncation(self, tmp_path, two_osc_config):
        manifest = ds.synth_corpus(two_osc_config, 2, seed=0, out_dir=tmp_path)
        victim = tmp_path / manifest.records[0].audio_path
        victim.write_bytes(victim.read_bytes()[:100])
        problems = ds.lint_corpus(manifest, tmp_path)
        assert any("unreadable" in p or "length" in p for p in problems)
