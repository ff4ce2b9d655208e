from pathlib import Path

import numpy as np
import pytest

from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import features as ft
from fmresynth import training as tr
from fmresynth import workers

from conftest import holds_array, in_process_pool, packaged_config


def sine(freq, seconds=1.0, sr=16000):
    return np.sin(2 * np.pi * freq * np.arange(int(seconds * sr)) / sr)


class TestMetricIdentities:
    def test_all_zero_on_identical(self):
        x = sine(440.0, 2.0)
        m = ev.compute_metrics(x, x.copy())
        assert m == {"mss": 0.0, "lsd_db": 0.0, "f0_rmse_cents": 0.0}

    def test_lsd_zero_on_identical_direct(self):
        x = sine(300.0)
        assert ev.log_spectral_distance(x, x.copy()) == 0.0

    def test_semitone_shift_near_100_cents(self):
        a = sine(440.0, 2.0)
        b = sine(440.0 * 2 ** (1 / 12), 2.0)
        cents = ev.f0_rmse_cents(a, b)
        assert cents == pytest.approx(100.0, abs=5.0)

    def test_f0_rmse_zero_when_nothing_voiced(self):
        rng = np.random.default_rng(0)
        assert ev.f0_rmse_cents(rng.standard_normal(16000) * 0.1,
                                rng.standard_normal(16000) * 0.1) == 0.0

    def test_lsd_positive_and_symmetric_shape(self):
        a, b = sine(440.0), sine(550.0)
        assert ev.log_spectral_distance(a, b) > 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.compute_metrics(np.zeros(100), np.zeros(101))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny trained run shared by the resynthesis tests."""
    root = tmp_path_factory.mktemp("trained")
    import fmresynth.fmsynth as fm
    config = fm.load_config(packaged_config("strings1_2"))
    ds.synth_corpus(config, 4, seed=0, out_dir=root / "corpus",
                    split_fractions=(0.5, 0.25, 0.25))
    run = tr.RunConfig(corpus_dir=str(root / "corpus"),
                       patch_path=packaged_config("strings1_2"),
                       steps=4, batch=2, checkpoint_every=4, seed=0)
    ckpt = tr.train(run, root / "run")
    return run, ckpt, root


class TestResynthesis:
    def test_output_matches_input_length(self, trained):
        run, ckpt, root = trained
        audio = sine(330.0, 2.0)
        out = ev.resynthesize(run, ckpt, audio)
        assert out.shape == audio.shape
        assert np.all(np.isfinite(out))

    def test_deterministic(self, trained):
        run, ckpt, _root = trained
        audio = sine(330.0, 1.0)
        a = ev.resynthesize(run, ckpt, audio)
        b = ev.resynthesize(run, ckpt, audio)
        assert np.array_equal(a, b)

    def test_evaluate_checkpoint_reports(self, trained, tmp_path):
        run, ckpt, root = trained
        report = ev.evaluate_checkpoint(run, ckpt, root / "corpus",
                                        out_dir=tmp_path / "wavs")
        assert report.per_clip
        assert report.mss > 0.0
        assert np.isfinite(report.log_spectral_distance_db)
        wavs = list((tmp_path / "wavs").glob("*_resynth.wav"))
        assert len(wavs) == len(report.per_clip)

    def test_evaluate_checkpoint_loads_checkpoint_once(self, trained,
                                                       monkeypatch):
        run, ckpt, root = trained
        calls = []
        load = tr.load_checkpoint
        monkeypatch.setattr(tr, "load_checkpoint",
                            lambda *a, **k: calls.append(a) or load(*a, **k))
        report = ev.evaluate_checkpoint(run, ckpt, root / "corpus",
                                        split="train")
        assert len(report.per_clip) == 2
        assert len(calls) == 1

    def test_target_f0_comes_from_the_feature_cache(self, trained,
                                                   monkeypatch,
                                                   in_process_workers):
        run, ckpt, root = trained
        manifest = ds.load_manifest(root / "corpus" / "manifest.json")
        audio, track, _env = ds.load_clip(root / "corpus",
                                          manifest.split_records("train")[0])
        pred = ev.resynthesize(run, ckpt, audio)
        assert ev.f0_rmse_cents(track, pred) == ev.f0_rmse_cents(audio, pred)
        calls = []
        estimate = ft.estimate_f0
        monkeypatch.setattr(ft, "estimate_f0",
                            lambda a: calls.append(a) or estimate(a))
        report = ev.evaluate_checkpoint(run, ckpt, root / "corpus",
                                        split="train")
        # once per clip, on the prediction only
        assert len(calls) == len(report.per_clip) == 2


@pytest.fixture(scope="module")
def four_clip_split(tmp_path_factory):
    """An untrained small decoder's checkpoint and a corpus whose train
    split holds 4 clips."""
    root = tmp_path_factory.mktemp("split")
    import fmresynth.fmsynth as fm
    config = fm.load_config(packaged_config("strings1_2"))
    ds.synth_corpus(config, 4, seed=1, out_dir=root / "corpus",
                    split_fractions=(1.0, 0.0, 0.0))
    run = tr.RunConfig(corpus_dir=str(root / "corpus"),
                       patch_path=packaged_config("strings1_2"), seed=1,
                       hidden_channels=8, blocks=2)
    model = tr.Model.build(run)
    tr.save_checkpoint(root / "init.ckpt", run, 0, model.params,
                       model.reverb_params, tr.AdamState())
    return run, root / "init.ckpt", root / "corpus"


class TestEvaluationWorkers:
    def test_report_and_wavs_do_not_depend_on_the_worker_count(
            self, four_clip_split, tmp_path, monkeypatch):
        run, ckpt, corpus = four_clip_split

        def evaluate(out):
            report = ev.evaluate_checkpoint(run, ckpt, corpus, split="train",
                                            out_dir=out)
            return report, {p.name: p.read_bytes() for p in out.iterdir()}

        with monkeypatch.context() as m:
            m.setattr(workers, "pool", in_process_pool)
            reference = evaluate(tmp_path / "reference")
        assert len(reference[0].per_clip) == 4 and len(reference[1]) == 8
        for n in (1, 2, 3):
            monkeypatch.setattr(workers, "cpu_count", lambda n=n: n)
            assert evaluate(tmp_path / f"w{n}") == reference


    def test_replies_are_metric_dicts_and_each_clip_is_read_once(
            self, four_clip_split, tmp_path, monkeypatch, replies):
        run, ckpt, corpus = four_clip_split
        calls = []
        load_clip_audio = ds.load_clip_audio
        monkeypatch.setattr(ds, "load_clip_audio", lambda path: (
            calls.append(path) or load_clip_audio(path)))
        report = ev.evaluate_checkpoint(run, ckpt, corpus, split="train",
                                        out_dir=tmp_path / "wavs")
        assert replies == report.per_clip and not any(map(holds_array, replies))
        assert len(calls) == 4 and len(list((tmp_path / "wavs").iterdir())) == 8


class TestGrids:
    def test_missing_checkpoint_marks_absent_and_raises(self, trained,
                                                        tmp_path):
        run, ckpt, root = trained
        cells = tmp_path / "cells"
        cells.mkdir()
        (cells / "present.run.json").write_text(run.to_json())
        (cells / "present.ckpt").write_bytes(Path(ckpt).read_bytes())
        table = tmp_path / "grid.csv"
        with pytest.raises(FileNotFoundError, match="missing"):
            ev.run_grid(["present", "missing"], cells, root / "corpus", table)
        text = table.read_text()
        assert "present,ok" in text
        assert "missing,absent" in text
        assert table.with_suffix(".txt").exists()

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ev.run_grid([], tmp_path, tmp_path)

    def test_variant_tables_cover_instruments(self):
        assert set(ev.ABLATION_VARIANTS) == {"flute", "violin", "trumpet"}
        for names in ev.ABLATION_VARIANTS.values():
            for name in names:
                # every listed variant ships as a packaged config
                import fmresynth.fmsynth as fm
                fm.load_config(packaged_config(name))
