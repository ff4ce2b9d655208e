import numpy as np
import pytest

from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import training as tr

from conftest import packaged_config


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


class TestGrids:
    def test_missing_checkpoint_marks_absent_and_raises(self, trained,
                                                        tmp_path):
        run, ckpt, root = trained
        cells = [
            {"name": "present", "run": run, "checkpoint": str(ckpt),
             "corpus_dir": str(root / "corpus")},
            {"name": "missing", "run": None, "checkpoint": None,
             "corpus_dir": str(root / "corpus")},
        ]
        table = tmp_path / "grid.csv"
        with pytest.raises(FileNotFoundError, match="missing"):
            ev.run_grid(cells, table)
        text = table.read_text()
        assert "present,ok" in text
        assert "missing,absent" in text
        assert table.with_suffix(".txt").exists()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ev.run_grid([])

    def test_variant_tables_cover_instruments(self):
        assert set(ev.ABLATION_VARIANTS) == {"flute", "violin", "trumpet"}
        for names in ev.ABLATION_VARIANTS.values():
            for name in names:
                # every listed variant ships as a packaged config
                import fmresynth.fmsynth as fm
                fm.load_config(packaged_config(name))
