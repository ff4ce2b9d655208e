import csv
import json
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmresynth import autodiff as ad
from fmresynth import cli
from fmresynth import dataset as ds
from fmresynth import features as ft
from fmresynth import fmsynth as fm
from fmresynth import reverb as rv
from fmresynth import spectral as sp
from fmresynth import tcn
from fmresynth import training as tr

from conftest import packaged_config, piecewise_envelopes


@pytest.fixture
def tiny_run(tmp_path, two_osc_config):
    ds.synth_corpus(two_osc_config, 1, seed=0, out_dir=tmp_path / "corpus",
                    split_fractions=(1.0, 0.0, 0.0))
    return tr.RunConfig(corpus_dir=str(tmp_path / "corpus"),
                        patch_path=packaged_config("strings1_2"),
                        steps=6, batch=1, checkpoint_every=3, seed=0)


class TestSchedule:
    def test_lr_staircase_exact(self):
        assert tr.lr_at(0) == 3e-4
        assert tr.lr_at(9999) == 3e-4
        assert tr.lr_at(10000) == 3e-4 * 0.98
        assert tr.lr_at(120000) == 3e-4 * 0.98 ** 12

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            tr.lr_at(-1)


class TestClipping:
    def test_rescales_large_gradients(self):
        g = {"a": np.full(25, 2.0)}  # norm 10
        clipped = tr.clip_gradients(g)
        norm = np.sqrt(sum(np.sum(v * v) for v in clipped.values()))
        assert abs(norm - 2.0) < 1e-12

    def test_leaves_small_gradients_alone(self):
        g = {"a": np.array([0.1, 0.2])}
        assert tr.clip_gradients(g) is g

    def test_global_norm_spans_all_entries(self):
        g = {"a": np.full(16, 1.0), "b": np.full(9, 1.0)}  # norm 5
        clipped = tr.clip_gradients(g)
        assert np.allclose(clipped["a"], 0.4)
        assert np.allclose(clipped["b"], 0.4)

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            tr.clip_gradients({"a": np.array([np.inf])})


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction, |step 1| == lr for any gradient scale
        p = ad.parameter(np.array([1.0, -2.0]))
        g = np.array([0.3, -7.0])
        tr.adam_step({"p": p}, {"p": g}, tr.AdamState(), lr=0.1)
        assert np.allclose(p.values, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_matches_reference_trajectory(self):
        # hand-rolled Adam on f(x) = x^2 for a few steps
        p = ad.parameter(np.array([2.0]))
        state = tr.AdamState()
        m = v = 0.0
        x = 2.0
        for t in range(1, 5):
            g = 2.0 * p.values.copy()
            tr.adam_step({"p": p}, {"p": g}, state, lr=0.05)
            gm = 2.0 * x
            m = 0.9 * m + 0.1 * gm
            v = 0.999 * v + 0.001 * gm * gm
            x -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.values[0] == pytest.approx(x, abs=1e-12)


@pytest.fixture
def small_checkpoint(tmp_path, two_osc_config):
    """A checkpoint of a small decoder, its RunConfig JSON and a probe wav."""
    run = tr.RunConfig(corpus_dir=str(tmp_path / "corpus"),
                       patch_path=packaged_config("strings1_2"),
                       hidden_channels=8, blocks=2)
    _spec, params, reverb_params = tr.build_model(run, two_osc_config)
    ckpt = tmp_path / "small.ckpt"
    tr.save_checkpoint(ckpt, run, 7, params, reverb_params, tr.AdamState())
    (tmp_path / "run.json").write_text(run.to_json())
    ds.write_wav(tmp_path / "in.wav", 0.5 * np.sin(np.arange(16000) * 0.1))
    return run, ckpt


class TestCheckpoints:
    def _model(self, run):
        config = fm.load_config(run.patch_path)
        return tr.build_model(run, config)

    def test_roundtrip_byte_identical(self, tmp_path, tiny_run):
        spec, params, reverb_params = self._model(tiny_run)
        adam = tr.AdamState()
        adam.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        adam.v = {k: np.zeros_like(p.values) for k, p in params.items()}
        p1 = tmp_path / "a.ckpt"
        tr.save_checkpoint(p1, tiny_run, 42, params, reverb_params, adam)
        model = tr.Model.build(tiny_run)
        adam2 = tr.AdamState()
        assert model.restore(tiny_run, p1, adam2) == 42
        p2 = tmp_path / "b.ckpt"
        tr.save_checkpoint(p2, tiny_run, 42, model.params,
                           model.reverb_params, adam2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_restores_every_parameter(self, small_checkpoint):
        run, ckpt = small_checkpoint
        _step, blobs = tr.load_checkpoint(ckpt, run)
        named = tr.Model.load(run, ckpt).named_params()
        assert set(blobs) == {f"param/{n}" for n in named} | {"adam_t"}
        for name, p in named.items():
            assert np.array_equal(p.values.ravel(), blobs[f"param/{name}"].ravel())

    # every header field end (magic 4, version 8, digest 40, step 48, blob
    # count 52) and points inside them, then inside the first blob and
    # just short of the end of the file; "name-not-utf8" instead puts
    # 0xff at byte 54, the first byte of the first blob name
    @pytest.mark.parametrize("cut", [0, 3, 4, 6, 8, 20, 40, 45, 48, 50, 52,
                                     53, 60, 70, 200, -8, -1, "name-not-utf8"])
    def test_truncated_checkpoint_is_a_value_error(self, tmp_path,
                                                   small_checkpoint, cut):
        run, ckpt = small_checkpoint
        data = ckpt.read_bytes()
        cut_path = tmp_path / "cut.ckpt"
        cut_path.write_bytes(data[:54] + b"\xff" + data[55:]
                             if cut == "name-not-utf8" else data[:cut])
        with pytest.raises(ValueError, match="cut.ckpt"):
            tr.load_checkpoint(cut_path, run)
        assert cli.main(["resynth", "--checkpoint", str(cut_path),
                         "--run", str(tmp_path / "run.json"),
                         "--input", str(tmp_path / "in.wav"),
                         "--out", str(tmp_path / "out")]) == 2

    def test_missing_parameter_blob_is_a_value_error(self, tmp_path,
                                                     small_checkpoint):
        run, _ckpt = small_checkpoint
        _spec, params, reverb_params = self._model(run)
        del params["out.b"]
        partial = tmp_path / "partial.ckpt"
        tr.save_checkpoint(partial, run, 7, params, reverb_params,
                           tr.AdamState())
        with pytest.raises(ValueError, match="partial.ckpt.*out.b"):
            tr.Model.load(run, partial)

    # a shape numpy cannot hold: more dimensions than it supports, and a
    # zero-size shape whose other dimensions overflow its size arithmetic
    @pytest.mark.parametrize("shape", [(0,) * 70, (0, 2 ** 31, 2 ** 31, 2 ** 31)])
    def test_unholdable_blob_shape_names_the_file(self, tmp_path, tiny_run,
                                                   shape):
        name = b"param/x"
        data = b"".join([tr.CHECKPOINT_MAGIC,
                         struct.pack("<I", tr.CHECKPOINT_VERSION),
                         tiny_run.digest(), struct.pack("<QI", 0, 1),
                         struct.pack("<H", len(name)), name,
                         struct.pack(f"<B{len(shape)}I", len(shape), *shape)])
        bad = tmp_path / "shape.ckpt"
        bad.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(ValueError, match="shape.ckpt"):
            tr.load_checkpoint(bad)

    def test_magic_checked(self, tmp_path, tiny_run):
        bad = tmp_path / "x.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError, match="not a checkpoint"):
            tr.load_checkpoint(bad)

    def test_runconfig_digest_checked(self, tmp_path, tiny_run):
        spec, params, reverb_params = self._model(tiny_run)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, tiny_run, 1, params, reverb_params,
                           tr.AdamState())
        other = replace(tiny_run, seed=99)
        with pytest.raises(ValueError, match="different RunConfig"):
            tr.load_checkpoint(path, other)

    def test_checkpoint_loads_by_another_patch_path_and_moved_corpus(
            self, tmp_path, tiny_run, monkeypatch):
        # written with a relative patch path, loaded by the absolute one
        # from a corpus that has since moved
        patch = tmp_path / "patch.fm"
        patch.write_bytes(Path(tiny_run.patch_path).read_bytes())
        monkeypatch.chdir(tmp_path)
        written = replace(tiny_run, patch_path="patch.fm")
        model = tr.Model.build(written)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, written, 1, model.params,
                           model.reverb_params, tr.AdamState())
        (tmp_path / "corpus").rename(tmp_path / "moved")
        moved = replace(tiny_run, patch_path=str(patch),
                        corpus_dir=str(tmp_path / "moved"))
        loaded = tr.Model.load(moved, path)
        for name, p in model.named_params().items():
            assert np.array_equal(loaded.named_params()[name].values, p.values)

    def test_checkpoint_of_another_patch_is_refused(self, tmp_path, tiny_run):
        model = tr.Model.build(tiny_run)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, tiny_run, 1, model.params,
                           model.reverb_params, tr.AdamState())
        text = Path(tiny_run.patch_path).read_text()
        assert "osc: ratio=1.0 modulates=1" in text
        other = tmp_path / "other.fm"
        other.write_text(text.replace("osc: ratio=1.0 modulates=1",
                                      "osc: ratio=2.0 modulates=1"))
        with pytest.raises(ValueError, match="different RunConfig"):
            tr.Model.load(replace(tiny_run, patch_path=str(other)), path)

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_checkpoint_version_is_unsupported(self, tmp_path, tiny_run,
                                                     version):
        model = tr.Model.build(tiny_run)
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, tiny_run, 1, model.params,
                           model.reverb_params, tr.AdamState())
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"version {version} unsupported"):
            tr.load_checkpoint(path, tiny_run)

    @pytest.mark.parametrize("change", [{"bogus": 1}, {"steps": "10"},
                                        {"steps": 1.5}, {"seed": True},
                                        {"corpus_dir": None}, {"lr0": 3e-4},
                                        "no patch_path"])
    def test_malformed_runconfig_json_is_a_value_error(self, tiny_run, change):
        payload = json.loads(tiny_run.to_json())
        if change == "no patch_path":
            del payload["patch_path"]
        else:
            payload.update(change)
        with pytest.raises(ValueError, match="RunConfig"):
            tr.RunConfig.from_json(json.dumps(payload))

    def test_runconfig_json_roundtrip(self, tiny_run):
        back = tr.RunConfig.from_json(tiny_run.to_json())
        assert back == tiny_run
        assert back.digest() == tiny_run.digest()


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    """A small model's checkpoint with Adam moments, the run that wrote it,
    and the offsets of its blob headers (name length, name, ndim, dims)."""
    root = tmp_path_factory.mktemp("fuzz")
    run = tr.RunConfig(corpus_dir=str(root),
                       patch_path=packaged_config("strings1_2"),
                       hidden_channels=4, blocks=1)
    model = tr.Model.build(run)
    adam = tr.AdamState(t=3)
    for name, p in model.named_params().items():
        adam.m[name] = np.full_like(p.values, 0.1)
        adam.v[name] = np.full_like(p.values, 0.01)
    path = root / "base.ckpt"
    tr.save_checkpoint(path, run, 5, model.params, model.reverb_params, adam)
    data = path.read_bytes()
    _step, blobs = tr.load_checkpoint(path, run)
    headers = sorted(data.index(name.encode()) - 2 for name in blobs)
    return run, data, headers, root / "fuzzed.ckpt"


class TestCheckpointFuzz:
    # most bytes are float data, so offsets are drawn from the file header,
    # the blob headers (which reach into the first floats), the step field,
    # the last data byte, the checksum trailer and the whole file alike.
    # The CRC32 trailer catches every single-bit flip and every cut, so none
    # of them may load; past the magic and version fields (bytes 0-7) the
    # checksum is what rejects them.
    @settings(max_examples=300, deadline=None)
    @given(cut=st.booleans(), bit=st.integers(0, 7), data=st.data())
    def test_flipped_or_truncated_checkpoint_loads_or_is_a_value_error(
            self, fuzz_target, cut, bit, data):
        run, blob, headers, path = fuzz_target
        offset = data.draw(st.one_of(
            st.integers(0, 60),
            st.sampled_from(headers).flatmap(lambda h: st.integers(h, h + 40)),
            st.sampled_from([44, len(blob) - 5, len(blob) - 4, len(blob) - 1]),
            st.integers(0, len(blob) - 1)), label="offset")
        offset = min(offset, len(blob) - 1)
        if cut:
            path.write_bytes(blob[:offset])
        else:
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << bit
            path.write_bytes(bytes(flipped))
        reason = ".*checksum" if offset >= 8 else ""
        with pytest.raises(ValueError, match=path.name + reason):
            tr.Model.load(run, path)


class TestInference:
    def test_inference_forward_records_no_tape(self, tmp_path):
        run = tr.RunConfig(corpus_dir=str(tmp_path),
                           patch_path=packaged_config("strings1_2"),
                           hidden_channels=4, blocks=2)
        model = tr.Model.build(run)
        track = ft.extract_features(0.5 * np.sin(np.arange(4096) * 0.1))
        env, dry, wet = model.forward(track)
        assert env._backward_fn is None and dry._backward_fn is None
        assert wet._backward_fn is None
        # the same chain over the trainable weights gives the same audio
        env_t = tcn.decode(model.spec, model.params, model.config,
                           ft.normalize(track))
        dry_t = fm.render(model.config, env_t, fm.RenderSpec(f0_frames=track.f0_hz),
                          i_max=model.spec.i_max)
        wet_t = rv.apply_reverb(dry_t, model.reverb_params)
        assert wet_t._backward_fn is not None
        assert np.array_equal(wet.values, wet_t.values)



class TestTrainLoop:
    def test_short_run_logs_and_checkpoints(self, tmp_path, tiny_run):
        out = tmp_path / "run"
        final = tr.train(tiny_run, out)
        assert final.name == "checkpoint_00000006.ckpt"
        assert (out / "checkpoint_00000003.ckpt").exists()
        rows = list(csv.DictReader(
            (out / "loss_log.csv").read_text().splitlines()))
        assert len(rows) == 6
        assert [r["step"] for r in rows] == [str(i) for i in range(6)]
        losses = [float(r["train_loss"]) for r in rows]
        assert all(np.isfinite(losses))
        assert float(rows[0]["lr"]) == 3e-4

    def test_rerun_is_deterministic(self, tmp_path, tiny_run):
        tr.train(tiny_run, tmp_path / "r1")
        tr.train(tiny_run, tmp_path / "r2")
        assert ((tmp_path / "r1" / "loss_log.csv").read_text()
                == (tmp_path / "r2" / "loss_log.csv").read_text())
        assert ((tmp_path / "r1" / "checkpoint_00000006.ckpt").read_bytes()
                == (tmp_path / "r2" / "checkpoint_00000006.ckpt").read_bytes())

    def test_resume_reproduces_straight_run(self, tmp_path, tiny_run):
        out = tmp_path / "straight"
        tr.train(tiny_run, out)
        resumed = tmp_path / "resumed"
        tr.train(tiny_run, resumed,
                 resume_from=out / "checkpoint_00000003.ckpt")
        straight = {r["step"]: r for r in csv.DictReader(
            (out / "loss_log.csv").read_text().splitlines())}
        again = {r["step"]: r for r in csv.DictReader(
            (resumed / "loss_log.csv").read_text().splitlines())}
        assert set(again) == {"3", "4", "5"}
        for step, row in again.items():
            assert row["train_loss"] == straight[step]["train_loss"]
        assert ((out / "checkpoint_00000006.ckpt").read_bytes()
                == (resumed / "checkpoint_00000006.ckpt").read_bytes())

    def test_empty_train_split_rejected(self, tmp_path, two_osc_config):
        ds.synth_corpus(two_osc_config, 1, seed=0, out_dir=tmp_path / "c",
                        split_fractions=(0.0, 0.0, 1.0))
        run = tr.RunConfig(corpus_dir=str(tmp_path / "c"),
                           patch_path=packaged_config("strings1_2"),
                           steps=1, batch=1)
        with pytest.raises(ValueError, match="train split"):
            tr.train(run, tmp_path / "out")


class TestGradientAccumulation:
    @pytest.fixture
    def pair_run(self, tmp_path, two_osc_config):
        ds.synth_corpus(two_osc_config, 2, seed=3, out_dir=tmp_path / "corpus",
                        split_fractions=(1.0, 0.0, 0.0))
        return tr.RunConfig(corpus_dir=str(tmp_path / "corpus"),
                            patch_path=packaged_config("strings1_2"),
                            steps=1, batch=2, seed=5, hidden_channels=8,
                            blocks=2)

    def test_matches_one_backward_over_the_summed_batch(self, tmp_path,
                                                        pair_run,
                                                        monkeypatch):
        seen = []
        clip = tr.clip_gradients
        monkeypatch.setattr(tr, "clip_gradients", lambda grads:
                            seen.append(dict(grads)) or clip(grads))
        tr.train(pair_run, tmp_path / "out")
        (accumulated,) = seen

        # reference: both clip graphs summed with ad.add, one backward
        model = tr.Model.build(pair_run)
        manifest = ds.load_manifest(tmp_path / "corpus" / "manifest.json")
        batch = ds.minibatch(manifest, "train", 2, seed=pair_run.seed,
                             epoch=0)[0]
        total = None
        for j, record in enumerate(batch):
            audio, track, _env = ds.load_clip(pair_run.corpus_dir, record)
            _e, _d, wet = model.forward(
                track, mode="train", seed=tr._dropout_seed(pair_run.seed, 0, j))
            loss = sp.mss_loss(audio, wet)
            total = loss if total is None else ad.add(total, loss)
        ad.backward(ad.mul(total, ad.constant(0.5)))
        reference = model.named_params()
        assert accumulated.keys() == reference.keys()
        for name, p in reference.items():
            scale = np.max(np.abs(p.grad))
            assert scale > 0.0, name
            assert np.max(np.abs(accumulated[name] - p.grad)) <= 1e-12 * scale, name

    def test_one_backward_per_clip_per_step(self, tmp_path, pair_run,
                                            monkeypatch):
        calls = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward",
                            lambda loss: calls.append(loss) or backward(loss))
        run = replace(pair_run, steps=3)
        tr.train(run, tmp_path / "out")
        assert len(calls) == run.steps * run.batch

    def test_target_cache_skips_the_test_split(self, tmp_path, two_osc_config,
                                               monkeypatch):
        ds.synth_corpus(two_osc_config, 10, seed=0, out_dir=tmp_path / "corpus",
                        split_fractions=(0.7, 0.1, 0.2))
        manifest = ds.load_manifest(tmp_path / "corpus" / "manifest.json")
        assert [len(manifest.split_records(s))
                for s in ("train", "valid", "test")] == [7, 1, 2]
        calls = []
        targets = sp.target_spectrograms
        monkeypatch.setattr(sp, "target_spectrograms",
                            lambda audio: calls.append(1) or targets(audio))
        run = tr.RunConfig(corpus_dir=str(tmp_path / "corpus"),
                           patch_path=packaged_config("strings1_2"),
                           steps=1, batch=1, hidden_channels=8, blocks=2)
        tr.train(run, tmp_path / "out")
        assert len(calls) == 8


class TestOpSet:
    def test_training_chain_uses_every_op_kind(self, tmp_path):
        # one train-mode forward and its loss put exactly the closed op set
        # on the tape: no op kind is dead code, none is missing a check
        run = tr.RunConfig(corpus_dir=str(tmp_path),
                           patch_path=packaged_config("strings1_2"),
                           hidden_channels=4, blocks=2)
        model = tr.Model.build(run)
        audio = 0.5 * np.sin(np.arange(4096) * 0.1)
        track = ft.extract_features(audio)
        _env, _dry, wet = model.forward(track, mode="train", seed=0)
        loss = sp.mss_loss(audio, wet)
        kinds, stack, seen = set(), [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._op is not None:
                kinds.add(node._op)
            stack.extend(node._parents)
        assert kinds == set(ad.OP_KINDS)


class TestMatchEnvelopes:
    def test_target_spectrograms_built_once(self, two_osc_config, monkeypatch):
        target_calls, stft_calls = [], []
        targets, stft = sp.target_spectrograms, ad.stft_magnitude
        monkeypatch.setattr(sp, "target_spectrograms",
                            lambda *a: target_calls.append(a) or targets(*a))
        monkeypatch.setattr(ad, "stft_magnitude",
                            lambda *a: stft_calls.append(a) or stft(*a))
        f0 = np.full(125, 300.0)
        env = piecewise_envelopes(two_osc_config, 125, seed=1)
        target = fm.render(two_osc_config, env, fm.RenderSpec(f0_frames=f0),
                           i_max=2.0).values
        tr.match_envelopes(two_osc_config, target, f0, steps=3)
        assert len(target_calls) == 1
        assert len(stft_calls) == len(sp.WINDOWS)

    def test_loss_decreases_on_short_fit(self, two_osc_config):
        t_frames = 125
        env_true = piecewise_envelopes(two_osc_config, t_frames, seed=1)
        f0 = np.full(t_frames, 300.0)
        spec = fm.RenderSpec(f0_frames=f0)
        target = fm.render(two_osc_config, env_true, spec, i_max=2.0).values
        env, history = tr.match_envelopes(
            two_osc_config, target, f0, i_max=2.0, steps=300,
            lr=0.05, lr_half_every=60, seed=0)
        assert history[-1] < 0.6 * history[0]
        assert env.shape == (t_frames, 2)
        a_max = two_osc_config.a_max(2.0)
        assert np.all(env >= 0.0) and np.all(env <= a_max[None, :])
