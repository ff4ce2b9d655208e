import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fmresynth import cli
from fmresynth import dataset as ds
from fmresynth import features as ft
from fmresynth import training as tr

from conftest import packaged_config, running_workers


def run_cli(*argv):
    return cli.main(list(argv))


def npz_bytes(**arrays):
    """The bytes that np.savez writes for `arrays`."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


F0_NPZ = npz_bytes(f0=np.full(25, 440.0))


def run_cli_process(*argv):
    """`python -m fmresynth.cli *argv` in a process of its own, returned as
    soon as that process exits. Its output goes to files, not pipes, so a
    worker process it leaves running cannot hold the call open."""
    src = Path(cli.__file__).resolve().parents[1]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "fmresynth.cli", *argv], stdout=out,
            stderr=err, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(proc.args, proc.returncode,
                                           out.read(), err.read())


def dir_digest(root):
    """Stable byte-level fingerprint of every file under root."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("render") == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("transmogrify") == 1

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert run_cli("render", "--patch", str(tmp_path / "nope.fm"),
                       "--out", str(tmp_path)) == 2

    def test_bad_corpus_is_runtime_error(self, tmp_path):
        assert run_cli("lint", "--corpus", str(tmp_path),
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("command, name, what", [
        ("lint", "manifest.json", "manifest"), ("train", "run.json", "RunConfig")])
    def test_file_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys,
                                                     command, name, what):
        path = tmp_path / name
        path.write_text("{not json")
        flag, value = (("--corpus", tmp_path) if command == "lint"
                       else ("--config", path))
        assert run_cli(command, flag, str(value),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {path}: {what} is not valid JSON ("), err

    def test_wav_into_missing_directory_prints_one_error_line(self, tmp_path):
        # wave.open on a path it cannot create used to leave a half-built
        # writer whose __del__ printed a traceback after the error line
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "fmresynth.cli", "render",
             "--patch", packaged_config("flute1"),
             "--out", str(tmp_path / "missing" / "x.wav")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


class TestBadNumbersAreUsageErrors:
    @pytest.mark.parametrize("flag, argv", [
        ("--f0", ("render", "--patch", "flute1", "--f0", "nan")),
        ("--f0", ("render", "--patch", "flute1", "--f0", "inf")),
        ("--f0", ("render", "--patch", "flute1", "--f0", "-440")),
        ("--seconds", ("render", "--patch", "flute1", "--seconds", "0")),
        ("--seconds", ("render", "--patch", "flute1", "--seconds", "-1")),
        ("--seconds", ("render", "--patch", "flute1", "--seconds", "nan")),
        ("--modindex", ("analyze", "--modindex", "nan")),
        ("--modindex", ("analyze", "--modindex", "inf")),
        ("--nmax", ("analyze", "--modindex", "1", "--nmax", "-1")),
        ("--nclips", ("prepare", "--synthetic", "--patch", "strings1_2",
                      "--nclips", "0")),
        ("--nclips", ("prepare", "--synthetic", "--patch", "strings1_2",
                      "--nclips", "-2")),
        ("--modindex", ("analyze", "--modindex", "40")),
    ])
    def test_exits_1_naming_the_flag(self, flag, argv, tmp_path, capsys):
        argv = [packaged_config(a) if prev == "--patch" else a
                for prev, a in zip(("",) + argv, argv)]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err, err
        assert not out.exists()


class TestAnalyze:
    def test_prints_table(self, capsys):
        assert run_cli("analyze", "--modindex", "1.0", "--nmax", "2") == 0
        out = capsys.readouterr().out
        assert "J_n(I)" in out
        assert "0.76520" in out  # J_0(1)

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("analyze", "--modindex", "1.5", "--csv", str(a)) == 0
        assert run_cli("analyze", "--modindex", "1.5", "--csv", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_index_rejected(self):
        assert run_cli("analyze", "--modindex", "-1") == 1


class TestRender:
    def test_writes_wav_deterministically(self, tmp_path):
        args = ("render", "--patch", packaged_config("flute1"),
                "--f0", "440", "--seconds", "0.5")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        wav_a = tmp_path / "a" / "flute1.wav"
        wav_b = tmp_path / "b" / "flute1.wav"
        assert wav_a.read_bytes() == wav_b.read_bytes()
        audio, rate = ds.read_wav(wav_a)
        assert rate == 16000
        assert len(audio) == 8000

    def test_envelope_file(self, tmp_path):
        env = np.zeros((25, 2))
        env[:, 0] = 0.5
        np.savez(tmp_path / "env.npz", envelopes=env)
        assert run_cli("render", "--patch", packaged_config("strings1_2"),
                       "--f0", "440", "--seconds", "0.1",
                       "--envelopes", str(tmp_path / "env.npz"),
                       "--out", str(tmp_path / "out.wav")) == 0
        audio, _ = ds.read_wav(tmp_path / "out.wav")
        assert np.max(np.abs(audio)) == pytest.approx(0.5, abs=0.01)

    def test_envelope_length_mismatch_is_usage_error(self, tmp_path):
        np.savez(tmp_path / "env.npz", envelopes=np.zeros((10, 2)))
        assert run_cli("render", "--patch", packaged_config("strings1_2"),
                       "--seconds", "0.1",
                       "--envelopes", str(tmp_path / "env.npz"),
                       "--out", str(tmp_path / "out.wav")) == 1

    @pytest.mark.parametrize("flag, arrays, named", [
        ("--f0", {"pitch": np.full(25, 440.0)}, "'f0'"),
        ("--f0", {"f0": np.full((25, 1), 440.0)}, "'f0' must be 1-D"),
        ("--envelopes", {"env": np.zeros((25, 2))}, "'envelopes'"),
        ("--envelopes", {"envelopes": np.float64(0.5)},
         "'envelopes' must be 2-D"),
        ("--f0", None, "not an npz file"),  # a bare .npy array
        pytest.param("--f0", b"", "No data left in file", id="empty"),
        pytest.param("--f0", F0_NPZ[:len(F0_NPZ) // 2],
                     "File is not a zip file", id="truncated"),
        pytest.param("--envelopes", b"envelopes = 0.5\n", "pickled",
                     id="text"),
    ])
    def test_malformed_npz_exits_2_naming_file_and_key(
            self, flag, arrays, named, tmp_path, capsys):
        with open(tmp_path / "in.npz", "wb") as fh:
            if arrays is None:
                np.save(fh, np.full(25, 440.0))
            elif isinstance(arrays, bytes):
                fh.write(arrays)
            else:
                np.savez(fh, **arrays)
        assert run_cli("render", "--patch", packaged_config("strings1_2"),
                       "--seconds", "0.1", flag, str(tmp_path / "in.npz"),
                       "--out", str(tmp_path / "out.wav")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(tmp_path / "in.npz") in err and named in err, err
        assert not (tmp_path / "out.wav").exists()


class TestPrepare:
    def test_synthetic_corpus_deterministic(self, tmp_path):
        args = ("prepare", "--synthetic",
                "--patch", packaged_config("strings1_2"),
                "--nclips", "3", "--seed", "1")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_ingest_real_wavs(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        t = np.arange(5 * 16000) / 16000
        ds.write_wav(src / "a.wav", 0.8 * np.sin(2 * np.pi * 440 * t))
        assert run_cli("prepare", "--input", str(src),
                       "--instrument", "synthetic",
                       "--out", str(tmp_path / "corpus")) == 0
        out = capsys.readouterr().out
        assert "manifest sha256" in out
        assert run_cli("lint", "--corpus", str(tmp_path / "corpus"),
                       "--out", str(tmp_path)) == 0

    def test_cached_features_are_those_of_the_stored_audio(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli("prepare", "--synthetic",
                       "--patch", packaged_config("strings1_2"),
                       "--nclips", "2", "--seed", "3", "--out", str(out)) == 0
        for record in ds.load_manifest(out / "manifest.json").records:
            audio, cached, _env = ds.load_clip(out, record)
            fresh = ft.extract_features(audio)
            for field in ("f0_hz", "confidence", "loudness_db"):
                assert np.array_equal(getattr(fresh, field),
                                      getattr(cached, field)), field

    def test_synthetic_requires_patch(self):
        assert run_cli("prepare", "--synthetic") == 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    assert run_cli("prepare", "--synthetic",
                   "--patch", packaged_config("strings1_2"),
                   "--nclips", "4", "--seed", "0",
                   "--out", str(root / "corpus")) == 0
    run = tr.RunConfig(corpus_dir=str(root / "corpus"),
                       patch_path=packaged_config("strings1_2"),
                       steps=4, batch=2, checkpoint_every=4, seed=0)
    (root / "run.json").write_text(run.to_json())
    return root


class TestTrainAndDownstream:
    def test_train_is_deterministic(self, workspace):
        args = ("train", "--config", str(workspace / "run.json"))
        assert run_cli(*args, "--out", str(workspace / "t1")) == 0
        assert run_cli(*args, "--out", str(workspace / "t2")) == 0
        assert dir_digest(workspace / "t1") == dir_digest(workspace / "t2")
        assert (workspace / "t1" / "checkpoint_00000004.ckpt").exists()

    def test_resynth_is_deterministic(self, workspace, tmp_path):
        t = np.arange(16000) / 16000
        wav = tmp_path / "in.wav"
        ds.write_wav(wav, 0.5 * np.sin(2 * np.pi * 330 * t))
        args = ("resynth",
                "--checkpoint", str(workspace / "t1" / "checkpoint_00000004.ckpt"),
                "--run", str(workspace / "t1" / "run.json"),
                "--input", str(wav))
        assert run_cli(*args, "--out", str(tmp_path / "r1")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "r2")) == 0
        assert ((tmp_path / "r1" / "in_resynth.wav").read_bytes()
                == (tmp_path / "r2" / "in_resynth.wav").read_bytes())

    def test_resynth_wrong_run_is_runtime_error(self, workspace, tmp_path):
        run = tr.RunConfig.from_json((workspace / "run.json").read_text())
        other = replace(run, seed=42)
        bad = tmp_path / "bad.json"
        bad.write_text(other.to_json())
        wav = tmp_path / "in.wav"
        ds.write_wav(wav, np.zeros(16000))
        assert run_cli(
            "resynth",
            "--checkpoint", str(workspace / "t1" / "checkpoint_00000004.ckpt"),
            "--run", str(bad), "--input", str(wav),
            "--out", str(tmp_path / "r")) == 2

    def test_eval_grid_deterministic_and_missing_cells(self, workspace,
                                                       tmp_path):
        # stage one cell under the expected naming; the others are absent
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        run_json = (workspace / "t1" / "run.json").read_text()
        (ckpts / "strings1_2.run.json").write_text(run_json)
        src = (workspace / "t1" / "checkpoint_00000004.ckpt").read_bytes()
        (ckpts / "strings1_2.ckpt").write_bytes(src)
        args = ("eval", "--grid", "ablation", "--instrument", "violin",
                "--checkpoints", str(ckpts),
                "--corpus", str(workspace / "corpus"))
        assert run_cli(*args, "--out", str(tmp_path / "e1")) == 2
        assert run_cli(*args, "--out", str(tmp_path / "e2")) == 2
        assert dir_digest(tmp_path / "e1") == dir_digest(tmp_path / "e2")
        table = (tmp_path / "e1" / "grid_ablation_violin.csv").read_text()
        assert "strings1_2,ok" in table
        assert "strings1,absent" in table

    def test_train_keeps_runconfig_seed_unless_given(self, workspace,
                                                     tmp_path):
        run = tr.RunConfig.from_json((workspace / "run.json").read_text())
        seeded = tmp_path / "seeded.json"
        seeded.write_text(replace(run, seed=5).to_json())
        small = ("train", "--config", str(seeded), "--steps", "1",
                 "--hidden", "8", "--blocks", "1")
        for extra, seed in (((), 5), (("--seed", "7"), 7)):
            out = tmp_path / f"seed{seed}"
            assert run_cli(*small, *extra, "--out", str(out)) == 0
            used = tr.RunConfig.from_json((out / "run.json").read_text())
            assert used.seed == seed
            tr.load_checkpoint(out / "checkpoint_00000001.ckpt", used)
        assert cli.build_parser().parse_args(["lint", "--corpus", "c"]).seed == 0

    @pytest.mark.parametrize("flag, value, field", [
        ("--hidden", "0", "hidden_channels"), ("--blocks", "0", "blocks"),
        ("--seed", "-1", "seed")])
    def test_out_of_range_run_value_exits_2_naming_the_field(
            self, workspace, tmp_path, capsys, flag, value, field):
        assert run_cli("train", "--config", str(workspace / "run.json"),
                       flag, value, "--out", str(tmp_path / "out")) == 2
        assert f"RunConfig.{field} must be" in capsys.readouterr().err

    def test_lint_clean_corpus(self, workspace, capsys):
        assert run_cli("lint", "--corpus", str(workspace / "corpus"),
                       "--out", str(workspace)) == 0
        assert "0 problems" in capsys.readouterr().out

    @pytest.mark.parametrize("where, key", [("record", "clip_id"),
                                            ("record", "bogus"),
                                            ("manifest", "seed")])
    def test_lint_malformed_manifest_is_runtime_error(self, workspace, tmp_path,
                                                      capsys, where, key):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        payload = json.loads((workspace / "corpus" / "manifest.json").read_text())
        entry = payload["records"][0] if where == "record" else payload
        if key in entry:
            del entry[key]
        else:
            entry[key] = 1
        (corpus / "manifest.json").write_text(json.dumps(payload))
        assert run_cli("lint", "--corpus", str(corpus)) == 2
        assert "manifest.json" in capsys.readouterr().err

    # one case per cached file kind train reads, features written on
    # another frame grid, a 0-d track, a track one frame short, and a clip
    # sidecar naming another rate or sample type or a count as a string
    @pytest.mark.parametrize("kind, key, value", [
        ("features.npz", "loudness", None), ("f32.json", "samples", None),
        ("envelopes.npz", "envelopes", None),
        ("features.npz", "sample_rate", 44100), ("features.npz", "hop", 147),
        ("features.npz", "confidence", 0.5), ("features.npz", "f0", "short"),
        ("features.npz", "hop", [64, 64]), ("features.npz", "version", [1]),
        ("features.npz", "sample_rate", "16000"),
        ("f32.json", "sample_rate", 44100), ("f32.json", "dtype", "int16"),
        ("f32.json", "samples", "64000")])
    def test_train_on_a_malformed_corpus_file_is_runtime_error(
            self, workspace, tmp_path, capsys, kind, key, value):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        manifest = ds.load_manifest(corpus / "manifest.json")
        record = manifest.split_records("train")[0]
        path = corpus / f"{record.clip_id}.{kind}"
        if kind == "f32.json":
            meta = json.loads(path.read_text())
            if value is None:
                del meta[key]
            else:
                meta[key] = value
            path.write_text(json.dumps(meta))
        else:
            with np.load(path) as data:
                arrays = dict(data)
            if value is None:
                del arrays[key]
            elif value == "short":
                arrays[key] = arrays[key][:-1]
            else:
                arrays[key] = np.asarray(value)
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
        assert run_cli("train", "--config", str(workspace / "run.json"),
                       "--corpus", str(corpus), "--steps", "1",
                       "--out", str(tmp_path / "out")) == 2
        assert path.name in capsys.readouterr().err

    def test_train_on_a_truncated_clip_exits_2_with_one_error_line(
            self, workspace, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        manifest = ds.load_manifest(corpus / "manifest.json")
        path = corpus / manifest.split_records("train")[-1].audio_path
        path.write_bytes(path.read_bytes()[:-4])
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "fmresynth.cli", "train",
             "--config", str(workspace / "run.json"), "--corpus", str(corpus),
             "--steps", "1", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: clip cache {path} is truncated"]

    def test_train_on_a_half_features_npz_exits_2_naming_it(
            self, workspace, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        manifest = ds.load_manifest(corpus / "manifest.json")
        path = corpus / manifest.split_records("train")[0].features_path
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        assert run_cli("train", "--config", str(workspace / "run.json"),
                       "--corpus", str(corpus), "--steps", "1",
                       "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: File is not a zip file\n")

    def stage_cell(self, workspace, ckpts):
        """Cell strings1_2 of the violin ablation grid in ckpts: an
        untrained small decoder."""
        run = replace(tr.RunConfig.from_json((workspace / "run.json").read_text()),
                      hidden_channels=8, blocks=2)
        model = tr.Model.build(run)
        ckpts.mkdir()
        (ckpts / "strings1_2.run.json").write_text(run.to_json())
        tr.save_checkpoint(ckpts / "strings1_2.ckpt", run, 0, model.params,
                           model.reverb_params, tr.AdamState())

    def test_eval_on_a_truncated_clip_exits_2_with_one_error_line(
            self, workspace, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        manifest = ds.load_manifest(corpus / "manifest.json")
        path = corpus / manifest.split_records("test")[-1].audio_path
        path.write_bytes(path.read_bytes()[:-4])
        self.stage_cell(workspace, tmp_path / "ckpts")
        before = running_workers()
        proc = run_cli_process(
            "eval", "--grid", "ablation", "--instrument", "violin",
            "--checkpoints", str(tmp_path / "ckpts"), "--corpus", str(corpus),
            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: clip cache {path} is truncated"]
        assert running_workers() <= before

    def test_prepare_and_eval_leave_no_worker(self, workspace, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        t = np.arange(5 * 16000) / 16000
        for name, freq in (("a", 330.0), ("b", 440.0)):
            ds.write_wav(src / f"{name}.wav", 0.8 * np.sin(2 * np.pi * freq * t))
        self.stage_cell(workspace, tmp_path / "ckpts")
        before = running_workers()
        proc = run_cli_process("prepare", "--input", str(src), "--instrument",
                               "synthetic", "--out", str(tmp_path / "corpus"))
        assert proc.returncode == 0, proc.stderr
        assert running_workers() <= before
        proc = run_cli_process(
            "eval", "--grid", "ablation", "--instrument", "violin",
            "--checkpoints", str(tmp_path / "ckpts"),
            "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2  # the grid's other cells are absent
        table = (tmp_path / "out" / "grid_ablation_violin.csv").read_text()
        assert "strings1_2,ok" in table
        assert running_workers() <= before

    @pytest.mark.parametrize("change", [{"bogus": 1}, {"steps": "10"}])
    def test_malformed_run_json_is_runtime_error(self, workspace, tmp_path,
                                                 capsys, change):
        payload = json.loads((workspace / "run.json").read_text())
        payload.update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        (ckpts / "strings1_2.run.json").write_text(bad.read_text())
        for argv in (("train", "--config", str(bad)),
                     ("resynth", "--checkpoint", str(tmp_path / "x.ckpt"),
                      "--run", str(bad), "--input", str(tmp_path / "x.wav")),
                     ("eval", "--grid", "ablation", "--instrument", "violin",
                      "--checkpoints", str(ckpts),
                      "--corpus", str(workspace / "corpus"))):
            assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
            assert "RunConfig" in capsys.readouterr().err

    def test_eval_names_the_malformed_run_json(self, workspace, tmp_path,
                                               capsys):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        payload = json.loads((workspace / "run.json").read_text())
        del payload["patch_path"]
        bad = ckpts / "strings1_2x2.run.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("eval", "--grid", "ablation", "--instrument", "violin",
                       "--checkpoints", str(ckpts),
                       "--corpus", str(workspace / "corpus"),
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err
        assert "missing keys ['patch_path']" in err[0]

    def test_resume_from_the_final_checkpoint_returns_it(self, workspace,
                                                         tmp_path, capsys):
        args = ("train", "--config", str(workspace / "run.json"),
                "--steps", "2", "--hidden", "8", "--blocks", "1",
                "--out", str(tmp_path))
        assert run_cli(*args) == 0
        final = tmp_path / "checkpoint_00000002.ckpt"
        log = (tmp_path / "loss_log.csv").read_bytes()
        capsys.readouterr()
        assert run_cli(*args, "--resume", str(final)) == 0
        assert capsys.readouterr().out == f"final checkpoint: {final}\n"
        assert (tmp_path / "loss_log.csv").read_bytes() == log


class TestManifestFields:
    """lint reads the manifest through the typed reader: a wrong-typed or
    missing field is one error line, exit 2, and the key sets are fixed."""

    def write(self, workspace, tmp_path, change):
        payload = json.loads((workspace / "corpus" / "manifest.json").read_text())
        change(payload)
        path = tmp_path / "corpus" / "manifest.json"
        path.parent.mkdir()
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("where, key, value", [
        ("manifest", "split_fractions", 5),
        ("record", "mean_confidence", "x"),
        ("manifest", "seed", True),
    ])
    def test_wrong_typed_field_exits_2_naming_it(self, workspace, tmp_path,
                                                 capsys, where, key, value):
        def change(payload):
            entry = payload["records"][0] if where == "record" else payload
            entry[key] = value

        path = self.write(workspace, tmp_path, change)
        assert run_cli("lint", "--corpus", str(path.parent)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert str(path) in err[0] and repr(key) in err[0]

    @pytest.mark.parametrize("key", ["version", "silence_threshold_db"])
    def test_manifest_without_a_required_key_is_refused(
            self, workspace, tmp_path, capsys, key):
        path = self.write(workspace, tmp_path, lambda p: p.pop(key))
        assert run_cli("lint", "--corpus", str(path.parent)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"missing keys [{key!r}]" in err

    def test_config_name_and_envelopes_path_may_be_absent(self, workspace,
                                                          tmp_path):
        def change(payload):
            del payload["config_name"]
            del payload["records"][0]["envelopes_path"]

        manifest = ds.load_manifest(self.write(workspace, tmp_path, change))
        assert manifest.config_name == ""
        assert manifest.records[0].envelopes_path == ""
        assert manifest.records[1].envelopes_path
