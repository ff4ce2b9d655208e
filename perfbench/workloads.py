"""The three benchmark workloads.

Each workload makes its inputs from a seed in ``setup``, repeats one fixed
unit of work per ``run_round`` and checks the program's outputs in
``check_round`` and ``check_final``. Only public functions of fmresynth are
called. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import time
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import fmresynth
from fmresynth import cli
from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import fmsynth as fm
from fmresynth import training as tr

CONFIGS = Path(fmresynth.__file__).parent / "configs"
CLIP_S = ds.CLIP_SECONDS
I_MAX = 2.0


class Workload:
    """One unit of work per round, identical on every round of a run."""

    name = ""

    def __init__(self, seed, work_dir, smoke):
        self.seed = seed
        self.work = Path(work_dir)
        self.smoke = smoke
        self.checks = []        # (name, passed)
        self.values = {}        # per-layer values from the output checks

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path


def _piecewise(rng, config, t_frames, breakpoints, lo, hi):
    """Random piecewise-linear envelopes [T, n_osc] inside [0, A_max]."""
    a_max = config.a_max(I_MAX)
    grid = np.linspace(0, t_frames - 1, breakpoints)
    env = np.zeros((t_frames, config.n_oscillators))
    for k in range(config.n_oscillators):
        env[:, k] = np.interp(np.arange(t_frames), grid,
                              rng.uniform(lo, hi, breakpoints) * a_max[k])
    return env


def _vibrato_f0(rng, t_frames, frame_rate, notes):
    """Seeded note sequence with 4.5-6.5 Hz, +-25 cent vibrato."""
    f0 = np.repeat(rng.uniform(196.0, 660.0, notes),
                   int(np.ceil(t_frames / notes)))[:t_frames]
    t = np.arange(t_frames) / frame_rate
    return f0 * 2.0 ** (0.25 / 12.0 * np.sin(2.0 * np.pi * rng.uniform(4.5, 6.5) * t))


class TrainB16(Workload):
    """training.train at batch 16 on a 16-clip strings1 synthetic corpus."""

    name = "train_b16"
    steps = 2

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.batch = 2 if smoke else 16
        self.hidden, self.blocks = (8, 2) if smoke else (128, 5)
        self.patch = CONFIGS / "strings1.fm"

    def setup(self, tag):
        corpus = self.fresh_dir(f"corpus-{tag}")
        config = fm.load_config(self.patch)
        ds.synth_corpus(config, self.batch, self.seed, corpus,
                        split_fractions=(1.0, 0.0, 0.0), i_max=I_MAX)
        self.run = tr.RunConfig(
            corpus_dir=str(corpus), patch_path=str(self.patch), i_max=I_MAX,
            steps=self.steps, batch=self.batch, seed=self.seed,
            checkpoint_every=self.steps, hidden_channels=self.hidden,
            blocks=self.blocks)

    def prepare_round(self):
        self.out = self.fresh_dir("train")

    def run_round(self):
        self.ckpt = tr.train(self.run, self.out)
        return {"ops": self.steps,
                "audio_s": self.steps * self.batch * CLIP_S}

    def check_round(self, _result):
        with open(self.out / "loss_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(r["train_loss"]) for r in rows]
        self.check("loss log has one row per step", len(rows) == self.steps)
        self.check("training losses are finite",
                   losses and all(np.isfinite(losses)))
        if len(losses) == self.steps:
            self.values["training.loss_ratio"] = losses[-1] / losses[0]

    def check_final(self):
        step, blobs = tr.load_checkpoint(self.ckpt, self.run)
        self.check("final checkpoint loads under its RunConfig digest",
                   step == self.steps and blobs)
        manifest = ds.load_manifest(Path(self.run.corpus_dir) / "manifest.json")
        self.check("lint_corpus reports no problems",
                   ds.lint_corpus(manifest, self.run.corpus_dir) == [])

    def summary(self, rounds):
        wall = np.median([r["wall_s"] for r in rounds])
        return {"train_clips_per_s": (self.steps * self.batch / wall, "clips/s"),
                "loss_ratio": (self.values.get("training.loss_ratio", 0.0), "ratio")}


class MatchFlute(Workload):
    """training.match_envelopes against a 4 s flute1 target with vibrato."""

    name = "match_flute"
    steps = 10

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.t_frames = 250 if smoke else ds.FRAMES_PER_CLIP
        if smoke:
            self.steps = 3

    def setup(self, _tag):
        rng = np.random.default_rng(self.seed)
        self.config = fm.load_config(CONFIGS / "flute1.fm")
        env = _piecewise(rng, self.config, self.t_frames, 8, 0.2, 0.8)
        self.f0 = _vibrato_f0(rng, self.t_frames, ds.SAMPLE_RATE / ds.HOP, 1)
        self.render_spec = fm.RenderSpec(f0_frames=self.f0)
        self.target = fm.render(self.config, env, self.render_spec,
                                i_max=I_MAX).values

    def prepare_round(self):
        pass

    def run_round(self):
        self.env, self.history = tr.match_envelopes(
            self.config, self.target, self.f0, i_max=I_MAX, steps=self.steps,
            seed=self.seed)
        return {"ops": self.steps,
                "audio_s": self.steps * len(self.target) / ds.SAMPLE_RATE}

    def check_round(self, _result):
        h = self.history
        self.check("one finite loss per match step",
                   len(h) == self.steps and all(np.isfinite(h)))
        a_max = self.config.a_max(I_MAX)
        self.check("matched envelopes stay within [0, A_max]",
                   np.all(self.env >= 0.0) and np.all(self.env <= a_max))
        if len(h) == self.steps:
            self.values["training.loss_ratio"] = h[-1] / h[0]

    def check_final(self):
        pred = fm.render(self.config, self.env, self.render_spec,
                         i_max=I_MAX).values
        lsd = ev.log_spectral_distance(self.target, pred)
        self.check("matched render has a finite spectral distance",
                   np.isfinite(lsd))
        self.values["evaluation.lsd_db"] = lsd

    def summary(self, rounds):
        wall = np.median([r["wall_s"] for r in rounds])
        return {"match_steps_per_s": (self.steps / wall, "steps/s"),
                "loss_ratio": (self.values.get("training.loss_ratio", 0.0), "ratio")}


class IngestResynth(Workload):
    """`fmresynth prepare` on stereo 44.1 kHz wavs, then evaluate_checkpoint
    over every kept clip."""

    name = "ingest_resynth"
    rate = 44100
    hop = 147          # 300 frames per second at 44.1 kHz

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir, smoke)
        self.n_wavs = 1 if smoke else 2
        self.hidden, self.blocks = (8, 2) if smoke else (128, 5)
        self.patch = CONFIGS / "strings1.fm"

    def _phrase(self, rng, config, seconds):
        """A bowed phrase: three notes with vibrato, attack and release, and
        three 75 ms dropouts of digital silence, where pitch tracking finds
        no signal (f0 = 0) inside an otherwise voiced clip."""
        t_frames = int(seconds * self.rate / self.hop)
        frame_rate = self.rate / self.hop
        f0 = _vibrato_f0(rng, t_frames, frame_rate, 3)
        env = _piecewise(rng, config, t_frames, 6, 0.3, 0.9)
        t = np.arange(t_frames) / frame_rate
        level = np.minimum(1.0, t / 0.08) * np.minimum(1.0, (t[-1] - t) / 0.15)
        for k in config.carrier_indices:
            env[:, k] *= level
        spec = fm.RenderSpec(sample_rate=self.rate, hop=self.hop, f0_frames=f0)
        audio = 0.5 * fm.render(config, env, spec, i_max=I_MAX).values
        gap = int(0.075 * self.rate)
        for start in rng.integers(self.rate // 2, len(audio) - self.rate // 2, 3):
            audio[start: start + gap] = 0.0
        return audio

    def _take(self, rng, config):
        """One take: phrase, silence, a breath-noise stretch, two phrases
        split by a short silence. Silence is stripped by prepare; clips
        dominated by noise fall under the confidence threshold."""
        silence = lambda s: np.zeros(int(s * self.rate))
        if self.smoke:
            parts = [self._phrase(rng, config, 8.5)]
        else:
            parts = [self._phrase(rng, config, 8.5), silence(0.7),
                     rng.normal(0.0, 0.06, int(2.0 * self.rate)),
                     self._phrase(rng, config, 5.6), silence(0.4),
                     self._phrase(rng, config, 4.3)]
        mono = np.concatenate(parts)
        stereo = np.stack([0.9 * mono, 1.1 * mono], axis=1)
        return (np.clip(stereo, -1.0, 1.0) * 32767.0).astype(np.int16)

    def setup(self, tag):
        rng = np.random.default_rng(self.seed)
        config = fm.load_config(self.patch)
        self.wavs = self.fresh_dir(f"wavs-{tag}")
        self.wavs.mkdir(parents=True)
        self.input_s = 0.0
        for i in range(self.n_wavs):
            take = self._take(rng, config)
            wavfile.write(self.wavs / f"take{i}.wav", self.rate, take)
            self.input_s += len(take) / self.rate
        self.corpus = self.work / "corpus"
        self.run = tr.RunConfig(
            corpus_dir=str(self.corpus), patch_path=str(self.patch),
            i_max=I_MAX, steps=1, batch=1, seed=self.seed,
            hidden_channels=self.hidden, blocks=self.blocks)
        _spec, params, reverb_params = tr.build_model(self.run, config)
        self.ckpt = self.work / f"init-{tag}.ckpt"
        tr.save_checkpoint(self.ckpt, self.run, 0, params, reverb_params,
                           tr.AdamState())

    def prepare_round(self):
        self.fresh_dir("corpus")

    def run_round(self):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["prepare", "--input", str(self.wavs),
                             "--instrument", "violin", "--seed", str(self.seed),
                             "--out", str(self.corpus)])
        if code != 0:
            raise RuntimeError(f"fmresynth prepare exited with {code}")
        prepared = time.perf_counter()
        self.manifest = ds.load_manifest(self.corpus / "manifest.json")
        self.reports = [
            ev.evaluate_checkpoint(self.run, self.ckpt, self.corpus, split=split)
            for split in ("train", "valid", "test")
            if self.manifest.split_records(split)]
        done = time.perf_counter()
        kept = len(self.manifest.records)
        return {"ops": self.n_wavs + kept, "audio_s": self.input_s,
                "prepare_s": prepared - start, "resynth_s": done - prepared,
                "kept_s": kept * CLIP_S}

    def check_round(self, _result):
        per_clip = [m for r in self.reports for m in r.per_clip]
        self.check("every kept clip is evaluated",
                   len(per_clip) == len(self.manifest.records) > 0)
        self.check("resynthesis metrics are finite",
                   all(np.isfinite(m[k]) for m in per_clip
                       for k in ("mss", "lsd_db", "f0_rmse_cents")))
        if per_clip:
            self.values["evaluation.lsd_db"] = float(
                np.mean([m["lsd_db"] for m in per_clip]))

    def check_final(self):
        self.check("lint_corpus reports no problems",
                   ds.lint_corpus(self.manifest, self.corpus) == [])
        unvoiced = 0
        lengths_ok = True
        for record in self.manifest.records:
            audio, track, _ = ds.load_clip(self.corpus, record)
            out = ev.resynthesize(self.run, self.ckpt, audio, track)
            lengths_ok &= len(out) == len(audio) and bool(np.all(np.isfinite(out)))
            unvoiced += int(np.sum(track.f0_hz == 0.0))
        self.check("resynth output has the input length and is finite",
                   lengths_ok)
        self.values["features.unvoiced_frames"] = unvoiced

    def summary(self, rounds):
        prep = np.median([r["prepare_s"] for r in rounds])
        resyn = np.median([r["resynth_s"] for r in rounds])
        return {"prepare_x_realtime": (self.input_s / prep, "s/s"),
                "resynth_x_realtime": (rounds[-1]["kept_s"] / resyn, "s/s"),
                "resynth_lsd_db": (self.values.get("evaluation.lsd_db", 0.0), "dB")}


WORKLOADS = {w.name: w for w in (TrainB16, MatchFlute, IngestResynth)}
