"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (run pytest with -s to see
them inline). The training and sound-matching criteria run real
optimizations and take several minutes each.
"""

import csv
import hashlib
import sys
import time

import numpy as np
import pytest

from fmresynth import autodiff as ad
from fmresynth import cli
from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import features as ft
from fmresynth import fmsynth as fm
from fmresynth import tcn
from fmresynth import training as tr

from conftest import packaged_config, piecewise_envelopes


def report(number, name, ok, detail=""):
    line = f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_autodiff_soundness():
    t0 = time.time()
    worst = {}
    for op in ad.OP_KINDS:
        worst[op] = max(ad.gradient_check(op, seed=s) for s in range(10))
    elapsed = time.time() - t0
    bad = {op: e for op, e in worst.items() if e >= 1e-4}
    report(1, "autodiff soundness", not bad and elapsed < 60,
           f"worst {max(worst.values()):.2e}, {elapsed:.0f}s, "
           f"{len(worst)} ops")


def test_criterion_02_fm_sideband_oracle():
    t0 = time.time()
    config = fm.FmConfig(name="pair", oscillators=(
        fm.Oscillator(ratio=10.0, carrier=True),
        fm.Oscillator(ratio=1.0, modulates=(0,)),
    ))
    f0, sr = 200.0, 16000
    t_frames = 250  # 1 second
    ok = True
    worst = 0.0
    for i_mod in (0.5, 1.0, 1.5):
        env = np.column_stack([np.ones(t_frames), np.full(t_frames, i_mod)])
        spec = fm.RenderSpec(f0_frames=np.full(t_frames, f0))
        audio = fm.render(config, env, spec, i_max=2.0).values
        # analyze the second half; the envelope is constant so only the
        # first upsampled frame differs
        seg = audio[sr // 2:]
        mags = np.abs(np.fft.rfft(seg)) / (len(seg) / 2)
        bin_hz = sr / len(seg)
        for n in (1, 2, 3):
            expected = abs(fm.bessel_j(n, i_mod))
            for sign in (+1, -1):
                measured = mags[int(round((10 * f0 + sign * n * f0) / bin_hz))]
                rel = abs(measured - expected) / max(expected, 1e-12)
                worst = max(worst, rel)
                if rel > 0.01:
                    ok = False
    elapsed = time.time() - t0
    report(2, "FM sideband oracle", ok and elapsed < 10,
           f"worst rel err {worst:.4%}, {elapsed:.1f}s")


def test_criterion_03_monotonic_region():
    grid = np.arange(0.0, 1.83 + 1e-9, 0.01)
    j1 = np.array([fm.bessel_j(1, x) for x in grid])
    j0 = np.array([fm.bessel_j(0, x) for x in grid])
    inc = bool(np.all(np.diff(j1) > 0))
    dec = bool(np.all(np.diff(j0) < 0))
    report(3, "monotonic sideband region", inc and dec,
           f"J1 strictly increasing: {inc}, J0 strictly decreasing: {dec}")


@pytest.mark.slow
def test_criterion_04_sound_matching():
    t0 = time.time()
    config = fm.load_config(packaged_config("strings1_2x2"))
    t_frames = 250
    env_true = piecewise_envelopes(config, t_frames, seed=7)
    f0 = np.full(t_frames, 311.0)
    spec = fm.RenderSpec(f0_frames=f0)
    target = fm.render(config, env_true, spec, i_max=2.0).values
    _env, history = tr.match_envelopes(config, target, f0, i_max=2.0,
                                       steps=3000, seed=0)
    elapsed = time.time() - t0
    ratio = history[-1] / history[0]
    report(4, "sound matching", ratio < 0.05 and elapsed < 600,
           f"loss ratio {ratio:.4f} after 3000 steps, {elapsed:.0f}s")


def test_criterion_05_decoder_contract():
    spec = tcn.TcnSpec(out_channels=4)
    config = fm.load_config(packaged_config("strings1_2x2"))
    params = tcn.init_weights(spec, seed=0)

    rf = tcn.receptive_field(spec)
    rf_ok = rf == 125

    # exact causality: flipping frame t changes nothing before t and
    # nothing at or beyond t + rf
    rng = np.random.default_rng(0)
    cond = rng.random((300, 2))
    base = tcn.decode(spec, params, config, cond).values
    probe = 90
    bumped_cond = cond.copy()
    bumped_cond[probe] = 1.0 - bumped_cond[probe]
    bumped = tcn.decode(spec, params, config, bumped_cond).values
    changed = np.nonzero(np.any(base != bumped, axis=0))[0]
    causal_ok = changed.min() >= probe and changed.max() <= probe + rf - 1

    a_max = config.a_max(spec.i_max)
    bounds_ok = all(
        np.all(base[k] > 0.0) and np.all(base[k] < a_max[k])
        for k in range(4)
    )

    n_params = tcn.parameter_count(tcn.init_weights(tcn.TcnSpec(), seed=0))
    count_ok = 3e5 <= n_params <= 5e5

    report(5, "decoder contract",
           rf_ok and causal_ok and bounds_ok and count_ok,
           f"rf {rf}, causal window [{changed.min()}, {changed.max()}], "
           f"bounds ok {bounds_ok}, {n_params} params")


def test_criterion_06_pipeline_arithmetic():
    frames_ok = (ft.extract_features(np.zeros(64000)).n_frames == 1000
                 and ds.FRAMES_PER_CLIP == 1000)
    thresholds_ok = (ds.CONFIDENCE_THRESHOLDS["violin"] == 0.85
                     and ds.CONFIDENCE_THRESHOLDS["trumpet"] == 0.85
                     and ds.CONFIDENCE_THRESHOLDS["flute"] == 0.80)
    splits_ok = True
    for n in (8, 10, 16, 33, 100):
        labels = ds.assign_splits(n, seed=0)
        want_train = int(np.floor(0.75 * n))
        want_valid = int(np.floor(0.125 * n))
        want_test = n - want_train - want_valid
        splits_ok &= (labels.count("train") == want_train
                      and labels.count("valid") == want_valid
                      and labels.count("test") == want_test)
    report(6, "pipeline arithmetic",
           frames_ok and thresholds_ok and splits_ok,
           f"frames ok {frames_ok}, thresholds ok {thresholds_ok}, "
           f"splits ok {splits_ok}")


@pytest.mark.slow
def test_criterion_07_overfit_smoke(tmp_path):
    t0 = time.time()
    patch = packaged_config("strings1_2")
    config = fm.load_config(patch)
    ds.synth_corpus(config, 1, seed=0, out_dir=tmp_path / "corpus",
                    split_fractions=(1.0, 0.0, 0.0))
    run = tr.RunConfig(corpus_dir=str(tmp_path / "corpus"), patch_path=patch,
                       steps=2000, batch=1, checkpoint_every=1000, seed=0)
    tr.train(run, tmp_path / "straight")
    rows = list(csv.DictReader(
        (tmp_path / "straight" / "loss_log.csv").read_text().splitlines()))
    losses = np.array([float(r["train_loss"]) for r in rows])
    ratio = losses[-1] / losses[0]
    finite_ok = bool(np.all(np.isfinite(losses))) and len(losses) == 2000

    tr.train(run, tmp_path / "resumed",
             resume_from=tmp_path / "straight" / "checkpoint_00001000.ckpt")
    straight = {r["step"]: r["train_loss"] for r in rows
                if int(r["step"]) >= 1000}
    resumed = {r["step"]: r["train_loss"] for r in csv.DictReader(
        (tmp_path / "resumed" / "loss_log.csv").read_text().splitlines())}
    resume_ok = resumed == straight
    elapsed = time.time() - t0
    report(7, "overfit smoke",
           ratio < 0.2 and finite_ok and resume_ok and elapsed < 900,
           f"loss ratio {ratio:.4f}, finite {finite_ok}, "
           f"resume exact {resume_ok}, {elapsed:.0f}s")


def test_criterion_08_schedule_and_clipping():
    sched_ok = (tr.lr_at(0) == 3e-4
                and tr.lr_at(9999) == 3e-4
                and tr.lr_at(10000) == 3e-4 * 0.98
                and tr.lr_at(120000) == 3e-4 * 0.98 ** 12)
    g = {"a": np.full(25, 2.0)}  # global norm 10
    clipped = tr.clip_gradients(g)
    norm = float(np.sqrt(sum(np.sum(v * v) for v in clipped.values())))
    clip_ok = abs(norm - 2.0) < 1e-12
    report(8, "schedule and clipping", sched_ok and clip_ok,
           f"schedule exact {sched_ok}, clipped norm {norm:.15f}")


def test_criterion_09_metric_identities():
    sr = 16000
    t = np.arange(2 * sr) / sr
    x = np.sin(2 * np.pi * 440.0 * t)
    ident = ev.compute_metrics(x, x.copy())
    zeros_ok = ident == {"mss": 0.0, "lsd_db": 0.0, "f0_rmse_cents": 0.0}
    shifted = np.sin(2 * np.pi * 440.0 * 2 ** (1 / 12) * t)
    cents = ev.f0_rmse_cents(x, shifted)
    cents_ok = abs(cents - 100.0) <= 5.0
    report(9, "metric identities", zeros_ok and cents_ok,
           f"identical-signal metrics zero: {zeros_ok}, "
           f"semitone = {cents:.2f} cents")


def test_criterion_10_cli_determinism(tmp_path):
    def digest(root):
        h = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def both(label, *argv):
        """Run a subcommand twice into sibling dirs; require identical bytes."""
        outs = []
        codes = []
        for rep in ("a", "b"):
            out = tmp_path / f"{label}_{rep}"
            codes.append(cli.main(list(argv) + ["--out", str(out)]))
            outs.append(digest(out) if out.exists() else "")
        return codes[0] == codes[1] and outs[0] == outs[1], codes[0]

    patch = packaged_config("strings1_2")
    results = {}

    results["prepare"], _ = both(
        "prepare", "prepare", "--synthetic", "--patch", patch,
        "--nclips", "3", "--seed", "1")
    results["render"], _ = both(
        "render", "render", "--patch", patch, "--f0", "440",
        "--seconds", "0.5", "--seed", "0")
    results["analyze"] = True
    for rep in ("a", "b"):
        out = tmp_path / f"analyze_{rep}"
        out.mkdir()
        assert cli.main(["analyze", "--modindex", "1.0",
                         "--csv", str(out / "t.csv"),
                         "--out", str(out)]) == 0
    results["analyze"] = (digest(tmp_path / "analyze_a")
                          == digest(tmp_path / "analyze_b"))

    run = tr.RunConfig(corpus_dir=str(tmp_path / "prepare_a"),
                       patch_path=patch, steps=4, batch=2,
                       checkpoint_every=4, seed=0)
    (tmp_path / "run.json").write_text(run.to_json())
    results["train"], _ = both(
        "train", "train", "--config", str(tmp_path / "run.json"))

    wav = tmp_path / "probe.wav"
    t = np.arange(16000) / 16000
    ds.write_wav(wav, 0.5 * np.sin(2 * np.pi * 330.0 * t))
    ckpt = tmp_path / "train_a" / "checkpoint_00000004.ckpt"
    results["resynth"], _ = both(
        "resynth", "resynth", "--checkpoint", str(ckpt),
        "--run", str(tmp_path / "train_a" / "run.json"),
        "--input", str(wav))

    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / "strings1_2.run.json").write_text(
        (tmp_path / "train_a" / "run.json").read_text())
    (ckpts / "strings1_2.ckpt").write_bytes(ckpt.read_bytes())
    ok_eval, code_eval = both(
        "eval", "eval", "--grid", "ablation", "--instrument", "violin",
        "--checkpoints", str(ckpts), "--corpus", str(tmp_path / "prepare_a"))
    # missing grid cells exit 2 by design; determinism is what matters here
    results["eval"] = ok_eval and code_eval == 2

    results["lint"] = True
    for rep in ("a", "b"):
        assert cli.main(["lint", "--corpus", str(tmp_path / "prepare_a"),
                         "--out", str(tmp_path / f"lint_{rep}")]) == 0

    bad = [k for k, v in results.items() if not v]
    report(10, "CLI determinism", not bad,
           "all 7 subcommands byte-identical" if not bad
           else f"non-deterministic: {bad}")
