"""Command-line entry point.

Subcommands: prepare, train, resynth, render, analyze, eval, lint.
Every subcommand accepts --seed, --config and --out; their help says which
subcommands read each. All randomness flows from --seed, which train takes
from the RunConfig unless it is given.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import fmsynth as fm
from . import training as tr

MONOTONIC_LIMIT = 1.83  # modulation index above which sidebands stop being monotonic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for prepare and train; the others ignore it")
    parser.add_argument("--config", type=str, default=None,
                        help="RunConfig JSON, read by train only (resynth "
                             "reads --run, eval <cell>.run.json)")
    parser.add_argument("--out", type=str, default=".",
                        help="output directory (or file path for render); "
                             "analyze and lint ignore it")


def build_parser():
    parser = _Parser(prog="fmresynth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="preprocess a corpus of wav files")
    _add_common(p)
    p.add_argument("--input", type=str, help="directory of wav files")
    p.add_argument("--instrument", type=str, default="violin",
                   choices=sorted(ds.CONFIDENCE_THRESHOLDS))
    p.add_argument("--synthetic", action="store_true",
                   help="generate a synthetic oracle corpus instead")
    p.add_argument("--patch", type=str, help="FM config for --synthetic")
    p.add_argument("--nclips", type=int, default=8)

    p = sub.add_parser("render", help="render a patch to a wav file")
    _add_common(p)
    p.add_argument("--patch", type=str, required=True)
    p.add_argument("--f0", type=str, default="440",
                   help="fundamental in Hz, or a path to an npz with an "
                        "'f0' array at 250 Hz frame rate")
    p.add_argument("--envelopes", type=str, default=None,
                   help="npz with an 'envelopes' [T, n_osc] array; defaults "
                        "to 1 for carriers and 0 for modulators")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--imax", type=str, default=None,
                   choices=tuple(tr.I_MAX_CHOICES))

    p = sub.add_parser("analyze", help="print an FM sideband table")
    _add_common(p)
    p.add_argument("--modindex", type=float, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--csv", type=str, default=None)

    p = sub.add_parser("train", help="train decoder + reverb on a corpus")
    _add_common(p)
    p.set_defaults(seed=None)  # keep the RunConfig's seed unless --seed is given
    p.add_argument("--corpus", type=str, help="override RunConfig corpus dir")
    p.add_argument("--patch", type=str, help="override RunConfig patch path")
    p.add_argument("--imax", type=str, default=None,
                   choices=tuple(tr.I_MAX_CHOICES))
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--resume", type=str, default=None)

    p = sub.add_parser("resynth", help="resynthesize audio from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--run", type=str, required=True,
                   help="RunConfig JSON written by train")
    p.add_argument("--input", type=str, required=True, help="input wav")

    p = sub.add_parser("eval", help="evaluate checkpoints over a grid")
    _add_common(p)
    p.add_argument("--grid", type=str, required=True, choices=("imax", "ablation"))
    p.add_argument("--instrument", type=str, required=True,
                   choices=sorted(ev.ABLATION_VARIANTS))
    p.add_argument("--checkpoints", type=str, required=True,
                   help="directory holding <cell>.ckpt + <cell>.run.json")
    p.add_argument("--corpus", type=str, required=True)

    p = sub.add_parser("lint", help="verify corpus cache invariants")
    _add_common(p)
    p.add_argument("--corpus", type=str, required=True)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_prepare(args):
    out = Path(args.out)
    if args.synthetic:
        if not args.patch:
            raise UsageError("--synthetic requires --patch")
        if args.nclips < 1:
            raise UsageError(f"--nclips must be at least 1, got {args.nclips}")
        config = fm.load_config(args.patch)
        manifest = ds.synth_corpus(config, args.nclips, args.seed, out)
    else:
        if not args.input:
            raise UsageError("prepare requires --input (or --synthetic)")
        if not Path(args.input).is_dir():
            raise UsageError(f"input directory {args.input} does not exist")
        manifest = ds.ingest(args.input, args.instrument, args.seed, out)
    counts = {s: len(manifest.split_records(s)) for s in ("train", "valid", "test")}
    digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    print(f"clips: train={counts['train']} valid={counts['valid']} "
          f"test={counts['test']}")
    print(f"manifest sha256: {digest}")
    return 0


def _cmd_render(args):
    config = fm.load_config(args.patch)
    if _is_number(args.f0):
        # chained comparisons are False for NaN
        if not 0 <= float(args.f0) < np.inf:
            raise UsageError(f"--f0 must be finite and non-negative, got {args.f0}")
        frames = args.seconds * ds.SAMPLE_RATE / ds.HOP
        if not 0.5 < frames < np.inf:  # round(0.5) is 0
            raise UsageError(f"--seconds must be finite and give at least one "
                             f"{ds.HOP}-sample frame, got {args.seconds}")
        t_frames = int(round(frames))
        f0 = np.full(t_frames, float(args.f0))
    else:
        f0 = ds.load_npz_array(args.f0, "f0", 1)
        t_frames = len(f0)
    if args.envelopes:
        env = ds.load_npz_array(args.envelopes, "envelopes", 2)
        if env.shape[0] != t_frames:
            raise UsageError(
                f"envelope file has {env.shape[0]} frames, expected {t_frames}"
            )
    else:
        env = np.tile([1.0 if o.carrier else 0.0 for o in config.oscillators],
                      (t_frames, 1))
    i_max = tr.I_MAX_CHOICES[args.imax] if args.imax else None
    audio = fm.render(config, env, fm.RenderSpec(f0_frames=f0), i_max=i_max).values
    out = Path(args.out)
    if out.suffix != ".wav":
        out.mkdir(parents=True, exist_ok=True)
        out = out / f"{config.name}.wav"
    ds.write_wav(out, audio)
    print(f"wrote {out} ({len(audio)} samples)")
    return 0


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def _cmd_analyze(args):
    if not 0 <= args.modindex <= fm.BESSEL_MAX_X:
        raise UsageError(f"--modindex must be between 0 and {fm.BESSEL_MAX_X}, "
                         f"got {args.modindex}")
    if args.nmax < 0:
        raise UsageError(f"--nmax must be non-negative, got {args.nmax}")
    amps = fm.sideband_spectrum(args.modindex, args.nmax)
    rows = []
    for n in range(-args.nmax, args.nmax + 1):
        val = amps[n + args.nmax]
        if args.modindex == 0 and n != 0:
            continue
        rows.append((n, val, abs(val)))
    header = f"{'n':>4}  {'J_n(I)':>12}  {'|J_n(I)|':>12}"
    print(f"I = {args.modindex}")
    if args.modindex >= MONOTONIC_LIMIT:
        print(f"note: I >= {MONOTONIC_LIMIT}, outside the strictly monotonic "
              "sideband region")
    print(header)
    for n, val, mag in rows:
        print(f"{n:>4}  {val:>12.5f}  {mag:>12.5f}")
    if args.csv:
        lines = ["n,j_n,abs_j_n"]
        lines += [f"{n},{val:.10g},{mag:.10g}" for n, val, mag in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return 0


# train flag (argparse dest) -> the RunConfig field it overrides
_RUN_OVERRIDES = {
    "corpus": "corpus_dir", "patch": "patch_path", "steps": "steps",
    "batch": "batch", "checkpoint_every": "checkpoint_every",
    "hidden": "hidden_channels", "blocks": "blocks", "seed": "seed",
}


def _load_run(args):
    if not args.config:
        raise UsageError("train requires --config with a RunConfig JSON")
    run = tr.RunConfig.from_json(Path(args.config).read_text(), args.config)
    overrides = {field: getattr(args, flag)
                 for flag, field in _RUN_OVERRIDES.items()
                 if getattr(args, flag) is not None}
    if args.imax:
        overrides["i_max"] = tr.I_MAX_CHOICES[args.imax]
    return replace(run, **overrides)


def _cmd_train(args):
    run = _load_run(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(run.to_json() + "\n")
    ckpt = tr.train(run, out, resume_from=args.resume)
    print(f"final checkpoint: {ckpt}")
    return 0


def _cmd_resynth(args):
    run = tr.RunConfig.from_json(Path(args.run).read_text(), args.run)
    audio, rate = ds.read_wav(args.input)
    audio = ds.resample_to(audio, rate)
    # trim to a whole number of frames
    audio = audio[: (len(audio) // ds.HOP) * ds.HOP]
    pred = ev.resynthesize(run, args.checkpoint, audio)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / (Path(args.input).stem + "_resynth.wav")
    ds.write_wav(target, pred)
    print(f"wrote {target}")
    return 0


def _cmd_eval(args):
    if args.grid == "imax":
        names = [f"imax_{name}" for name in tr.I_MAX_CHOICES]
    else:
        names = ev.ABLATION_VARIANTS[args.instrument]
    table_path = Path(args.out) / f"grid_{args.grid}_{args.instrument}.csv"
    try:
        ev.run_grid(names, args.checkpoints, args.corpus, table_path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial table written to {table_path}")
        return 2
    print(f"table written to {table_path}")
    return 0


def _cmd_lint(args):
    manifest = ds.load_manifest(Path(args.corpus) / "manifest.json")
    problems = ds.lint_corpus(manifest, args.corpus)
    for p in problems:
        print(p)
    print(f"{len(manifest.records)} records, {len(problems)} problems")
    return 0 if not problems else 2


_COMMANDS = {
    "prepare": _cmd_prepare,
    "render": _cmd_render,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "resynth": _cmd_resynth,
    "eval": _cmd_eval,
    "lint": _cmd_lint,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
