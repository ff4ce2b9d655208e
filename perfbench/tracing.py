"""Span tracer for the traced benchmark run.

The tracer measures fmresynth from outside: it replaces public functions
on the fmresynth modules with timing wrappers, so calls made between
modules (which always go through the module attribute) are recorded as
spans. Unwrapped work, such as elementwise autodiff ops, counts toward the
self time of the module that called it.

Autodiff backward time is attributed to op kinds by walking the loss graph
just before ``autodiff.backward`` runs and wrapping every node's backward
closure. The same walk gives the exact tape size per step.

Spans stay in memory and are written as JSON lines by ``write``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from fmresynth import autodiff as ad
from fmresynth import cli, tcn
from fmresynth import dataset as ds
from fmresynth import evaluation as ev
from fmresynth import features as ft
from fmresynth import fmsynth as fm
from fmresynth import reverb as rv
from fmresynth import spectral as sp
from fmresynth import training as tr

MODULES = {
    "autodiff": ad, "tcn": tcn, "fmsynth": fm, "reverb": rv, "spectral": sp,
    "features": ft, "dataset": ds, "training": tr, "evaluation": ev,
    "cli": cli,
}

# Functions replaced by timing wrappers, per module. autodiff.backward is
# wrapped separately because it also walks the tape.
WRAPPED = {
    "autodiff": ("conv1d_dilated", "stft_magnitude", "fft_convolve",
                 "linear_upsample", "dropout"),
    "tcn": ("decode",),
    "fmsynth": ("render", "load_config"),
    "reverb": ("apply_reverb",),
    "spectral": ("mss_loss", "target_spectrograms"),
    "features": ("extract_features", "estimate_f0", "a_weighted_loudness"),
    "dataset": ("read_wav", "resample_to", "strip_silence", "chop_clips",
                "load_clip", "synth_corpus", "ingest", "minibatch"),
    "training": ("train", "match_envelopes", "clip_gradients", "adam_step",
                 "save_checkpoint", "load_checkpoint"),
    "evaluation": ("evaluate_checkpoint", "resynthesize", "compute_metrics"),
    "cli": ("main",),
}

NAMED_OPS = WRAPPED["autodiff"]

# Tape node kinds reported one by one; every other kind is folded into
# "other". "leaf" covers constants and parameters.
TAPE_KINDS = ("add", "mul", "sub", "div", "sin", "exp", "log", "abs",
              "relu", "sigmoid", "scale_shift", "reduce_sum", "slice",
              "concat", "conv1d_dilated", "stft_magnitude", "fft_convolve",
              "linear_upsample", "dropout", "leaf", "other")

# Timed functions reported as <name>_s; (module, function) pairs.
TIMED = (
    ("tcn", "decode"), ("fmsynth", "render"), ("reverb", "apply_reverb"),
    ("spectral", "mss_loss"), ("spectral", "target_spectrograms"),
    ("features", "extract_features"), ("features", "estimate_f0"),
    ("features", "a_weighted_loudness"),
    ("dataset", "read_wav"), ("dataset", "resample_to"),
    ("dataset", "strip_silence"), ("dataset", "load_clip"),
    ("dataset", "synth_corpus"),
    ("training", "clip_gradients"), ("training", "adam_step"),
    ("training", "save_checkpoint"), ("training", "load_checkpoint"),
    ("evaluation", "resynthesize"), ("evaluation", "compute_metrics"),
    ("cli", "main"),
)

# Values the workload itself supplies from its output checks.
WORKLOAD_VALUES = ("features.unvoiced_frames", "training.loss_ratio",
                   "evaluation.lsd_db")


def metric_names():
    """Every per-layer metric name, in report order."""
    names = ["autodiff.backward_s", "autodiff.tape_nodes", "autodiff.tape_mb"]
    for op in NAMED_OPS:
        names += [f"autodiff.{op}.fwd_s", f"autodiff.{op}.bwd_s",
                  f"autodiff.{op}.calls"]
    names.append("autodiff.other.bwd_s")
    for kind in TAPE_KINDS:
        names += [f"autodiff.tape.{kind}.nodes", f"autodiff.tape.{kind}.mb"]
    names += [f"{mod}.{fn}_s" for mod, fn in TIMED]
    names += ["tcn.decode_calls", "fmsynth.load_config_calls",
              "fmsynth.load_config_calls_per_clip", "dataset.clips_kept_ratio",
              "training.step_s_p50", "training.step_s_p90",
              "training.data_wait_s", "training.load_checkpoint_calls",
              "evaluation.checkpoint_loads_per_clip", "cli.nonzero_exits"]
    names += list(WORKLOAD_VALUES)
    names += [f"{mod}.self_s" for mod in MODULES]
    names += ["bench.self_s", "trace.tape_walk_s", "trace.overhead_ratio",
              "trace.spans"]
    return names


def metric_unit(name):
    if name.endswith("_s") or "_s_p" in name:
        return "s"
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("_db"):
        return "dB"
    if "ratio" in name or "per_clip" in name:
        return "ratio"
    return "count"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    workload: str
    run: str


class Tracer:
    """Records spans around calls into fmresynth while installed."""

    def __init__(self, workload, run_id):
        self.workload = workload
        self.run_id = run_id
        self.spans = []
        self.phase = "setup"
        self.installed = False
        self._stack = []
        self._originals = {}
        self._t0 = time.perf_counter()
        self.bwd_s = defaultdict(float)
        self.tape_nodes = Counter()
        self.tape_bytes = Counter()
        self.counts = Counter()

    # -- installation -----------------------------------------------------

    def install(self):
        if self.installed:
            return
        for mod_name, fns in WRAPPED.items():
            module = MODULES[mod_name]
            for fn_name in fns:
                original = getattr(module, fn_name)
                self._originals[(module, fn_name)] = original
                setattr(module, fn_name,
                        self._wrap(f"{mod_name}.{fn_name}", original))
        original = ad.backward
        self._originals[(ad, "backward")] = original
        ad.backward = self._wrap_backward(original)
        self.installed = True

    def uninstall(self):
        for (module, fn_name), original in self._originals.items():
            setattr(module, fn_name, original)
        self._originals.clear()
        self.installed = False

    @contextmanager
    def span(self, name):
        """Span around benchmark code; records only while installed."""
        if not self.installed:
            yield
            return
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = Span(sid, name, start - self._t0, end - self._t0,
                               parent, self.phase, self.workload, self.run_id)

    def _wrap(self, name, fn):
        after = {
            "dataset.chop_clips": lambda r: self.counts.update(chopped=len(r)),
            "dataset.ingest": lambda r: self.counts.update(kept=len(r.records)),
            "cli.main": lambda r: self.counts.update(nonzero_exits=int(r != 0)),
        }.get(name)

        def wrapper(*args, **kwargs):
            sid = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_backward(self, fn):
        def backward(loss):
            sid = self._open()
            start = time.perf_counter()
            self._walk_tape(loss)
            self._close(sid, "trace.tape_walk", start)
            sid = self._open()
            start = time.perf_counter()
            try:
                return fn(loss)
            finally:
                self._close(sid, "autodiff.backward", start)

        backward.__wrapped__ = fn
        return backward

    def _walk_tape(self, loss):
        """Count the tape by kind and time each node's backward closure."""
        nodes, kinds_bytes = Counter(), Counter()
        seen = set()
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            kind = node._op or "leaf"
            if kind not in TAPE_KINDS:
                kind = "other"
            nodes[kind] += 1
            kinds_bytes[kind] += node.values.nbytes
            if node._backward_fn is not None:
                node._backward_fn = self._timed_closure(node._backward_fn,
                                                        node._op)
            stack.extend(node._parents)
        # one step's tape; identical on every step of a workload
        self.tape_nodes, self.tape_bytes = nodes, kinds_bytes

    def _timed_closure(self, fn, op):
        acc = self.bwd_s

        def closure(g):
            start = time.perf_counter()
            out = fn(g)
            acc[op] += time.perf_counter() - start
            return out

        return closure

    # -- reporting ----------------------------------------------------------

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(asdict(s)) + "\n")

    def metrics(self, n_setups, n_rounds, workload_values, overhead_ratio):
        """Per-layer metrics. Times and calls are per set-up plus per round:
        a function's set-up total over n_setups plus its round total over
        n_rounds, so work moved between the two phases stays visible."""
        spans = [s for s in self.spans if s is not None]
        per = {"setup": max(n_setups, 1), "round": max(n_rounds, 1)}
        total_s, calls = Counter(), Counter()
        children_s = Counter()
        for s in spans:
            total_s[s.name] += (s.end - s.start) / per[s.phase]
            calls[s.name] += 1 / per[s.phase]
            if s.parent is not None:
                children_s[s.parent] += s.end - s.start
        self_s = Counter()
        for s in spans:
            module = s.name.split(".", 1)[0]
            self_s[module] += (s.end - s.start - children_s[s.id]) / per[s.phase]

        out = {"autodiff.backward_s": total_s["autodiff.backward"],
               "autodiff.tape_nodes": sum(self.tape_nodes.values()),
               "autodiff.tape_mb": sum(self.tape_bytes.values()) / 1e6}
        rounds = per["round"]
        for op in NAMED_OPS:
            out[f"autodiff.{op}.fwd_s"] = total_s[f"autodiff.{op}"]
            out[f"autodiff.{op}.bwd_s"] = self.bwd_s[op] / rounds
            out[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
        out["autodiff.other.bwd_s"] = sum(
            v for k, v in self.bwd_s.items() if k not in NAMED_OPS) / rounds
        for kind in TAPE_KINDS:
            out[f"autodiff.tape.{kind}.nodes"] = self.tape_nodes[kind]
            out[f"autodiff.tape.{kind}.mb"] = self.tape_bytes[kind] / 1e6
        for mod, fn in TIMED:
            out[f"{mod}.{fn}_s"] = total_s[f"{mod}.{fn}"]

        clips = calls["evaluation.resynthesize"]

        def per_clip(name):
            n = self._calls_under(name, "evaluation.evaluate_checkpoint", spans)
            return n / rounds / clips if clips else 0.0

        out["tcn.decode_calls"] = calls["tcn.decode"]
        out["fmsynth.load_config_calls"] = calls["fmsynth.load_config"]
        out["fmsynth.load_config_calls_per_clip"] = per_clip("fmsynth.load_config")
        out["dataset.clips_kept_ratio"] = (
            self.counts["kept"] / self.counts["chopped"]
            if self.counts["chopped"] else 0.0)
        steps, wait = self._step_times(spans)
        out["training.step_s_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        out["training.step_s_p90"] = float(np.percentile(steps, 90)) if steps else 0.0
        out["training.data_wait_s"] = wait / rounds
        out["training.load_checkpoint_calls"] = calls["training.load_checkpoint"]
        out["evaluation.checkpoint_loads_per_clip"] = per_clip(
            "training.load_checkpoint")
        out["cli.nonzero_exits"] = self.counts["nonzero_exits"]
        for name in WORKLOAD_VALUES:
            out[name] = workload_values.get(name, 0.0)
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_s[mod]
        out["bench.self_s"] = self_s["bench"]
        out["trace.tape_walk_s"] = total_s["trace.tape_walk"]
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.spans"] = len(spans)
        return out

    def _calls_under(self, name, ancestor, spans):
        by_id = {s.id: s for s in spans}
        n = 0
        for s in spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and by_id[p].name != ancestor:
                p = by_id[p].parent
            n += p is not None
        return n

    def _step_times(self, spans):
        """Gaps between successive minibatch calls inside each train call
        (the last step runs to the end of train), and the time train spent
        waiting for data: its prologue up to the first minibatch plus the
        minibatch calls themselves."""
        steps, wait = [], 0.0
        for t in (s for s in spans if s.name == "training.train"):
            batches = sorted((s for s in spans
                              if s.name == "dataset.minibatch" and s.parent == t.id),
                             key=lambda s: s.start)
            if not batches:
                continue
            starts = [b.start for b in batches] + [t.end]
            steps += list(np.diff(starts))
            wait += batches[0].start - t.start
            wait += sum(b.end - b.start for b in batches)
        return steps, wait
