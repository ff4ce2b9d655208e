"""Joint optimization of decoder and reverb under the MSS objective.

Adam with a staircase learning-rate schedule (x0.98 every 10k steps),
global-norm gradient clipping at 2, per-step loss logging and periodic
checkpoints in a versioned binary container. Runs are deterministic given
the seed: dropout streams and minibatch order are pure functions of
(seed, step), so resuming from a checkpoint reproduces a straight run.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset as ds
from . import features as ft
from . import fmsynth as fm
from . import reverb as rv
from . import spectral as sp
from . import tcn

CHECKPOINT_MAGIC = b"FMRS"
CHECKPOINT_VERSION = 4

# the fixed training recipe
LR0 = 3e-4
LR_DECAY = 0.98
LR_DECAY_EVERY = 10000
CLIP_NORM = 2.0

I_MAX_CHOICES = {"2": 2.0, "2pi": 2.0 * np.pi, "4pi": 4.0 * np.pi}

# JSON value types accepted for each RunConfig field annotation
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: str
    patch_path: str
    i_max: float = 2.0
    steps: int = 120000
    batch: int = 16
    seed: int = 0
    checkpoint_every: int = 10000
    hidden_channels: int = 128
    blocks: int = 5

    def __post_init__(self):
        for name in ("i_max", "steps", "batch", "checkpoint_every",
                     "hidden_channels", "blocks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"RunConfig.{name} must be positive")
        if self.seed < 0:
            raise ValueError("RunConfig.seed must be non-negative")

    def digest(self):
        """SHA-256 over the settings that shape the weights: every field but
        corpus_dir, with the patch file's bytes in place of its path, so the
        same run named from another directory loads its own checkpoints."""
        payload = asdict(self)
        del payload["corpus_dir"]
        payload["patch_path"] = hashlib.sha256(
            Path(self.patch_path).read_bytes()).hexdigest()
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).digest()

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse to_json output; raises ValueError on a missing or unknown
        key or a value of the wrong type."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("RunConfig JSON is not an object")
        known = {f.name: f for f in fields(cls)}
        missing = sorted(n for n, f in known.items()
                         if f.default is MISSING and n not in payload)
        unknown = sorted(payload.keys() - known.keys())
        if missing or unknown:
            raise ValueError(f"RunConfig JSON has missing keys {missing} "
                             f"and unknown keys {unknown}")
        for name, value in payload.items():
            kind = known[name].type  # annotations are strings here
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
                raise ValueError(f"RunConfig.{name} must be {kind}, got {value!r}")
        return cls(**payload)


def lr_at(step):
    """Staircase schedule: LR0 * LR_DECAY ** floor(step / LR_DECAY_EVERY)."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return LR0 * LR_DECAY ** (step // LR_DECAY_EVERY)


def clip_gradients(grads):
    """Scale the whole gradient set so its global L2 norm is <= CLIP_NORM."""
    total = 0.0
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient")
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm <= CLIP_NORM:
        return grads
    scale = CLIP_NORM / norm
    return {k: g * scale for k, g in grads.items()}


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's defaults


def adam_step(params, grads, state, lr):
    """Standard bias-corrected Adam update, in place on params."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            state.v[name] = np.zeros_like(p.values)
        v = state.v[name]
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - _BETA1 ** t)
        v_hat = v / (1.0 - _BETA2 ** t)
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + _EPS)


# ---------------------------------------------------------------------------
# checkpoint container
#
# magic(4) | version u32 | digest(32) | step u64 | n_blobs u32 |
# per blob: name_len u16 | name utf-8 | ndim u8 | dims u32... | f64 LE data |
# crc32 u32 of every byte before it
# Blobs are ordered by name, so save -> load -> save is byte-identical.

def save_checkpoint(path, run, step, params, reverb_params, adam):
    blobs = {}
    for name, p in {**params, **reverb_params}.items():
        blobs[f"param/{name}"] = np.atleast_1d(np.asarray(p.values, dtype=np.float64))
    for name, m in adam.m.items():
        blobs[f"adam_m/{name}"] = np.atleast_1d(m)
    for name, v in adam.v.items():
        blobs[f"adam_v/{name}"] = np.atleast_1d(v)
    blobs["adam_t"] = np.array([float(adam.t)])

    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
           run.digest(), struct.pack("<Q", step),
           struct.pack("<I", len(blobs))]
    for name in sorted(blobs):
        arr = blobs[name]
        enc = name.encode()
        out.append(struct.pack("<H", len(enc)))
        out.append(enc)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype("<f8").tobytes())
    data = b"".join(out)
    data += struct.pack("<I", zlib.crc32(data))
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def load_checkpoint(path, run=None):
    """Returns (step, blobs dict). Verifies magic, version, checksum, length
    and, when a RunConfig is given, its digest."""
    data = memoryview(Path(path).read_bytes())
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    offset = 4

    def take(n):
        nonlocal offset
        if offset + n > len(data):
            raise ValueError(f"{path}: checkpoint truncated at byte {len(data)}, "
                             f"expected at least {offset + n}")
        offset += n
        return data[offset - n: offset]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {version} unsupported")
    if len(data) < offset + 4 or zlib.crc32(data[:-4]) != struct.unpack(
            "<I", data[-4:])[0]:
        raise ValueError(f"{path}: checkpoint checksum mismatch "
                         "(truncated or corrupted)")
    data = data[:-4]
    digest = bytes(take(32))
    if run is not None and digest != run.digest():
        raise ValueError(f"{path}: checkpoint was written by a different RunConfig")
    (step,) = unpack("<Q")
    (n_blobs,) = unpack("<I")
    blobs = {}
    for _ in range(n_blobs):
        (name_len,) = unpack("<H")
        try:
            name = bytes(take(name_len)).decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: blob name is not UTF-8") from None
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            blobs[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # a shape numpy cannot hold
            raise ValueError(f"{path}: blob {name!r}: {exc}") from None
    return step, blobs


# ---------------------------------------------------------------------------
# model and training loop

def build_model(run, config):
    spec = tcn.TcnSpec(out_channels=config.n_oscillators, i_max=run.i_max,
                       hidden_channels=run.hidden_channels, blocks=run.blocks)
    params = tcn.init_weights(spec, seed=run.seed)
    reverb_params = rv.init_reverb(seed=run.seed + 1)
    return spec, params, reverb_params


@dataclass
class Model:
    """The DDX7 chain with its weights: conditioning -> decoder -> FM render
    -> reverb. Training, validation and resynthesis all run ``forward``."""
    config: fm.FmConfig
    spec: tcn.TcnSpec
    params: dict
    reverb_params: dict

    @classmethod
    def build(cls, run):
        """Freshly initialised weights for the run's patch and seed."""
        config = fm.load_config(run.patch_path)
        return cls(config, *build_model(run, config))

    @classmethod
    def load(cls, run, checkpoint_path):
        """The weights of a checkpoint written under ``run``."""
        model = cls.build(run)
        model.restore(run, checkpoint_path)
        return model

    def named_params(self):
        """Decoder and reverb parameter tensors by checkpoint name."""
        return {**self.params, **self.reverb_params}

    def restore(self, run, checkpoint_path, adam=None):
        """Load weights, and the optimizer state into ``adam`` when given,
        from a checkpoint written under ``run``; returns its step."""
        step, blobs = load_checkpoint(checkpoint_path, run)

        def blob(key, shape):
            arr = blobs.get(key)
            if arr is None or arr.size != int(np.prod(shape)):
                raise ValueError(f"{checkpoint_path}: blob {key!r} is missing "
                                 "or has the wrong size")
            return arr.reshape(shape)

        # copy into the freshly initialised arrays: keeping the blob arrays
        # instead pins them above the freed ones, and a model held across
        # an evaluation then costs ~10 MB of peak RSS on top of its size
        named = self.named_params()
        for name, p in named.items():
            np.copyto(p.values, blob(f"param/{name}", p.values.shape))
        if adam is not None:
            adam.t = int(blob("adam_t", (1,))[0])
            for name, p in named.items():
                for key, moments in (("adam_m", adam.m), ("adam_v", adam.v)):
                    if f"{key}/{name}" in blobs:
                        moments[name] = blob(f"{key}/{name}", p.values.shape)
        return step

    def forward(self, track, mode="inference", seed=0):
        """(envelopes [n_osc, T], dry audio, wet audio) Tensors for a
        FeatureTrack; mode "train" applies dropout seeded by ``seed`` and
        records the tape, "inference" records none."""
        params, reverb_params = self.params, self.reverb_params
        if mode == "inference":
            params = {k: ad.constant(p.values) for k, p in params.items()}
            reverb_params = {k: ad.constant(p.values)
                             for k, p in reverb_params.items()}
        env = tcn.decode(self.spec, params, self.config, ft.normalize(track),
                         mode=mode, seed=seed)
        dry = fm.render(self.config, env, fm.RenderSpec(f0_frames=track.f0_hz),
                        i_max=self.spec.i_max)
        wet = rv.apply_reverb(dry, reverb_params)
        return env, dry, wet


def _validation_loss(model, clips):
    total = 0.0
    for audio, track in clips:
        _env, _dry, wet = model.forward(track)
        total += sp.mss_loss(audio, wet).item()
    return total / len(clips)


def train(run, out_dir, resume_from=None):
    """Run the optimization; returns the final checkpoint path.

    Writes checkpoints and an append-only CSV loss log (columns: step, lr,
    train_loss, valid_loss) under out_dir.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = ds.load_manifest(Path(run.corpus_dir) / "manifest.json")
    model = Model.build(run)
    all_params = model.named_params()
    adam = AdamState()

    start_step = 0
    if resume_from is not None:
        start_step = model.restore(run, resume_from, adam)

    train_records = manifest.split_records("train")
    if not train_records:
        raise ValueError("train split is empty")
    valid_records = manifest.split_records("valid")

    cache = {}
    for r in train_records + valid_records:
        audio, track, _env = ds.load_clip(run.corpus_dir, r)
        cache[r.clip_id] = (sp.target_spectrograms(audio), track)
    valid_clips = [cache[r.clip_id] for r in valid_records]

    batches_per_epoch = max(1, int(np.ceil(len(train_records) / run.batch)))
    log_path = out_dir / "loss_log.csv"
    mode = "a" if start_step > 0 and log_path.exists() else "w"
    last_ckpt = None
    with open(log_path, mode) as logfh:
        if mode == "w":
            logfh.write("step,lr,train_loss,valid_loss\n")
        for step in range(start_step, run.steps):
            epoch = step // batches_per_epoch
            batch_idx = step % batches_per_epoch
            batch = ds.minibatch(manifest, "train", run.batch,
                                 seed=run.seed, epoch=epoch)[batch_idx]

            # back-propagate each clip as soon as its loss is known, so a
            # step holds one clip's tape whatever the batch size; the leaf
            # grads accumulate the batch mean in batch order
            for p in all_params.values():
                p.zero_grad()
            scale = ad.constant(1.0 / len(batch))
            total = 0.0
            for j, record in enumerate(batch):
                audio, track = cache[record.clip_id]
                _env, _dry, wet = model.forward(
                    track, mode="train", seed=_dropout_seed(run.seed, step, j))
                loss = sp.mss_loss(audio, wet)
                value = loss.item()
                if not np.isfinite(value):
                    raise FloatingPointError(
                        f"non-finite loss at step {step}; last checkpoint: {last_ckpt}"
                    )
                total += value
                ad.backward(ad.mul(loss, scale))
                del _env, _dry, wet, loss  # free this clip's tape
            train_loss = total * scale.item()
            grads = {name: (p.grad if p.grad is not None
                            else np.zeros_like(p.values))
                     for name, p in all_params.items()}
            grads = clip_gradients(grads)
            lr = lr_at(step)
            adam_step(all_params, grads, adam, lr)

            valid_loss = ""
            is_ckpt = (step + 1) % run.checkpoint_every == 0 or step + 1 == run.steps
            if is_ckpt:
                if valid_clips:
                    valid_loss = f"{_validation_loss(model, valid_clips):.10g}"
                last_ckpt = out_dir / f"checkpoint_{step + 1:08d}.ckpt"
                save_checkpoint(last_ckpt, run, step + 1, model.params,
                                model.reverb_params, adam)
            logfh.write(f"{step},{lr:.10g},{train_loss:.10g},{valid_loss}\n")
    return last_ckpt


def _dropout_seed(seed, step, clip_index):
    return (seed * 1000003 + step) * 97 + clip_index


def match_envelopes(config, target_audio, f0_frames, i_max=2.0,
                    steps=3000, lr=0.1, lr_half_every=300, seed=0):
    """Directly fit envelope frames to a target by gradient descent on MSS.

    Optimizes unconstrained logits gated to (0, A_max) per channel with a
    sigmoid, so the rendered envelopes always satisfy the level bounds.
    The L1 spectral terms leave Adam circling a noise floor proportional
    to the step size, so the rate is halved every lr_half_every steps.
    Returns (envelopes [T, n_osc], loss history).
    """
    t_frames = len(f0_frames)
    render_spec = fm.RenderSpec(f0_frames=np.asarray(f0_frames, dtype=np.float64))
    target = sp.target_spectrograms(target_audio)
    a_max = config.a_max(i_max)[:, None]
    rng = np.random.default_rng(seed)
    z = ad.parameter(rng.normal(0.0, 0.01, size=(config.n_oscillators, t_frames)))
    adam = AdamState()
    history = []
    for step in range(steps):
        env = ad.mul(ad.sigmoid(z), ad.constant(a_max))
        pred = fm.render(config, env, render_spec, i_max=i_max)
        loss = sp.mss_loss(target, pred)
        history.append(loss.item())
        z.zero_grad()
        ad.backward(loss)
        adam_step({"z": z}, {"z": z.grad}, adam,
                  lr * 0.5 ** (step // lr_half_every))
    env = 1.0 / (1.0 + np.exp(-z.values)) * config.a_max(i_max)[:, None]
    return env.T, history
