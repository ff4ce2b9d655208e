"""Causal temporal convolutional decoder.

Maps a [T, 2] pitch/loudness conditioning sequence to per-oscillator
envelope channels. Residual blocks hold two weight-normalized dilated
causal convolutions (shared dilation 2^block), each followed by ReLU and
dropout, with a 1x1 skip projection where channel counts differ. The
output head is a 1x1 conv into a sigmoid gated per channel by A_max:
1 for carriers, I_max for modulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


IN_CHANNELS = 2  # pitch, loudness
KERNEL = 3
DILATION_BASE = 2  # block b dilates by DILATION_BASE ** b
DROPOUT_P = 0.5  # after every hidden ReLU, in train mode only


@dataclass(frozen=True)
class TcnSpec:
    out_channels: int = 6
    hidden_channels: int = 128
    blocks: int = 5
    i_max: float = 2.0


def receptive_field(spec):
    """Frames of past context seen by one output frame (two convs per block)."""
    dilations = sum(DILATION_BASE ** b for b in range(spec.blocks))
    return 1 + (KERNEL - 1) * 2 * dilations


def _conv_layers(spec):
    """(name, c_in, c_out, kernel, dilation) for every conv in the net."""
    layers = []
    for b in range(spec.blocks):
        c_in = IN_CHANNELS if b == 0 else spec.hidden_channels
        d = DILATION_BASE ** b
        layers.append((f"block{b}.conv1", c_in, spec.hidden_channels, KERNEL, d))
        layers.append((f"block{b}.conv2", spec.hidden_channels, spec.hidden_channels,
                       KERNEL, d))
        if c_in != spec.hidden_channels:
            layers.append((f"block{b}.skip", c_in, spec.hidden_channels, 1, 1))
    layers.append(("out", spec.hidden_channels, spec.out_channels, 1, 1))
    return layers


def init_weights(spec, seed):
    """Seeded parameter set: weight-normalized direction v, gain g, bias b.

    v is uniform in +-1/sqrt(fan_in); g is set to the per-filter norm of v
    so the initial effective weight equals v itself.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, c_in, c_out, k, _d in _conv_layers(spec):
        bound = 1.0 / np.sqrt(c_in * k)
        v = rng.uniform(-bound, bound, size=(c_out, c_in, k))
        g = np.sqrt(np.sum(v * v, axis=(1, 2), keepdims=True))
        params[f"{name}.v"] = ad.parameter(v)
        params[f"{name}.g"] = ad.parameter(g)
        params[f"{name}.b"] = ad.parameter(np.zeros((c_out, 1)))
    return params


def parameter_count(params):
    return sum(int(p.values.size) for p in params.values())


def _normalized_weight(params, name):
    v = params[f"{name}.v"]
    g = params[f"{name}.g"]
    sq = ad.reduce_sum(ad.mul(v, v), axis=(1, 2), keepdims=True)
    norm = ad.exp(ad.mul(ad.constant(0.5), ad.log(ad.add(sq, ad.constant(1e-24)))))
    return ad.mul(v, ad.div(g, norm))


def _conv(params, name, x, dilation):
    w = _normalized_weight(params, name)
    return ad.conv1d_dilated(x, w, params[f"{name}.b"], dilation=dilation)


def decode(spec, params, config, cond, mode="inference", seed=0):
    """Run the decoder; returns envelope Tensor of shape [n_osc, T].

    cond: [T, 2] array with entries in [0, 1]. mode "train" applies
    seeded dropout; "inference" is deterministic.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"unknown mode {mode!r}")
    if spec.out_channels != config.n_oscillators:
        raise ValueError(
            f"decoder has {spec.out_channels} output channels but config "
            f"{config.name!r} has {config.n_oscillators} oscillators"
        )
    cv = np.asarray(cond, dtype=np.float64)
    if cv.ndim != 2 or cv.shape[1] != IN_CHANNELS:
        raise ValueError(f"conditioning must be [T, {IN_CHANNELS}], got {cv.shape}")
    if cv.shape[0] < 1:
        raise ValueError("conditioning must have at least one frame")
    if np.any(cv < 0.0) or np.any(cv > 1.0):
        raise ValueError("conditioning values outside [0, 1]")

    rng = np.random.default_rng(seed)
    train = mode == "train"
    x = ad.constant(cv.T)  # [C, T] channels-first
    for b in range(spec.blocks):
        d = DILATION_BASE ** b
        h = _conv(params, f"block{b}.conv1", x, d)
        h = ad.relu(h)
        if train:
            h = ad.dropout(h, DROPOUT_P, rng)
        h = _conv(params, f"block{b}.conv2", h, d)
        h = ad.relu(h)
        if train:
            h = ad.dropout(h, DROPOUT_P, rng)
        if f"block{b}.skip.v" in params:
            skip = _conv(params, f"block{b}.skip", x, 1)
        else:
            skip = x
        x = ad.add(h, skip)
        if not np.all(np.isfinite(x.values)):
            raise FloatingPointError(f"NaN activations after block {b}")
    logits = _conv(params, "out", x, 1)
    gate = ad.sigmoid(logits)
    a_max = config.a_max(spec.i_max)[:, None]
    return ad.mul(gate, ad.constant(a_max))
