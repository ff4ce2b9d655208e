"""Differentiable convolutional room response.

The wet impulse response is a learnable 1-second noise tensor shaped by a
learnable exponential decay and a learnable wet gain; the dry path is the
identity. Convolution runs in the frequency domain, so the whole module
is linear in the input audio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import SAMPLE_RATE

IR_SECONDS = 1.0


@dataclass
class ReverbParams:
    ir_raw: Tensor        # [SAMPLE_RATE] learnable raw impulse response
    decay: Tensor         # scalar, positive via softplus
    wet_gain: Tensor      # scalar


def init_reverb(seed):
    """Seeded init: tiny noise IR, softplus(decay) ~= 4, wet_gain 0.5."""
    rng = np.random.default_rng(seed)
    ir = rng.standard_normal(int(SAMPLE_RATE * IR_SECONDS)) * 1e-3
    decay0 = float(np.log(np.expm1(4.0)))  # softplus(decay0) == 4
    return ReverbParams(
        ir_raw=ad.parameter(ir),
        decay=ad.parameter(decay0),
        wet_gain=ad.parameter(0.5),
    )


def reverb_param_dict(params):
    """Named parameter tensors, for the optimizer and checkpoints."""
    return {
        "reverb.ir_raw": params.ir_raw,
        "reverb.decay": params.decay,
        "reverb.wet_gain": params.wet_gain,
    }


def effective_ir(params):
    """wet[n] = wet_gain * ir_raw[n] * exp(-softplus(decay) * n / sr), wet[0] = 0."""
    n = params.ir_raw.values.shape[0]
    t = np.arange(n) / SAMPLE_RATE
    # stable softplus: relu(d) + log(1 + exp(-|d|))
    d = params.decay
    softplus = ad.add(ad.relu(d),
                      ad.log(ad.add(ad.exp(ad.neg(ad.abs_(d))), ad.constant(1.0))))
    envelope = ad.exp(ad.mul(ad.neg(softplus), ad.constant(t)))
    wet = ad.mul(params.wet_gain, ad.mul(params.ir_raw, envelope))
    return ad.concat([ad.constant(np.zeros(1)), ad.slice_(wet, slice(1, None))])


def apply_reverb(audio, params):
    """audio + (wet IR (*) audio), truncated to the input length."""
    if not isinstance(audio, Tensor):
        audio = Tensor(np.asarray(audio, dtype=np.float64))
    for name, p in (("decay", params.decay), ("wet_gain", params.wet_gain),
                    ("ir_raw", params.ir_raw)):
        if not np.all(np.isfinite(p.values)):
            raise ValueError(f"reverb parameter {name} is not finite")
    wet = effective_ir(params)
    return ad.add(audio, ad.fft_convolve(audio, wet))
