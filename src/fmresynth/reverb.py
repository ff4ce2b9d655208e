"""Differentiable convolutional room response.

The wet impulse response is a learnable 1-second noise tensor shaped by a
learnable exponential decay and a learnable wet gain; the dry path is the
identity. Convolution runs in the frequency domain, so the whole module
is linear in the input audio.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import SAMPLE_RATE

IR_SECONDS = 1.0


def init_reverb(seed):
    """Seeded init by checkpoint name: "reverb.ir_raw" a tiny noise IR of
    SAMPLE_RATE taps, "reverb.decay" with softplus(decay) ~= 4 and
    "reverb.wet_gain" 0.5 (both scalars)."""
    rng = np.random.default_rng(seed)
    ir = rng.standard_normal(int(SAMPLE_RATE * IR_SECONDS)) * 1e-3
    decay0 = float(np.log(np.expm1(4.0)))  # softplus(decay0) == 4
    return {
        "reverb.ir_raw": ad.parameter(ir),
        "reverb.decay": ad.parameter(decay0),
        "reverb.wet_gain": ad.parameter(0.5),
    }


def effective_ir(params):
    """wet[n] = wet_gain * ir_raw[n] * exp(-softplus(decay) * n / sr), wet[0] = 0."""
    ir_raw = params["reverb.ir_raw"]
    n = ir_raw.values.shape[0]
    t = np.arange(n) / SAMPLE_RATE
    # stable softplus: relu(d) + log(1 + exp(-|d|))
    d = params["reverb.decay"]
    softplus = ad.add(ad.relu(d), ad.log(ad.add(
        ad.exp(ad.mul(ad.abs_(d), ad.constant(-1.0))), ad.constant(1.0))))
    envelope = ad.exp(ad.mul(ad.mul(softplus, ad.constant(-1.0)), ad.constant(t)))
    wet = ad.mul(params["reverb.wet_gain"], ad.mul(ir_raw, envelope))
    # the dry path is the first tap, so a mask holds the wet one at 0
    return ad.mul(wet, ad.constant(np.arange(n) > 0))


def apply_reverb(audio, params):
    """audio + (wet IR (*) audio), truncated to the input length."""
    if not isinstance(audio, Tensor):
        audio = Tensor(np.asarray(audio, dtype=np.float64))
    for name, p in params.items():
        if not np.all(np.isfinite(p.values)):
            raise ValueError(f"reverb parameter {name} is not finite")
    wet = effective_ir(params)
    return ad.add(audio, ad.fft_convolve(audio, wet))
