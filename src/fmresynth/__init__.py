"""Differentiable FM resynthesis: fit constrained FM patches to audio.

The package couples a small reverse-mode autodiff engine with a DX7-style
FM renderer, a causal temporal convolutional decoder, a trainable FFT
reverb and a multi-scale spectral objective, plus the corpus pipeline and
training loop that tie them together.
"""

from .autodiff import Tensor, backward, check_gradients, gradient_check
from .dataset import CorpusManifest, ingest, synth_corpus, load_manifest
from .evaluation import (compute_metrics, evaluate_checkpoint,
                         log_spectral_distance, f0_rmse_cents, resynthesize)
from .features import (FeatureTrack, a_weighted_loudness, estimate_f0,
                       extract_features, normalize)
from .fmsynth import (ConfigError, FmConfig, Oscillator, RenderSpec,
                      bessel_j, load_config, parse_config, render,
                      serialize_config, sideband_spectrum)
from .reverb import apply_reverb, init_reverb
from .spectral import mss_loss
from .tcn import TcnSpec, decode, init_weights, parameter_count, receptive_field
from .training import (AdamState, RunConfig, adam_step, clip_gradients,
                       load_checkpoint, lr_at, match_envelopes,
                       save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "check_gradients", "gradient_check",
    "CorpusManifest", "ingest", "synth_corpus", "load_manifest",
    "compute_metrics", "evaluate_checkpoint", "log_spectral_distance",
    "f0_rmse_cents", "resynthesize",
    "FeatureTrack", "a_weighted_loudness", "estimate_f0", "extract_features",
    "normalize",
    "ConfigError", "FmConfig", "Oscillator", "RenderSpec",
    "bessel_j", "load_config", "parse_config", "render",
    "serialize_config", "sideband_spectrum",
    "apply_reverb", "init_reverb",
    "mss_loss",
    "TcnSpec", "decode", "init_weights", "parameter_count", "receptive_field",
    "AdamState", "RunConfig", "adam_step", "clip_gradients",
    "load_checkpoint", "lr_at", "match_envelopes", "save_checkpoint", "train",
]
