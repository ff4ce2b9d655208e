"""Short-time spectral analysis and the multi-scale spectral loss.

The loss sums, over a set of analysis windows, the L1 distance between
linear and log magnitude spectrograms of target and prediction. Norms are
element sums, not means, so reported values are comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DEFAULT_WINDOWS = (64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class MssSpec:
    windows: tuple = DEFAULT_WINDOWS
    overlap: float = 0.75
    log_epsilon: float = 1e-6

    def __post_init__(self):
        if tuple(sorted(self.windows)) != tuple(self.windows):
            raise ValueError("windows must be sorted ascending")
        for w in self.windows:
            if self.hop(w) <= 0 or w % self.hop(w) != 0:
                raise ValueError(f"hop must divide window for window {w}")

    def hop(self, window):
        return int(window * (1.0 - self.overlap))


def target_spectrograms(target, spec=MssSpec()):
    """Precompute the target's magnitude spectrograms for repeated use.

    Training loops evaluate mss_loss against a fixed target many times;
    passing the result here as `target` skips recomputing its STFTs.
    """
    target = np.asarray(target, dtype=np.float64)
    return {
        "n_samples": target.shape[0],
        "spec": spec,
        "mags": {w: ad.constant(ad.stft_magnitude(
            ad.constant(target), w, spec.hop(w)).values)
            for w in spec.windows},
    }


def mss_loss(target, prediction, spec=MssSpec()):
    """Multi-scale spectral reconstruction loss (scalar Tensor).

    sum_i ( ||S_i - S^_i||_1 + ||log(S_i + eps) - log(S^_i + eps)||_1 )

    target may be raw audio or the output of target_spectrograms.
    """
    cached = isinstance(target, dict)
    if cached and target["spec"] != spec:
        raise ValueError("cached target spectrograms use a different MssSpec")
    if not cached and not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=np.float64))
    if not isinstance(prediction, Tensor):
        prediction = Tensor(np.asarray(prediction, dtype=np.float64))
    n_target = target["n_samples"] if cached else target.values.shape[0]
    if (n_target,) != prediction.values.shape:
        raise ValueError(
            f"length mismatch: target ({n_target},) vs "
            f"prediction {prediction.values.shape}"
        )
    eps = spec.log_epsilon
    total = None
    for window in spec.windows:
        hop = spec.hop(window)
        s_t = (target["mags"][window] if cached
               else ad.stft_magnitude(target, window, hop))
        s_p = ad.stft_magnitude(prediction, window, hop)
        lin = ad.reduce_sum(ad.abs_(ad.sub(s_t, s_p)))
        log_t = ad.log(ad.add(s_t, ad.constant(eps)))
        log_p = ad.log(ad.add(s_p, ad.constant(eps)))
        lg = ad.reduce_sum(ad.abs_(ad.sub(log_t, log_p)))
        term = ad.add(lin, lg)
        total = term if total is None else ad.add(total, term)
    return total
