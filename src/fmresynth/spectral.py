"""Short-time spectral analysis and the multi-scale spectral loss.

The loss sums, over a set of analysis windows, the L1 distance between
linear and log magnitude spectrograms of target and prediction; each
window is one ``autodiff.spectral_l1`` op. Norms are element sums, not
means, so reported values are comparable across runs.
The windows, their 75 % overlap and the log epsilon are those of the DDSP
multi-scale spectral loss and are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

WINDOWS = (64, 128, 256, 512, 1024, 2048)
HOPS = {w: w // 4 for w in WINDOWS}  # 75 % overlap
LOG_EPSILON = 1e-6


@dataclass(frozen=True)
class TargetSpectrograms:
    """A target's magnitude spectrograms per window: ``lin`` holds |S| and
    ``log`` holds log(|S| + LOG_EPSILON), both as arrays keyed by window."""
    n_samples: int
    lin: dict
    log: dict


def target_spectrograms(target):
    """The target side of mss_loss, computed once.

    Training loops evaluate mss_loss against a fixed target many times;
    passing the result here as `target` skips recomputing its STFTs.
    """
    target = ad.constant(np.asarray(target, dtype=np.float64))
    lin = {w: ad.stft_magnitude(target, w, HOPS[w]).values for w in WINDOWS}
    return TargetSpectrograms(
        n_samples=target.values.shape[0], lin=lin,
        log={w: np.log(mag + LOG_EPSILON) for w, mag in lin.items()})


def mss_loss(target, prediction):
    """Multi-scale spectral reconstruction loss (scalar Tensor).

    sum_i ( ||S_i - S^_i||_1 + ||log(S_i + eps) - log(S^_i + eps)||_1 )

    target is raw audio or the output of target_spectrograms. It is a
    fixed reference: gradients flow to the prediction only.
    """
    if not isinstance(target, TargetSpectrograms):
        target = target_spectrograms(target)
    if not isinstance(prediction, Tensor):
        prediction = Tensor(np.asarray(prediction, dtype=np.float64))
    if (target.n_samples,) != prediction.values.shape:
        raise ValueError(
            f"length mismatch: target ({target.n_samples},) vs "
            f"prediction {prediction.values.shape}"
        )
    total = None
    for window in WINDOWS:
        term = ad.spectral_l1(prediction, target.lin[window], target.log[window],
                              window, HOPS[window], LOG_EPSILON)
        total = term if total is None else ad.add(total, term)
    return total
