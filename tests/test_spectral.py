import numpy as np
import pytest

from fmresynth import autodiff as ad
from fmresynth import spectral as sp


def test_default_windows_and_hops():
    assert sp.WINDOWS == (64, 128, 256, 512, 1024, 2048)
    assert sp.HOPS == {w: w // 4 for w in sp.WINDOWS}  # 75% overlap
    target = sp.target_spectrograms(np.zeros(4096))
    for w in sp.WINDOWS:
        assert target.lin[w].shape == ((4096 - w) // (w // 4) + 1, w // 2 + 1)


def test_zero_on_identical_signals():
    x = np.random.default_rng(0).standard_normal(4096)
    assert sp.mss_loss(x, x.copy()).item() == 0.0


def test_positive_on_different_signals():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(4096), rng.standard_normal(4096)
    assert sp.mss_loss(a, b).item() > 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        sp.mss_loss(np.zeros(4096), np.zeros(4097))


def test_loss_is_symmetric():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(4096), rng.standard_normal(4096)
    assert sp.mss_loss(a, b).item() == pytest.approx(sp.mss_loss(b, a).item())


def test_sums_not_means():
    # doubling the signal length roughly doubles the loss
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(4096), rng.standard_normal(4096)
    short = sp.mss_loss(a, b).item()
    long = sp.mss_loss(np.tile(a, 2), np.tile(b, 2)).item()
    assert long > 1.5 * short


def test_cached_target_matches_raw_target():
    rng = np.random.default_rng(4)
    target = rng.standard_normal(4096)
    pred = rng.standard_normal(4096)
    raw = sp.mss_loss(target, pred).item()
    cached = sp.mss_loss(sp.target_spectrograms(target), pred).item()
    assert cached == raw


def test_gradient_flows_to_prediction():
    rng = np.random.default_rng(5)
    target = rng.standard_normal(4096)
    pred = ad.parameter(rng.standard_normal(4096))
    loss = sp.mss_loss(target, pred)
    ad.backward(loss)
    assert pred.grad is not None
    assert np.any(pred.grad != 0.0)
    assert np.all(np.isfinite(pred.grad))


def test_loss_decreases_toward_target():
    rng = np.random.default_rng(6)
    target = np.sin(2 * np.pi * 440 * np.arange(4096) / 16000)
    noise = rng.standard_normal(4096)
    far = sp.mss_loss(target, noise).item()
    near = sp.mss_loss(target, target + 0.01 * noise).item()
    assert near < far
