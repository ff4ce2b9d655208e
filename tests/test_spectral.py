import tracemalloc

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


def _unfused_stft_magnitude(x, window, hop):
    """A differentiable STFT magnitude op, the first node of the unfused
    chain below."""
    xv = x.values
    win = ad.hann_window(window)
    spec = np.fft.rfft(
        np.lib.stride_tricks.sliding_window_view(xv, window)[::hop] * win, axis=1)
    mag = np.abs(spec)

    def bwd(g):
        inv_mag = np.divide(1.0, mag, out=np.zeros_like(mag), where=mag > 0.0)
        inv_mag[:, 1:(window + 1) // 2] *= 0.5
        gframes = window * np.fft.irfft(g * spec * inv_mag, n=window, axis=1) * win
        gx = np.zeros_like(xv)
        stride = window // hop
        for k in range(min(stride, len(gframes))):
            part = gframes[k::stride]
            gx[k * hop: k * hop + part.size] += part.ravel()
        return (gx,)

    return ad._make(mag, "stft_magnitude", (x,), bwd)


def _unfused_sub(a, b):
    return ad._make(a.values - b.values, "sub", (a, b), lambda g: (g, -g))


def _unfused_mss_loss(target, prediction):
    """Reference for mss_loss: per window, the chain of nine tape nodes
    that spectral_l1 fuses into one."""
    total = None
    for w in sp.WINDOWS:
        s_p = _unfused_stft_magnitude(prediction, w, sp.HOPS[w])
        lin = ad.reduce_sum(ad.abs_(_unfused_sub(ad.constant(target.lin[w]), s_p)))
        log_p = ad.log(ad.add(s_p, ad.constant(sp.LOG_EPSILON)))
        lg = ad.reduce_sum(ad.abs_(_unfused_sub(ad.constant(target.log[w]), log_p)))
        term = ad.add(lin, lg)
        total = term if total is None else ad.add(total, term)
    return total


@pytest.mark.parametrize("g", [1.0, 1 / 16, 1 / 3])
def test_fused_loss_matches_the_unfused_chain_bit_for_bit(g):
    rng = np.random.default_rng(7)
    pred = rng.standard_normal(64000)
    target = pred + 0.1 * rng.standard_normal(64000)
    # a silent stretch in both: bins with |S| = 0 and with d = 0
    pred[20000:30000] = 0.0
    target[20000:30000] = 0.0
    target = sp.target_spectrograms(target)
    assert np.any(target.lin[2048] == 0.0)
    values, grads = [], []
    for loss_fn in (sp.mss_loss, _unfused_mss_loss):
        x = ad.parameter(pred)
        loss = loss_fn(target, x)
        ad.backward(ad.mul(loss, ad.constant(g)))
        values.append(loss.values)
        grads.append(x.grad)
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("side", ["prediction", "target"])
def test_a_nan_sample_gives_the_unfused_chain_nans(side):
    # int8 cannot hold a NaN sign, so a NaN window keeps float64 signs
    rng = np.random.default_rng(8)
    pred = rng.standard_normal(16000)
    target = pred + 0.1 * rng.standard_normal(16000)
    (pred if side == "prediction" else target)[7000] = np.nan
    target = sp.target_spectrograms(target)
    values, grads = [], []
    for loss_fn in (sp.mss_loss, _unfused_mss_loss):
        x = ad.parameter(pred)
        loss = loss_fn(target, x)
        ad.backward(ad.mul(loss, ad.constant(1 / 3)))
        values.append(loss.values)
        grads.append(x.grad)
    assert np.isnan(values[0]) and np.isnan(grads[0]).any()
    assert not np.isnan(grads[0]).all()
    assert np.array_equal(values[0], values[1], equal_nan=True)
    assert np.array_equal(grads[0], grads[1], equal_nan=True)


def test_spectral_l1_gradient_at_a_wider_window_with_silent_frames():
    # window 256: interior bins 1..127 are halved in the backward, and the
    # silent stretch holds whole frames with |S| = 0
    r = np.random.default_rng(9)
    x = r.standard_normal(1024)
    x[384:704] = 0.0
    mag = ad.stft_magnitude(ad.constant(x), 256, 64).values
    assert np.any(np.all(mag == 0.0, axis=1))
    # targets 0.5 off the spectra keep every L1 kink outside the FD step
    off = np.where(r.random(mag.shape) < 0.5, -0.5, 0.5)
    lin, log = mag + off, np.log(mag + 1e-6) + off
    err = ad.check_gradients(
        lambda t: ad.spectral_l1(t[0], lin, log, 256, 64, 1e-6), [x])
    assert err < 1e-4


def test_backward_keeps_the_spectrum_and_two_int8_signs(monkeypatch):
    # 16 + 1 + 1 bytes per bin: ~13.9 MB over the six windows of a 4 s clip
    rng = np.random.default_rng(10)
    x = rng.standard_normal(64000)
    target = sp.target_spectrograms(x + 0.1 * rng.standard_normal(64000))

    def retained(prediction):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = sp.mss_loss(target, prediction)
            return loss, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    loss, kept = retained(ad.parameter(x))
    assert loss._backward_fn is not None
    assert kept < 16e6
    # a constant prediction keeps no closure and computes no signs
    signs = []
    real_sign = np.sign
    monkeypatch.setattr(np, "sign",
                        lambda *a, **k: signs.append(a) or real_sign(*a, **k))
    const, kept = retained(ad.constant(x))
    assert const._backward_fn is None and not signs
    assert kept < 1e6
    assert const.values == loss.values
