import numpy as np
import pytest

from fmresynth import autodiff as ad
from fmresynth import reverb as rv


def test_init_is_seeded_and_deterministic():
    a = rv.init_reverb(seed=5)
    b = rv.init_reverb(seed=5)
    assert np.array_equal(a["reverb.ir_raw"].values, b["reverb.ir_raw"].values)
    assert a["reverb.decay"].values == b["reverb.decay"].values
    c = rv.init_reverb(seed=6)
    assert not np.array_equal(a["reverb.ir_raw"].values,
                              c["reverb.ir_raw"].values)


def test_param_dict_names():
    params = rv.init_reverb(seed=0)
    assert set(params) == {
        "reverb.ir_raw", "reverb.decay", "reverb.wet_gain"}


def test_effective_ir_first_tap_is_zero():
    params = rv.init_reverb(seed=0)
    ir = rv.effective_ir(params).values
    assert ir[0] == 0.0
    assert ir.shape == (16000,)


def test_decay_envelope_shrinks_late_taps():
    params = rv.init_reverb(seed=0)
    ir = rv.effective_ir(params).values
    raw = params["reverb.ir_raw"].values
    # ratio ir/raw follows exp(-softplus(decay) * t); softplus(decay0) = 4
    late = abs(ir[15999] / raw[15999])
    early = abs(ir[1] / raw[1])
    assert late / early == pytest.approx(np.exp(-4.0 * 15998 / 16000), rel=1e-6)


def test_apply_reverb_keeps_length_and_dry_path():
    params = rv.init_reverb(seed=0)
    x = np.zeros(2000)
    x[0] = 1.0
    out = rv.apply_reverb(x, params).values
    assert out.shape == (2000,)
    # dry impulse passes through; wet IR has zero first tap
    assert out[0] == pytest.approx(1.0)


def test_rejects_non_finite_params():
    params = rv.init_reverb(seed=0)
    params["reverb.decay"].values = np.array(np.nan)
    with pytest.raises(ValueError, match="decay"):
        rv.apply_reverb(np.zeros(100), params)


def test_gradients_reach_all_parameters():
    params = rv.init_reverb(seed=0)
    x = np.random.default_rng(0).standard_normal(3000)
    out = rv.apply_reverb(x, params)
    ad.backward(ad.reduce_sum(ad.mul(out, out)))
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name
    # every IR tap except the clamped first one should receive gradient
    assert np.count_nonzero(params["reverb.ir_raw"].grad) >= 2998


def test_first_tap_receives_no_gradient():
    params = rv.init_reverb(seed=0)
    x = np.random.default_rng(1).standard_normal(3000)
    out = rv.apply_reverb(x, params)
    ad.backward(ad.reduce_sum(ad.mul(out, out)))
    assert params["reverb.ir_raw"].grad[0] == 0.0
    assert params["reverb.ir_raw"].grad[1] != 0.0
