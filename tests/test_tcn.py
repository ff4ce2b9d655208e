import numpy as np
import pytest

from fmresynth import tcn
from fmresynth.tcn import TcnSpec


@pytest.fixture
def spec4():
    return TcnSpec(out_channels=4)


@pytest.fixture
def params4(spec4):
    return tcn.init_weights(spec4, seed=0)


def test_receptive_field_default_is_125():
    assert tcn.receptive_field(TcnSpec()) == 125


def test_receptive_field_formula():
    spec = TcnSpec(blocks=3)
    # 1 + 2 * (1+1+2+2+4+4)
    assert tcn.receptive_field(spec) == 29


def test_parameter_count_near_400k():
    params = tcn.init_weights(TcnSpec(), seed=0)
    n = tcn.parameter_count(params)
    assert 3e5 <= n <= 5e5


def test_init_effective_weight_equals_direction(spec4, params4):
    # g is initialized to ||v||, so the normalized weight equals v
    from fmresynth import autodiff as ad  # noqa: F401
    w = tcn._normalized_weight(params4, "block0.conv1").values
    assert np.allclose(w, params4["block0.conv1.v"].values, atol=1e-10)


def test_exact_causality_window(spec4, params4, four_osc_config):
    t = 300
    rng = np.random.default_rng(0)
    cond = rng.random((t, 2))
    base = tcn.decode(spec4, params4, four_osc_config, cond).values
    rf = tcn.receptive_field(spec4)
    probe = 80
    bumped_cond = cond.copy()
    bumped_cond[probe] = 1.0 - bumped_cond[probe]
    bumped = tcn.decode(spec4, params4, four_osc_config, bumped_cond).values
    changed = np.nonzero(np.any(base != bumped, axis=0))[0]
    # frames strictly before the edit are untouched; influence stops at rf
    assert changed.min() >= probe
    assert changed.max() <= probe + rf - 1


def test_output_bounds_per_channel(spec4, params4, four_osc_config):
    cond = np.random.default_rng(1).random((200, 2))
    env = tcn.decode(spec4, params4, four_osc_config, cond).values
    a_max = four_osc_config.a_max(spec4.i_max)
    assert env.shape == (4, 200)
    for k in range(4):
        assert np.all(env[k] > 0.0)
        assert np.all(env[k] < a_max[k])


def test_inference_is_deterministic(spec4, params4, four_osc_config):
    cond = np.random.default_rng(2).random((64, 2))
    a = tcn.decode(spec4, params4, four_osc_config, cond, mode="inference")
    b = tcn.decode(spec4, params4, four_osc_config, cond, mode="inference")
    assert np.array_equal(a.values, b.values)


def test_train_mode_dropout_is_seeded(spec4, params4, four_osc_config):
    cond = np.random.default_rng(3).random((64, 2))
    a = tcn.decode(spec4, params4, four_osc_config, cond, mode="train", seed=7)
    b = tcn.decode(spec4, params4, four_osc_config, cond, mode="train", seed=7)
    c = tcn.decode(spec4, params4, four_osc_config, cond, mode="train", seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_unknown_mode_rejected(spec4, params4, four_osc_config):
    with pytest.raises(ValueError, match="mode"):
        tcn.decode(spec4, params4, four_osc_config, np.zeros((8, 2)), mode="eval")


def test_channel_mismatch_rejected(params4, four_osc_config):
    spec6 = TcnSpec(out_channels=6)
    params6 = tcn.init_weights(spec6, seed=0)
    with pytest.raises(ValueError, match="oscillators"):
        tcn.decode(spec6, params6, four_osc_config, np.zeros((8, 2)))


def test_conditioning_range_enforced(spec4, params4, four_osc_config):
    bad = np.full((8, 2), 1.5)
    with pytest.raises(ValueError, match="0, 1"):
        tcn.decode(spec4, params4, four_osc_config, bad)


def test_nan_activations_reported_with_block(spec4, params4, four_osc_config):
    # poison the skip projection: unlike the conv path it has no ReLU,
    # so the NaN reaches the block output where the check lives
    params4["block0.skip.v"].values[:] = np.nan
    with pytest.raises(FloatingPointError, match="block 0"):
        tcn.decode(spec4, params4, four_osc_config, np.ones((8, 2)) * 0.5)


def test_init_output_variation_is_sane(spec4, params4, four_osc_config):
    # fresh decoder output should neither collapse nor explode
    cond = np.random.default_rng(4).random((500, 2))
    env = tcn.decode(spec4, params4, four_osc_config, cond).values
    std = env.std()
    assert 0.001 < std < 10.0
