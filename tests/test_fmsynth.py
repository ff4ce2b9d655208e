import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from importlib import resources
from pathlib import Path

from fmresynth import fmsynth as fm
from fmresynth.fmsynth import ConfigError, FmConfig, Oscillator

from conftest import packaged_config, piecewise_envelopes

BUNDLED = ["flute1", "flute1_4y", "flute1_2",
           "strings1", "strings1_4x1", "strings1_2x2", "strings1_2",
           "brass3", "brass3_4y", "brass3_2"]


class TestConfigValidation:
    def test_too_many_oscillators(self):
        oscs = tuple(Oscillator(ratio=1.0, carrier=True) for _ in range(7))
        with pytest.raises(ConfigError, match="exceeds"):
            FmConfig(name="x", oscillators=oscs)

    def test_no_carrier(self):
        with pytest.raises(ConfigError, match="no carrier"):
            FmConfig(name="x", oscillators=(Oscillator(ratio=1.0),))

    def test_bad_ratio_precision(self):
        with pytest.raises(ConfigError, match="one decimal"):
            FmConfig(name="x", oscillators=(Oscillator(ratio=1.05, carrier=True),))

    def test_self_feedback_rejected(self):
        with pytest.raises(ConfigError, match="feedback"):
            FmConfig(name="x", oscillators=(
                Oscillator(ratio=1.0, carrier=True, modulates=(0,)),))

    def test_two_oscillator_cycle_rejected(self):
        with pytest.raises(ConfigError, match="feedback"):
            FmConfig(name="x", oscillators=(
                Oscillator(ratio=1.0, carrier=True, modulates=(1,)),
                Oscillator(ratio=1.0, modulates=(0,)),
            ))

    def test_topological_order_modulators_first(self):
        # chain: osc3 -> osc2 -> osc1 (carrier)
        config = FmConfig(name="chain", oscillators=(
            Oscillator(ratio=1.0, carrier=True),
            Oscillator(ratio=1.0, modulates=(0,)),
            Oscillator(ratio=1.0, modulates=(1,)),
        ))
        order = config.topological_order
        assert order.index(2) < order.index(1) < order.index(0)

    def test_a_max_per_channel(self):
        config = FmConfig(name="x", oscillators=(
            Oscillator(ratio=1.0, carrier=True),
            Oscillator(ratio=2.0, modulates=(0,)),
        ))
        assert np.array_equal(config.a_max(2.0), [1.0, 2.0])
        assert np.array_equal(config.a_max(4 * np.pi), [1.0, 4 * np.pi])


class TestConfigFiles:
    def test_parse_serialize_roundtrip(self):
        text = ("name: demo\nsource_patch: DEMO 1\n"
                "osc: ratio=1.0 carrier\n"
                "osc: ratio=3.0 modulates=1\n")
        config = fm.parse_config(text)
        assert config.name == "demo"
        assert config.oscillators[1].modulates == (0,)
        assert fm.parse_config(fm.serialize_config(config)) == config

    def test_comments_and_blank_lines(self):
        config = fm.parse_config(
            "# header\nname: c  # trailing\n\nosc: ratio=1.0 carrier\n")
        assert config.name == "c"

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            fm.parse_config("name: x\nosc: ratio=abc carrier\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            fm.parse_config("name: x\nvolume: 3\nosc: ratio=1.0 carrier\n")

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigError, match="name"):
            fm.parse_config("osc: ratio=1.0 carrier\n")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_configs_load_and_roundtrip(self, name):
        config = fm.load_config(packaged_config(name))
        assert config.name == name
        assert 1 <= config.n_oscillators <= 6
        assert config.carrier_indices
        assert fm.parse_config(fm.serialize_config(config)) == config

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(BUNDLED), by_line=st.booleans(), data=st.data())
    def test_patch_with_one_deletion_parses_or_is_a_config_error(
            self, name, by_line, data):
        text = Path(packaged_config(name)).read_text()
        units = text.splitlines(keepends=True) if by_line else list(text)
        i = data.draw(st.integers(0, len(units) - 1), label="deleted unit")
        try:
            fm.parse_config("".join(units[:i] + units[i + 1:]))
        except ConfigError:
            pass


class TestBesselOracle:
    def test_matches_scipy(self):
        for n in range(4):
            for x in (0.0, 0.5, 1.0, 1.83, 2.4, 5.0, 12.0):
                assert abs(fm.bessel_j(n, x) - scipy.special.jv(n, x)) < 1e-10

    def test_first_zero_of_j0(self):
        assert abs(fm.bessel_j(0, 2.404825557695773)) < 1e-9

    def test_negative_order_symmetry(self):
        amps = fm.sideband_spectrum(1.2, 3)
        for n in range(1, 4):
            assert np.isclose(amps[3 - n], (-1) ** n * amps[3 + n])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fm.bessel_j(-1, 1.0)


class TestRender:
    def test_output_length_and_shape(self, two_osc_config):
        t_frames = 50
        env = piecewise_envelopes(two_osc_config, t_frames, seed=0)
        spec = fm.RenderSpec(f0_frames=np.full(t_frames, 220.0))
        out = fm.render(two_osc_config, env, spec, i_max=2.0)
        assert out.values.shape == (t_frames * 64,)

    def test_carrier_bound_enforced(self, two_osc_config):
        env = np.zeros((10, 2))
        env[:, 0] = 1.5  # carrier channel above 1
        spec = fm.RenderSpec(f0_frames=np.full(10, 220.0))
        with pytest.raises(ValueError, match="carrier"):
            fm.render(two_osc_config, env, spec)

    def test_modulator_bound_enforced(self, two_osc_config):
        env = np.zeros((10, 2))
        env[:, 1] = 3.0
        spec = fm.RenderSpec(f0_frames=np.full(10, 220.0))
        with pytest.raises(ValueError, match="I_max"):
            fm.render(two_osc_config, env, spec, i_max=2.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_f0_must_be_finite_and_non_negative(self, bad):
        f0 = np.full(10, 220.0)
        f0[3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            fm.RenderSpec(f0_frames=f0)

    def test_negative_envelope_rejected(self, two_osc_config):
        env = np.full((10, 2), -0.1)
        spec = fm.RenderSpec(f0_frames=np.full(10, 220.0))
        with pytest.raises(ValueError, match="below 0"):
            fm.render(two_osc_config, env, spec)

    def test_arrays_are_frames_first_even_when_t_equals_n_osc(self,
                                                              two_osc_config):
        # a [T, n_osc] array with T == n_osc must not be read as [n_osc, T]
        env = np.array([[1.0, 0.5]] * 3)
        short = fm.render(two_osc_config, env[:2],
                          fm.RenderSpec(f0_frames=np.full(2, 440.0))).values
        longer = fm.render(two_osc_config, env,
                           fm.RenderSpec(f0_frames=np.full(3, 440.0))).values
        np.testing.assert_allclose(short, longer[:128], rtol=0, atol=1e-12)

    def test_frame_count_mismatch_rejected(self, two_osc_config):
        env = np.zeros((10, 2))
        spec = fm.RenderSpec(f0_frames=np.full(12, 220.0))
        with pytest.raises(ValueError, match="mismatch"):
            fm.render(two_osc_config, env, spec)

    def test_unmodulated_carrier_is_pure_sine(self):
        config = FmConfig(name="sine", oscillators=(
            Oscillator(ratio=1.0, carrier=True),))
        t_frames = 100
        env = np.ones((t_frames, 1))
        spec = fm.RenderSpec(f0_frames=np.full(t_frames, 400.0))
        out = fm.render(config, env, spec).values
        t = np.arange(1, t_frames * 64 + 1) / 16000.0
        assert np.allclose(out, np.sin(2 * np.pi * 400.0 * t), atol=1e-9)

    def test_carriers_are_averaged(self):
        one = FmConfig(name="one", oscillators=(
            Oscillator(ratio=1.0, carrier=True),))
        two = FmConfig(name="two", oscillators=(
            Oscillator(ratio=1.0, carrier=True),
            Oscillator(ratio=1.0, carrier=True),))
        t_frames = 20
        spec = fm.RenderSpec(f0_frames=np.full(t_frames, 250.0))
        a = fm.render(one, np.ones((t_frames, 1)), spec).values
        b = fm.render(two, np.ones((t_frames, 2)), spec).values
        assert np.allclose(a, b)
        assert np.max(np.abs(b)) <= 1.0 + 1e-9

    def test_sideband_amplitudes_match_bessel_series(self):
        # carrier at 10*f0, modulator at f0: sidebands at f_c +- n*f_m
        config = FmConfig(name="pair", oscillators=(
            Oscillator(ratio=10.0, carrier=True),
            Oscillator(ratio=1.0, modulates=(0,)),
        ))
        f0, sr = 200.0, 16000
        t_frames = 250 * 2  # 2 seconds for clean bins
        i_mod = 1.0
        env = np.column_stack([np.ones(t_frames), np.full(t_frames, i_mod)])
        spec = fm.RenderSpec(f0_frames=np.full(t_frames, f0))
        audio = fm.render(config, env, spec, i_max=2.0).values
        # skip the first half second of envelope upsampling transients
        seg = audio[sr:]
        mags = np.abs(np.fft.rfft(seg)) / (len(seg) / 2)
        bin_hz = sr / len(seg)
        for n in range(-3, 4):
            freq = 10 * f0 + n * f0
            measured = mags[int(round(freq / bin_hz))]
            expected = abs(fm.bessel_j(abs(n), i_mod))
            assert measured == pytest.approx(expected, rel=0.01, abs=1e-4)
