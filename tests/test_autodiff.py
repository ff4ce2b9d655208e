import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fmresynth import autodiff as ad
from fmresynth.autodiff import AutodiffError, Tensor


class TestGradientChecks:
    @pytest.mark.parametrize("op", ad.OP_KINDS)
    def test_all_ops_match_finite_differences(self, op):
        for seed in range(3):
            err = ad.gradient_check(op, seed=seed)
            assert err < 1e-4, f"{op} seed {seed}: rel err {err}"

    def test_step_bounds_enforced(self):
        with pytest.raises(AutodiffError):
            ad.gradient_check("add", step=1e-2)
        with pytest.raises(AutodiffError):
            ad.gradient_check("add", step=1e-8)

    def test_a_transposed_input_is_perturbed_too(self):
        x = np.arange(6.0).reshape(3, 2).T / 6.0
        err = ad.check_gradients(lambda t: ad.reduce_sum(ad.exp(t[0])), [x])
        assert err < 1e-6

    def test_unknown_op_rejected(self):
        with pytest.raises(AutodiffError):
            ad.gradient_check("softmax")


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        y = ad.mul(x, x)
        with pytest.raises(AutodiffError):
            ad.backward(y)

    def test_double_backward_rejected(self):
        x = ad.parameter(2.0)
        y = ad.mul(x, x)
        ad.backward(y)
        with pytest.raises(AutodiffError):
            ad.backward(y)

    def test_detached_tensor_rejected(self):
        with pytest.raises(AutodiffError):
            ad.backward(ad.constant(1.0))

    def test_grad_accumulates_across_uses(self):
        x = ad.parameter(3.0)
        y = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
        ad.backward(y)
        assert np.isclose(x.grad, 7.0)

    def test_constants_get_no_grad(self):
        c = ad.constant(np.ones(4))
        x = ad.parameter(np.ones(4))
        ad.backward(ad.reduce_sum(ad.mul(c, x)))
        assert c.grad is None
        assert np.allclose(x.grad, 1.0)

    def test_broadcast_gradients_reduce_correctly(self):
        a = ad.parameter(np.ones((3, 1)))
        b = ad.parameter(np.ones(4))
        ad.backward(ad.reduce_sum(ad.add(a, b)))
        assert a.grad.shape == (3, 1) and np.allclose(a.grad, 4.0)
        assert b.grad.shape == (4,) and np.allclose(b.grad, 3.0)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(AutodiffError):
            ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.5, 2), st.floats(0.5, 2))
    def test_backward_is_linear_in_loss_terms(self, xv, yv, a, b):
        # grad of a*f + b*g equals a*grad(f) + b*grad(g)
        def grad_of(coeff_a, coeff_b):
            x = ad.parameter(xv)
            y = ad.parameter(yv)
            loss = ad.add(ad.mul(ad.constant(coeff_a), ad.exp(x)),
                          ad.mul(ad.constant(coeff_b), ad.mul(x, y)))
            ad.backward(loss)
            return x.grad
        combined = grad_of(a, b)
        expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
        assert np.allclose(combined, expected, atol=1e-12)


class TestOpValues:
    def test_conv1d_causal(self):
        # output at t must not change when future input changes
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 20))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal((3, 1))
        base = ad.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b), dilation=2).values
        x2 = x.copy()
        x2[:, 10:] += 5.0
        bumped = ad.conv1d_dilated(Tensor(x2), Tensor(w), Tensor(b),
                                   dilation=2).values
        assert np.allclose(base[:, :10], bumped[:, :10])
        assert base.shape == (3, 20)

    def test_conv1d_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 9))
        w = rng.standard_normal((1, 1, 3))
        b = rng.standard_normal((1, 1))
        d = 2
        out = ad.conv1d_dilated(Tensor(x), Tensor(w), Tensor(b),
                                dilation=d).values[0]
        pad = np.concatenate([np.zeros(2 * d), x[0]])
        expected = np.array([
            sum(w[0, 0, k] * pad[t + k * d] for k in range(3)) + b[0, 0]
            for t in range(9)
        ])
        assert np.allclose(out, expected)

    def test_linear_upsample_endpoints_and_length(self):
        x = np.array([1.0, 3.0, 2.0])
        up = ad.linear_upsample(x, 4)
        assert up.shape == (12,)
        assert up[0] == 1.0 and up[4] == 3.0 and up[8] == 2.0
        assert np.isclose(up[2], 2.0)  # midpoint of 1 and 3
        assert np.all(up[8:] == 2.0)   # final frame held

    @pytest.mark.parametrize("factor", [1, 3, 64])
    @pytest.mark.parametrize("shape", [(7,), (2, 7)])
    def test_linear_upsample_matches_interp(self, factor, shape):
        x = np.random.default_rng(4).standard_normal(shape)
        up = ad.linear_upsample(x, factor)
        t = shape[-1]
        pos = np.arange(t * factor) / factor
        expected = np.array([np.interp(pos, np.arange(t), row)
                             for row in x.reshape(-1, t)]).reshape(up.shape)
        assert up.shape == shape[:-1] + (t * factor,)
        assert np.allclose(up, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("factor", [1, 3, 64])
    @pytest.mark.parametrize("t", [1, 7])
    def test_envelope_gradient_is_the_upsample_dense_adjoint(self, factor, t):
        # one carrier at a constant phase of pi/2, whose sine is exactly 1:
        # the render is the upsampled envelope
        pos = np.arange(t * factor) / factor
        # column j is the upsampled unit impulse at frame j
        dense = np.array([np.interp(pos, np.arange(t), e) for e in np.eye(t)]).T
        rng = np.random.default_rng(5)
        env = ad.parameter(rng.standard_normal((1, t)))
        g = rng.standard_normal(t * factor)
        out = ad.fm_render(env, lambda k: np.full(t * factor, np.pi / 2),
                           ((),), (0,), (0,), factor)
        up = ad.linear_upsample(env.values[0], factor)
        assert np.array_equal(out.values, up)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
        assert np.allclose(env.grad[0], g @ dense, rtol=0.0, atol=1e-12)

    def test_stft_magnitude_sine_peak(self):
        sr, n = 1024, 256
        t = np.arange(1024) / sr
        x = np.sin(2 * np.pi * 64 * t)  # bin 16 of a 256 window
        mag = ad.stft_magnitude(Tensor(x), n, 64).values
        assert mag.shape == ((1024 - 256) // 64 + 1, 129)
        assert np.all(np.argmax(mag, axis=1) == 16)

    def test_stft_rejects_short_input(self):
        with pytest.raises(AutodiffError):
            ad.stft_magnitude(Tensor(np.zeros(63)), 64, 16)

    @pytest.mark.parametrize("hop", [0, 12, 48])
    def test_stft_rejects_hop_not_dividing_window(self, hop):
        with pytest.raises(AutodiffError, match="divide"):
            ad.stft_magnitude(Tensor(np.zeros(256)), 64, hop)

    def test_stft_magnitude_records_no_tape(self):
        mag = ad.stft_magnitude(ad.parameter(np.ones(256)), 64, 16)
        with pytest.raises(AutodiffError, match="detached"):
            ad.backward(ad.reduce_sum(mag))

    def test_spectral_l1_rejects_short_input(self):
        with pytest.raises(AutodiffError, match="< window"):
            ad.spectral_l1(Tensor(np.zeros(63)), np.zeros((1, 33)),
                           np.zeros((1, 33)), 64, 16, 1e-6)

    @pytest.mark.parametrize("hop", [0, 12, 48])
    def test_spectral_l1_rejects_hop_not_dividing_window(self, hop):
        with pytest.raises(AutodiffError, match="divide"):
            ad.spectral_l1(Tensor(np.zeros(256)), np.zeros((13, 33)),
                           np.zeros((13, 33)), 64, hop, 1e-6)

    def test_spectral_l1_rejects_misshapen_targets(self):
        with pytest.raises(AutodiffError, match="target_log shape"):
            ad.spectral_l1(Tensor(np.zeros(256)), np.zeros((13, 33)),
                           np.zeros((12, 33)), 64, 16, 1e-6)

    def test_fft_convolve_matches_numpy(self):
        rng = np.random.default_rng(3)
        x, h = rng.standard_normal(50), rng.standard_normal(7)
        out = ad.fft_convolve(Tensor(x), Tensor(h)).values
        assert np.allclose(out, np.convolve(x, h)[:50])

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len
        assert [n for n in range(1, 2 ** 17 + 1)
                if ad.next_fast_len(n) != next_fast_len(n, real=True)] == []

    def test_dropout_inference_scale(self):
        x = Tensor(np.ones(10000))
        out = ad.dropout(x, 0.5, np.random.default_rng(0)).values
        # inverted dropout preserves the mean
        assert abs(out.mean() - 1.0) < 0.05
        assert set(np.round(np.unique(out), 6)) == {0.0, 2.0}

    def test_log_rejects_non_positive(self):
        with pytest.raises(AutodiffError):
            ad.log(Tensor(np.array([1.0, 0.0])))


def _conv_then_add(x, w, b, dilation):
    """The convolution as two ops, float64 throughout: the tap GEMMs as one
    op without bias, then ``ad.add`` of the bias."""
    xv, wv = x.values, w.values
    c_out, c_in, k = wv.shape
    t = xv.shape[1]
    pad = (k - 1) * dilation
    xpad_t = np.zeros((t + pad, c_in))
    xpad_t[pad:] = xv.T
    w_taps = [np.ascontiguousarray(wv[:, :, tap]) for tap in range(k)]
    out = np.zeros((c_out, t))
    for tap in range(k):
        out += w_taps[tap] @ xpad_t[tap * dilation: tap * dilation + t].T

    def bwd(g):
        g = np.ascontiguousarray(g)
        gx_t = np.zeros_like(xpad_t)
        gw = np.empty_like(wv)
        for tap in range(k):
            seg = xpad_t[tap * dilation: tap * dilation + t]
            gw[:, :, tap] = g @ seg
            gx_t[tap * dilation: tap * dilation + t] += g.T @ w_taps[tap]
        return gx_t[pad:].T, gw

    return ad.add(ad._make(out, "conv1d_dilated", (x, w), bwd), b)


class TestConv1dPrecision:
    # the decoder's widest layer: 128 channels, 1000 frames, dilation 4
    C, T, K, D = 128, 1000, 3, 4

    def _inputs(self):
        rng = np.random.default_rng(8)
        return (rng.standard_normal((self.C, self.T)),
                rng.standard_normal((self.C, self.C, self.K)) / np.sqrt(self.C * self.K),
                rng.standard_normal((self.C, 1)),
                rng.standard_normal((self.C, self.T)))

    def _run(self, conv, x, w, b, g):
        """Output and the gradients of x, w, b under upstream gradient g."""
        leaves = [ad.parameter(a) for a in (x, w, b)]
        out = conv(*leaves, self.D)
        ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
        return [out.values] + [p.grad for p in leaves]

    def test_float64_setting_equals_conv_then_add_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(ad, "_GEMM_DTYPE", np.float64)
        x, w, b, g = self._inputs()
        fused = self._run(ad.conv1d_dilated, x, w, b, g)
        split = self._run(_conv_then_add, x, w, b, g)
        for name, f, s in zip(("out", "grad x", "grad w", "grad b"), fused, split):
            assert f.dtype == np.float64 and np.array_equal(f, s), name

    def test_float32_products_stay_within_the_gemm_error_bound(self, monkeypatch):
        # A float32 dot product of n terms whose two factors are rounded
        # to float32 first is off by at most (n + 2) * 2**-24 times the
        # sum of |factor products|, to first order in 2**-24. Those sums are the same op applied to
        # |x|, |w| and |g| in float64. n is K * C_in for the output,
        # K * C_out for grad x and T for grad w; grad b is a float64 sum.
        x, w, b, g = self._inputs()
        assert ad._GEMM_DTYPE is np.float32
        fast = self._run(ad.conv1d_dilated, x, w, b, g)
        monkeypatch.setattr(ad, "_GEMM_DTYPE", np.float64)
        exact = self._run(ad.conv1d_dilated, x, w, b, g)
        mag = self._run(ad.conv1d_dilated, np.abs(x), np.abs(w),
                        np.zeros_like(b), np.abs(g))
        u = 2.0 ** -24
        terms = (self.K * self.C, self.K * self.C, self.T)
        for name, f, e, m, n in zip(("out", "grad x", "grad w"), fast, exact,
                                     mag, terms):
            assert f.dtype == np.float64, name
            assert np.all(np.abs(f - e) <= (n + 2) * u * m), name
            assert not np.array_equal(f, e), name  # float32 really ran
        assert np.array_equal(fast[3], exact[3])

    def test_bias_shape_checked(self):
        x, w, _b, _g = self._inputs()
        with pytest.raises(AutodiffError, match="bias shape"):
            ad.conv1d_dilated(Tensor(x), Tensor(w), Tensor(np.zeros(self.C)))

    def test_check_gradients_restores_the_gemm_dtype_when_fn_raises(self):
        seen = []

        def fn(t):
            seen.append(ad._GEMM_DTYPE)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            ad.check_gradients(fn, [np.ones(2)])
        assert seen == [np.float64]
        assert ad._GEMM_DTYPE is np.float32
