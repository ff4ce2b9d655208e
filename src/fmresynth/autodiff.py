"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors hold float64 values and gradients throughout. The one exception
is inside ``conv1d_dilated``: its tap products (K forward and 2K backward
GEMMs for a K-tap kernel) run in float32 and are widened back to
float64, with the bias added in float64.

The operator set is closed: every op listed in ``OP_KINDS`` has a forward
implementation, a backward implementation, and a gradient-check entry.
Ops are plain functions (``add(a, b)``, ``slice_(x, key)``, ...); Tensor
defines no arithmetic or indexing operators.
Graphs are built define-by-run: each produced Tensor keeps references to
its parents and a closure that maps the incoming gradient to parent
gradients. A graph is intended to be built, back-propagated once, and
discarded.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "AutodiffError",
    "OP_KINDS",
    "add", "mul", "div", "neg", "sin", "exp", "log", "abs_",
    "sigmoid", "relu", "conv1d_dilated", "linear_upsample", "stft_magnitude",
    "spectral_l1", "reduce_sum", "dropout", "slice_", "fft_convolve",
    "constant",
    "parameter", "backward", "gradient_check", "check_gradients",
    "hann_window",
]


# dtype of the products inside conv1d_dilated. check_gradients switches it
# to float64 while it runs: central differences at its step cannot resolve
# float32 rounding.
_GEMM_DTYPE = np.float32


class AutodiffError(ValueError):
    """Raised on shape mismatches, domain errors and misuse of the tape."""


class Tensor:
    """A dense float64 array with optional gradient accumulation.

    Tensors produced by ops carry the tape needed for ``backward``;
    leaf tensors with ``requires_grad=True`` receive gradients there.
    """

    __slots__ = ("values", "requires_grad", "grad", "_op", "_parents",
                 "_backward_fn", "_needs_grad", "_backward_done")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._op = None
        self._parents = ()
        self._backward_fn = None
        self._needs_grad = self.requires_grad
        self._backward_done = False

    def item(self):
        return float(self.values)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        op = f", op={self._op}" if self._op else ""
        return f"Tensor(shape={self.values.shape}{op})"


def constant(values):
    """Tensor that never accumulates gradient."""
    return Tensor(values, requires_grad=False)


def parameter(values):
    """Leaf tensor that accumulates gradient."""
    return Tensor(values, requires_grad=True)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values, op, parents, backward_fn):
    out = Tensor(values)
    if any(p._needs_grad for p in parents):
        out._op = op
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._needs_grad = True
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise AutodiffError(f"cannot reduce gradient {grad.shape} to {shape}")
    return grad


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise AutodiffError(
            f"{op}: shapes {a.values.shape} and {b.values.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# elementwise binary ops

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a, b)

    def bwd(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)

    return _make(a.values + b.values, "add", (a, b), bwd)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a, b)
    av, bv = a.values, b.values

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _make(av * bv, "mul", (a, b), bwd)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("div", a, b)
    av, bv = a.values, b.values

    def bwd(g):
        return (_unbroadcast(g / bv, av.shape),
                _unbroadcast(-g * av / (bv * bv), bv.shape))

    return _make(av / bv, "div", (a, b), bwd)


# ---------------------------------------------------------------------------
# elementwise unary ops

def neg(x):
    x = _as_tensor(x)
    return _make(-x.values, "neg", (x,), lambda g: (-g,))


def sin(x):
    x = _as_tensor(x)
    xv = x.values
    return _make(np.sin(xv), "sin", (x,), lambda g: (g * np.cos(xv),))


def exp(x):
    x = _as_tensor(x)
    ev = np.exp(x.values)
    return _make(ev, "exp", (x,), lambda g: (g * ev,))


def log(x):
    x = _as_tensor(x)
    if np.any(x.values <= 0.0):
        raise AutodiffError("log: non-positive input; add an epsilon upstream")
    xv = x.values
    return _make(np.log(xv), "log", (x,), lambda g: (g / xv,))


def abs_(x):
    x = _as_tensor(x)
    xv = x.values
    return _make(np.abs(xv), "abs", (x,), lambda g: (g * np.sign(xv),))


def sigmoid(x):
    x = _as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-np.clip(x.values, -500.0, 500.0)))
    return _make(s, "sigmoid", (x,), lambda g: (g * s * (1.0 - s),))


def relu(x):
    x = _as_tensor(x)
    mask = x.values > 0
    return _make(np.where(mask, x.values, 0.0), "relu", (x,),
                 lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# reductions

def reduce_sum(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    xv = x.values

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, xv.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xv.shape).copy(),)

    return _make(xv.sum(axis=axis, keepdims=keepdims), "reduce_sum", (x,), bwd)


# ---------------------------------------------------------------------------
# structural ops

def slice_(x, key):
    x = _as_tensor(x)
    xv = x.values

    def bwd(g):
        out = np.zeros_like(xv)
        out[key] = g
        return (out,)

    return _make(xv[key], "slice", (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra / convolution

def conv1d_dilated(x, w, b, dilation=1):
    """Dilated causal 1-D convolution plus bias, channels-first.

    x: [C_in, T], w: [C_out, C_in, K], b: [C_out, 1]. The output has
    length T and out[:, t] depends only on x[:, :t+1]. The tap products
    run in ``_GEMM_DTYPE`` (float32); the bias is added, and the output
    and every gradient are returned, in float64.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 3 or wv.shape[1] != xv.shape[0]:
        raise AutodiffError(
            f"conv1d_dilated: incompatible shapes x={xv.shape} w={wv.shape}"
        )
    c_out, c_in, k = wv.shape
    if b.values.shape != (c_out, 1):
        raise AutodiffError(
            f"conv1d_dilated: bias shape {b.values.shape} != {(c_out, 1)}"
        )
    t = xv.shape[1]
    pad = (k - 1) * dilation
    dt = _GEMM_DTYPE
    # work in [T, C] layout: row slices stay contiguous, so every product
    # below hits the BLAS fast path without copying
    xpad_t = np.zeros((t + pad, c_in), dtype=dt)
    xpad_t[pad:] = xv.T
    w_taps = [wv[:, :, tap].astype(dt) for tap in range(k)]
    acc = np.zeros((c_out, t), dtype=dt)
    for tap in range(k):
        acc += w_taps[tap] @ xpad_t[tap * dilation: tap * dilation + t].T
    out = acc.astype(np.float64, copy=False)
    out += b.values

    def bwd(g):
        g_dt = np.ascontiguousarray(g, dtype=dt)
        gx_t = np.zeros_like(xpad_t)
        gw = np.empty_like(wv)
        for tap in range(k):
            seg = xpad_t[tap * dilation: tap * dilation + t]
            gw[:, :, tap] = g_dt @ seg
            gx_t[tap * dilation: tap * dilation + t] += g_dt.T @ w_taps[tap]
        gx = gx_t[pad:].T.astype(np.float64, copy=False)
        return gx, gw, g.sum(axis=1, keepdims=True)

    return _make(out, "conv1d_dilated", (x, w, b), bwd)


def linear_upsample(x, factor):
    """Linear interpolation along the last axis by an integer factor.

    Frame t maps to sample t*factor; the final frame is held to keep
    output length exactly T*factor.
    """
    x = _as_tensor(x)
    if factor < 1 or int(factor) != factor:
        raise AutodiffError(f"linear_upsample: bad factor {factor}")
    factor = int(factor)
    xv = x.values
    t = xv.shape[-1]
    frac = np.arange(factor) / factor
    # each frame blends into the next one; the last frame is its own next
    nxt = np.concatenate([xv[..., 1:], xv[..., -1:]], axis=-1)
    out = (xv[..., :, None] * (1.0 - frac)
           + nxt[..., :, None] * frac).reshape(xv.shape[:-1] + (t * factor,))

    def bwd(g):
        # row k holds sample k of every frame
        gk = np.moveaxis(g.reshape(xv.shape + (factor,)), -1, 0).copy()
        # add one sample at a time, in sample order: a frame's own samples,
        # then the next-frame shares of the frame before, then (the held
        # last frame only) its own. The envelope gradient oscillates at
        # audio rate, so these sums cancel heavily and their rounding
        # order shows in trained weights; a fixed order keeps it
        # independent of how numpy or BLAS would block a sum.
        gx = np.zeros(xv.shape)
        for k in range(factor):
            gx += gk[k] * (1.0 - frac[k])
        for k in range(factor):
            gx[..., 1:] += gk[k, ..., :-1] * frac[k]
        for k in range(factor):
            gx[..., -1] += gk[k, ..., -1] * frac[k]
        return (gx,)

    return _make(out, "linear_upsample", (x,), bwd)


def hann_window(n):
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _stft(op, x, window, hop):
    """Hann-windowed, non-centered STFT of a 1-D Tensor's values:
    (window array, complex spectrum [frames, window//2 + 1])."""
    xv = _as_tensor(x).values
    if xv.ndim != 1:
        raise AutodiffError(f"{op}: expected 1-D input, got {xv.shape}")
    n = int(window)
    if xv.shape[0] < n:
        raise AutodiffError(f"{op}: input length {xv.shape[0]} < window {n}")
    hop = int(hop)
    if hop < 1 or n % hop != 0:
        raise AutodiffError(f"{op}: hop {hop} does not divide window {n}")
    win = hann_window(n)
    frames = np.lib.stride_tricks.sliding_window_view(xv, n)[::hop] * win
    return win, np.fft.rfft(frames, axis=1)


def stft_magnitude(x, window, hop):
    """Magnitude STFT of a 1-D signal: Hann window, non-centered frames.

    Returns a constant Tensor [frames, window//2 + 1]; hop must divide
    window. It records no tape: a loss differentiates through
    ``spectral_l1``.
    """
    _win, spec = _stft("stft_magnitude", x, window, hop)
    return Tensor(np.abs(spec))


def spectral_l1(x, target_lin, target_log, window, hop, eps):
    """One window of the multi-scale spectral loss as a single op.

    With S = |STFT(x)| as in ``stft_magnitude``, returns the scalar
    sum|target_lin - S| + sum|target_log - log(S + eps)|. The targets are
    fixed arrays shaped like S. The gradient of |.| at 0, and of |S| at
    zero-magnitude bins, is defined as 0.

    For its backward the op keeps the complex spectrum and the signs of
    the two differences as int8: 18 bytes per bin, ~14 MB over the six
    MSS windows of a 4 s clip. The backward recomputes |S| and S + eps
    from the spectrum with the forward's own expressions, so the gradient
    is bit for bit that of the unfused chain (STFT magnitude, difference,
    log, abs, sum).
    """
    x = _as_tensor(x)
    win, spec = _stft("spectral_l1", x, window, hop)
    n, hop = win.shape[0], int(hop)
    mag = np.abs(spec)
    for name, t in (("target_lin", target_lin), ("target_log", target_log)):
        if np.shape(t) != mag.shape:
            raise AutodiffError(f"spectral_l1: {name} shape {np.shape(t)} "
                                f"!= spectrogram shape {mag.shape}")
    d_lin = target_lin - mag
    d_log = mag + eps
    np.log(d_log, out=d_log)
    np.subtract(target_log, d_log, out=d_log)
    value = np.abs(d_lin, out=mag).sum() + np.abs(d_log, out=mag).sum()
    signs = None
    if x._needs_grad:  # a constant input records no tape and needs none
        if np.isnan(value):
            # a sign is NaN only in a window whose value is NaN, and int8
            # cannot hold NaN: such a window keeps float64 signs
            signs = (np.sign(d_lin), np.sign(d_log))
        else:
            # ±1 and 0 are exact in int8; casting each sign as it is
            # written makes no float64 copy
            signs = tuple(np.sign(d, out=np.empty(d.shape, np.int8),
                                  casting="unsafe") for d in (d_lin, d_log))

    def bwd(g):
        ng = -g
        gs = np.multiply(signs[0], ng, dtype=np.float64)
        g_log = np.multiply(signs[1], ng, dtype=np.float64)
        mag = np.abs(spec)
        g_log /= mag + eps
        gs += g_log
        # d|S|/dS is S/|S|, taken as 0 where |S| = 0
        inv_mag = np.divide(1.0, mag, out=np.zeros_like(mag), where=mag > 0.0)
        # adjoint of one-sided rfft of real frames; interior bins appear
        # twice in the Hermitian extension, so halve them first
        inv_mag[:, 1:(n + 1) // 2] *= 0.5
        gs = gs * spec
        gs *= inv_mag
        gframes = np.fft.irfft(gs, n=n, axis=1)
        gframes *= n
        gframes *= win
        gx = np.zeros_like(x.values)
        # frames taken every n//hop apart tile the signal without overlap,
        # so overlap-add reduces to strided flat adds
        stride = n // hop
        for k in range(min(stride, len(gframes))):
            part = gframes[k::stride]
            start = k * hop
            gx[start: start + part.size] += part.ravel()
        return (gx,)

    return _make(value, "spectral_l1", (x,), bwd)


def fft_convolve(x, h):
    """Full linear convolution of x [L] and h [M], truncated to length L.

    Computed in the frequency domain; linear in both arguments.
    """
    x, h = _as_tensor(x), _as_tensor(h)
    xv, hv = x.values, h.values
    if xv.ndim != 1 or hv.ndim != 1:
        raise AutodiffError(
            f"fft_convolve: expected 1-D inputs, got {xv.shape} and {hv.shape}"
        )
    l, m = xv.shape[0], hv.shape[0]
    nfft = _next_fast_len(l + m - 1)
    xf, hf = np.fft.rfft(xv, nfft), np.fft.rfft(hv, nfft)
    out = np.fft.irfft(xf * hf, nfft)[:l]

    def bwd(g):
        gpad = np.zeros(nfft)
        gpad[:l] = g
        gf = np.fft.rfft(gpad)
        # correlation = convolution with time-reversed argument
        gx = np.fft.irfft(gf * np.conj(hf), nfft)[:l]
        gh = np.fft.irfft(gf * np.conj(xf), nfft)[:m]
        return gx, gh

    return _make(out, "fft_convolve", (x, h), bwd)


def _next_fast_len(n):
    from scipy.fft import next_fast_len
    return next_fast_len(n, real=True)


def dropout(x, p, rng):
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    rng is a numpy Generator; callers disable dropout at inference by not
    applying this op.
    """
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout: p={p} outside [0, 1)")
    mask = (rng.random(x.values.shape) >= p) / (1.0 - p)
    return _make(x.values * mask, "dropout", (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Back-propagate from a scalar loss, accumulating into leaf .grad.

    A second call on the same loss without rebuilding the graph raises.
    """
    if not isinstance(loss, Tensor):
        raise AutodiffError("backward: loss must be a Tensor")
    if loss.values.ndim != 0 and loss.values.size != 1:
        raise AutodiffError(f"backward: loss must be scalar, got shape {loss.values.shape}")
    if loss._backward_fn is None and not loss.requires_grad:
        raise AutodiffError("backward: tensor is detached from any graph")
    if loss._backward_done:
        raise AutodiffError("backward: already called on this graph; rebuild it first")
    loss._backward_done = True

    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._needs_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p._needs_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = np.asarray(pg, dtype=np.float64)


# ---------------------------------------------------------------------------
# gradient checking

def check_gradients(fn, inputs, step=1e-5):
    """Max relative error between analytic and central-FD gradients.

    fn maps a list of Tensors to a scalar Tensor; inputs is a list of
    numpy arrays. Relative error uses max(|analytic|, |FD|, 1e-8) per
    element. Convolution products run in float64 while it runs.
    """
    if not 1e-7 <= step <= 1e-3:
        raise AutodiffError(f"check_gradients: step {step} outside [1e-7, 1e-3]")
    global _GEMM_DTYPE
    saved = _GEMM_DTYPE
    _GEMM_DTYPE = np.float64
    try:
        return _check_gradients(fn, inputs, step)
    finally:
        _GEMM_DTYPE = saved


def _check_gradients(fn, inputs, step):
    tensors = [parameter(np.asarray(v, dtype=np.float64)) for v in inputs]
    out = fn(tensors)
    if not np.all(np.isfinite(out.values)):
        raise AutodiffError("check_gradients: non-finite forward value")
    backward(out)
    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = float(fn([Tensor(x.values) for x in tensors[:i]]
                          + [Tensor(t.values)]
                          + [Tensor(x.values) for x in tensors[i + 1:]]).values)
            flat[j] = orig - step
            lo = float(fn([Tensor(x.values) for x in tensors[:i]]
                          + [Tensor(t.values)]
                          + [Tensor(x.values) for x in tensors[i + 1:]]).values)
            flat[j] = orig
            fd[j] = (hi - lo) / (2.0 * step)
        a = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - fd) / denom)))
    return worst


def _margin(x, m=0.05):
    """Push entries of x away from 0 by margin m (for kinked ops)."""
    return np.where(np.abs(x) < m, np.sign(x) * m + (x == 0) * m, x)


def _op_check_cases(seed):
    """One gradient-check case per op kind: (inputs, fn)."""
    r = np.random.default_rng(seed)
    v = lambda *s: r.standard_normal(s)
    pos = lambda *s: r.random(s) + 0.5
    drop_mask = np.random.default_rng(seed + 1).random(10)
    # targets sit 0.5 above or below the sample point's spectra, so no L1
    # kink lies within the finite-difference step
    l1_x = v(256)
    l1_mag = stft_magnitude(Tensor(l1_x), 64, 16).values
    l1_off = np.where(r.random(l1_mag.shape) < 0.5, -0.5, 0.5)
    l1_lin, l1_log = l1_mag + l1_off, np.log(l1_mag + 1e-6) + l1_off
    cases = {
        "add": ([v(3, 4), v(3, 4)], lambda t: reduce_sum(add(t[0], t[1]))),
        "mul": ([v(3, 4), v(3, 4)], lambda t: reduce_sum(mul(t[0], t[1]))),
        "div": ([v(3, 4), pos(3, 4)], lambda t: reduce_sum(div(t[0], t[1]))),
        "neg": ([v(5)], lambda t: reduce_sum(neg(t[0]))),
        "sin": ([v(6)], lambda t: reduce_sum(sin(sin(t[0])))),
        "exp": ([v(6)], lambda t: reduce_sum(exp(t[0]))),
        "log": ([pos(6)], lambda t: reduce_sum(log(t[0]))),
        "abs": ([_margin(v(6))], lambda t: reduce_sum(abs_(t[0]))),
        "sigmoid": ([v(6)], lambda t: reduce_sum(mul(sigmoid(t[0]), sigmoid(t[0])))),
        "relu": ([_margin(v(8))], lambda t: reduce_sum(mul(relu(t[0]), t[0]))),
        "conv1d_dilated": (
            [v(1, 8), v(2, 1, 3), v(2, 1)],
            lambda t: reduce_sum(sin(conv1d_dilated(t[0], t[1], t[2], dilation=2))),
        ),
        "linear_upsample": ([v(5)], lambda t: reduce_sum(sin(linear_upsample(t[0], 4)))),
        "spectral_l1": (
            [l1_x],
            lambda t: spectral_l1(t[0], l1_lin, l1_log, 64, 16, 1e-6),
        ),
        "reduce_sum": ([v(3, 4)], lambda t: reduce_sum(sin(reduce_sum(t[0], axis=1)))),
        "dropout": (
            [v(10)],
            lambda t: reduce_sum(_fixed_mask_dropout(t[0], drop_mask, 0.5)),
        ),
        "slice": ([v(4, 6)], lambda t: reduce_sum(sin(slice_(t[0], (slice(1, 3), slice(None, None, 2)))))),
        "fft_convolve": ([v(12), v(5)], lambda t: reduce_sum(sin(fft_convolve(t[0], t[1])))),
    }
    return cases


OP_KINDS = tuple(sorted(_op_check_cases(0).keys()))


def gradient_check(op_kind, seed=0, step=1e-5):
    """Gradient-check one op kind at a seeded random sample point."""
    cases = _op_check_cases(seed)
    if op_kind not in cases:
        raise AutodiffError(f"gradient_check: unknown op kind {op_kind!r}")
    inputs, fn = cases[op_kind]
    return check_gradients(fn, inputs, step=step)


def _fixed_mask_dropout(x, mask_src, p):
    mask = (mask_src >= p) / (1.0 - p)
    return mul(x, constant(mask))
