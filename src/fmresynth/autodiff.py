"""Reverse-mode automatic differentiation over dense float64 arrays.

The operator set is closed: every op listed in ``OP_KINDS`` has a forward
implementation, a backward implementation, and a gradient-check entry.
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
    "add", "sub", "mul", "div", "neg", "sin", "exp", "log", "abs_",
    "sigmoid", "relu", "cumulative_sum", "matmul", "conv1d_dilated",
    "linear_upsample", "stft_magnitude", "reduce_sum", "reduce_mean",
    "l2_norm", "dropout", "slice_", "concat", "scale_shift",
    "fft_convolve", "constant", "parameter", "backward", "gradient_check",
    "check_gradients", "hann_window",
]


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

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def item(self):
        return float(self.values)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        op = f", op={self._op}" if self._op else ""
        return f"Tensor(shape={self.values.shape}{op})"

    # operator sugar (thin wrappers over the closed op set)
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return slice_(self, key)


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


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a, b)

    def bwd(g):
        return _unbroadcast(g, a.values.shape), _unbroadcast(-g, b.values.shape)

    return _make(a.values - b.values, "sub", (a, b), bwd)


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


def scale_shift(x, scale, shift):
    """Elementwise affine map ``scale * x + shift`` (broadcasting)."""
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    _check_broadcast("scale_shift", x, scale)
    xv, sv, bv = x.values, scale.values, shift.values

    def bwd(g):
        return (_unbroadcast(g * sv, xv.shape),
                _unbroadcast(g * xv, sv.shape),
                _unbroadcast(g, bv.shape))

    return _make(sv * xv + bv, "scale_shift", (x, scale, shift), bwd)


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


def cumulative_sum(x, axis=-1):
    x = _as_tensor(x)

    def bwd(g):
        rev = np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)
        return (rev,)

    return _make(np.cumsum(x.values, axis=axis), "cumulative_sum", (x,), bwd)


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


def reduce_mean(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    xv = x.values
    if axis is None:
        n = xv.size
    else:
        n = np.prod([xv.shape[a] for a in np.atleast_1d(axis)])

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, xv.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, xv.shape).copy(),)

    return _make(xv.mean(axis=axis, keepdims=keepdims), "reduce_mean", (x,), bwd)


def l2_norm(x):
    """Scalar Euclidean norm over all elements (subgradient 0 at 0)."""
    x = _as_tensor(x)
    xv = x.values
    nrm = float(np.sqrt(np.sum(xv * xv)))

    def bwd(g):
        if nrm == 0.0:
            return (np.zeros_like(xv),)
        return (g * xv / nrm,)

    return _make(nrm, "l2_norm", (x,), bwd)


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


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise AutodiffError("concat: empty input list")
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(np.concatenate([t.values for t in tensors], axis=axis),
                 "concat", tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# linear algebra / convolution

def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise AutodiffError(
            f"matmul: incompatible shapes {a.values.shape} @ {b.values.shape}"
        )
    av, bv = a.values, b.values

    def bwd(g):
        return g @ bv.T, av.T @ g

    return _make(av @ bv, "matmul", (a, b), bwd)


def conv1d_dilated(x, w, dilation=1):
    """Dilated causal 1-D convolution, channels-first.

    x: [C_in, T], w: [C_out, C_in, K]. The output has length T and
    out[:, t] depends only on x[:, :t+1].
    """
    x, w = _as_tensor(x), _as_tensor(w)
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 3 or wv.shape[1] != xv.shape[0]:
        raise AutodiffError(
            f"conv1d_dilated: incompatible shapes x={xv.shape} w={wv.shape}"
        )
    c_out, c_in, k = wv.shape
    t = xv.shape[1]
    pad = (k - 1) * dilation
    # work in [T, C] layout: row slices stay contiguous, so every matmul
    # below hits the BLAS fast path without copying
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

    return _make(out, "conv1d_dilated", (x, w), bwd)


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
    pos = np.arange(t * factor) / factor
    i0 = np.minimum(pos.astype(np.int64), t - 1)
    i1 = np.minimum(i0 + 1, t - 1)
    frac = pos - i0
    out = xv[..., i0] * (1.0 - frac) + xv[..., i1] * frac

    def bwd(g):
        g2 = g.reshape(-1, t * factor)
        gx = np.zeros((g2.shape[0], t))
        np.add.at(gx, (slice(None), i0), g2 * (1.0 - frac))
        np.add.at(gx, (slice(None), i1), g2 * frac)
        return (gx.reshape(xv.shape),)

    return _make(out, "linear_upsample", (x,), bwd)


def hann_window(n):
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(x, window, hop):
    """Magnitude STFT of a 1-D signal: Hann window, non-centered frames.

    Returns [frames, window//2 + 1]. The gradient at zero-magnitude bins
    is defined as 0.
    """
    x = _as_tensor(x)
    xv = x.values
    if xv.ndim != 1:
        raise AutodiffError(f"stft_magnitude: expected 1-D input, got {xv.shape}")
    n = int(window)
    if xv.shape[0] < n:
        raise AutodiffError(
            f"stft_magnitude: input length {xv.shape[0]} < window {n}"
        )
    hop = int(hop)
    n_frames = (xv.shape[0] - n) // hop + 1
    win = hann_window(n)
    idx = np.arange(n)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = xv[idx] * win
    spec = np.fft.rfft(frames, axis=1)
    mag = np.abs(spec)

    def bwd(g):
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.where(mag > 0.0, g * spec / mag, 0.0 + 0.0j)
        # adjoint of one-sided rfft of real frames; interior bins appear
        # twice in the Hermitian extension, so halve them first
        scale = np.full(d.shape[1], 0.5)
        scale[0] = 1.0
        if n % 2 == 0:
            scale[-1] = 1.0
        gframes = n * np.fft.irfft(d * scale, n=n, axis=1) * win
        gx = np.zeros_like(xv)
        if n % hop == 0:
            # frames taken every n//hop apart tile the signal without
            # overlap, so overlap-add reduces to strided flat adds
            stride = n // hop
            for k in range(min(stride, n_frames)):
                sub = gframes[k::stride]
                start = k * hop
                gx[start: start + sub.size] += sub.ravel()
        else:
            np.add.at(gx, idx, gframes)
        return (gx,)

    return _make(mag, "stft_magnitude", (x,), bwd)


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
    out = np.fft.irfft(np.fft.rfft(xv, nfft) * np.fft.rfft(hv, nfft), nfft)[:l]

    def bwd(g):
        gpad = np.zeros(nfft)
        gpad[:l] = g
        gf = np.fft.rfft(gpad)
        # correlation = convolution with time-reversed argument
        gx = np.fft.irfft(gf * np.conj(np.fft.rfft(hv, nfft)), nfft)[:l]
        gh = np.fft.irfft(gf * np.conj(np.fft.rfft(xv, nfft)), nfft)[:m]
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
    if p == 0.0:
        mask = np.ones_like(x.values)
    else:
        mask = (rng.random(x.values.shape) >= p) / (1.0 - p)
    return _make(x.values * mask, "dropout", (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Back-propagate from a scalar loss, accumulating into leaf .grad.

    Returns a dict mapping id(tensor) -> gradient for requires_grad leaves.
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
    leaf_grads = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._backward_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            leaf_grads[id(node)] = node.grad
            continue
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p._needs_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = np.asarray(pg, dtype=np.float64)
        if node.requires_grad:
            # non-leaf tensor explicitly marked: also record its gradient
            node.grad = g if node.grad is None else node.grad + g
            leaf_grads[id(node)] = node.grad
    return leaf_grads


# ---------------------------------------------------------------------------
# gradient checking

def check_gradients(fn, inputs, step=1e-5):
    """Max relative error between analytic and central-FD gradients.

    fn maps a list of Tensors to a scalar Tensor; inputs is a list of
    numpy arrays. Relative error uses max(|analytic|, |FD|, 1e-8) per
    element.
    """
    if not 1e-7 <= step <= 1e-3:
        raise AutodiffError(f"check_gradients: step {step} outside [1e-7, 1e-3]")
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


def _rng(seed):
    return np.random.default_rng(seed)


def _margin(x, m=0.05):
    """Push entries of x away from 0 by margin m (for kinked ops)."""
    return np.where(np.abs(x) < m, np.sign(x) * m + (x == 0) * m, x)


def _op_check_cases(seed):
    """One gradient-check case per op kind: (inputs, fn)."""
    r = _rng(seed)
    v = lambda *s: r.standard_normal(s)
    pos = lambda *s: r.random(s) + 0.5
    drop_mask = np.random.default_rng(seed + 1).random(10)
    # |X| is non-differentiable at 0, so restrict the stft check to bins
    # whose magnitude at the sample point is safely away from zero
    stft_x = v(256)
    stft_mask = stft_magnitude(Tensor(stft_x), 64, 16).values > 0.3
    cases = {
        "add": ([v(3, 4), v(3, 4)], lambda t: reduce_sum(add(t[0], t[1]))),
        "sub": ([v(3, 4), v(4)], lambda t: reduce_sum(sub(t[0], t[1]))),
        "mul": ([v(3, 4), v(3, 4)], lambda t: reduce_sum(mul(t[0], t[1]))),
        "div": ([v(3, 4), pos(3, 4)], lambda t: reduce_sum(div(t[0], t[1]))),
        "neg": ([v(5)], lambda t: reduce_sum(neg(t[0]))),
        "sin": ([v(6)], lambda t: reduce_sum(sin(sin(t[0])))),
        "exp": ([v(6)], lambda t: reduce_sum(exp(t[0]))),
        "log": ([pos(6)], lambda t: reduce_sum(log(t[0]))),
        "abs": ([_margin(v(6))], lambda t: reduce_sum(abs_(t[0]))),
        "sigmoid": ([v(6)], lambda t: reduce_sum(mul(sigmoid(t[0]), sigmoid(t[0])))),
        "relu": ([_margin(v(8))], lambda t: reduce_sum(mul(relu(t[0]), t[0]))),
        "cumulative_sum": ([v(7)], lambda t: reduce_sum(sin(cumulative_sum(t[0])))),
        "matmul": ([v(3, 4), v(4, 2)], lambda t: reduce_sum(sin(matmul(t[0], t[1])))),
        "conv1d_dilated": (
            [v(1, 8), v(2, 1, 3)],
            lambda t: reduce_sum(sin(conv1d_dilated(t[0], t[1], dilation=2))),
        ),
        "linear_upsample": ([v(5)], lambda t: reduce_sum(sin(linear_upsample(t[0], 4)))),
        "stft_magnitude": (
            [stft_x],
            lambda t: reduce_sum(mul(stft_magnitude(t[0], 64, 16),
                                     constant(stft_mask))),
        ),
        "reduce_sum": ([v(3, 4)], lambda t: reduce_sum(sin(reduce_sum(t[0], axis=1)))),
        "reduce_mean": ([v(3, 4)], lambda t: reduce_sum(sin(reduce_mean(t[0], axis=0)))),
        "l2_norm": ([v(6) + 0.1], lambda t: l2_norm(t[0])),
        "dropout": (
            [v(10)],
            lambda t: reduce_sum(_fixed_mask_dropout(t[0], drop_mask, 0.5)),
        ),
        "slice": ([v(4, 6)], lambda t: reduce_sum(sin(slice_(t[0], (slice(1, 3), slice(None, None, 2)))))),
        "concat": ([v(3), v(4)], lambda t: reduce_sum(sin(concat([t[0], t[1]])))),
        "scale_shift": (
            [v(3, 4), v(3, 1), v(3, 1)],
            lambda t: reduce_sum(sin(scale_shift(t[0], t[1], t[2]))),
        ),
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
