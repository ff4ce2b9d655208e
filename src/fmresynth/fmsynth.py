"""Constrained FM configurations and the differentiable renderer.

A configuration is a DAG of at most six sinusoidal oscillators with fixed
frequency ratios and fixed routing; the only time-varying controls are the
per-oscillator output-level envelopes. Carriers are averaged into the
output; modulators add phase terms to the oscillators they feed.

Also provides a Bessel-series oracle (``bessel_j``, ``sideband_spectrum``)
used to verify rendered sideband spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import HOP, SAMPLE_RATE

MAX_OSCILLATORS = 6


class ConfigError(ValueError):
    """Invalid or malformed FM configuration."""


@dataclass(frozen=True)
class Oscillator:
    ratio: float                 # frequency ratio w.r.t. f0, one decimal place
    modulates: tuple = ()        # 0-based indices of oscillators this one feeds
    carrier: bool = False


@dataclass(frozen=True)
class FmConfig:
    name: str
    oscillators: tuple
    source_patch: str = ""

    def __post_init__(self):
        n = len(self.oscillators)
        if n == 0:
            raise ConfigError("config has no oscillators")
        if n > MAX_OSCILLATORS:
            raise ConfigError(f"{n} oscillators exceeds the maximum of {MAX_OSCILLATORS}")
        for i, osc in enumerate(self.oscillators):
            if osc.ratio <= 0:
                raise ConfigError(f"oscillator {i + 1}: ratio must be positive")
            if abs(osc.ratio * 10 - round(osc.ratio * 10)) > 1e-9:
                raise ConfigError(
                    f"oscillator {i + 1}: ratio {osc.ratio} not representable "
                    "with one decimal place"
                )
            for j in osc.modulates:
                if not 0 <= j < n:
                    raise ConfigError(f"oscillator {i + 1}: modulates unknown oscillator {j + 1}")
                if j == i:
                    raise ConfigError("feedback not supported")
        if not any(o.carrier for o in self.oscillators):
            raise ConfigError("config has no carrier")
        # also raises on cycles
        object.__setattr__(self, "_topo", tuple(self._topological_order()))
        object.__setattr__(self, "_modulators", tuple(
            tuple(m for m, o in enumerate(self.oscillators) if k in o.modulates)
            for k in range(n)))

    def _topological_order(self):
        """Modulators-first order; raises ConfigError on cycles."""
        n = len(self.oscillators)
        # Kahn's algorithm over modulator -> target edges; an oscillator is
        # ready once all of its modulators are placed
        remaining = [0] * n
        for osc in self.oscillators:
            for j in osc.modulates:
                remaining[j] += 1
        ready = sorted(i for i in range(n) if remaining[i] == 0)
        result = []
        while ready:
            i = ready.pop(0)
            result.append(i)
            for j in self.oscillators[i].modulates:
                remaining[j] -= 1
                if remaining[j] == 0:
                    ready.append(j)
                    ready.sort()
        if len(result) != n:
            raise ConfigError("feedback not supported")
        return result

    @property
    def n_oscillators(self):
        return len(self.oscillators)

    @property
    def carrier_indices(self):
        return tuple(i for i, o in enumerate(self.oscillators) if o.carrier)

    @property
    def topological_order(self):
        """Oscillator indices, every modulator before anything it feeds."""
        return self._topo

    @property
    def modulators(self):
        """Per oscillator, the indices of the oscillators feeding it, ascending."""
        return self._modulators

    def a_max(self, i_max):
        """Per-channel envelope ceiling: 1 for carriers, i_max for modulators."""
        return np.array([1.0 if o.carrier else float(i_max) for o in self.oscillators])


@dataclass(frozen=True)
class RenderSpec:
    """f0 frames and the grid to render them on (the package's by default)."""
    sample_rate: int = SAMPLE_RATE
    hop: int = HOP
    f0_frames: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        f0 = np.asarray(self.f0_frames, dtype=np.float64)
        if np.any(f0 < 0):
            raise ValueError("f0 frames must be non-negative (0 = unvoiced)")
        object.__setattr__(self, "f0_frames", f0)


# ---------------------------------------------------------------------------
# config file format
#
# Line-oriented, '#' comments. Oscillator indices in 'modulates' are 1-based.
#
#   name: strings1
#   source_patch: STRINGS 1
#   osc: ratio=1.0 carrier
#   osc: ratio=1.0 modulates=1
#
# See docs in README for the full grammar.

def parse_config(text):
    name = None
    source_patch = ""
    oscs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "source_patch":
            source_patch = value
        elif key == "osc":
            oscs.append(_parse_osc(value, lineno))
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if name is None:
        raise ConfigError("missing 'name' field")
    if not oscs:
        raise ConfigError("config has no oscillators")
    return FmConfig(name=name, source_patch=source_patch, oscillators=tuple(oscs))


def _parse_osc(value, lineno):
    ratio = None
    modulates = ()
    carrier = False
    for token in value.split():
        if token == "carrier":
            carrier = True
        elif token.startswith("ratio="):
            try:
                ratio = float(token[len("ratio="):])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad ratio in {token!r}") from None
        elif token.startswith("modulates="):
            try:
                modulates = tuple(int(s) - 1 for s in token[len("modulates="):].split(","))
            except ValueError:
                raise ConfigError(f"line {lineno}: bad modulates list in {token!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown token {token!r}")
    if ratio is None:
        raise ConfigError(f"line {lineno}: oscillator missing ratio")
    return Oscillator(ratio=ratio, modulates=modulates, carrier=carrier)


def serialize_config(config):
    lines = [f"name: {config.name}"]
    if config.source_patch:
        lines.append(f"source_patch: {config.source_patch}")
    for osc in config.oscillators:
        parts = [f"ratio={osc.ratio:.1f}"]
        if osc.modulates:
            parts.append("modulates=" + ",".join(str(j + 1) for j in osc.modulates))
        if osc.carrier:
            parts.append("carrier")
        lines.append("osc: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))


# ---------------------------------------------------------------------------
# rendering

def render(config, env, spec, i_max=None):
    """Differentiable render of ``T * hop`` samples.

    env: Tensor of shape [n_osc, T] (channels first, as produced by the
    decoder) or a [T, n_osc] array. Each oscillator k runs at
    instantaneous frequency ratio_k * f0 with phase accumulated by
    cumulative sum from 0; its output is env_k * sin(phase + sum of
    modulator inputs); carriers are averaged into the final output.

    When ``i_max`` is given, modulator envelopes are validated against
    it; carrier envelopes are always validated against [0, 1].
    """
    n_osc = config.n_oscillators
    if not isinstance(env, Tensor):
        arr = np.asarray(env, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"envelopes must be 2-D, got shape {arr.shape}")
        env = Tensor(arr.T)
    if env.values.shape[0] != n_osc:
        raise ValueError(
            f"envelope has {env.values.shape[0]} channels, config "
            f"{config.name!r} has {n_osc} oscillators"
        )
    t_frames = env.values.shape[1]
    f0 = spec.f0_frames
    if f0.shape[0] != t_frames:
        raise ValueError(
            f"frame count mismatch: {t_frames} envelope frames vs "
            f"{f0.shape[0]} f0 frames"
        )
    _validate_env_bounds(config, env.values, i_max)

    hop = spec.hop
    n_samples = t_frames * hop
    f0_up = ad.linear_upsample(ad.constant(f0), hop).values

    # constant phase track per oscillator: 2*pi*cumsum(r * f0 / sr)
    osc_out = [None] * n_osc
    env_rows = [ad.slice_(env, (k, slice(None))) for k in range(n_osc)]
    for k in config.topological_order:
        osc = config.oscillators[k]
        phase = 2.0 * np.pi * np.cumsum(osc.ratio * f0_up / spec.sample_rate)
        mod_in = None
        for m in config.modulators[k]:
            mod_in = osc_out[m] if mod_in is None else ad.add(mod_in, osc_out[m])
        arg = ad.constant(phase) if mod_in is None else ad.add(ad.constant(phase), mod_in)
        env_up = ad.linear_upsample(env_rows[k], hop)
        osc_out[k] = ad.mul(env_up, ad.sin(arg))

    carriers = config.carrier_indices
    total = osc_out[carriers[0]]
    for c in carriers[1:]:
        total = ad.add(total, osc_out[c])
    out = ad.mul(total, ad.constant(1.0 / len(carriers)))
    assert out.values.shape == (n_samples,)
    return out


def _validate_env_bounds(config, values, i_max):
    for k, osc in enumerate(config.oscillators):
        chan = values[k]
        if np.any(chan < 0):
            raise ValueError(f"envelope channel {k + 1} below 0")
        if osc.carrier and np.any(chan > 1.0 + 1e-12):
            raise ValueError(f"carrier envelope channel {k + 1} exceeds 1")
        if not osc.carrier and i_max is not None and np.any(chan > i_max + 1e-12):
            raise ValueError(f"modulator envelope channel {k + 1} exceeds I_max={i_max}")


# ---------------------------------------------------------------------------
# Bessel-series oracle

def bessel_j(n, x):
    """J_n(x) by the truncated power series, |x| <= 16, abs error < 1e-10.

    term_m = (-1)^m (x/2)^(2m+n) / (m! (m+n)!), summed until < 1e-12.
    """
    if n < 0 or int(n) != n:
        raise ValueError("n must be a non-negative integer")
    n = int(n)
    x = float(x)
    half = x / 2.0
    # term for m = 0: half^n / n!
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    total = term
    m = 0
    while abs(term) >= 1e-12 or m < 2:
        m += 1
        term *= -(half * half) / (m * (m + n))
        total += term
        if m > 200:
            break
    return total


def sideband_spectrum(i_mod, n_max):
    """Signed sideband amplitudes J_n(I) for n in [-n_max, n_max].

    J_{-n}(I) = (-1)^n J_n(I).
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if i_mod < 0:
        raise ValueError("modulation index must be non-negative")
    pos = np.array([bessel_j(n, i_mod) for n in range(n_max + 1)])
    out = np.zeros(2 * n_max + 1)
    for n in range(-n_max, n_max + 1):
        out[n + n_max] = pos[abs(n)] * ((-1) ** abs(n) if n < 0 else 1.0)
    return out
