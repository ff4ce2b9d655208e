import contextlib
import dataclasses
import pickle
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fmresynth import fmsynth as fm
from fmresynth import workers


def packaged_config(name):
    """Path to a bundled FM configuration file."""
    return str(resources.files("fmresynth") / "configs" / f"{name}.fm")


@pytest.fixture
def two_osc_config():
    return fm.load_config(packaged_config("strings1_2"))


@pytest.fixture
def four_osc_config():
    return fm.load_config(packaged_config("strings1_2x2"))


def piecewise_envelopes(config, t_frames, seed, i_max=2.0, lo=0.2, hi=0.8,
                        breakpoints=6):
    """Smooth random envelopes inside the per-channel level bounds."""
    rng = np.random.default_rng(seed)
    a_max = config.a_max(i_max)
    env = np.zeros((t_frames, config.n_oscillators))
    grid = np.linspace(0, t_frames - 1, breakpoints)
    for k in range(config.n_oscillators):
        pts = rng.uniform(lo, hi, size=breakpoints) * a_max[k]
        env[:, k] = np.interp(np.arange(t_frames), grid, pts)
    return env


class InProcessWorker:
    """Answers worker requests in this process, so that a patch made here
    reaches the code a worker runs; each request still goes through pickle."""

    run = workers.Worker.run

    def __init__(self):
        self.replies = []

    def send(self, message):
        workers.answer(pickle.dumps(message), self.replies.append)

    def recv(self):
        return workers.unpack(self.replies.pop(0))


@contextlib.contextmanager
def in_process_pool(limit):
    """A stand-in for ``workers.pool``: workers that run in this process."""
    pool = [InProcessWorker() for _ in range(min(workers.cpu_count(), limit))]
    yield pool
    for worker in pool:
        worker.send(workers.END)


@pytest.fixture
def in_process_workers(monkeypatch):
    monkeypatch.setattr(workers, "pool", in_process_pool)


@pytest.fixture
def replies(monkeypatch, in_process_workers):
    """Every result that a worker's reply carries, in the order read."""
    read = []
    unpack = workers.unpack
    monkeypatch.setattr(workers, "unpack",
                        lambda reply: read.append(unpack(reply)) or read[-1])
    return read


def holds_array(value):
    """Whether a numpy array is anywhere inside `value`: in a list, tuple,
    dict or dataclass, at any depth."""
    if isinstance(value, np.ndarray):
        return True
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(holds_array, value))


def worker_running(pid):
    """Whether pid is a live (not zombie) worker process."""
    proc = Path(f"/proc/{pid}")
    try:
        state = (proc / "stat").read_text().rsplit(")", 1)[1].split()[0]
        cmdline = (proc / "cmdline").read_bytes()
    except (FileNotFoundError, ProcessLookupError):  # it has exited
        return False
    return state not in "ZX" and b"workers.serve()" in cmdline


def running_workers():
    """Pids of every live worker process that /proc lists."""
    return {int(p.name) for p in Path("/proc").iterdir()
            if p.name.isdigit() and worker_running(int(p.name))}
