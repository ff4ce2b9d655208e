"""Persistent worker processes for work that is independent per clip or
per wav: the clips of a training step, ``prepare``'s wavs, the clips
``evaluate_checkpoint`` scores and the clips ``synth_corpus`` renders.

Each worker is ``python -c`` started with ``subprocess`` (never a
``multiprocessing`` start method, which re-imports an unguarded
``__main__``), with every BLAS library held to one thread, so a clip's
numbers do not depend on the host's cores, and with glibc's heap held
warm (``MALLOC_ENV``, below). Parent and worker exchange pickles over the
worker's stdin and stdout. A request names its work: ``(caller's cwd, fn,
args, items)``, with ``fn`` a module-level function pickled by reference,
and travels as pickled bytes, so one the worker cannot unpickle is
answered as an error. The worker changes to the caller's directory and
replies ``("ok", fn(*args, item))`` per item, in order; the first item
that raises is answered with ``("error", exception, traceback text)`` and
nothing more for that request. ``scatter`` deals a call's items out, item
j to worker j mod n, and reads their replies back in item order. ``held``
is where a call leaves values in a worker for its own later requests; the
pool empties it when the call ends.

By default glibc serves every block above 128 KiB from a fresh ``mmap``
and hands freed memory at the top of the heap back to the kernel, so a
clip's large numpy temporaries (YIN's frames, the STFTs) are faulted in
again for every clip: ~7 000 minor faults per 4 s clip's
``extract_features``, none with ``MALLOC_ENV``. With it, blocks up to
32 MiB, glibc's largest mmap threshold on 64-bit, come from the heap, and
the heap is trimmed only when 1 GiB at its top is free, so a worker's
resident size stays at its high-water mark between calls. Other C
libraries ignore both variables, and no number depends on them.

Workers start on first use and live as long as the interpreter: they are
closed from ``atexit``, and a parent that dies closes their stdin, which
ends them too.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[1])
_WORKERS = []
END = (None, None, (), ())  # the pool's end message: empties ``held``
held = {}


def cpu_count():
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


class RemoteTraceback(Exception):
    """The traceback of an exception raised in a worker, as its cause."""


def unpack(reply):
    """The result a reply carries; re-raises the exception a worker sent."""
    kind, *payload = reply
    if kind == "error":
        exc, text = payload
        raise exc from RemoteTraceback(text)
    return payload[0]


def answer(request, reply):
    """Answer one pickled request (see the module docstring) via ``reply``."""
    try:
        cwd, fn, args, items = pickle.loads(request)
        if fn is None:  # END
            held.clear()
            return
        os.chdir(cwd)
        for item in items:
            reply(("ok", fn(*args, item)))
    except Exception as exc:
        text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        reply(("error", exc, text))


class Worker:
    """One worker process and the two pipes to it."""

    def __init__(self, index):
        self.index = index
        env = {**os.environ, **{var: "1" for var in BLAS_ENV}, **MALLOC_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_PACKAGE_ROOT, env.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "from fmresynth import workers; workers.serve()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def send(self, message):
        request = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        try:
            pickle.dump(request, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError:
            raise self._exited() from None

    def run(self, fn, args, items):
        """Request ``fn(*args, item)`` for each item."""
        self.send((os.getcwd(), fn, args, items))

    def recv(self):
        try:
            reply = pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._exited() from None
        return unpack(reply)

    def _exited(self):
        name = f"worker {self.index} (pid {self.proc.pid})"
        try:
            code = self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            return ChildProcessError(f"{name} stopped answering")
        return ChildProcessError(f"{name} exited with code {code}")

    def close(self):
        """EOF on its stdin ends the worker; one still busy after 5 s is
        killed. Either way it is reaped."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@contextmanager
def pool(limit):
    """The first min(cores, limit) workers, started as needed, for one call.

    On a normal exit each empties ``held``; on an exception every worker is
    closed, since replies still on their way would otherwise answer the
    next call.
    """
    n = min(cpu_count(), limit)
    while len(_WORKERS) < n:
        _WORKERS.append(Worker(len(_WORKERS)))
    try:
        yield _WORKERS[:n]
        for worker in _WORKERS[:n]:
            worker.send(END)
    except BaseException:
        close_all()
        raise


def scatter(pool, fn, args, items):
    """Run ``fn(*args, item)`` for item j of ``items`` in worker j mod n of
    the n-worker ``pool``, and yield the results in item order, so what the
    caller does with them does not depend on n."""
    n = len(pool)
    for k, worker in enumerate(pool):
        worker.run(fn, args, items[k::n])
    for j in range(len(items)):
        yield pool[j % n].recv()


@atexit.register
def close_all():
    while _WORKERS:
        _WORKERS.pop().close()


def serve():
    """A worker's main loop: answer requests on stdin until it closes."""
    # Ctrl-C reaches the whole process group; the parent decides
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into the reply pipe
    outbox = queue.Queue()

    def send_replies():
        # a thread of its own, so that computing never waits for the
        # parent to read: it reads the replies in batch order
        while (reply := outbox.get()) is not None:
            try:
                pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
            except OSError:  # the parent is gone
                os._exit(1)

    sender = threading.Thread(target=send_replies, daemon=True)
    sender.start()
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            break
        answer(request, outbox.put)
    outbox.put(None)
    sender.join()
