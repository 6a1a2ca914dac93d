"""The fork primitive: one forked worker, its result, and how it failed.

The analysis pool (:mod:`repro.analysis.engine`) runs each task in a
forked child through :func:`spawn` and :func:`collect`.  The child
swaps in a fresh metrics registry and buffer tracer, runs one callable,
and ships its value home with both as one length-prefixed pickle; the
parent gets that value back, or a :class:`WorkerFailure` saying how the
worker failed:

* a worker that dies by signal, exits nonzero, or truncates its result
  pickle is recognized and described by what it worked on, not just a
  pid;
* an exception inside the worker, or a value it cannot pickle, comes
  home as an error frame;
* every worker is reaped: a blocking wait once its whole frame arrived,
  else a ``waitpid(WNOHANG)`` poll loop with SIGKILL escalation.

Weekly sweeps do not fork: each runs as one inline shard
(:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs import OBS, MetricsRegistry

_LENGTH = struct.Struct("<Q")
#: How long to poll ``waitpid(WNOHANG)`` for a child that closed its
#: pipe early before escalating to SIGKILL.
_REAP_GRACE = 2.0


class WorkerFailure(Exception):
    """One worker failed; ``kind`` classifies how.

    ``kind`` is ``"crash"`` (death by signal / nonzero exit / truncated
    or corrupt payload) or ``"error"`` (the worker itself reported an
    exception, or a value it could not pickle).
    """

    def __init__(self, reason: str, kind: str = "crash"):
        super().__init__(reason)
        self.kind = kind


# -- the fork primitive ----------------------------------------------------


def fork_available() -> bool:
    return hasattr(os, "fork")


def fork_with_pipe() -> Tuple[int, int, int]:
    """Fork with a result pipe, leaking nothing on failure.

    Returns ``(pid, read_fd, write_fd)``.  If ``os.fork`` raises —
    EAGAIN under pid pressure, ENOMEM — both pipe ends are closed
    before the exception propagates, so a failed spawn can't bleed
    file descriptors across a long campaign.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    return pid, read_fd, write_fd


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _send_payload(write_fd: int, payload: bytes) -> None:
    """Child-side result send (module-level so tests can interpose)."""
    _write_all(write_fd, _LENGTH.pack(len(payload)) + payload)


def _frame(kind: str, value: object) -> bytes:
    """One result frame: the value plus the child's observability.

    Metrics-only configurations leave the null tracer (which buffers
    nothing) installed, hence the ``events`` fallback.
    """
    registry = OBS.metrics if OBS.enabled else None
    events = getattr(OBS.tracer, "events", []) if OBS.enabled else []
    return pickle.dumps(
        (kind, value, registry, events), protocol=pickle.HIGHEST_PROTOCOL
    )


@dataclass
class Worker:
    """Parent-side handle on one forked child."""

    pid: int
    read_fd: int
    #: What the child works on (an analysis task); every failure
    #: reason starts with it.
    ident: str


def spawn(work: Callable[[], object], ident: str) -> Worker:
    """Fork a child that runs ``work()`` and ships its value home.

    The child's counters and spans would die with it, so it swaps in a
    fresh :class:`MetricsRegistry` and a buffer tracer first and sends
    both with the value.  An exception from ``work`` — or a value that
    cannot be pickled — goes home as an error frame naming ``ident``.
    The child leaves through ``os._exit``, so no parent state (buffers,
    atexit hooks) replays.
    """
    pid, read_fd, write_fd = fork_with_pipe()
    if pid == 0:
        os.close(read_fd)
        exit_code = 0
        try:
            if OBS.enabled:
                OBS.metrics = MetricsRegistry()
                OBS.tracer = OBS.tracer.fork_buffer()
            try:
                value = work()
            except Exception:
                payload = _frame("err", f"{ident}:\n{traceback.format_exc()}")
            else:
                try:
                    payload = _frame("ok", value)
                except Exception as error:
                    payload = _frame(
                        "err",
                        f"{ident}: result cannot be pickled: "
                        f"{type(error).__name__}: {error}",
                    )
            _send_payload(write_fd, payload)
            os.close(write_fd)
        except BaseException:
            exit_code = 1
        os._exit(exit_code)
    os.close(write_fd)
    return Worker(pid=pid, read_fd=read_fd, ident=ident)


def collect(worker: Worker) -> Tuple[object, Optional[MetricsRegistry], List[dict]]:
    """Drain one worker's pipe until its whole frame arrived, or EOF.

    Returns ``(value, registry, events)`` — the child's value and the
    observability it shipped (``None``/empty while observability is
    off) — or raises :class:`WorkerFailure`.  The worker is *always*
    reaped.  A worker that sent its whole frame has only ``os._exit``
    left, so a blocking wait reaps it as soon as it exits; one that died
    first is reaped by the ``WNOHANG`` poll loop, with SIGKILL on
    expiry.
    """
    ident = f"{worker.ident} worker pid {worker.pid}"
    buffer = bytearray()
    length: Optional[int] = None
    try:
        while length is None or len(buffer) < _LENGTH.size + length:
            chunk = os.read(worker.read_fd, 1 << 20)
            if not chunk:
                status = _reap(worker.pid)
                raise WorkerFailure(
                    f"{ident}: {_describe_exit(status)} after sending "
                    f"{len(buffer)} of "
                    f"{'?' if length is None else length + _LENGTH.size} "
                    f"result bytes",
                    kind="crash",
                )
            buffer.extend(chunk)
            if length is None and len(buffer) >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer)
    finally:
        os.close(worker.read_fd)
    os.waitpid(worker.pid, 0)
    try:
        kind, value, registry, events = pickle.loads(
            bytes(buffer[_LENGTH.size:_LENGTH.size + length])
        )
    except Exception as error:
        raise WorkerFailure(f"{ident}: corrupt result payload ({error})", kind="crash")
    if kind == "err":
        raise WorkerFailure(str(value), kind="error")
    return value, registry, events


def absorb(registry: Optional[MetricsRegistry], events: List[dict]) -> None:
    """Fold what one child shipped home into this process's observability."""
    if registry is not None and OBS.enabled:
        OBS.metrics.merge_from(registry)
    if events:
        OBS.tracer.replay(events)


def _describe_exit(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    if os.WIFEXITED(status):
        code = os.WEXITSTATUS(status)
        return f"exited {code}" if code else "exited 0"
    return f"wait status {status}"  # pragma: no cover - stopped/continued


def _reap(pid: int) -> int:
    """Non-blocking reap: ``WNOHANG`` poll, then SIGKILL escalation.

    Never blocks on a child that refuses to die: after ``_REAP_GRACE``
    seconds of polling, the child is SIGKILL'd and the wait repeats
    (SIGKILL is not maskable, so this terminates).
    """
    deadline = time.monotonic() + _REAP_GRACE
    killed = False
    while True:
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return 0
        if done == pid:
            return status
        if not killed and time.monotonic() >= deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
        time.sleep(0.005)
