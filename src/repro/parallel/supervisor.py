"""Self-healing supervision of the sharded sweep, and the fork primitive.

Every forked worker in the program — a sweep shard here, an analysis
task in :mod:`repro.analysis.engine` — runs through :func:`spawn` and
:func:`collect`.  The child swaps in a fresh metrics registry and
buffer tracer, runs one callable, and ships its value home with both
as one length-prefixed pickle; the parent gets that value back, or a
:class:`WorkerFailure` saying how the worker failed.  A three-year
weekly campaign cannot let one dead worker abort a sweep, so on top of
that primitive this module adds real failure handling:

* **deadlines** — each worker gets a wall-clock budget; the parent
  drains its pipe through ``select`` with a timeout and reaps expired
  workers with SIGKILL plus a ``waitpid(WNOHANG)`` poll loop, so a hung
  worker costs one deadline, never the sweep;
* **death detection** — a worker that dies by signal, exits nonzero, or
  truncates its result pickle is recognized and described with its
  shard identity (index plus FQDN slice bounds), not just a pid;
* **bounded re-dispatch** — a failed span is re-forked up to a retry
  budget; transient faults (a crashed or hung worker) clear on retry;
* **poison isolation via bisection** — a span that keeps failing is
  split in half and each half retried, recursively, until the single
  offending FQDN is isolated and quarantined into a dead-letter record
  with the failure reason.  One pathological subject costs one name,
  not the sweep.

Recovered results are stitched back **in original shard order** (a
bisected span's halves concatenate left-to-right), so the executor's
deterministic merge — and therefore the exported bytes — are identical
to a crash-free run, modulo the quarantined names.

Fault injection: :meth:`~repro.faults.plan.FaultPlan.worker_fault`
draws ``crash``/``hang`` decisions from per-shard RNG streams on a
span's *first* dispatch only, and :meth:`~repro.faults.plan.FaultPlan.poison_hit`
names make the worker die on *every* attempt — so random faults are
always survivable while poison deterministically reaches quarantine,
all without a single real network or scheduler dependency.
"""

from __future__ import annotations

import errno
import os
import pickle
import select
import signal
import struct
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.monitoring import ExtractionCache, WeeklyMonitor
from repro.dns.names import Name
from repro.obs import OBS, MetricsRegistry
from repro.parallel.shard import (
    ShardResult,
    add_counters,
    counter_snapshot,
    run_shard,
    shard_bounds,
    shard_ident,
    write_counters,
)

_LENGTH = struct.Struct("<Q")


class WorkerFailure(Exception):
    """One worker attempt failed; ``kind`` classifies how.

    ``kind`` is ``"crash"`` (death by signal / nonzero exit / truncated
    or corrupt payload), ``"hang"`` (deadline expired) or ``"error"``
    (the worker itself reported an exception, or a value it could not
    pickle).
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
    started: float
    #: What the child works on (a shard identity, an analysis task);
    #: every failure reason starts with it.
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
    return Worker(pid=pid, read_fd=read_fd, started=time.monotonic(), ident=ident)


def collect(
    worker: Worker, timeout: Optional[float] = None, reap_grace: float = 2.0
) -> Tuple[object, Optional[MetricsRegistry], List[dict]]:
    """Drain one worker's pipe within ``timeout`` seconds of its fork.

    Returns ``(value, registry, events)`` — the child's value and the
    observability it shipped (``None``/empty while observability is
    off) — or raises :class:`WorkerFailure`.  The read loop is
    ``select``-driven so a silent worker costs at most the remaining
    deadline (``None`` waits indefinitely; death is still seen as pipe
    EOF), and the worker is *always* reaped.  A worker that sent its
    whole frame has only ``os._exit`` left, so a blocking wait reaps it
    as soon as it exits; one that failed first is reaped by the
    ``WNOHANG`` poll loop, with SIGKILL on expiry.
    """
    ident = f"{worker.ident} worker pid {worker.pid}"
    deadline = worker.started + timeout if timeout is not None else None
    buffer = bytearray()
    length: Optional[int] = None
    try:
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _kill(worker.pid)
                    status = _reap(worker.pid, reap_grace)
                    raise WorkerFailure(
                        f"{ident}: no result within the {timeout:g}s deadline; "
                        f"killed ({_describe_exit(status)})",
                        kind="hang",
                    )
            else:
                remaining = None
            try:
                ready, _, _ = select.select([worker.read_fd], [], [], remaining)
            except OSError as error:  # pragma: no cover - EINTR on old kernels
                if error.errno == errno.EINTR:
                    continue
                raise
            if not ready:
                continue
            chunk = os.read(worker.read_fd, 1 << 20)
            if not chunk:
                status = _reap(worker.pid, reap_grace)
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
            if length is not None and len(buffer) >= _LENGTH.size + length:
                break
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


def _reap(pid: int, grace: float) -> int:
    """Non-blocking reap: ``WNOHANG`` poll, then SIGKILL escalation.

    Never blocks on a child that refuses to die: after ``grace``
    seconds of polling, the child is SIGKILL'd and the wait repeats
    (SIGKILL is not maskable, so this terminates).
    """
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return 0
        if done == pid:
            return status
        if not killed and time.monotonic() >= deadline:
            _kill(pid)
            killed = True
        time.sleep(0.005)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- sweep supervision -----------------------------------------------------


@dataclass
class SupervisorConfig:
    """Failure-handling knobs of one supervised sweep."""

    #: Wall-clock budget per worker, measured from its fork.  ``None``
    #: waits indefinitely (worker *death* is still detected via pipe
    #: EOF; only true hangs need a deadline).
    shard_deadline: Optional[float] = None
    #: Re-dispatches of one span after its first failure, before the
    #: span is bisected (or, at one name, quarantined).  Must be >= 1
    #: so a once-per-span random fault can never reach quarantine.
    max_shard_retries: int = 2
    #: How long to poll ``waitpid(WNOHANG)`` for a child that already
    #: closed its pipe before escalating to SIGKILL.
    reap_grace: float = 2.0

    def __post_init__(self) -> None:
        if self.max_shard_retries < 1:
            raise ValueError(
                f"max_shard_retries must be >= 1, got {self.max_shard_retries}"
            )


@dataclass
class DeadLetter:
    """One quarantined FQDN: the poison bisection's terminal record."""

    fqdn: Name
    shard_index: int
    reason: str


@dataclass
class SupervisedSweep:
    """Everything one supervised sweep produced.

    ``results`` holds exactly one :class:`ShardResult` per original
    shard, in shard order, with retried/bisected spans already stitched
    back together; ``quarantined`` lists the names bisection isolated.
    """

    results: List[ShardResult] = field(default_factory=list)
    quarantined: List[DeadLetter] = field(default_factory=list)
    worker_crashes: int = 0
    worker_hangs: int = 0
    shard_retries: int = 0


def _simulate_worker_fault(fault: Optional[str], plan, fqdns: Sequence[Name]) -> None:
    """Act out an injected process fault *inside the forked child*.

    A crash is a real ``SIGKILL`` to self — the parent sees pipe EOF
    and a signal exit status, exactly like an OOM kill.  A hang parks
    the child in a sleep loop until the supervisor's deadline reaps it.
    Poison subjects crash the worker on every attempt.
    """
    if plan is not None and plan.poison_hit(fqdns) is not None:
        _kill(os.getpid())
    if fault == "crash":
        _kill(os.getpid())
    elif fault == "hang":
        while True:  # pragma: no cover - killed by the supervisor
            time.sleep(0.05)


def _run_inline(
    monitor: WeeklyMonitor,
    index: int,
    fqdns: Sequence[Name],
    bounds: Tuple[int, int],
    at: datetime,
    cache: Optional[ExtractionCache],
    fault: Optional[str],
) -> ShardResult:
    """One span attempt without fork (single CPU / no ``os.fork``).

    Injected faults raise *before* any sampling, so a simulated failed
    attempt has zero parent-state side effects.  A genuine mid-sample
    exception writes back every counter in the pre-attempt
    :func:`~repro.parallel.shard.counter_snapshot`, so the attempt
    leaves the counters where a failed forked attempt (whose deltas die
    with its worker) leaves them.  Its other effects on the parent —
    new extraction-cache entries, passive-DNS observations — stay.
    """
    plan = monitor.client.fault_plan
    ident = shard_ident(index, bounds)
    if plan is not None and plan.poison_hit(fqdns) is not None:
        raise WorkerFailure(f"{ident}: worker crashed mid-shard (inline)", kind="crash")
    if fault == "crash":
        raise WorkerFailure(f"{ident}: worker crashed mid-shard (inline)", kind="crash")
    if fault == "hang":
        raise WorkerFailure(
            f"{ident}: worker hung; reaped at deadline (inline)", kind="hang"
        )
    before = counter_snapshot(monitor, cache)
    try:
        return run_shard(monitor, index, fqdns, at, cache, forked=False)
    except Exception:
        write_counters(monitor, cache, before)
        raise WorkerFailure(
            f"{ident}:\n{traceback.format_exc()}", kind="error"
        )


def _combine(left: ShardResult, right: ShardResult) -> ShardResult:
    """Stitch a bisected span's halves back into one in-order result."""
    merged = ShardResult(index=left.index, size=left.size + right.size)
    merged.sampled = left.sampled + right.sampled
    merged.failures = left.failures + right.failures
    merged.counters = add_counters(left.counters, right.counters)
    merged.observations = left.observations + right.observations
    merged.new_html = {**left.new_html, **right.new_html}
    merged.new_sitemap = {**left.new_sitemap, **right.new_sitemap}
    merged.ledger_entries = {**left.ledger_entries, **right.ledger_entries}
    merged.wall_seconds = left.wall_seconds + right.wall_seconds
    # Bisected halves ran sequentially in separate workers: CPU sums,
    # peak RSS is whichever half's process grew larger.
    merged.cpu_seconds = left.cpu_seconds + right.cpu_seconds
    merged.peak_rss_kb = max(left.peak_rss_kb, right.peak_rss_kb)
    if left.metrics is not None and right.metrics is not None:
        merged.metrics = left.metrics.merge(right.metrics)
    else:
        merged.metrics = left.metrics if left.metrics is not None else right.metrics
    merged.trace_events = left.trace_events + right.trace_events
    return merged


class ShardSupervisor:
    """Drives one sweep's spans through attempt / retry / bisect."""

    def __init__(
        self,
        monitor: WeeklyMonitor,
        at: datetime,
        cache: Optional[ExtractionCache],
        config: SupervisorConfig,
        forked: bool,
    ):
        self.monitor = monitor
        self.at = at
        self.cache = cache
        self.config = config
        self.forked = forked
        self.plan = monitor.client.fault_plan
        self.outcome = SupervisedSweep()

    # -- bookkeeping ------------------------------------------------------

    def _draw_fault(self, shard_index: int) -> Optional[str]:
        if self.plan is None:
            return None
        return self.plan.worker_fault(shard_index)

    def _note_failure(self, failure: WorkerFailure) -> None:
        if failure.kind == "hang":
            self.outcome.worker_hangs += 1
            if OBS.enabled:
                OBS.metrics.inc("supervisor.worker_hangs")
        else:
            self.outcome.worker_crashes += 1
            if OBS.enabled:
                OBS.metrics.inc("supervisor.worker_crashes")

    # -- span execution ---------------------------------------------------

    def _fork(
        self,
        index: int,
        fqdns: Sequence[Name],
        bounds: Tuple[int, int],
        fault: Optional[str],
    ) -> Worker:
        """Fork one span attempt on the shared primitive."""

        def work() -> ShardResult:
            _simulate_worker_fault(fault, self.plan, fqdns)
            return run_shard(self.monitor, index, fqdns, self.at, self.cache, forked=True)

        return spawn(work, shard_ident(index, bounds))

    def _collect(self, worker: Worker) -> ShardResult:
        result, registry, events = collect(
            worker, self.config.shard_deadline, self.config.reap_grace
        )
        result.metrics = registry
        result.trace_events = events
        return result

    def _attempt(
        self,
        index: int,
        fqdns: Sequence[Name],
        bounds: Tuple[int, int],
        fault: Optional[str],
    ) -> ShardResult:
        if self.forked:
            return self._collect(self._fork(index, fqdns, bounds, fault))
        return _run_inline(
            self.monitor, index, fqdns, bounds, self.at, self.cache, fault
        )

    def run_span(
        self,
        index: int,
        fqdns: Sequence[Name],
        bounds: Tuple[int, int],
        initial_failure: Optional[WorkerFailure] = None,
    ) -> ShardResult:
        """One span to completion: attempts, then bisection/quarantine.

        ``initial_failure`` is set when the span's first (concurrent)
        dispatch already failed — the retry budget picks up from there.
        Returns the span's results with every recoverable name sampled
        in input order; quarantined names are recorded on the outcome
        and simply absent from the result.
        """
        failure = initial_failure
        first_attempt = 0 if initial_failure is None else 1
        for attempt in range(first_attempt, self.config.max_shard_retries + 1):
            # Random worker faults are drawn once per span, on its
            # first dispatch; retries run fault-free so they always
            # converge.  Poison is consulted inside the worker on
            # every attempt — that is what bisection is for.
            fault = self._draw_fault(index) if attempt == 0 else None
            if attempt > 0:
                self.outcome.shard_retries += 1
                if OBS.enabled:
                    OBS.metrics.inc("supervisor.shard_retries")
            try:
                if attempt > 0:
                    with OBS.tracer.span(
                        "supervisor.redispatch", sim=self.at, shard=index,
                        attempt=attempt, size=len(fqdns),
                    ):
                        return self._attempt(index, fqdns, bounds, fault)
                return self._attempt(index, fqdns, bounds, fault)
            except WorkerFailure as error:
                self._note_failure(error)
                failure = error
        assert failure is not None
        if len(fqdns) == 1:
            self.outcome.quarantined.append(
                DeadLetter(fqdn=fqdns[0], shard_index=index, reason=str(failure))
            )
            if OBS.enabled:
                OBS.metrics.inc("supervisor.poison_quarantined")
            return ShardResult(index=index, size=len(fqdns))
        mid = len(fqdns) // 2
        start, end = bounds
        with OBS.tracer.span(
            "supervisor.bisect", sim=self.at, shard=index, size=len(fqdns),
        ):
            left = self.run_span(index, fqdns[:mid], (start, start + mid))
            right = self.run_span(index, fqdns[mid:], (start + mid, end))
        return _combine(left, right)


def run_shards_supervised(
    monitor: WeeklyMonitor,
    shards: List[List[Name]],
    at: datetime,
    cache: Optional[ExtractionCache],
    config: Optional[SupervisorConfig] = None,
    forked: bool = True,
) -> SupervisedSweep:
    """Run every shard under supervision; results in shard order.

    In ``forked`` mode all top-level spans launch concurrently and are
    drained in shard order; recovery of any failed span — re-dispatch,
    then bisection — runs sequentially, which keeps the fault-stream
    draw order, and thus the whole storm, deterministic.  With
    ``forked=False`` every span runs inline with identical retry/bisect
    semantics (injected faults are raised instead of signalled).
    """
    config = config if config is not None else SupervisorConfig()
    supervisor = ShardSupervisor(monitor, at, cache, config, forked)
    bounds = shard_bounds(shards)
    outcome = supervisor.outcome
    if not forked:
        for index, shard in enumerate(shards):
            outcome.results.append(supervisor.run_span(index, shard, bounds[index]))
        return outcome
    workers = [
        supervisor._fork(index, shard, bounds[index], supervisor._draw_fault(index))
        for index, shard in enumerate(shards)
    ]
    for index, worker in enumerate(workers):
        try:
            outcome.results.append(supervisor._collect(worker))
        except WorkerFailure as failure:
            supervisor._note_failure(failure)
            outcome.results.append(
                supervisor.run_span(
                    index, shards[index], bounds[index], initial_failure=failure
                )
            )
    return outcome
