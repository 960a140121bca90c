"""Pluggable execution backends behind one ``ExecutorBackend`` interface.

Every pooled :func:`~repro.runtime.executor.map_tasks` runs under the
supervisor in :mod:`repro.runtime.supervision`, which drives one of the
transports below through one small interface, so the *policy* layer
(retries, timeouts, crash classification, error policies) is written
once and runs identically over every transport:

``serial``
    In-process execution.  The execution envelope runs inline: failure
    envelopes and retries work, but there is no second process to kill,
    so timeouts and crash recovery do not apply.
``forked``
    A forked process pool per map, with a hung-worker watchdog and
    broken-pool recovery.
``persistent``
    The forked pool, created once and reused across sweeps/batches — a
    process-level singleton that kills the per-sweep fork + pickle tax.
    Task semantics are identical to ``forked``; only pool lifetime
    changes.
``socket``
    The distributed tier: a coordinator that leases tasks to external
    worker daemons (``python -m repro.worker --connect host:port``) over
    the :mod:`repro.runtime.wire` protocol.  Leases carry heartbeat
    deadlines; an expired or orphaned lease is reassigned to a live
    worker, reconnecting workers are re-admitted, double-completed
    leases are deduplicated (idempotent, content-addressed cells make
    the duplicate drop safe), and a coordinator that cannot find any
    worker — at open, or mid-sweep after losing all of them — degrades
    to the local ``forked`` backend and logs it.

Backend choice is *transport only*: every backend maps the same task
payloads (with their per-task seeds) through the same functions, so
results — and therefore store addresses via ``task_key()`` — are
bit-identical across backends.  Selection precedence is explicit
argument (``ExperimentConfig.backend`` / CLI ``--backend``) over the
:data:`ENV_VAR` environment variable over ``None`` (auto), and auto is
``forked`` (``serial`` where ``fork`` is unavailable).

The interface is event-driven: the supervisor
(:func:`repro.runtime.supervision.supervise`) calls
``open(function, tasks, workers)``, then ``submit(index, attempt)`` /
``poll(timeout) -> [BackendEvent]`` in a loop, consulting ``running()``
for watchdog deadlines and ``kill(index)`` to enforce them, and finally
``close(graceful)``.  An event is ``ok`` (a result), ``failure`` (one
*charged* attempt: exception, timeout or crash envelope) or ``lost``
(the attempt never completed through no fault of the task — a bystander
of a pool break, an expired lease — and is re-queued without charge).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import queue
import signal
import socket as socket_module
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional

from repro.runtime import shm, supervision, wire
from repro.runtime.executor import fork_available
from repro.runtime.supervision import (
    FAILURE_CRASH,
    FAILURE_TIMEOUT,
    TaskFailure,
    _failure_from_exception,
    _run_envelope,
)

logger = logging.getLogger(__name__)

#: Environment variable selecting the default backend (overridden by an
#: explicit ``backend=`` argument / ``--backend`` flag).
ENV_VAR = "REPRO_BACKEND"

#: The backends :func:`get_backend` knows how to build.
BACKEND_NAMES = ("serial", "forked", "persistent", "socket")

#: Coordinator bind address (``host:port``; port 0 = ephemeral).
SOCKET_BIND_ENV = "REPRO_SOCKET_BIND"
DEFAULT_BIND = "127.0.0.1:7463"

#: Seconds the coordinator waits for a worker before degrading.
SOCKET_CONNECT_DEADLINE_ENV = "REPRO_SOCKET_CONNECT_DEADLINE"
DEFAULT_CONNECT_DEADLINE = 10.0

#: Seconds without a heartbeat before a worker's lease expires.
SOCKET_LEASE_TIMEOUT_ENV = "REPRO_SOCKET_LEASE_TIMEOUT"
DEFAULT_LEASE_TIMEOUT = 15.0

#: Heartbeat interval handed to workers at handshake.
SOCKET_HEARTBEAT_ENV = "REPRO_SOCKET_HEARTBEAT"
DEFAULT_HEARTBEAT = 1.0

#: A lease redelivered this many times without completing is charged a
#: ``worker-crash`` attempt instead of circulating forever (a task that
#: reliably kills every worker it lands on must eventually fail).
MAX_DELIVERIES = 3


def validate_backend_name(name: Optional[str]) -> Optional[str]:
    """Normalise a backend name; ``None``/``"auto"``/empty mean auto."""
    if name is None:
        return None
    name = str(name).strip().lower()
    if name in ("", "auto"):
        return None
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; valid backends: "
            f"{BACKEND_NAMES + ('auto',)}"
        )
    return name


def resolve_backend_name(name: Optional[str] = None) -> Optional[str]:
    """Resolve the backend to use: explicit argument > env var > auto.

    Returns ``None`` for auto, which the supervisor runs as ``forked``
    (``serial`` where ``fork`` is unavailable).
    """
    if name is not None:
        return validate_backend_name(name)
    return validate_backend_name(os.environ.get(ENV_VAR))


@dataclass
class BackendEvent:
    """One completion event from a backend's supervised ``poll``.

    ``kind`` is ``"ok"`` (``value`` holds the result), ``"failure"``
    (``failure`` holds the envelope; the supervisor charges the attempt)
    or ``"lost"`` (the attempt never ran to completion through no fault
    of the task — the supervisor re-queues it without charging).
    """

    index: int
    attempt: int
    kind: str
    value: object = None
    failure: Optional[TaskFailure] = None


class ExecutorBackend:
    """The transport interface every backend implements.

    The supervisor drives a map through the
    ``open``/``submit``/``poll``/``running``/``kill``/``close`` cycle
    described in the module docstring.  :meth:`shutdown` releases every
    long-lived resource (persistent pools, listening sockets) and is
    safe to call repeatedly.
    """

    name = "abstract"

    def open(self, function, tasks, workers: int) -> None:
        raise NotImplementedError

    def submit(self, index: int, attempt: int) -> None:
        raise NotImplementedError

    def poll(self, timeout: float) -> "list[BackendEvent]":
        raise NotImplementedError

    def running(self) -> "dict[int, float]":
        """``{task index: monotonic start time}`` of started attempts.

        Only tasks that appear here are subject to the watchdog; a
        backend that cannot observe task starts returns ``{}`` and
        timeouts are simply not enforced (the serial fallback).
        """
        return {}

    def kill(self, index: int) -> bool:
        """Forcibly stop a running task; ``True`` if a kill was issued."""
        return False

    def workers_alive(self) -> int:
        """How many workers can currently accept tasks."""
        return 0

    def close(self, graceful: bool = True) -> None:
        """End one supervised map (the backend may outlive it)."""

    def shutdown(self) -> None:
        """Release every long-lived resource this backend holds."""


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------

class SerialBackend(ExecutorBackend):
    """In-process execution of the supervised envelope.

    The execution envelope runs inline at ``submit`` time — envelopes,
    retries and policies all work, but :meth:`running` stays empty
    because there is no second process to kill, so timeouts are not
    enforced (documented degradation).
    """

    name = "serial"

    def __init__(self) -> None:
        self._function = None
        self._tasks: list = []
        self._events: "list[BackendEvent]" = []

    def open(self, function, tasks, workers: int) -> None:
        self._function = function
        self._tasks = list(tasks)
        self._events = []

    def submit(self, index: int, attempt: int) -> None:
        status, value = _run_envelope(
            (index, attempt, self._function, self._tasks[index])
        )
        if status == "ok":
            self._events.append(BackendEvent(index, attempt, "ok", value=value))
        else:
            self._events.append(
                BackendEvent(index, attempt, "failure", failure=value)
            )

    def poll(self, timeout: float) -> "list[BackendEvent]":
        events, self._events = self._events, []
        return events

    def workers_alive(self) -> int:
        return 1

    def close(self, graceful: bool = True) -> None:
        self._function = None
        self._tasks = []
        self._events = []


# ----------------------------------------------------------------------
# forked (and its persistent-pool subclass)
# ----------------------------------------------------------------------

def _terminate_pool(pool) -> None:
    """Hard-stop a pool: SIGKILL every worker, never wait on them.

    Used on abnormal exits (fail-fast raise, consumer close,
    KeyboardInterrupt) and after a break, where a graceful shutdown
    could block forever behind a hung worker.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            os.kill(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _pool_is_broken(pool) -> bool:
    return bool(getattr(pool, "_broken", False))


def _reap_exitcode(process, timeout: float = 0.5):
    """The worker's exit status, waiting briefly for the OS to reap it.

    A ``BrokenProcessPool`` can surface before the dead child is
    waitable, in which case a bare ``exitcode`` read (a non-blocking
    ``waitpid``) still reports ``None``; the short join closes that race
    so crash classification sees the real exit status.
    """
    if process is None:
        return None
    process.join(timeout=timeout)
    return process.exitcode


def _worker_died_abnormally(record, worker_pids) -> bool:
    if record is None:
        return False
    pid, _ = record
    process = worker_pids.get(pid)
    if process is None:
        return False
    exitcode = _reap_exitcode(process)
    return exitcode is not None and exitcode not in (0, -signal.SIGTERM)


def _crash_failure(index, attempt, pid, worker_pids) -> TaskFailure:
    exitcode = _reap_exitcode(worker_pids.get(pid))
    return TaskFailure(
        index=index,
        kind=FAILURE_CRASH,
        error_type="BrokenProcessPool",
        message=(
            f"worker pid {pid} died while running this task "
            f"(exit status {exitcode}); the pool was restarted and "
            f"unfinished tasks re-dispatched"
        ),
        attempts=attempt,
    )


class _ShmFunction:
    """Picklable wrapper shipping a task's result through shared memory.

    The worker packs the result with :func:`repro.runtime.shm.dump`
    (large array buffers go to a named segment, only the small
    :class:`~repro.runtime.shm.ShmPayload` crosses the result pipe);
    the parent unpacks — and unlinks — on receipt.
    """

    __slots__ = ("function",)

    def __init__(self, function) -> None:
        self.function = function

    def __getstate__(self):
        return self.function

    def __setstate__(self, function) -> None:
        self.function = function

    def __call__(self, task):
        return shm.dump(self.function(task))


def _shm_function(function):
    """Wrap ``function`` for shm result shipping when available."""
    if shm.enabled():
        return _ShmFunction(function)
    return function


def _unwrap_event(index: int, attempt: int, value) -> BackendEvent:
    """Build the ``ok`` event for a raw worker value, unpacking shm.

    A payload that fails to unpack (a corrupt or vanished segment —
    the worker died mid-handoff) charges the attempt like any other
    transport failure instead of poisoning the supervisor.
    """
    try:
        return BackendEvent(index, attempt, "ok", value=shm.maybe_load(value))
    except Exception as error:
        return BackendEvent(
            index, attempt, "failure",
            failure=_failure_from_exception(index, attempt, error),
        )


def _timeout_failure(index, attempt) -> TaskFailure:
    return TaskFailure(
        index=index,
        kind=FAILURE_TIMEOUT,
        error_type="TimeoutError",
        message=(
            "task exceeded its timeout; its worker was killed "
            "and the pool restarted"
        ),
        attempts=attempt,
    )


class ForkedBackend(ExecutorBackend):
    """Per-map forked process pool under the supervisor.

    A fork-inherited start-marker channel, hung-worker watchdog kills,
    broken-pool recovery with crash classification, and free
    re-queueing of bystanders (reported to the supervisor as ``lost``
    events).
    """

    name = "forked"

    #: Safety valve: a pool that keeps breaking without any task being
    #: attributable (a pathologically unstable host) eventually
    #: re-raises instead of restarting forever.
    MAX_UNATTRIBUTED_RESTARTS = 8

    #: Whether the pool (and marker channel) survive ``close``.
    keep_pool = False

    def __init__(self) -> None:
        self._pool = None
        self._channel = None
        self._previous_channel = None
        self._function = None
        self._tasks: list = []
        self._count = 1
        self._futures: dict = {}       # future -> (index, attempt)
        self._running: dict = {}       # index -> (pid, started_at)
        self._timed_out: set = set()   # watchdog victims (this generation)
        self._worker_pids: dict = {}   # pid -> Process (this generation)
        self._broken_submits: list = []
        self._unattributed_restarts = 0

    def open(self, function, tasks, workers: int) -> None:
        self._function = _shm_function(function)
        self._tasks = list(tasks)
        self._count = max(int(workers), 1)
        self._futures = {}
        self._running = {}
        self._timed_out = set()
        self._broken_submits = []
        self._unattributed_restarts = 0
        if self._channel is None:
            context = multiprocessing.get_context("fork")
            self._channel = context.SimpleQueue()
        else:
            # A persistent channel can hold markers from an aborted
            # previous map; a stale marker must never give the watchdog
            # a pid to kill for this map's tasks.
            while not self._channel.empty():
                self._channel.get()
        # Workers read the channel global at fork time; pools fork
        # workers lazily at submit, so the global must stay ours for the
        # whole open..close window.
        self._previous_channel = supervision._START_CHANNEL
        supervision._START_CHANNEL = self._channel
        if self._pool is not None and (
            _pool_is_broken(self._pool)
            or self._pool._max_workers < self._count
        ):
            self._discard_pool()

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self._count, mp_context=context
            )
            self._running.clear()
            self._timed_out.clear()
            self._worker_pids = {}
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            _terminate_pool(self._pool)
        self._pool = None
        self._worker_pids = {}
        self._running.clear()
        self._timed_out.clear()

    def submit(self, index: int, attempt: int) -> None:
        pool = self._ensure_pool()
        try:
            future = pool.submit(
                _run_envelope,
                (index, attempt, self._function, self._tasks[index]),
            )
        except BrokenProcessPool:
            # The pool broke between two submissions; the attempt never
            # ran, so poll()'s recovery reports it lost (re-queued free).
            self._broken_submits.append((index, attempt))
            return
        self._futures[future] = (index, attempt)
        self._worker_pids.update(getattr(pool, "_processes", None) or {})

    def poll(self, timeout: float) -> "list[BackendEvent]":
        events: "list[BackendEvent]" = []
        broken = bool(self._broken_submits)
        if self._futures and not broken:
            done, _ = wait(
                set(self._futures), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            self._drain_start_markers()
            for future in done:
                index, attempt = self._futures.pop(future)
                error = future.exception()
                if not isinstance(error, BrokenProcessPool):
                    # Keep the running record of broken futures: crash
                    # classification needs to know which worker was
                    # running which task.
                    self._running.pop(index, None)
                    self._timed_out.discard(index)
                if error is None:
                    status, value = future.result()
                    if status == "ok":
                        events.append(_unwrap_event(index, attempt, value))
                    else:
                        events.append(
                            BackendEvent(
                                index, attempt, "failure", failure=value
                            )
                        )
                elif isinstance(error, BrokenProcessPool):
                    # Classified below with the rest of the in-flight set.
                    broken = True
                    self._futures[future] = (index, attempt)
                elif isinstance(error, (KeyboardInterrupt, SystemExit)):
                    raise error
                else:
                    # The envelope caught task exceptions, so this is a
                    # transport failure (e.g. an unpicklable result):
                    # charge the attempt with the executor's exception.
                    events.append(
                        BackendEvent(
                            index, attempt, "failure",
                            failure=_failure_from_exception(
                                index, attempt, error
                            ),
                        )
                    )
        if broken or (self._pool is not None and _pool_is_broken(self._pool)):
            events.extend(self._recover_break())
        return events

    def _recover_break(self) -> "list[BackendEvent]":
        """Classify a broken pool's in-flight attempts and restart.

        Completed results are harvested first (a finished task must
        never be re-run), then every unfinished ``(index, attempt)`` is
        attributed: watchdog victims get a ``timeout`` failure event,
        tasks whose recorded worker died *abnormally* (an exit status
        that is neither a clean 0 nor the executor's own SIGTERM
        teardown of bystanders) a ``worker-crash`` failure event, and
        everything else — queued tasks, bystanders — a free ``lost``
        event.  If nothing is attributable (stdlib teardown details
        vary), every *started* task is blamed instead: over-charging a
        bystander costs one deterministic re-run, while under-charging
        could restart forever.
        """
        events: "list[BackendEvent]" = []
        for future in [f for f in self._futures if f.done()]:
            if future.exception() is None:
                index, attempt = self._futures.pop(future)
                self._running.pop(index, None)
                self._timed_out.discard(index)
                status, value = future.result()
                if status == "ok":
                    events.append(_unwrap_event(index, attempt, value))
                else:
                    events.append(
                        BackendEvent(index, attempt, "failure", failure=value)
                    )
        self._drain_start_markers()
        charged = False
        deferred = []
        for future, (index, attempt) in list(self._futures.items()):
            if index in self._timed_out:
                charged = True
                events.append(
                    BackendEvent(
                        index, attempt, "failure",
                        failure=_timeout_failure(index, attempt),
                    )
                )
            elif _worker_died_abnormally(
                self._running.get(index), self._worker_pids
            ):
                charged = True
                pid = self._running[index][0]
                events.append(
                    BackendEvent(
                        index, attempt, "failure",
                        failure=_crash_failure(
                            index, attempt, pid, self._worker_pids
                        ),
                    )
                )
            else:
                deferred.append((index, attempt))
        if not charged and deferred:
            # Fall back: blame every task that had actually started.
            still_deferred = []
            for index, attempt in deferred:
                if index in self._running:
                    charged = True
                    pid = self._running[index][0]
                    events.append(
                        BackendEvent(
                            index, attempt, "failure",
                            failure=_crash_failure(
                                index, attempt, pid, self._worker_pids
                            ),
                        )
                    )
                else:
                    still_deferred.append((index, attempt))
            deferred = still_deferred
        for index, attempt in deferred:
            events.append(BackendEvent(index, attempt, "lost"))
        for index, attempt in self._broken_submits:
            events.append(BackendEvent(index, attempt, "lost"))
        self._broken_submits = []
        if not charged:
            self._unattributed_restarts += 1
            if self._unattributed_restarts > self.MAX_UNATTRIBUTED_RESTARTS:
                raise BrokenProcessPool(
                    "process pool kept breaking without any attributable "
                    "task; giving up after "
                    f"{self._unattributed_restarts} restarts"
                )
        self._futures.clear()
        self._discard_pool()
        return events

    def _drain_start_markers(self) -> None:
        """Record which worker is running which task attempt.

        Markers for attempts that are no longer in flight (their future
        already completed) are dropped — a stale marker must never give
        the watchdog a pid to kill for a task that already finished.
        """
        live = {(index, attempt) for index, attempt in self._futures.values()}
        while not self._channel.empty():
            pid, index, attempt, started_at = self._channel.get()
            if (index, attempt) in live:
                self._running[index] = (pid, started_at)

    def running(self) -> "dict[int, float]":
        return {
            index: started_at
            for index, (pid, started_at) in self._running.items()
        }

    def kill(self, index: int) -> bool:
        record = self._running.get(index)
        if record is None:
            return False
        self._timed_out.add(index)
        try:
            os.kill(record[0], signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return True

    def workers_alive(self) -> int:
        if self._pool is None:
            return 0
        return sum(
            1
            for process in getattr(self._pool, "_processes", {}).values()
            if process.is_alive()
        )

    def close(self, graceful: bool = True) -> None:
        if self._pool is not None:
            if not graceful:
                self._discard_pool()
            elif not self.keep_pool:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._worker_pids = {}
        supervision._START_CHANNEL = self._previous_channel
        self._previous_channel = None
        if not self.keep_pool and self._channel is not None:
            self._channel.close()
            self._channel = None
        self._futures = {}
        self._running = {}
        self._timed_out = set()
        self._function = None
        self._tasks = []
        # A worker killed between creating a result segment and
        # delivering its name leaves an orphan only this sweep can see.
        shm.sweep_orphans()

    def shutdown(self) -> None:
        self._discard_pool()
        if self._channel is not None:
            self._channel.close()
            self._channel = None
        shm.sweep_orphans()


class PersistentBackend(ForkedBackend):
    """The forked pool, kept warm across maps (ROADMAP item 2(b)).

    Semantics are identical to :class:`ForkedBackend`; the pool (and
    its start-marker channel) simply survive ``close(graceful=True)``,
    so consecutive sweeps skip the fork + inherited-state tax.  The
    pool is discarded on abnormal close (it may hold a wedged worker),
    on a break, or when a later map asks for more workers than it has.

    Workers forked for an earlier sweep keep that sweep's inherited
    :class:`~repro.runtime.executor.TaskState` memo; a later sweep with
    a different state key rebuilds per worker via ``build(key)`` — the
    documented cold-worker path, so results are unchanged.
    """

    name = "persistent"
    keep_pool = True


# ----------------------------------------------------------------------
# socket
# ----------------------------------------------------------------------

class _Link:
    """One live worker connection (socket + lease/heartbeat state)."""

    def __init__(self, worker_id, sock, pid) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.pid = pid
        self.last_seen = time.monotonic()
        self.lease_id: Optional[int] = None
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, header: dict, blob: bytes = b"") -> None:
        with self._send_lock:
            wire.send_frame(self.sock, header, blob)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Lease:
    """One task attempt handed to (or queued for) a worker."""

    __slots__ = (
        "index", "attempt", "lease_id", "worker_id", "started_at",
        "deliveries",
    )

    def __init__(self, index: int, attempt: int) -> None:
        self.index = index
        self.attempt = attempt
        self.lease_id: Optional[int] = None
        self.worker_id: Optional[str] = None
        self.started_at: Optional[float] = None
        self.deliveries = 0


def _env_float(name: str, default: float) -> float:
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class SocketBackend(ExecutorBackend):
    """Coordinator for external worker daemons over the wire protocol.

    Fault model (all deterministic-result preserving, because cells are
    idempotent and content-addressed):

    * **Leases with heartbeat deadlines.**  Each dispatched task is a
      lease; a worker that stops heartbeating for ``lease_timeout``
      seconds — or whose connection drops — forfeits its leases, which
      are re-queued and handed to live workers at no attempt charge.
    * **Bounded redelivery.**  A lease redelivered
      :data:`MAX_DELIVERIES` times without completing is charged a
      ``worker-crash`` attempt instead of circulating forever.
    * **Reconnection.**  A worker daemon reconnecting under the same id
      replaces its old link; its in-flight lease from the old link is
      re-queued.  Stale deliveries (a lease completed elsewhere, a
      revoked lease, a previous map) are recognised by their
      then-retired lease id and dropped — the deduplication that makes
      double completion harmless.
    * **Graceful degradation.**  No worker within ``connect_deadline``
      at ``open`` — or mid-sweep after every worker is lost — logs a
      warning and reroutes the rest of the map through the local
      ``forked`` backend (``serial`` where ``fork`` is unavailable).
    """

    name = "socket"

    def __init__(self, bind: Optional[str] = None) -> None:
        self._bind = wire.parse_address(
            bind or os.environ.get(SOCKET_BIND_ENV) or DEFAULT_BIND
        )
        self.connect_deadline = _env_float(
            SOCKET_CONNECT_DEADLINE_ENV, DEFAULT_CONNECT_DEADLINE
        )
        self.lease_timeout = _env_float(
            SOCKET_LEASE_TIMEOUT_ENV, DEFAULT_LEASE_TIMEOUT
        )
        self.heartbeat_interval = _env_float(
            SOCKET_HEARTBEAT_ENV, DEFAULT_HEARTBEAT
        )
        self.address: Optional[tuple] = None
        self._server = None
        self._accept_thread = None
        self._lock = threading.Lock()
        self._links: "dict[str, _Link]" = {}
        self._events: "queue.Queue" = queue.Queue()
        self._leases: "dict[int, _Lease]" = {}
        self._queue: "deque[_Lease]" = deque()
        self._counter = 0
        self._function = None
        self._tasks: list = []
        self._count = 1
        self._degraded = False
        self._local: Optional[ExecutorBackend] = None
        self._last_fresh = 0.0

    # -- server plumbing -----------------------------------------------

    def _ensure_server(self) -> None:
        if self._server is not None:
            return
        server = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        server.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        server.bind(self._bind)
        server.listen(16)
        self._server = server
        self.address = server.getsockname()[:2]
        logger.info(
            "socket backend listening on %s", wire.format_address(self.address)
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-socket-accept"
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._server.accept()
            except OSError:
                return
            conn.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1
            )
            threading.Thread(
                target=self._serve_link,
                args=(conn, f"{peer[0]}:{peer[1]}"),
                daemon=True,
                name=f"repro-socket-link-{peer[1]}",
            ).start()

    def _serve_link(self, conn, peer: str) -> None:
        try:
            conn.settimeout(10.0)
            header, _ = wire.recv_frame(conn)
        except wire.WireError:
            conn.close()
            return
        if header.get("type") != "hello":
            conn.close()
            return
        if header.get("version") != wire.PROTOCOL_VERSION:
            try:
                wire.send_frame(conn, wire.reject(
                    f"protocol version {header.get('version')} != "
                    f"{wire.PROTOCOL_VERSION}"
                ))
            except wire.WireError:
                pass
            conn.close()
            return
        conn.settimeout(None)
        worker_id = str(header.get("worker_id") or f"worker@{peer}")
        link = _Link(worker_id, conn, header.get("pid"))
        with self._lock:
            old = self._links.get(worker_id)
            self._links[worker_id] = link
        if old is not None:
            logger.info("socket worker %s reconnected", worker_id)
            self._drop_link(old)
        else:
            logger.info("socket worker %s connected from %s", worker_id, peer)
        try:
            link.send(wire.welcome(self.heartbeat_interval))
        except wire.WireError:
            self._drop_link(link)
            return
        self._dispatch()
        while True:
            try:
                header, blob = wire.recv_frame(conn)
            except wire.WireError:
                break
            with self._lock:
                link.last_seen = time.monotonic()
            kind = header.get("type")
            if kind == "result":
                self._handle_result(link, header, blob)
            # Heartbeats only refresh last_seen (already done above).
        self._drop_link(link)

    def _drop_link(self, link: _Link) -> None:
        requeue = None
        with self._lock:
            if not link.alive:
                return
            link.alive = False
            if self._links.get(link.worker_id) is link:
                del self._links[link.worker_id]
            if link.lease_id is not None:
                requeue = self._leases.pop(link.lease_id, None)
                link.lease_id = None
            if requeue is not None:
                self._requeue_locked(requeue, "its worker disconnected")
        link.close()
        if requeue is not None:
            self._dispatch()

    def _requeue_locked(self, lease: _Lease, why: str) -> None:
        """Re-queue a forfeited lease (caller holds the lock)."""
        lease.lease_id = None
        lease.worker_id = None
        lease.started_at = None
        if lease.deliveries >= MAX_DELIVERIES:
            logger.warning(
                "task %d lease forfeited %d times; charging a crash attempt",
                lease.index, lease.deliveries,
            )
            self._events.put(BackendEvent(
                lease.index, lease.attempt, "failure",
                failure=TaskFailure(
                    index=lease.index,
                    kind=FAILURE_CRASH,
                    error_type="LeaseExpired",
                    message=(
                        f"socket lease for task {lease.index} was "
                        f"forfeited {lease.deliveries} time(s) "
                        f"({why}); giving up on redelivery"
                    ),
                    attempts=lease.attempt,
                ),
            ))
            return
        logger.info(
            "re-queueing task %d attempt %d (%s, delivery %d)",
            lease.index, lease.attempt, why, lease.deliveries,
        )
        self._queue.append(lease)

    def _handle_result(self, link: _Link, header: dict, blob: bytes) -> None:
        lease_id = header.get("lease_id")
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            if link.lease_id == lease_id:
                link.lease_id = None
            if lease is None:
                # A retired lease id: completed elsewhere, revoked by the
                # watchdog, or a previous map.  Idempotent cells make the
                # drop safe — this IS the double-completion dedup.
                logger.info(
                    "dropping stale delivery for retired lease %r", lease_id
                )
                return
        if header.get("status") == "ok":
            try:
                value = wire.load_payload(blob, header.get("payload"))
            except Exception as error:
                event = BackendEvent(
                    lease.index, lease.attempt, "failure",
                    failure=_failure_from_exception(
                        lease.index, lease.attempt, error
                    ),
                )
            else:
                event = BackendEvent(
                    lease.index, lease.attempt, "ok", value=value
                )
        else:
            event = BackendEvent(
                lease.index, lease.attempt, "failure",
                failure=TaskFailure.from_json(header.get("failure", {})),
            )
        self._events.put(event)
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand queued leases to idle live workers (sends outside the lock)."""
        sends = []
        now = time.monotonic()
        with self._lock:
            idle = sorted(
                (
                    link for link in self._links.values()
                    if link.alive
                    and link.lease_id is None
                    # Never hand a lease to a worker that has already
                    # gone heartbeat-dark: it would expire immediately
                    # and burn a delivery.
                    and now - link.last_seen <= self.lease_timeout
                ),
                key=lambda link: link.worker_id,
            )
            for link in idle:
                if not self._queue:
                    break
                lease = self._queue.popleft()
                self._counter += 1
                lease.lease_id = self._counter
                lease.worker_id = link.worker_id
                lease.started_at = time.monotonic()
                lease.deliveries += 1
                self._leases[lease.lease_id] = lease
                link.lease_id = lease.lease_id
                sends.append((link, lease))
        for link, lease in sends:
            payload, payload_meta = wire.dump_payload(
                (lease.index, lease.attempt, self._function,
                 self._tasks[lease.index])
            )
            try:
                link.send(
                    wire.lease(
                        lease.lease_id, lease.index, lease.attempt,
                        task_label=f"task {lease.index}",
                        payload=payload_meta,
                    ),
                    payload,
                )
            except wire.WireError:
                self._drop_link(link)

    def _expire_leases(self) -> None:
        now = time.monotonic()
        expired = []
        with self._lock:
            for lease in list(self._leases.values()):
                link = self._links.get(lease.worker_id)
                stale = (
                    link is None
                    or not link.alive
                    or now - link.last_seen > self.lease_timeout
                )
                if stale:
                    del self._leases[lease.lease_id]
                    if link is not None and link.lease_id == lease.lease_id:
                        link.lease_id = None
                    expired.append((lease, link))
            for lease, link in expired:
                self._requeue_locked(
                    lease,
                    "its worker stopped heartbeating"
                    if link is not None else "its worker disappeared",
                )
        if expired:
            self._dispatch()

    def _fresh_worker_count(self, now: Optional[float] = None) -> int:
        now = time.monotonic() if now is None else now
        with self._lock:
            return sum(
                1
                for link in self._links.values()
                if link.alive and now - link.last_seen <= self.lease_timeout
            )

    def _degrade(self, reason: str) -> None:
        """Reroute the rest of this map through the local backend."""
        logger.warning(
            "socket backend degrading to local %s backend: %s",
            "forked" if fork_available() else "serial", reason,
        )
        outstanding = []
        links = []
        with self._lock:
            outstanding.extend(
                (lease.index, lease.attempt) for lease in self._queue
            )
            outstanding.extend(
                (lease.index, lease.attempt)
                for lease in self._leases.values()
            )
            self._queue.clear()
            self._leases.clear()
            links = list(self._links.values())
            self._degraded = True
        for link in links:
            self._drop_link(link)
        self._local = (
            ForkedBackend() if fork_available() else SerialBackend()
        )
        self._local.open(self._function, self._tasks, self._count)
        for index, attempt in outstanding:
            self._local.submit(index, attempt)

    # -- supervised interface ------------------------------------------

    def open(self, function, tasks, workers: int) -> None:
        self._function = function
        self._tasks = list(tasks)
        self._count = max(int(workers), 1)
        self._degraded = False
        self._local = None
        self._ensure_server()
        deadline = time.monotonic() + self.connect_deadline
        while self._fresh_worker_count() == 0:
            if time.monotonic() >= deadline:
                self._degrade(
                    f"no worker connected within {self.connect_deadline:.1f}s"
                )
                return
            time.sleep(0.02)
        with self._lock:
            self._queue.clear()
            self._leases.clear()
        self._drain_events(0.0)  # flush stragglers from a previous map
        self._last_fresh = time.monotonic()

    def submit(self, index: int, attempt: int) -> None:
        if self._degraded:
            self._local.submit(index, attempt)
            return
        with self._lock:
            self._queue.append(_Lease(index, attempt))
        self._dispatch()

    def poll(self, timeout: float) -> "list[BackendEvent]":
        if self._degraded:
            return self._local.poll(timeout)
        self._expire_leases()
        now = time.monotonic()
        if self._fresh_worker_count(now) > 0:
            self._last_fresh = now
        else:
            with self._lock:
                outstanding = bool(self._queue or self._leases)
            if outstanding and now - self._last_fresh > self.connect_deadline:
                self._degrade(
                    f"all workers lost for more than "
                    f"{self.connect_deadline:.1f}s with work outstanding"
                )
                return self._drain_events(0.0)
        self._dispatch()
        return self._drain_events(timeout)

    def _drain_events(self, timeout: float) -> "list[BackendEvent]":
        events: "list[BackendEvent]" = []
        try:
            if timeout and timeout > 0:
                events.append(self._events.get(timeout=timeout))
            else:
                events.append(self._events.get_nowait())
            while True:
                events.append(self._events.get_nowait())
        except queue.Empty:
            pass
        return events

    def running(self) -> "dict[int, float]":
        if self._degraded:
            return self._local.running()
        with self._lock:
            return {
                lease.index: lease.started_at
                for lease in self._leases.values()
                if lease.started_at is not None
            }

    def kill(self, index: int) -> bool:
        """Revoke the lease of a task past its deadline.

        A remote process cannot be SIGKILLed from here; instead the
        lease is retired (so its eventual delivery is dropped as stale)
        and the holder's connection is closed, which resets the worker
        daemon — it reconnects fresh once its current computation ends.
        A ``timeout`` failure event is emitted immediately so the
        supervisor can charge the attempt without waiting.
        """
        if self._degraded:
            return self._local.kill(index)
        holder = None
        with self._lock:
            lease = next(
                (l for l in self._leases.values() if l.index == index), None
            )
            if lease is None:
                return False
            del self._leases[lease.lease_id]
            link = self._links.get(lease.worker_id)
            if link is not None and link.lease_id == lease.lease_id:
                link.lease_id = None
                holder = link
            self._events.put(BackendEvent(
                lease.index, lease.attempt, "failure",
                failure=TaskFailure(
                    index=lease.index,
                    kind=FAILURE_TIMEOUT,
                    error_type="TimeoutError",
                    message=(
                        "task exceeded its timeout; its lease was revoked "
                        "and the worker connection dropped"
                    ),
                    attempts=lease.attempt,
                ),
            ))
        if holder is not None:
            self._drop_link(holder)
        return True

    def workers_alive(self) -> int:
        if self._degraded:
            return self._local.workers_alive()
        return self._fresh_worker_count()

    def close(self, graceful: bool = True) -> None:
        if self._local is not None:
            self._local.close(graceful)
            self._local = None
        self._degraded = False
        with self._lock:
            self._queue.clear()
            self._leases.clear()
            for link in self._links.values():
                link.lease_id = None
        self._drain_events(0.0)
        self._function = None
        self._tasks = []

    def shutdown(self) -> None:
        with self._lock:
            links = list(self._links.values())
            self._links.clear()
            self._queue.clear()
            self._leases.clear()
        for link in links:
            try:
                link.send(wire.shutdown())
            except wire.WireError:
                pass
            link.close()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        if self._local is not None:
            self._local.shutdown()
            self._local = None
        self.address = None
        self._drain_events(0.0)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

_SINGLETONS: "dict[str, ExecutorBackend]" = {}
_SINGLETON_LOCK = threading.Lock()


def get_backend(name: str) -> ExecutorBackend:
    """Build (or fetch) the backend for ``name``.

    ``serial`` and ``forked`` are stateless per map and returned fresh;
    ``persistent`` and ``socket`` hold long-lived resources (a warm
    pool, a listening server and worker links) and are process-level
    singletons, released by :func:`shutdown_backends`.
    """
    name = validate_backend_name(name)
    if name is None or name == "forked":
        return ForkedBackend()
    if name == "serial":
        return SerialBackend()
    with _SINGLETON_LOCK:
        backend = _SINGLETONS.get(name)
        if backend is None:
            backend = (
                PersistentBackend() if name == "persistent"
                else SocketBackend()
            )
            _SINGLETONS[name] = backend
        return backend


def shutdown_backends() -> None:
    """Release every singleton backend (warm pools, sockets, threads)."""
    with _SINGLETON_LOCK:
        backends = list(_SINGLETONS.values())
        _SINGLETONS.clear()
    for backend in backends:
        try:
            backend.shutdown()
        except Exception:  # pragma: no cover - best-effort teardown
            logger.exception("backend %s shutdown failed", backend.name)
    # Final run-level sweep (also the atexit path): collect any result
    # segment orphaned outside a live backend's close(), e.g. by a
    # worker killed between creating it and delivering its name.
    shm.sweep_orphans()


atexit.register(shutdown_backends)
