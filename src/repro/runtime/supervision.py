"""Supervised task execution: failure envelopes, retries, timeouts, recovery.

Every pooled :func:`~repro.runtime.executor.map_tasks` runs under this
supervisor.  A bare pool would abort the whole sweep on one killed or
hung worker — fatal for the edge/IoT deployments DeepN-JPEG targets,
where preemption, OOM kills and transient failures are the norm.  The
supervisor provides:

* **Per-task error envelopes.**  Each task runs inside
  :func:`_run_envelope`; an exception becomes a :class:`TaskFailure`
  carrying the task index, error type/message, formatted traceback, the
  attempt count and (when picklable) the original exception — one
  failing cell never poisons its siblings.
* **Bounded retries with deterministic backoff.**  A failed attempt is
  re-queued up to ``retries`` times, delayed by
  ``backoff * 2**(attempt-1)`` seconds.  A retried task re-runs with
  exactly the same task payload — including its per-task
  :class:`~numpy.random.SeedSequence`, which :func:`spawn_seeds` assigns
  by task index — so a recovered sweep is bit-identical to a fault-free
  one.
* **Per-task timeouts with a hung-worker watchdog.**  Workers announce
  each task they start over a fork-inherited channel; the parent tracks
  deadlines and ``SIGKILL``\\ s the worker running a task past its
  ``task_timeout``.  The kill breaks the pool, which the recovery path
  below restarts; the timed-out task is charged one attempt.
* **Crash recovery.**  A worker that dies mid-task (``os._exit``, OOM
  kill, segfault) breaks the pool with
  :class:`~concurrent.futures.process.BrokenProcessPool`.  The
  supervisor classifies the in-flight tasks — dead worker's task:
  charged a ``worker-crash`` attempt; watchdog victims: charged a
  ``timeout`` attempt; bystanders: re-queued for free — then restarts
  the pool and re-dispatches only the unfinished tasks.  Completed
  results are never recomputed (and cells persisted through
  :func:`~repro.runtime.executor.map_tasks_resumable` survive even a
  supervisor crash).

Three error policies decide what happens when a task exhausts its
attempts: ``fail-fast`` (no retries; raise :class:`TaskError`
immediately), ``retry`` (retry, then raise), ``collect`` (retry, then
yield the :class:`TaskFailure` in the task's result slot so the sweep
finishes every healthy task).  A map with no policy set runs as
``fail-fast`` and re-raises the task's own exception where there is
one.

The supervised path requires the ``fork`` start method for its worker
channel and watchdog; without it, execution degrades to an in-process
serial loop that still provides envelopes and retries (but cannot
enforce timeouts or survive crashes — there is no second process to
kill).  Deterministic faults for testing all of this live in
:mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import faults as faults_module
from repro.runtime.executor import effective_workers, fork_available

#: The error policies a supervised map understands.
POLICIES = ("fail-fast", "retry", "collect")

#: ``TaskFailure.kind`` values.
FAILURE_EXCEPTION = "exception"
FAILURE_TIMEOUT = "timeout"
FAILURE_CRASH = "worker-crash"

#: Supervisor poll interval (seconds): how often backend events are
#: drained and watchdog deadlines checked while attempts are in flight.
_TICK = 0.05


@dataclass(frozen=True)
class TaskFailure:
    """The error envelope of one task that exhausted its attempts.

    ``index`` is the task's position in the supervised map (callers that
    interleave cached results — :func:`map_tasks_resumable` — rewrite it
    to the global position).  ``error`` holds the original exception
    when it survived pickling, else ``None``; ``traceback`` is always a
    formatted string (empty for crashes and timeouts, which have no
    Python traceback to capture).
    """

    index: int
    kind: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""
    error: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def describe(self) -> str:
        return (
            f"task {self.index} failed after {self.attempts} attempt(s) "
            f"[{self.kind}]: {self.error_type}: {self.message}"
        )

    def to_json(self) -> dict:
        """A JSON-able envelope (what crosses the wire and the CLI emits).

        The live exception object does not survive JSON — only its
        type/message/traceback strings do — so ``from_json`` always
        reconstructs with ``error=None``; everything else round-trips
        exactly.
        """
        return {
            "index": self.index,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TaskFailure":
        return cls(
            index=int(payload["index"]),
            kind=str(payload["kind"]),
            error_type=str(payload["error_type"]),
            message=str(payload["message"]),
            attempts=int(payload["attempts"]),
            traceback=str(payload.get("traceback", "")),
        )


class TaskError(RuntimeError):
    """Raised under ``fail-fast``/``retry`` when a task's attempts run out.

    Carries the :class:`TaskFailure` envelope as ``failure``; the
    original exception (when available) is chained as ``__cause__``.
    """

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure

    def to_json(self) -> dict:
        return {"failure": self.failure.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "TaskError":
        return cls(TaskFailure.from_json(payload["failure"]))


def _raise_task_error(failure: TaskFailure) -> None:
    raise TaskError(failure) from failure.error


def validate_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise ValueError(
            f"unknown error policy {policy!r}; valid policies: {POLICIES}"
        )
    return policy


def _failure_from_exception(
    index: int, attempt: int, error: BaseException, kind: str = FAILURE_EXCEPTION
) -> TaskFailure:
    keep: Optional[BaseException] = error
    try:  # Only ship exceptions that survive a pickle round-trip.
        pickle.loads(pickle.dumps(error))
    except Exception:
        keep = None
    return TaskFailure(
        index=index,
        kind=kind,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempt,
        traceback="".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        ),
        error=keep,
    )


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

#: Fork-inherited start-marker channel.  The parent installs a queue here
#: before opening (or reopening) a pool; every worker announces
#: ``(pid, index, attempt, monotonic start time)`` before running a task,
#: which is what gives the watchdog per-task deadlines and the crash
#: recovery exact attribution.  Linux ``CLOCK_MONOTONIC`` is shared
#: across processes, so worker timestamps compare directly with the
#: parent's clock.
_START_CHANNEL = None


def _run_envelope(payload):
    """Module-level pool task: one supervised attempt of one task."""
    index, attempt, function, task = payload
    channel = _START_CHANNEL
    if channel is not None:
        channel.put((os.getpid(), index, attempt, time.monotonic()))
    try:
        faults_module.fire(index, attempt)
        value = function(task)
    except Exception as error:
        return ("failure", _failure_from_exception(index, attempt, error))
    return ("ok", value)


# ----------------------------------------------------------------------
# Supervisor.
# ----------------------------------------------------------------------

def supervise(
    function,
    tasks,
    workers: int = 1,
    policy: str = "retry",
    retries: int = 2,
    task_timeout: Optional[float] = None,
    backoff: float = 0.0,
    window: Optional[int] = None,
    backend: Optional[str] = None,
):
    """Supervised map: yields ``(index, outcome)`` in completion order.

    ``outcome`` is the task's return value, or — only under the
    ``collect`` policy — a :class:`TaskFailure` for a task that
    exhausted its attempts.  Under ``fail-fast``/``retry`` exhaustion
    raises :class:`TaskError` instead (``fail-fast`` is ``retry`` with
    zero retries).  ``window`` bounds the number of outstanding
    submissions (``None`` = all at once).

    ``backend`` selects the transport
    (:mod:`repro.runtime.backends`): ``None`` defers to the
    ``REPRO_BACKEND`` environment variable, and auto is a forked pool
    when ``fork`` is available (even for
    ``workers=1``, because process isolation is the point: a crash or a
    kill must take out a worker, never the supervisor), else the
    in-process serial runner (envelopes and retries, but no timeouts or
    crash recovery: there is no second process to kill).  The retry,
    timeout, crash-classification and policy semantics here are
    backend-independent; only event *production* differs per transport.

    Requires a picklable module-level ``function`` on any multi-process
    backend, like every pool path in :mod:`repro.runtime.executor`.
    """
    validate_policy(policy)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    if backoff < 0:
        raise ValueError(f"backoff must be non-negative, got {backoff}")
    # A REPRO_FAULTS typo must abort here — before any task runs — not
    # mid-sweep inside a worker.
    faults_module.validate_active_faults()
    tasks = list(tasks)
    max_attempts = 1 + (retries if policy != "fail-fast" else 0)
    if not tasks:
        return
    from repro.runtime import backends as backends_module

    resolved = backends_module.resolve_backend_name(backend)
    if resolved is None:
        resolved = "forked"
    if resolved in ("forked", "persistent") and not fork_available():
        resolved = "serial"
    impl = backends_module.get_backend(resolved)
    count = effective_workers(workers, task_count=len(tasks))
    yield from _supervise_backend(
        impl, function, tasks, count, policy, max_attempts, task_timeout,
        backoff, window,
    )


def _backoff_delay(backoff: float, attempt: int) -> float:
    """Deterministic exponential backoff after a failed ``attempt``."""
    return backoff * (2.0 ** (attempt - 1))


class _Pending:
    """One task attempt waiting to be submitted (retry backoff aware)."""

    __slots__ = ("index", "attempt", "ready_at")

    def __init__(self, index: int, attempt: int, ready_at: float) -> None:
        self.index = index
        self.attempt = attempt
        self.ready_at = ready_at


def _supervise_backend(
    impl, function, tasks, count, policy, max_attempts, task_timeout,
    backoff, window,
):
    """The backend-independent supervisor loop.

    Drives one :class:`~repro.runtime.backends.ExecutorBackend` through
    ``open``/``submit``/``poll``/``close``, owning everything that must
    behave identically across transports: the pending queue with retry
    backoff, the submission window, attempt accounting per event kind
    (``ok`` yields, ``failure`` charges an attempt, ``lost`` re-queues
    free), watchdog deadlines via ``running()``/``kill()``, and the
    fail-fast | retry | collect policies.

    Stale events — a duplicate or late delivery for an attempt that is
    no longer in flight (a reassigned socket lease completing twice) —
    are dropped here as a second line of defence behind the backend's
    own dedup; idempotent task payloads make the drop safe.
    """
    pending = [_Pending(index, 1, 0.0) for index in range(len(tasks))]
    in_flight: dict = {}   # index -> attempt
    timed_out: set = set()
    capacity = window if window is not None else len(tasks) * max_attempts

    def handle_failure(index, attempt, failure, now):
        """Charge one failed attempt; returns the outcome to yield, if any."""
        if attempt < max_attempts:
            pending.append(
                _Pending(index, attempt + 1, now + _backoff_delay(backoff, attempt))
            )
            return None
        if policy == "collect":
            return failure
        _raise_task_error(failure)

    completed = False
    impl.open(function, tasks, count)
    try:
        while pending or in_flight:
            now = time.monotonic()
            due = [
                entry for entry in pending if entry.ready_at <= now
            ][: max(capacity - len(in_flight), 0)]
            for entry in due:
                pending.remove(entry)
                in_flight[entry.index] = entry.attempt
                impl.submit(entry.index, entry.attempt)
            if not in_flight:
                # Everything pending is backing off; sleep to the soonest.
                time.sleep(
                    max(min(e.ready_at for e in pending) - now, 0.0) + 1e-4
                )
                continue
            for event in impl.poll(_TICK):
                if in_flight.get(event.index) != event.attempt:
                    continue  # stale: this attempt already resolved
                now = time.monotonic()
                del in_flight[event.index]
                timed_out.discard(event.index)
                if event.kind == "ok":
                    yield event.index, event.value
                elif event.kind == "failure":
                    outcome = handle_failure(
                        event.index, event.attempt, event.failure, now
                    )
                    if outcome is not None:
                        yield event.index, outcome
                else:  # "lost": never completed, through no fault of the task
                    pending.append(_Pending(event.index, event.attempt, now))
            if task_timeout is not None:
                _enforce_deadlines(
                    impl.running(), timed_out, task_timeout,
                    time.monotonic(), impl.kill,
                )
        completed = True
    finally:
        impl.close(graceful=completed)


def _enforce_deadlines(running, timed_out, task_timeout, now, kill) -> None:
    """Kill any running task past its deadline (at most once per attempt).

    ``running`` is the backend's ``{index: started_at}`` view and
    ``kill`` its kill method; how a kill is effected is the backend's
    business (SIGKILL for pool workers, lease revocation + disconnect
    for socket workers).  The backend then emits a ``timeout`` failure
    event, which charges the victim one attempt; ``timed_out`` stops
    repeat kills while that event is still in flight.
    """
    for index, started_at in list(running.items()):
        if index in timed_out or now - started_at <= task_timeout:
            continue
        if kill(index):
            timed_out.add(index)


# ----------------------------------------------------------------------
# Ordered wrappers (the shapes executor.map_tasks/imap_tasks need).
# ----------------------------------------------------------------------

def supervised_map(
    function,
    tasks,
    workers: int = 1,
    policy: str = "retry",
    retries: int = 2,
    task_timeout: Optional[float] = None,
    backoff: float = 0.0,
    on_result=None,
    backend: Optional[str] = None,
) -> list:
    """:func:`supervise`, reassembled into task order.

    Returns one slot per task: the value, or a :class:`TaskFailure`
    under ``collect``.  ``on_result(index, value)`` fires in task order
    for successful tasks only — failures are never handed to result
    consumers (the experiment store must not persist them).
    """
    tasks = list(tasks)
    total = len(tasks)
    results = [None] * total
    filled = [False] * total
    fire_next = 0
    for index, outcome in supervise(
        function, tasks, workers=workers, policy=policy, retries=retries,
        task_timeout=task_timeout, backoff=backoff, backend=backend,
    ):
        results[index] = outcome
        filled[index] = True
        while fire_next < total and filled[fire_next]:
            value = results[fire_next]
            if on_result is not None and not isinstance(value, TaskFailure):
                on_result(fire_next, value)
            fire_next += 1
    return results


def supervised_imap(
    function,
    tasks,
    workers: int = 1,
    policy: str = "retry",
    retries: int = 2,
    task_timeout: Optional[float] = None,
    backoff: float = 0.0,
    window: Optional[int] = None,
    backend: Optional[str] = None,
):
    """:func:`supervise` as an in-order generator (bounded submissions).

    ``window`` defaults to ``2 * workers`` like
    :func:`~repro.runtime.executor.imap_tasks`; note that a long-retrying
    early task can buffer later results beyond the window until it
    resolves — ordering is preserved, backpressure is best-effort.
    """
    tasks = list(tasks)
    if window is None:
        window = 2 * effective_workers(workers, task_count=len(tasks))
    window = max(int(window), 1)
    buffered: dict = {}
    next_index = 0
    for index, outcome in supervise(
        function, tasks, workers=workers, policy=policy, retries=retries,
        task_timeout=task_timeout, backoff=backoff, window=window,
        backend=backend,
    ):
        buffered[index] = outcome
        while next_index in buffered:
            yield buffered.pop(next_index)
            next_index += 1
