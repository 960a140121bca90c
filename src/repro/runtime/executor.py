"""Multi-process execution layer for sweeps and codec batches.

Every outer loop of the reproduction — the per-figure experiment grids
and the dataset-level codec batches — funnels through :func:`map_tasks`:
a list of picklable task descriptions is mapped over a module-level task
function, either serially in-process (``workers=1``, the default, which
runs the exact same function objects in the exact same order as the
historical loops and is therefore bit-identical to them) or through the
supervised runtime (:mod:`repro.runtime.supervision`), which drives one
of the :mod:`repro.runtime.backends` transports and reassembles results
in task order.

Design rules the callers follow:

* Task descriptions are small (configs, grid-cell parameters, chunk
  bounds) — never live arrays.  Heavy shared state (datasets, trained
  classifiers, codecs) lives in a per-figure :class:`TaskState` memo
  that the parent populates before the pool is created; ``fork``-started
  workers inherit it for free, and a cold worker can rebuild it from the
  config carried by the task itself.  Bulk *array* traffic — image
  stacks going out, decoded stacks coming back — bypasses pickle
  entirely through :mod:`repro.runtime.shm`: stacks ship as shared
  read-only segments keyed by a tiny picklable handle (which also keeps
  warm persistent-pool workers off stale fork-inherited globals), and
  large results travel as pickle-protocol-5 out-of-band buffers in
  per-result segments that the consumer unlinks on read.
* Results are reassembled in task order, so any worker count produces
  the same output list as the serial path.
* Randomness, where a task needs it, comes from
  :func:`spawn_seeds` — ``numpy.random.SeedSequence.spawn`` children of
  one base seed, assigned per *task* (not per worker), so streams are
  identical for any worker count.  (The current figure grids are fully
  deterministic from their ``ExperimentConfig`` seeds and do not draw
  per-task randomness; :func:`spawn_seeds` is the sanctioned mechanism
  for future stochastic tasks.)

Parallelism requires the ``fork`` start method (Linux / most POSIX):
with ``spawn``-only platforms :func:`map_tasks` silently degrades to the
serial path rather than risking stale or expensive worker state.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from contextlib import contextmanager

import numpy as np


def available_workers() -> int:
    """Number of CPUs usable by a process pool on this machine."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether ``fork`` exists *and is safe* on this platform.

    macOS technically offers the ``fork`` start method but forking after
    the parent has touched Accelerate/BLAS or ObjC frameworks — which
    any NumPy workload has — can abort or deadlock the children, so the
    runtime treats it (and every other non-Linux POSIX) as
    fork-unsafe and degrades to the serial path instead.
    """
    return sys.platform.startswith("linux") and (
        "fork" in multiprocessing.get_all_start_methods()
    )


def effective_workers(workers, task_count: int = None) -> int:
    """Resolve a ``workers`` knob into a concrete pool size.

    ``1`` (the default everywhere) means serial; ``N > 1`` a pool of N;
    ``0`` or ``None`` means one worker per available CPU.  The result is
    additionally capped by ``task_count`` when given — a pool larger
    than the task list only costs fork time.
    """
    if workers is None or workers == 0:
        count = available_workers()
    else:
        count = int(workers)
        if count < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
    if task_count is not None:
        count = min(count, max(int(task_count), 1))
    return max(count, 1)


def chunk_bounds(total: int, chunk: int) -> "list[tuple[int, int]]":
    """Ordered ``(start, stop)`` shards covering ``range(total)``.

    The contract the codec sharding relies on: an empty input yields no
    chunks (not one empty chunk), a chunk size larger than the total
    yields a single short chunk, and a remainder yields a short final
    chunk.  Concatenating the shards in order always reproduces the
    original range exactly.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    return [
        (start, min(start + chunk, total)) for start in range(0, total, chunk)
    ]


def spawn_seeds(seed, count: int) -> "list[np.random.SeedSequence]":
    """``count`` independent child :class:`~numpy.random.SeedSequence`\\ s.

    Children are derived with ``SeedSequence.spawn``, so the streams are
    statistically independent of each other and of the parent, and —
    because they are assigned per task index, not per worker — identical
    for every worker count.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return np.random.SeedSequence(seed).spawn(count)


def _runs_inline(policy, task_timeout, backend, workers, task_count) -> bool:
    """Whether a map runs as a plain in-process loop.

    That is the case only with no supervision knob set and a map that
    is serial anyway: the ``serial`` backend, one effective worker, one
    task, or no safe ``fork``.  The ``socket`` tier always dispatches,
    because its worker daemons are separate processes whatever the
    local worker count.
    """
    if policy is not None or task_timeout is not None:
        return False
    from repro.runtime.backends import resolve_backend_name

    resolved = resolve_backend_name(backend)
    if resolved == "serial":
        return True
    if resolved == "socket":
        return False
    return (
        effective_workers(workers, task_count=task_count) <= 1
        or task_count <= 1
        or not fork_available()
    )


@contextmanager
def _raw_task_errors(policy):
    """Under ``policy=None``, re-raise a failed task's own exception.

    A plain map keeps the contract of a plain loop: a task that raises
    propagates its exception, not a
    :class:`~repro.runtime.supervision.TaskError` wrapping it.  Failures
    with no exception to re-raise (a crashed or timed-out worker) and
    every explicit policy still raise ``TaskError``.
    """
    from repro.runtime.supervision import TaskError

    try:
        yield
    except TaskError as error:
        if policy is None and error.failure.error is not None:
            raise error.failure.error from None
        raise


def map_tasks(
    function,
    tasks,
    workers: int = 1,
    on_result=None,
    policy: str = None,
    retries: int = 2,
    task_timeout: float = None,
    retry_backoff: float = 0.0,
    backend: str = None,
) -> list:
    """Map ``function`` over ``tasks``, serially or through a process pool.

    Results come back in task order regardless of worker count.  With
    ``workers=1`` (or a single task, or no ``fork`` support, or the
    ``serial`` backend) and no supervision knob set, the map runs
    in-process — the same calls in the same order as a plain loop, with
    no child process and no envelope, so serial results are
    bit-identical to the pre-runtime behaviour.

    Every other map runs under :func:`repro.runtime.supervision.supervise`.
    ``policy=None`` (the default) means ``fail-fast`` with no retries: a
    task that raises propagates its own exception to the caller and
    tears the pool down, and a worker that dies raises
    :class:`~repro.runtime.supervision.TaskError` (``kind ==
    "worker-crash"``).  The next :func:`map_tasks` call starts a fresh
    pool, so one poisoned sweep never wedges the runtime.

    ``function`` must be picklable (a module-level function) when a pool
    is used; each element of ``tasks`` is passed as its single argument.

    ``on_result`` — when given — is called as ``on_result(index, result)``
    for every completed task, in task order; the experiment layer hooks
    progress reporting into it.

    ``policy``/``retries``/``task_timeout``/``retry_backoff`` tune the
    supervision: per-task
    :class:`~repro.runtime.supervision.TaskFailure` envelopes, bounded
    deterministic retries, a hung-worker watchdog and broken-pool
    recovery.  An explicit policy raises ``TaskError`` when a task runs
    out of attempts; under ``policy="collect"`` the result list carries
    a ``TaskFailure`` in each failed slot and ``on_result`` never fires
    for failures.

    ``backend`` selects the execution transport
    (:mod:`repro.runtime.backends`): ``"serial"``, ``"forked"``,
    ``"persistent"`` (a warm pool reused across maps) or ``"socket"``
    (external worker daemons).  ``None`` defers to the ``REPRO_BACKEND``
    environment variable; unset, a pooled map uses ``forked`` — and
    because the backends map the same payloads through the same
    functions, results are bit-identical across all of them.
    """
    tasks = list(tasks)
    if _runs_inline(policy, task_timeout, backend, workers, len(tasks)):
        results = []
        for index, task in enumerate(tasks):
            value = function(task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    from repro.runtime.supervision import supervised_map

    with _raw_task_errors(policy):
        return supervised_map(
            function, tasks, workers=workers,
            policy=policy if policy is not None else "fail-fast",
            retries=retries if policy is not None else 0,
            task_timeout=task_timeout, backoff=retry_backoff,
            on_result=on_result, backend=backend,
        )


#: Sentinel marking a task with no cached result in
#: :func:`map_tasks_resumable`.  ``None`` is not used because a task's
#: legitimate result may be ``None``.
CACHE_MISS = object()


def map_tasks_resumable(
    function,
    tasks,
    cached,
    workers: int = 1,
    on_result=None,
    policy: str = None,
    retries: int = 2,
    task_timeout: float = None,
    retry_backoff: float = 0.0,
    backend: str = None,
):
    """:func:`map_tasks`, but skipping tasks that already have a result.

    ``cached`` is a list parallel to ``tasks``: entry ``i`` is either a
    previously computed result for ``tasks[i]`` or :data:`CACHE_MISS`.
    Only the missing tasks are mapped (serially or over the pool, with
    the same ordering guarantees as :func:`map_tasks`); the return value
    interleaves cached and fresh results back into task order, so a
    resumed sweep is indistinguishable from a cold one.  ``on_result``
    — when given — is called as ``on_result(index, result)`` for every
    *freshly computed* result (not for cache hits), which is where the
    experiment store persists new grid cells.

    Fresh results stream through :func:`imap_tasks`, so ``on_result``
    fires as each task completes rather than after the whole map: a
    sweep killed (or poisoned by a raising task) partway through keeps
    every already-finished cell, which is what makes an interrupted
    ``--artifacts-dir`` run resumable.

    The supervision knobs (``policy``/``retries``/``task_timeout``/
    ``retry_backoff``) behave as in :func:`map_tasks`; note that under
    ``policy="collect"`` a failed slot holds a
    :class:`~repro.runtime.supervision.TaskFailure` whose ``index`` is
    rewritten to the task's *global* position (supervision only ever
    sees the cache-missing subset), and ``on_result`` — the store
    recorder — is never called for it: failures are not results and
    must not be persisted.
    """
    tasks = list(tasks)
    cached = list(cached)
    if len(cached) != len(tasks):
        raise ValueError(
            f"cached must parallel tasks: {len(cached)} != {len(tasks)}"
        )
    pending = [
        (index, task)
        for index, (task, value) in enumerate(zip(tasks, cached))
        if value is CACHE_MISS
    ]
    results = cached
    fresh = imap_tasks(
        function, [task for _, task in pending], workers=workers,
        policy=policy, retries=retries, task_timeout=task_timeout,
        retry_backoff=retry_backoff, backend=backend,
    )
    try:
        for (index, _), value in zip(pending, fresh):
            if _is_task_failure(value):
                import dataclasses

                results[index] = dataclasses.replace(value, index=index)
                continue
            if on_result is not None:
                on_result(index, value)
            results[index] = value
    except Exception as error:
        _remap_task_error(error, pending)
        raise
    return results


def _remap_task_error(error, pending) -> None:
    """Rewrite a raised ``TaskError``'s failure to its global task index.

    Supervision only ever sees the cache-missing subset, so the envelope
    riding an exhaustion error carries a subset-local index; callers
    (and their users' tracebacks) must name the task's position in the
    full list instead.  Mutates ``error`` in place; non-``TaskError``
    exceptions pass through untouched.
    """
    from repro.runtime.supervision import TaskError

    if not isinstance(error, TaskError):
        return
    import dataclasses

    local = error.failure.index
    if 0 <= local < len(pending):
        error.failure = dataclasses.replace(
            error.failure, index=pending[local][0]
        )
        error.args = (error.failure.describe(),)


def _is_task_failure(value) -> bool:
    """Whether ``value`` is a supervision failure envelope.

    Imported lazily: :mod:`repro.runtime.supervision` imports this
    module at import time, so the dependency must stay one-directional
    at module scope.
    """
    from repro.runtime.supervision import TaskFailure

    return isinstance(value, TaskFailure)


def imap_tasks(
    function,
    tasks,
    workers: int = 1,
    window: int = None,
    policy: str = None,
    retries: int = 2,
    task_timeout: float = None,
    retry_backoff: float = 0.0,
    backend: str = None,
):
    """Like :func:`map_tasks`, but a generator with bounded buffering.

    Yields results in task order while keeping at most ``window``
    (default ``2 * workers``) tasks outstanding — submitted but not yet
    consumed — so a slow consumer exerts backpressure on the pool
    instead of letting every result pile up in memory.  The codec
    sharding uses this to keep the parallel dataset path under the same
    peak-memory bound as the serial chunked loop.

    The in-process conditions, the supervision knobs and the error
    contract match :func:`map_tasks`; the pool lives for the lifetime of
    the generator and is torn down when it is exhausted (or closed
    early).
    """
    tasks = list(tasks)
    if _runs_inline(policy, task_timeout, backend, workers, len(tasks)):
        for task in tasks:
            yield function(task)
        return
    from repro.runtime.supervision import supervised_imap

    with _raw_task_errors(policy):
        yield from supervised_imap(
            function, tasks, workers=workers,
            policy=policy if policy is not None else "fail-fast",
            retries=retries if policy is not None else 0,
            task_timeout=task_timeout, backoff=retry_backoff,
            window=window, backend=backend,
        )


class TaskState:
    """Single-slot, process-local memo for heavy shared task state.

    A figure module declares one ``TaskState(build)`` at module level;
    ``build(key)`` reconstructs the state (datasets, classifiers, shared
    codecs) from a small hashable key — typically an
    :class:`~repro.experiments.common.ExperimentConfig`.  The parent
    process calls :meth:`seed` with the state it built for its own use
    before opening the pool, so ``fork`` workers inherit it without any
    pickling; a worker whose memo is cold (``spawn`` platforms, or a
    state the parent never built) falls back to ``build(key)``.

    Only the most recent key is cached: figure sweeps use one state for
    the whole grid, and a single slot cannot leak across scales.

    The empty slot is marked by a private sentinel, not ``None`` — a
    ``build`` that legitimately returns ``None`` is memoised like any
    other value instead of rebuilding on every ``get``.
    """

    #: Sentinel marking the empty memo slot (``None`` is a valid state).
    _EMPTY = object()

    def __init__(self, build) -> None:
        self._build = build
        self._key = self._EMPTY
        self._value = self._EMPTY

    def seed(self, key, value) -> None:
        """Install parent-built state for ``key`` (pre-fork)."""
        self._key = key
        self._value = value

    def get(self, key):
        """The state for ``key``, rebuilding it if the memo is cold."""
        if self._value is self._EMPTY or self._key != key:
            self.seed(key, self._build(key))
        return self._value

    def clear(self) -> None:
        """Drop the cached state (used by tests)."""
        self._key = self._EMPTY
        self._value = self._EMPTY

    def is_empty(self) -> bool:
        """Whether the memo slot is released (no state pinned)."""
        return self._value is self._EMPTY
