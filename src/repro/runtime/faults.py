"""Deterministic fault injection for the supervised runtime.

DeepN-JPEG targets edge deployment, where preemption, OOM kills and
transient failures are the norm — so the fault-tolerance layer has to be
*testable*, not just written.  This module provides the chaos harness:
small declarative fault specs — "on task *i*, attempt *a*: raise a
transient error / kill the worker process / hang past the timeout" —
installed programmatically (:func:`install_faults` / :func:`injected`)
or through the :data:`REPRO_FAULTS` environment variable (which ``fork``
workers and CLI subprocesses inherit), and fired by the supervised
execution envelope (:mod:`repro.runtime.supervision`) just before the
task function runs.

Because a fault is keyed on ``(task index, attempt number)`` and the
supervised runtime re-runs a retried task with exactly the same task
payload (including its per-task ``SeedSequence``), a recovered sweep is
bit-identical to a fault-free one — which is precisely what the chaos
test suite asserts.

Spec grammar (comma-separated entries)::

    kind:index[:attempt[:seconds]]

    raise:3        raise InjectedFault on task 3, attempt 1
    raise:3:2      ... on attempt 2 instead
    raise:3:0      ... on every attempt (a *permanent* failure)
    exit:5         os._exit the worker running task 5, attempt 1
    hang:2:1:30    sleep 30 s inside task 2's first attempt, then proceed

Network fault kinds (socket-worker tier only, injected by
:mod:`repro.runtime.worker` — see :data:`NETWORK_KINDS`)::

    disconnect:4     drop the coordinator connection before task 4, then
                     compute, reconnect and deliver
    delay:2:1:3      sleep 3 s before sending task 2's result (slow link)
    dup-result:1     send task 1's result frame twice (dedup check)
    hb-loss:3:1:20   suppress heartbeats for 20 s during task 3 (lease
                     expiry + reassignment)

Faults fire inside the supervised execution envelope, which every
pooled map runs; an in-process serial map with no supervision knob set
(one worker, one task, or the ``serial`` backend) never consults them.
The store-corruption fault — a crashed writer leaving a truncated
artifact — is injected directly on disk with
:func:`truncate_store_artifacts`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

#: Environment variable holding a fault spec string (see module docstring).
ENV_VAR = "REPRO_FAULTS"

#: Compute fault kinds: injected by :func:`fire` inside the execution
#: envelope, on any backend.
KINDS = ("raise", "exit", "hang")

#: Network fault kinds: consulted by the socket worker daemon
#: (:mod:`repro.runtime.worker`) around task execution and result
#: delivery; :func:`fire` ignores them.
#:
#: ``disconnect``
#:     Drop the coordinator connection just before running the task,
#:     keep computing, reconnect with backoff, deliver the result — the
#:     forced-reconnect chaos scenario.
#: ``delay``
#:     Sleep ``seconds`` before sending the result (a slow link).
#: ``dup-result``
#:     Send the result frame twice (the coordinator must deduplicate).
#: ``hb-loss``
#:     Suppress heartbeats for ``seconds`` while running the task, so
#:     the coordinator's lease deadline expires and the lease is
#:     reassigned to a live worker.
NETWORK_KINDS = ("disconnect", "delay", "dup-result", "hb-loss")

#: Every kind the spec grammar accepts.
ALL_KINDS = KINDS + NETWORK_KINDS

#: Exit status used by the ``exit`` fault (BSD ``EX_SOFTWARE``), distinct
#: from every status the runtime itself produces.
EXIT_CODE = 70

#: Default sleep of a ``hang`` fault — long enough to trip any sane task
#: timeout, short enough that a harness bug cannot wedge a suite forever.
DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """The transient error raised by a ``raise`` fault."""


class FaultSpecError(ValueError):
    """A fault spec string that does not follow the grammar."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what to do, on which task, on which attempt.

    ``attempt`` is 1-based; ``0`` means *every* attempt, which turns a
    transient fault into a permanent one (the shape the ``collect``
    policy tests need).  ``seconds`` only applies to ``hang`` faults.
    """

    kind: str
    index: int
    attempt: int = 1
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; known kinds: {ALL_KINDS}"
            )
        if self.index < 0:
            raise FaultSpecError(f"fault index must be >= 0, got {self.index}")
        if self.attempt < 0:
            raise FaultSpecError(
                f"fault attempt must be >= 0 (0 = every attempt), "
                f"got {self.attempt}"
            )
        if self.seconds <= 0:
            raise FaultSpecError(
                f"hang seconds must be positive, got {self.seconds}"
            )

    def matches(self, index: int, attempt: int) -> bool:
        return self.index == index and self.attempt in (0, attempt)

    def is_network(self) -> bool:
        """Whether this fault is transport-level (worker-daemon only)."""
        return self.kind in NETWORK_KINDS

    def fire(self) -> None:
        """Inject this fault (runs inside the worker, pre-task).

        Network kinds are a no-op here: they need the worker daemon's
        connection context and are injected by
        :mod:`repro.runtime.worker` instead.
        """
        if self.kind == "raise":
            raise InjectedFault(
                f"injected transient fault on task {self.index}"
            )
        if self.kind == "exit":
            # A hard crash: no exception, no cleanup, no result — the
            # worker just disappears, exactly like an OOM kill.
            os._exit(EXIT_CODE)
        if self.kind == "hang":
            time.sleep(self.seconds)


def parse_faults(text: str) -> "tuple[FaultSpec, ...]":
    """Parse a spec string (see module docstring) into fault specs."""
    specs = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if not 2 <= len(parts) <= 4:
            raise FaultSpecError(
                f"fault entry {entry!r} must be kind:index[:attempt[:seconds]]"
            )
        kind = parts[0].strip()
        try:
            index = int(parts[1])
            attempt = int(parts[2]) if len(parts) > 2 else 1
            seconds = float(parts[3]) if len(parts) > 3 else (
                DEFAULT_HANG_SECONDS
            )
        except ValueError as error:
            raise FaultSpecError(
                f"fault entry {entry!r} has a non-numeric field: {error}"
            ) from None
        try:
            specs.append(
                FaultSpec(
                    kind=kind, index=index, attempt=attempt, seconds=seconds
                )
            )
        except FaultSpecError as error:
            # Name the offending token: a typo in a long REPRO_FAULTS
            # string must be findable from the message alone.
            raise FaultSpecError(f"fault entry {entry!r}: {error}") from None
    return tuple(specs)


#: Programmatically installed faults; ``None`` defers to the environment.
_INSTALLED: "Optional[tuple[FaultSpec, ...]]" = None


def install_faults(faults) -> "tuple[FaultSpec, ...]":
    """Install faults for this process (and future ``fork`` children).

    ``faults`` is a spec string or an iterable of :class:`FaultSpec`.
    Installed faults shadow :data:`REPRO_FAULTS` until
    :func:`clear_faults`.
    """
    global _INSTALLED
    if isinstance(faults, str):
        faults = parse_faults(faults)
    _INSTALLED = tuple(faults)
    return _INSTALLED


def clear_faults() -> None:
    """Remove programmatically installed faults (env faults resume)."""
    global _INSTALLED
    _INSTALLED = None


def active_faults() -> "tuple[FaultSpec, ...]":
    """The faults currently in force (installed, else from the env)."""
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(ENV_VAR, "")
    return parse_faults(text) if text.strip() else ()


def validate_active_faults() -> "tuple[FaultSpec, ...]":
    """Eagerly parse and return the active fault specs.

    :func:`install_faults` already validates programmatic specs at
    install time, but a :data:`REPRO_FAULTS` string from the environment
    used to be parsed lazily inside :func:`fire` — i.e. inside a worker,
    mid-sweep, after minutes of healthy cells.  The supervised runtime,
    the worker daemon and the CLI call this up front instead, so a typo
    fails the run immediately with a :class:`FaultSpecError` naming the
    bad token.
    """
    return active_faults()


def network_faults(index: int, attempt: int) -> "tuple[FaultSpec, ...]":
    """The matching network-kind faults for ``(index, attempt)``.

    The worker daemon consults this around task execution and result
    delivery; compute kinds are excluded (they fire through
    :func:`fire` inside the execution envelope, identically on every
    backend).
    """
    return tuple(
        spec
        for spec in active_faults()
        if spec.is_network() and spec.matches(index, attempt)
    )


def fire(index: int, attempt: int) -> None:
    """Fire every active fault matching ``(index, attempt)``.

    Called by the supervised execution envelope with the task's index in
    its map and the 1-based attempt number; a no-op when nothing
    matches (the overwhelmingly common case: one string comparison and
    an empty tuple scan).
    """
    for spec in active_faults():
        if spec.matches(index, attempt):
            spec.fire()


@contextmanager
def injected(faults):
    """Context manager installing ``faults`` for the duration of a block."""
    install_faults(faults)
    try:
        yield
    finally:
        clear_faults()


# ----------------------------------------------------------------------
# Store-corruption faults (injected on disk, not in a worker).
# ----------------------------------------------------------------------

def truncate_artifact(path: str, keep_bytes: int = 16) -> None:
    """Truncate one artifact file in place — a crashed writer's footprint.

    The resulting file is no longer valid JSON, which is exactly the
    corruption :meth:`repro.experiments.store.ArtifactStore.get` must
    demote to a cache miss (recompute and overwrite, never crash).
    """
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)


def truncate_store_artifacts(
    root: str, count: int = 1, keep_bytes: int = 16
) -> "list[str]":
    """Deterministically truncate the first ``count`` artifacts under ``root``.

    Artifacts are taken in sorted path order (content addresses, so the
    selection is stable for a given store population); the truncated
    paths are returned so a chaos test can assert exactly those cells —
    and only those — were recomputed.
    """
    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, files in os.walk(root)
        for name in files
        if name.endswith(".json")
    )[: max(int(count), 0)]
    for path in paths:
        truncate_artifact(path, keep_bytes=keep_bytes)
    return paths
