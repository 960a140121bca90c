"""Shared-memory buffer layer for zero-copy task and result shipping.

The process-pool backends historically moved every task payload and
result through pickle over a multiprocessing pipe: a 64 KiB-chunked,
lock-serialised channel that copies each byte at least twice.  For the
codec workloads that is exactly the wrong shape — task payloads carry
``(N, H, W[, C])`` image stacks and results carry reconstructed pixel
stacks, i.e. a few kilobytes of structure wrapped around megabytes of
flat array data.

This module splits the two apart:

* :func:`dump` pickles a value with **protocol 5 out-of-band buffers**
  (:class:`pickle.PickleBuffer`): the structural pickle stays a small
  byte string, while every large contiguous buffer (NumPy array data)
  is written once into a named ``multiprocessing.shared_memory``
  segment.  The returned :class:`ShmPayload` is tiny and picklable, so
  it rides the existing result pipe for free.  Buffers below
  :data:`MIN_SEGMENT_BYTES` stay inline — a segment per small result
  would cost more in ``shm_open``/``mmap`` than it saves in copies.
* :func:`load` re-attaches the segment, rebuilds the out-of-band
  buffers, and by default **unlinks** the segment: the consumer owns
  cleanup, so the normal path leaves nothing in ``/dev/shm``.
* :func:`create_stack` / :func:`attach_stack` share one read-only
  array (the dataset image stack) across many workers: the parent
  writes it once, every worker maps the same pages and slices its
  shard without any per-task copy.  This replaces fork-time global
  inheritance, which silently served **stale data** to warm persistent
  pools (a worker forked during sweep 1 kept sweep 1's stack global
  for sweep 2).

Crash safety: a SIGKILLed worker can die between creating a segment
and delivering its name, leaving an orphan.  Every segment name this
run creates starts with :func:`run_prefix` (``repro-shm-<pid of the
coordinating process>-``), so :func:`sweep_orphans` can glob
``/dev/shm`` for the run's prefix and unlink leftovers at backend
close/shutdown without ever touching another run's segments.

CPython's ``resource_tracker`` registers shared-memory names at
``create=True`` and unlinks them when the creating process exits,
which fights any cross-process ownership protocol (a worker's result
segment would be destroyed under the parent still holding its name).
This module unregisters every segment it creates and manages the
lifecycle itself.
"""

from __future__ import annotations

import os
import pickle
import secrets
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Below this many out-of-band bytes a result is shipped inline: the
#: fixed cost of ``shm_open`` + ``mmap`` + ``unlink`` (~3 syscalls each
#: side) beats the pipe only once the payload dwarfs a pipe buffer.
MIN_SEGMENT_BYTES = 64 * 1024

#: Environment knob: ``REPRO_SHM=0`` disables the shared-memory paths
#: (backends fall back to plain pickle shipping).
ENV_VAR = "REPRO_SHM"

#: Environment override for the run prefix, so externally launched
#: helper processes (e.g. test subprocesses) join the parent's run.
PREFIX_ENV_VAR = "REPRO_SHM_PREFIX"

#: Default run prefix, fixed at first import so forked workers inherit
#: the *coordinator's* pid, not their own.
_DEFAULT_PREFIX = f"repro-shm-{os.getpid()}"


class ShmUnavailable(RuntimeError):
    """Shared-memory shipping requested on a platform without support."""


def enabled() -> bool:
    """Whether the shared-memory paths are usable and not opted out."""
    if os.environ.get(ENV_VAR, "").strip() == "0":
        return False
    return sys.platform.startswith("linux") and os.path.isdir("/dev/shm")


def run_prefix() -> str:
    """This run's segment-name prefix (see module docstring)."""
    return os.environ.get(PREFIX_ENV_VAR) or _DEFAULT_PREFIX


def _fresh_name(kind: str = "r") -> str:
    """A fresh run-prefixed segment name.

    ``kind`` distinguishes worker-created result payloads (``r`` — the
    only class that can be orphaned by a killed worker, and the default
    :func:`sweep_orphans` target) from parent-owned shared stacks
    (``s`` — cleaned up by the parent's own ``finally``, and never
    swept while a map that might still attach them is in flight).
    """
    return f"{run_prefix()}-{kind}-{secrets.token_hex(6)}"


def _untrack(name: str) -> None:
    """Stop the resource tracker from unlinking ``name`` behind our back.

    Only creators call this: CPython 3.11 registers a segment with the
    tracker on ``create=True`` only (attach does not register), and the
    tracker would otherwise unlink the segment when the *creating*
    process exits even though a consumer still owns it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        # Tracker internals vary across CPython patch levels; ownership
        # still works, at worst with a tracker warning at exit.
        pass


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def _unlink_quiet(name: str) -> bool:
    """Unlink segment ``name`` if it exists; returns whether it did."""
    shared_memory = _shared_memory()
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        return False
    return True


def list_segments(prefix: Optional[str] = None) -> "list[str]":
    """Names of live ``/dev/shm`` segments carrying ``prefix``."""
    prefix = run_prefix() if prefix is None else prefix
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


def sweep_orphans(prefix: Optional[str] = None) -> "list[str]":
    """Unlink leftover *result* segments of this run; returns the names.

    Called by the backends at close/shutdown: the normal consume path
    unlinks as it loads, so anything still present belongs to a worker
    that died between creating a segment and delivering its name.
    Parent-owned stack segments (``-s-`` names) are deliberately not
    swept — a concurrent map may still be attaching them, and
    their creator's ``finally`` owns their cleanup.
    """
    prefix = f"{run_prefix()}-r-" if prefix is None else prefix
    removed = []
    for name in list_segments(prefix):
        if _unlink_quiet(name):
            removed.append(name)
    return removed


# ----------------------------------------------------------------------
# Pickle-5 payloads: structure in-band, big buffers out-of-band
# ----------------------------------------------------------------------

@dataclass
class ShmPayload:
    """A pickled value whose large buffers live out-of-band.

    ``pickle_data`` is the protocol-5 structural pickle; the buffers it
    references are either packed end-to-end in the named ``segment``
    (``lengths`` giving the split points) or carried ``inline`` when
    the total is too small to justify a segment.  The object itself is
    tiny and picklable, so it crosses any transport the backends use.
    """

    pickle_data: bytes
    segment: Optional[str] = None
    lengths: "list[int]" = field(default_factory=list)
    inline: "Optional[list[bytes]]" = None


def is_payload(value) -> bool:
    return isinstance(value, ShmPayload)


def dump(value, min_bytes: int = MIN_SEGMENT_BYTES) -> ShmPayload:
    """Pack ``value`` into a :class:`ShmPayload` (see module docstring)."""
    buffers: "list[pickle.PickleBuffer]" = []
    data = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    total = sum(raw.nbytes for raw in raws)
    if total < min_bytes or not enabled():
        return ShmPayload(
            data,
            lengths=[raw.nbytes for raw in raws],
            inline=[bytes(raw) for raw in raws],
        )
    shared_memory = _shared_memory()
    segment = shared_memory.SharedMemory(
        create=True, size=total, name=_fresh_name()
    )
    _untrack(segment.name)
    lengths = []
    offset = 0
    for raw in raws:
        end = offset + raw.nbytes
        segment.buf[offset:end] = raw
        lengths.append(raw.nbytes)
        offset = end
    name = segment.name
    segment.close()
    return ShmPayload(data, segment=name, lengths=lengths)


def load(payload: ShmPayload, unlink: bool = True):
    """Reconstruct the value of a :class:`ShmPayload`.

    With ``unlink`` (the default) the backing segment is destroyed
    after reading: the consumer owns cleanup, so a fully consumed sweep
    leaves ``/dev/shm`` empty.
    """
    if payload.segment is None:
        return pickle.loads(payload.pickle_data, buffers=payload.inline or [])
    shared_memory = _shared_memory()
    segment = shared_memory.SharedMemory(name=payload.segment)
    try:
        buffers = []
        offset = 0
        for length in payload.lengths:
            # Copy out to the heap so the segment can be unlinked now
            # instead of pinning /dev/shm for the value's lifetime.
            buffers.append(bytes(segment.buf[offset:offset + length]))
            offset += length
        return pickle.loads(payload.pickle_data, buffers=buffers)
    finally:
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


def maybe_load(value, unlink: bool = True):
    """:func:`load` if ``value`` is a payload, else ``value`` unchanged."""
    if is_payload(value):
        return load(value, unlink=unlink)
    return value


# ----------------------------------------------------------------------
# Shared read-only stacks: one segment, many workers, no per-task copy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StackHandle:
    """Picklable key to a shared array: segment name + dtype + shape."""

    name: str
    dtype: str
    shape: "tuple[int, ...]"


class SharedStack:
    """Owner handle of a shared array segment (created by the parent)."""

    def __init__(self, handle: StackHandle, segment) -> None:
        self.handle = handle
        self._segment = segment

    def close(self, unlink: bool = True) -> None:
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


def create_stack(array: np.ndarray) -> SharedStack:
    """Copy ``array`` into a fresh segment shared with future workers."""
    if not enabled():
        raise ShmUnavailable(
            "shared-memory stacks are unavailable on this platform "
            f"(or disabled via {ENV_VAR}=0)"
        )
    array = np.ascontiguousarray(array)
    shared_memory = _shared_memory()
    segment = shared_memory.SharedMemory(
        create=True, size=max(array.nbytes, 1), name=_fresh_name("s")
    )
    _untrack(segment.name)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    del view
    handle = StackHandle(
        name=segment.name, dtype=array.dtype.str, shape=tuple(array.shape)
    )
    return SharedStack(handle, segment)


#: Process-local cache of attached stack mappings: ``name`` →
#: ``(segment, array)``.  Closing a mapping while *any* view of it is
#: alive unmaps the pages under that view (observed: a later access
#: segfaults), so attachments are never closed eagerly.  The cache
#: holds at most one stack — jobs are sequential, so attaching a new
#: stack evicts the previous mapping at the only moment it is provably
#: view-free (the old job's results were deep-copied out at
#: :func:`dump` time) — which also bounds a long-lived persistent
#: worker to one mapped stack instead of one per job served.
_ATTACHED: "dict[str, tuple]" = {}


def attach_stack(handle: StackHandle) -> np.ndarray:
    """The shared stack as a read-only array mapped in this process.

    The mapping stays valid for the rest of this process's current job
    (see :data:`_ATTACHED`); the creator owns the segment and unlinks
    it when every consumer is done — on Linux an unlinked segment's
    pages survive until the last mapping closes, so a parent unlink
    racing a worker still computing is safe.
    """
    cached = _ATTACHED.get(handle.name)
    if cached is not None:
        return cached[1]
    detach_stacks()
    shared_memory = _shared_memory()
    segment = shared_memory.SharedMemory(name=handle.name)
    array = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
    )
    array.flags.writeable = False
    _ATTACHED[handle.name] = (segment, array)
    return array


def detach_stacks() -> None:
    """Drop every cached stack mapping (evict path and test cleanup).

    Only call when no views of the cached stacks can be alive — after
    a job's results have been shipped (every shipped buffer is a copy).
    """
    while _ATTACHED:
        segment, array = _ATTACHED.popitem()[1]
        del array
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a straggler view
            pass
