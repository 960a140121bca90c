"""Process-pool experiment runtime.

:mod:`repro.runtime.executor` is the execution layer behind the
``workers=`` knob threaded through
:class:`~repro.experiments.common.ExperimentConfig`, the dataset
compression entry points in :mod:`repro.core.baselines` and every
``fig*`` experiment sweep: deterministic task sharding with a serial
path that is bit-identical to the historical single-process loops.

:mod:`repro.runtime.supervision` runs every pooled map — per-task
:class:`~repro.runtime.supervision.TaskFailure` envelopes, bounded
deterministic retries, per-task timeouts with a hung-worker watchdog and
broken-pool recovery, tuned through the ``policy``/``retries``/
``task_timeout`` knobs of the executor maps — over the transports in
:mod:`repro.runtime.backends`.
:mod:`repro.runtime.faults` is the matching deterministic fault-injection
harness the chaos tests drive.
"""

from repro.runtime.executor import (
    CACHE_MISS,
    TaskState,
    available_workers,
    chunk_bounds,
    effective_workers,
    fork_available,
    imap_tasks,
    map_tasks,
    map_tasks_resumable,
    spawn_seeds,
)
from repro.runtime.supervision import (
    POLICIES,
    TaskError,
    TaskFailure,
    supervise,
    supervised_imap,
    supervised_map,
)

__all__ = [
    "CACHE_MISS",
    "POLICIES",
    "TaskError",
    "TaskFailure",
    "TaskState",
    "available_workers",
    "chunk_bounds",
    "effective_workers",
    "fork_available",
    "imap_tasks",
    "map_tasks",
    "map_tasks_resumable",
    "spawn_seeds",
    "supervise",
    "supervised_imap",
    "supervised_map",
]
