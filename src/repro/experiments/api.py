"""The declarative experiment API: declare axes + a cell function, and the
framework supplies everything else.

Before this module existed every figure experiment hand-rolled the same
plumbing: enumerate a parameter grid, key each cell on
:meth:`~repro.experiments.common.ExperimentConfig.task_key` plus the
cell's identity, resume completed cells from an
:class:`~repro.experiments.store.ArtifactStore` through
:func:`~repro.runtime.executor.map_tasks_resumable`, shard the fresh
cells over ``config.workers`` processes with heavy state in a
:class:`~repro.runtime.executor.TaskState` memo, and reassemble the
results in deterministic order.  An :class:`Experiment` declares only
what is unique to it:

* **axes** — named value lists whose cartesian product (in declaration
  order, last axis fastest) is the sweep grid; or an explicit ``cells``
  override for non-product grids.
* a pure **cell function** (:meth:`Experiment.compute_cell`) mapping one
  JSON-able grid cell (plus the shared state) to a JSON-able result.
* optional heavy **state builders** (:meth:`Experiment.build_state` /
  :meth:`Experiment.setup_state`) for datasets, trained classifiers and
  fitted designs — built once per sweep, fork-inherited by workers.
* an **assemble** step (:meth:`Experiment.assemble`) turning the ordered
  cell results (plus cached scalars) into the figure's result object.

:func:`run_experiment` is the single driver: caching, resume, sharding,
ordering and progress reporting behave identically for every experiment,
so ``workers=1`` runs are bit-identical to the historical per-figure
loops and any worker count or store temperature produces the same
results.

Experiments register by name (:func:`register_experiment` /
:func:`build_experiment` / :func:`experiment_names`, mirroring the codec
registry in :mod:`repro.core.codec`), which is what the ``python -m
repro`` CLI and the :mod:`examples` loop over — third-party sweeps plug
into the same surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.experiments.common import ExperimentConfig, format_table
from repro.experiments.store import (
    ArtifactStore,
    SweepCache,
    all_cached,
)
from repro.runtime.executor import (
    CACHE_MISS,
    TaskState,
    map_tasks_resumable,
)
from repro.runtime.supervision import TaskError, TaskFailure


class SweepFailure(RuntimeError):
    """One or more sweep cells failed under the supervised runtime.

    Raised by :func:`run_experiment` when the configured error policy
    exhausts its retries: under ``on_error="collect"`` every healthy
    cell has already completed (and persisted, when a store is bound)
    before this is raised; under ``"fail-fast"``/``"retry"`` it wraps
    the first exhausted cell.  ``failures`` is an ordered list of
    ``(cell, TaskFailure)`` pairs — the JSON-able cell identity plus the
    supervision envelope — and :meth:`report` renders the human-readable
    summary the CLI prints before exiting non-zero.
    """

    def __init__(
        self,
        experiment: str,
        failures: "list[tuple[dict, TaskFailure]]",
        total: int,
    ) -> None:
        self.experiment = experiment
        self.failures = list(failures)
        self.total = total
        super().__init__(
            f"experiment {experiment!r}: {len(self.failures)} of {total} "
            f"cell(s) failed"
        )

    def report(self) -> str:
        """A failure report naming every failed cell."""
        lines = [
            f"experiment {self.experiment!r}: {len(self.failures)} of "
            f"{self.total} cell(s) failed"
        ]
        for cell, failure in self.failures:
            lines.append(
                f"  cell {cell!r}: {failure.error_type}: {failure.message} "
                f"[{failure.kind}, {failure.attempts} attempt(s)]"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Axis:
    """One named dimension of an experiment grid.

    ``name`` is either a single cell-key string (each value becomes
    ``{name: value}``) or a tuple of key strings (each value must be a
    same-length tuple, unpacked into one key per component) — the latter
    expresses linked dimensions such as Fig. 5's ``(group, step)`` pairs
    that are swept together, not as a product.
    """

    name: "str | tuple[str, ...]"
    values: tuple

    def __init__(self, name, values) -> None:
        if isinstance(name, (tuple, list)):
            name = tuple(name)
            if len(set(name)) != len(name):
                raise ValueError(f"axis declares duplicate key(s): {name}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(values))

    def keys(self) -> "tuple[str, ...]":
        return self.name if isinstance(self.name, tuple) else (self.name,)

    def cell_updates(self) -> "list[dict]":
        """The ``{key: value}`` fragment each axis value contributes."""
        keys = self.keys()
        updates = []
        for value in self.values:
            if isinstance(self.name, tuple):
                parts = tuple(value)
                if len(parts) != len(keys):
                    raise ValueError(
                        f"axis {self.name} expects {len(keys)}-tuples, "
                        f"got {value!r}"
                    )
                updates.append(dict(zip(keys, parts)))
            else:
                updates.append({self.name: value})
        return updates


def grid_cells(axes: "list[Axis]") -> "list[dict]":
    """The cartesian product of ``axes`` as ordered cell dictionaries.

    Declaration order is significant and deterministic: the first axis
    varies slowest, the last fastest — the order every historical figure
    loop enumerated its grid in.
    """
    axes = list(axes)
    seen: "set[str]" = set()
    for axis in axes:
        overlap = seen.intersection(axis.keys())
        if overlap:
            raise ValueError(f"duplicate axis key(s): {sorted(overlap)}")
        seen.update(axis.keys())
    cells = []
    for updates in itertools.product(*(axis.cell_updates() for axis in axes)):
        cell: dict = {}
        for update in updates:
            cell.update(update)
        cells.append(cell)
    return cells


@dataclass
class TableResult:
    """A minimal tabular result object for custom experiments.

    Satisfies the contract the CLI and the registry loop rely on —
    ``rows()`` plus ``format_table()`` — so an ``assemble`` hook can
    return ``TableResult(headers, rows)`` instead of declaring a result
    class.
    """

    headers: "list[str]"
    row_values: "list[list]"

    def rows(self) -> "list[list]":
        return [list(row) for row in self.row_values]

    def format_table(self) -> str:
        return format_table(list(self.headers), self.rows())


@dataclass
class RunContext:
    """Everything one :func:`run_experiment` invocation knows.

    ``params`` holds the experiment's declared parameters (defaults
    merged with caller overrides); ``derived`` is scratch space for
    :meth:`Experiment.prepare` to stash derived objects (fitted designs,
    candidate codecs) that the later hooks need.  ``store`` is the
    *effective* store — already ``None`` when the experiment disabled
    caching for this parameterisation.
    """

    config: ExperimentConfig
    store: Optional[ArtifactStore]
    params: dict
    derived: dict = field(default_factory=dict)


class Experiment:
    """Base class for declarative experiments.

    Subclasses set :attr:`name` (the registry key and cache namespace),
    :attr:`title` and :attr:`headers`, declare their parameters in
    :attr:`defaults`, and override the hooks they need; everything else
    — grid enumeration, cache keys, resume, sharding, ordering,
    progress — is supplied uniformly by :func:`run_experiment`.
    """

    #: Registry key and artifact-store namespace.  Required.
    name: str = ""
    #: One-line description shown by ``python -m repro list``.
    title: str = ""
    #: Column headers matching the result's ``rows()`` (for ``--json``).
    headers: "list[str]" = []
    #: Declared parameters and their defaults; ``run_experiment`` rejects
    #: unknown parameter names so a typo can never be silently dropped.
    defaults: dict = {}

    # ------------------------------------------------------------------
    # Declaration hooks.
    # ------------------------------------------------------------------
    def prepare(self, ctx: RunContext) -> None:
        """Derive run-wide objects before the grid is enumerated.

        Runs first, with the effective store available (e.g. to resume a
        fitted design); results go into ``ctx.derived``.
        """

    def store_enabled(self, ctx: RunContext) -> bool:
        """Whether the artifact store applies to this parameterisation.

        Experiments whose state is not derivable from the configuration
        alone (e.g. a caller-supplied classifier) return ``False`` and
        the whole run bypasses the store.
        """
        return True

    def axes(self, ctx: RunContext) -> "list[Axis]":
        """The named grid axes of this run (cartesian-product grids)."""
        return []

    def cells(self, ctx: RunContext) -> "list[dict]":
        """The ordered, JSON-able cell identities of the sweep.

        Defaults to the cartesian product of :meth:`axes`, each point
        decorated by :meth:`cell_identity`.  Override for grids that are
        not a product at all.
        """
        return [
            self.cell_identity(ctx, point)
            for point in grid_cells(self.axes(ctx))
        ]

    def cell_identity(self, ctx: RunContext, point: dict) -> dict:
        """Augment one grid point into its full cache identity.

        This is where a cell binds the content it depends on — typically
        the relevant codec ``spec()`` — so cached cells are addressed by
        *what* they computed, not by which run computed them.
        """
        return point

    def scalar_names(self, ctx: RunContext) -> "tuple[str, ...]":
        """Names of run-wide cached scalars (e.g. a baseline accuracy)."""
        return ()

    def compute_scalar(self, ctx: RunContext, state, name: str):
        """Compute one scalar on a cache miss (state is already built)."""
        raise NotImplementedError(name)

    # ------------------------------------------------------------------
    # Heavy-state hooks.
    # ------------------------------------------------------------------
    def state_key(self, ctx: RunContext):
        """The picklable key identifying this run's shared state."""
        return ctx.config.task_key()

    def setup_state(self, ctx: RunContext) -> Optional[dict]:
        """Parent-side state construction.

        Return a state dict to seed the worker memo with objects only
        the parent can build (caller-supplied classifiers, fitted-design
        compressions); return ``None`` (the default) to build through
        :meth:`build_state`, which also serves cold workers.
        """
        return None

    def build_state(self, key) -> dict:
        """Reconstruct the shared state from the key alone.

        Must be deterministic: a cold worker's rebuild has to be
        bit-identical to the parent's copy.  Experiments whose state is
        only ever seeded raise here (reachable only on non-fork
        platforms, where the runtime degrades to serial anyway).
        """
        raise RuntimeError(
            f"experiment {self.name!r} has no config-derived state; "
            "it must be seeded by the parent process"
        )

    # ------------------------------------------------------------------
    # Cell computation and assembly.
    # ------------------------------------------------------------------
    def task_extra(self, ctx: RunContext, index: int, cell: dict):
        """Extra picklable payload shipped with one task (default none).

        For cells that need a small live object (a candidate compressor)
        rather than rebuilding it from the JSON identity.
        """
        return None

    def compute_cell(self, key, state, cell: dict, extra):
        """The pure cell function: one grid cell to one JSON-able result.

        Runs in a worker process; may only touch ``key`` (the state
        key, which embeds the config), the shared ``state``, the
        JSON-able ``cell`` and the optional ``extra`` payload.
        """
        raise NotImplementedError

    def cell_to_payload(self, value):
        """Encode one cell result for JSON storage (identity default)."""
        return value

    def cell_from_payload(self, payload):
        """Decode one stored payload back into a cell result."""
        return payload

    def assemble(self, ctx: RunContext, results: list, scalars: dict):
        """Build the experiment's result object from the ordered cells."""
        raise NotImplementedError

    def report(self, result) -> str:
        """Human-readable rendering used by the CLI (table by default)."""
        return result.format_table()

    # ------------------------------------------------------------------
    # Convenience.
    # ------------------------------------------------------------------
    def run(
        self,
        config: Optional[ExperimentConfig] = None,
        store: Optional[ArtifactStore] = None,
        progress: Optional[Callable] = None,
        **params,
    ):
        """:func:`run_experiment` bound to this experiment."""
        return run_experiment(
            self, config, store=store, progress=progress, **params
        )


def _build_state(full_key) -> dict:
    """Cold-worker state dispatch for the shared :data:`_STATE` memo."""
    name, key = full_key
    return build_experiment(name).build_state(key)


#: The single shared worker-state memo of the experiment layer.  One
#: sweep runs at a time (nested sweeps — Fig. 5 inside a design
#: derivation — complete before their parent builds state), so one slot
#: suffices, exactly as the per-figure memos it replaces.
_STATE = TaskState(_build_state)


def shared_state(experiment: Experiment, key) -> dict:
    """The experiment's shared state, building it if the memo is cold.

    Exposed for ``prepare`` hooks whose derived objects (e.g. a fitted
    design) need the state datasets before the driver's own setup runs —
    the driver then finds the memo warm and reuses the same objects.
    """
    return _STATE.get((experiment.name, key))


def clear_state() -> None:
    """Drop the shared memo (tests force cold rebuilds with this)."""
    _STATE.clear()


def _compute_cell(task):
    """Module-level pool task: resolve the experiment and run one cell.

    The task ships ``(experiment name, state key, cell, extra)`` — the
    experiment object itself is resolved through the registry (inherited
    over ``fork``) and the heavy state through the shared memo.
    """
    name, key, cell, extra = task
    experiment = build_experiment(name)
    state = _STATE.get((name, key))
    return experiment.compute_cell(key, state, cell, extra)


def run_experiment(
    experiment: Experiment,
    config: Optional[ExperimentConfig] = None,
    store: Optional[ArtifactStore] = None,
    progress: Optional[Callable] = None,
    **params,
):
    """Run a declarative experiment end to end.

    The uniform driver behind every figure's ``run()``:

    1. merge ``params`` into the experiment's declared defaults
       (unknown names raise :class:`TypeError`);
    2. ``prepare`` derived objects, enumerate the cells, and look every
       cell and scalar up in the store — a fully warm store assembles
       the result without building any state;
    3. otherwise build (or seed) the shared heavy state, resolve missing
       scalars, and map the missing cells through
       :func:`~repro.runtime.executor.map_tasks_resumable` — serially
       for ``workers=1``, over a forked pool otherwise, or over the
       transport ``config.backend`` selects — persisting each fresh
       cell as it completes;
    4. ``assemble`` the ordered results into the figure's result object.

    ``progress`` — when given — is called as ``progress(done, total)``
    once up front (counting cached cells) and after every fresh cell.

    When ``config.on_error``/``config.task_timeout`` engage the
    supervised runtime and a cell exhausts its attempts, the run raises
    :class:`SweepFailure` naming the failed cell(s); under
    ``on_error="collect"`` every healthy cell still completes and
    persists first, so a follow-up run recomputes only the failures.
    """
    config = config if config is not None else ExperimentConfig.small()
    if not experiment.name:
        raise ValueError(f"{type(experiment).__name__} declares no name")
    unknown = sorted(set(params) - set(experiment.defaults))
    if unknown:
        raise TypeError(
            f"experiment {experiment.name!r} got unknown parameter(s) "
            f"{unknown}; declared parameters: {sorted(experiment.defaults)}"
        )
    merged = dict(experiment.defaults)
    merged.update(params)
    ctx = RunContext(config=config, store=store, params=merged)
    if not experiment.store_enabled(ctx):
        ctx.store = None
    # Pin THIS instance under its name for the duration of the run:
    # cell tasks resolve experiments through the registry (names pickle,
    # instances need not), so an unregistered experiment — or a name
    # shadowed via overwrite=True — must still dispatch to the object
    # the caller passed, never crash mid-sweep or run someone else's
    # cells.  The previous registration is restored afterwards.
    previous = _REGISTRY.get(experiment.name)
    _REGISTRY[experiment.name] = lambda: experiment
    try:
        experiment.prepare(ctx)
        cells = experiment.cells(ctx)
        cache = SweepCache(
            ctx.store, experiment.name, config,
            from_payload=experiment.cell_from_payload,
            to_payload=experiment.cell_to_payload,
        )
        scalar_cache = SweepCache(ctx.store, experiment.name, config)
        scalar_names = tuple(experiment.scalar_names(ctx))
        scalars = {
            name: scalar_cache.lookup({"cell": name}) for name in scalar_names
        }
        if not cells and not scalar_names:
            return experiment.assemble(ctx, [], {})
        cached = cache.lookup_many(cells)
        warm = all_cached(cached) and not any(
            value is CACHE_MISS for value in scalars.values()
        )
        if warm:
            if progress is not None and cells:
                progress(len(cells), len(cells))
            return experiment.assemble(ctx, list(cached), scalars)

        key = experiment.state_key(ctx)
        full_key = (experiment.name, key)
        state = experiment.setup_state(ctx)
        if state is not None:
            _STATE.seed(full_key, state)
        else:
            state = _STATE.get(full_key)
        for name in scalar_names:
            if scalars[name] is CACHE_MISS:
                scalars[name] = experiment.compute_scalar(ctx, state, name)
                scalar_cache.record({"cell": name}, scalars[name])

        total = len(cells)
        done = sum(1 for value in cached if value is not CACHE_MISS)
        if progress is not None:
            progress(done, total)
        recorder = cache.recorder(cells)

        def on_result(index: int, value) -> None:
            nonlocal done
            recorder(index, value)
            done += 1
            if progress is not None:
                progress(done, total)

        tasks = [
            (experiment.name, key, cell, experiment.task_extra(ctx, i, cell))
            for i, cell in enumerate(cells)
        ]
        # With every fault-tolerance knob at its default the map runs
        # with no policy: fail-fast, and a raising cell propagates its
        # own exception rather than a TaskError.
        supervised = (
            config.on_error != "fail-fast" or config.task_timeout is not None
        )
        try:
            results = map_tasks_resumable(
                _compute_cell, tasks, cached,
                workers=config.workers, on_result=on_result,
                policy=config.on_error if supervised else None,
                retries=config.retries,
                task_timeout=config.task_timeout,
                backend=config.backend,
            )
        except TaskError as error:
            failure = error.failure
            raise SweepFailure(
                experiment.name,
                [(cells[failure.index], failure)],
                total=len(cells),
            ) from error
        failed = [
            (cells[i], value)
            for i, value in enumerate(results)
            if isinstance(value, TaskFailure)
        ]
        if failed:
            # ``collect``: every healthy cell has completed and persisted
            # by now; surface the failed ones as one report.
            raise SweepFailure(experiment.name, failed, total=len(cells))
    finally:
        if previous is None:
            _REGISTRY.pop(experiment.name, None)
        else:
            _REGISTRY[experiment.name] = previous
        # One sweep, one memo: release the datasets/classifiers as soon
        # as the grid (or a failed attempt at it) is done.
        _STATE.clear()
    return experiment.assemble(ctx, results, scalars)


# ----------------------------------------------------------------------
# The experiment registry (mirrors repro.core.codec's codec registry).
# ----------------------------------------------------------------------

_REGISTRY: "dict[str, Callable[[], Experiment]]" = {}


def register_experiment(
    name: str, factory: Callable[[], Experiment], overwrite: bool = False
) -> None:
    """Register an experiment factory under ``name``.

    ``factory`` is any zero-argument callable returning an
    :class:`Experiment` (typically the class itself).  Registering an
    already-registered name raises :class:`ValueError` unless
    ``overwrite=True``.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"experiment {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    _REGISTRY[name] = factory


def unregister_experiment(name: str) -> None:
    """Remove ``name`` from the registry (missing names are a no-op)."""
    _REGISTRY.pop(name, None)


def experiment_names() -> "list[str]":
    """Sorted names of every registered experiment."""
    return sorted(_REGISTRY)


def build_experiment(name: str) -> Experiment:
    """Instantiate the experiment registered under ``name``.

    Unknown names raise :class:`KeyError` listing the known experiments.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered experiments: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None
    return factory()
