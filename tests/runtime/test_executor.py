"""Tests for the process-pool execution layer."""

import os

import numpy as np
import pytest

from repro.runtime import backends, faults
from repro.runtime.executor import (
    TaskState,
    available_workers,
    chunk_bounds,
    effective_workers,
    fork_available,
    imap_tasks,
    map_tasks,
    spawn_seeds,
)
from repro.runtime.supervision import TaskError

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method required"
)

#: The pooled transports a plain map's error contract must hold over.
pooled_backends = pytest.mark.parametrize("backend", ["forked", "persistent"])


@pytest.fixture(autouse=True)
def _isolated_runtime(monkeypatch):
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()
    backends.shutdown_backends()


def _square(value):
    return value * value


def _raise_on_three(value):
    if value == 3:
        raise ValueError("task three is poisoned")
    return value


def _draw(seed_sequence):
    return float(np.random.default_rng(seed_sequence).uniform())


class TestEffectiveWorkers:
    def test_default_is_serial(self):
        assert effective_workers(1) == 1

    def test_zero_and_none_mean_all_cpus(self):
        assert effective_workers(0) == available_workers()
        assert effective_workers(None) == available_workers()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(-2)

    def test_capped_by_task_count(self):
        assert effective_workers(8, task_count=3) == 3

    def test_at_least_one(self):
        assert effective_workers(4, task_count=0) == 1


class TestChunkBounds:
    def test_empty_input_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []

    def test_chunk_larger_than_total(self):
        assert chunk_bounds(3, 10) == [(0, 3)]

    def test_odd_final_chunk(self):
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_exact_division(self):
        assert chunk_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_concatenation_reproduces_range(self):
        for total in (0, 1, 5, 17):
            for chunk in (1, 2, 7, 100):
                covered = [
                    index
                    for start, stop in chunk_bounds(total, chunk)
                    for index in range(start, stop)
                ]
                assert covered == list(range(total))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 4)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)


class TestMapTasks:
    def test_serial_runs_in_order(self):
        assert map_tasks(_square, range(6), workers=1) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_parallel_matches_serial(self):
        tasks = list(range(23))
        serial = map_tasks(_square, tasks, workers=1)
        parallel = map_tasks(_square, tasks, workers=4)
        assert parallel == serial

    def test_parallel_preserves_order_with_uneven_chunks(self):
        tasks = list(range(11))
        assert map_tasks(_square, tasks, workers=3) == [
            value * value for value in tasks
        ]

    def test_single_task_stays_serial(self):
        assert map_tasks(_square, [7], workers=8) == [49]

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="poisoned"):
            map_tasks(_raise_on_three, range(5), workers=1)

    @pooled_backends
    def test_pool_survives_worker_task_raising(self, backend):
        """A poisoned task fails the call, not the runtime."""
        with pytest.raises(ValueError, match="poisoned"):
            map_tasks(_raise_on_three, range(5), workers=2, backend=backend)
        # The next pool works: one bad sweep never wedges the runtime.
        assert map_tasks(
            _square, range(5), workers=2, backend=backend
        ) == [0, 1, 4, 9, 16]

    @needs_fork
    @pooled_backends
    def test_worker_crash_raises_task_error(self, backend):
        with faults.injected("exit:2:1"):
            with pytest.raises(TaskError) as exc_info:
                map_tasks(_square, range(5), workers=2, backend=backend)
        assert exc_info.value.failure.kind == "worker-crash"
        # The crash broke one pool; the next map gets a working one.
        assert map_tasks(
            _square, range(5), workers=2, backend=backend
        ) == [0, 1, 4, 9, 16]

    def test_on_result_fires_in_order_serial(self):
        seen = []
        map_tasks(
            _square, range(4), workers=1,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 0), (1, 1), (2, 4), (3, 9)]

    def test_on_result_fires_in_order_parallel(self):
        seen = []
        map_tasks(
            _square, range(9), workers=3,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(index, index * index) for index in range(9)]


class TestImapTasks:
    def test_serial_yields_in_order(self):
        assert list(imap_tasks(_square, range(5), workers=1)) == [
            0, 1, 4, 9, 16,
        ]

    def test_parallel_matches_serial(self):
        tasks = list(range(17))
        serial = list(imap_tasks(_square, tasks, workers=1))
        parallel = list(imap_tasks(_square, tasks, workers=3, window=2))
        assert parallel == serial

    def test_is_lazy(self):
        """Nothing runs until the generator is consumed."""
        calls = []

        def record(value):
            calls.append(value)
            return value

        iterator = imap_tasks(record, range(3), workers=1)
        assert calls == []
        assert next(iterator) == 0
        assert calls == [0]

    @pooled_backends
    def test_exception_propagates(self, backend):
        with pytest.raises(ValueError, match="poisoned"):
            list(imap_tasks(
                _raise_on_three, range(5), workers=2, backend=backend
            ))


class TestSpawnSeeds:
    def test_deterministic(self):
        first = [_draw(seq) for seq in spawn_seeds(42, 5)]
        second = [_draw(seq) for seq in spawn_seeds(42, 5)]
        assert first == second

    def test_streams_are_distinct(self):
        draws = [_draw(seq) for seq in spawn_seeds(42, 8)]
        assert len(set(draws)) == len(draws)

    def test_independent_of_worker_count(self):
        seeds = spawn_seeds(7, 6)
        serial = map_tasks(_draw, seeds, workers=1)
        parallel = map_tasks(_draw, spawn_seeds(7, 6), workers=3)
        assert serial == parallel

    def test_count_validated(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
        assert spawn_seeds(0, 0) == []


class TestTaskState:
    def test_builds_once_per_key(self):
        calls = []

        def build(key):
            calls.append(key)
            return {"key": key}

        state = TaskState(build)
        assert state.get("a") is state.get("a")
        assert calls == ["a"]
        state.get("b")
        assert calls == ["a", "b"]

    def test_seed_preempts_build(self):
        state = TaskState(lambda key: pytest.fail("build should not run"))
        state.seed("k", {"ready": True})
        assert state.get("k") == {"ready": True}

    def test_clear_forces_rebuild(self):
        counter = []
        state = TaskState(lambda key: counter.append(key) or len(counter))
        assert state.get("x") == 1
        state.clear()
        assert state.get("x") == 2

    def test_none_state_is_memoised(self):
        # Regression: a build that legitimately returns None must be
        # cached like any other value, not rebuilt on every get.
        calls = []
        state = TaskState(lambda key: calls.append(key))
        assert state.get("k") is None
        assert state.get("k") is None
        assert calls == ["k"]

    def test_none_seed_is_memoised(self):
        state = TaskState(lambda key: pytest.fail("build should not run"))
        state.seed("k", None)
        assert state.get("k") is None

    def test_none_key_is_a_valid_key(self):
        calls = []
        state = TaskState(lambda key: calls.append(key) or "built")
        assert state.get(None) == "built"
        assert state.get(None) == "built"
        assert calls == [None]


@needs_fork
def test_parallel_really_uses_processes():
    """With fork available and workers > 1, tasks run in child processes."""
    parent = os.getpid()
    pids = map_tasks(_child_pid, range(4), workers=2)
    assert any(pid != parent for pid in pids)


def test_single_worker_runs_in_the_parent():
    """``workers=1`` maps in-process: every task runs in the parent."""
    assert map_tasks(_child_pid, range(4), workers=1) == [os.getpid()] * 4


def _child_pid(_):
    return os.getpid()
