"""The pluggable executor backends (repro.runtime.backends).

Socket-tier behaviour that needs live worker daemons lives in the chaos
suite (``tests/chaos/test_chaos_socket.py``); this module covers the
backend surface itself: name resolution, the registry, map parity
across serial/forked/persistent, persistent-pool reuse, and the
coordinator's zero-worker degradation.
"""

import pytest

from repro.runtime import backends, faults
from repro.runtime.backends import (
    BACKEND_NAMES,
    BackendEvent,
    ForkedBackend,
    SerialBackend,
    SocketBackend,
    get_backend,
    resolve_backend_name,
    shutdown_backends,
    validate_backend_name,
)
from repro.runtime.executor import fork_available, imap_tasks, map_tasks
from repro.runtime.supervision import supervised_map

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method required"
)


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _persistent_map(tasks, workers):
    """A plain map over the warm persistent pool."""
    return map_tasks(_square, tasks, workers=workers, backend="persistent")


@pytest.fixture(autouse=True)
def _clean_backends(monkeypatch):
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear_faults()
    yield
    faults.clear_faults()
    shutdown_backends()


class TestNameResolution:
    @pytest.mark.parametrize("name", [None, "", "auto", "AUTO", " auto "])
    def test_auto_spellings_normalise_to_none(self, name):
        assert validate_backend_name(name) is None

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_known_names_pass_through(self, name):
        assert validate_backend_name(name) == name
        assert validate_backend_name(name.upper()) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            validate_backend_name("threads")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "persistent")
        assert resolve_backend_name("serial") == "serial"

    def test_env_var_applies_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "serial")
        assert resolve_backend_name(None) == "serial"

    def test_default_is_auto(self):
        assert resolve_backend_name(None) is None

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name(None)


class TestRegistry:
    def test_serial_and_forked_are_fresh_instances(self):
        assert get_backend("serial") is not get_backend("serial")
        assert get_backend("forked") is not get_backend("forked")
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("forked"), ForkedBackend)

    def test_persistent_and_socket_are_singletons(self, monkeypatch):
        monkeypatch.setenv(backends.SOCKET_BIND_ENV, "127.0.0.1:0")
        assert get_backend("persistent") is get_backend("persistent")
        assert get_backend("socket") is get_backend("socket")

    def test_shutdown_releases_singletons(self):
        first = get_backend("persistent")
        shutdown_backends()
        assert get_backend("persistent") is not first


class TestSerialBackend:
    def test_plain_map_matches_builtin(self):
        seen = []
        out = map_tasks(
            _square, range(5), workers=2, backend="serial",
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert out == [v * v for v in range(5)]
        assert seen == [(i, i * i) for i in range(5)]
        assert list(
            imap_tasks(_square, range(5), workers=2, backend="serial")
        ) == out

    def test_supervised_cycle_emits_events_inline(self):
        backend = SerialBackend()
        backend.open(_square, [2, 3], workers=1)
        backend.submit(0, 1)
        backend.submit(1, 1)
        events = backend.poll(0.0)
        assert [(e.index, e.kind, e.value) for e in events] == [
            (0, "ok", 4), (1, "ok", 9),
        ]
        assert backend.poll(0.0) == []  # drained
        assert backend.running() == {}  # no process to watch -> no timeouts
        assert backend.workers_alive() == 1
        backend.close()

    def test_supervised_failure_event_carries_envelope(self):
        backend = SerialBackend()
        backend.open(_boom, ["x"], workers=1)
        backend.submit(0, 1)
        (event,) = backend.poll(0.0)
        assert event.kind == "failure"
        assert event.failure.error_type == "ValueError"
        assert "boom" in event.failure.message


@needs_fork
class TestForkedParity:
    def test_plain_map_matches_serial(self):
        forked = map_tasks(_square, range(12), workers=2, backend="forked")
        assert forked == [v * v for v in range(12)]

    def test_imap_matches_serial(self):
        out = list(
            imap_tasks(_square, range(12), workers=2, backend="forked")
        )
        assert out == [v * v for v in range(12)]

    def test_single_worker_falls_back_to_serial_path(self):
        assert map_tasks(_square, range(4), workers=1, backend="forked") == [
            0, 1, 4, 9,
        ]


@needs_fork
class TestPersistentBackend:
    def test_pool_survives_across_maps(self):
        backend = get_backend("persistent")
        assert _persistent_map(range(8), workers=2) == [
            v * v for v in range(8)
        ]
        pool = backend._pool
        assert pool is not None
        assert _persistent_map(range(8), workers=2) == [
            v * v for v in range(8)
        ]
        assert backend._pool is pool  # the warm pool was reused

    def test_pool_grows_for_a_larger_map(self):
        backend = get_backend("persistent")
        _persistent_map(range(8), workers=2)
        first = backend._pool
        _persistent_map(range(8), workers=3)
        assert backend._pool is not first
        assert backend._pool._max_workers >= 3

    def test_supervised_map_reuses_the_plain_pool(self):
        backend = get_backend("persistent")
        _persistent_map(range(8), workers=2)
        pool = backend._pool
        out = supervised_map(
            _square, list(range(8)), workers=2, policy="retry", retries=1,
            backend="persistent",
        )
        assert out == [v * v for v in range(8)]
        assert get_backend("persistent")._pool is pool

    def test_shutdown_then_reuse_builds_a_fresh_pool(self):
        _persistent_map(range(8), workers=2)
        shutdown_backends()
        assert _persistent_map(range(8), workers=2) == [
            v * v for v in range(8)
        ]


class TestExecutorRouting:
    def test_map_tasks_backend_argument(self):
        assert map_tasks(_square, range(6), workers=2, backend="serial") == [
            v * v for v in range(6)
        ]

    def test_imap_tasks_backend_argument(self):
        assert list(
            imap_tasks(_square, range(6), workers=2, backend="serial")
        ) == [v * v for v in range(6)]

    def test_env_var_routes_plain_maps(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "serial")
        assert map_tasks(_square, range(6), workers=2) == [
            v * v for v in range(6)
        ]

    def test_bad_env_var_surfaces(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            map_tasks(_square, range(6), workers=2)

    @needs_fork
    def test_supervised_results_identical_across_backends(self):
        reference = supervised_map(
            _square, list(range(10)), workers=2, policy="retry", retries=1,
            backend="serial",
        )
        for name in ("forked", "persistent"):
            assert supervised_map(
                _square, list(range(10)), workers=2, policy="retry",
                retries=1, backend=name,
            ) == reference


class TestSocketDegradation:
    def test_zero_workers_degrades_to_local_backend(self, monkeypatch, caplog):
        monkeypatch.setenv(backends.SOCKET_BIND_ENV, "127.0.0.1:0")
        monkeypatch.setenv(backends.SOCKET_CONNECT_DEADLINE_ENV, "0.3")
        with caplog.at_level("WARNING", logger="repro.runtime.backends"):
            out = supervised_map(
                _square, list(range(6)), workers=2, policy="retry",
                retries=1, backend="socket",
            )
        assert out == [v * v for v in range(6)]
        assert any("degrad" in record.message for record in caplog.records)

    def test_degraded_plain_map_unwraps_errors(self, monkeypatch):
        monkeypatch.setenv(backends.SOCKET_BIND_ENV, "127.0.0.1:0")
        monkeypatch.setenv(backends.SOCKET_CONNECT_DEADLINE_ENV, "0.3")
        with pytest.raises(ValueError, match="boom"):
            map_tasks(_boom, ["x"], workers=1, backend="socket")

    def test_ephemeral_bind_exposes_bound_address(self, monkeypatch):
        monkeypatch.setenv(backends.SOCKET_BIND_ENV, "127.0.0.1:0")
        backend = SocketBackend()
        backend._ensure_server()
        try:
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0
        finally:
            backend.shutdown()


class TestBackendEvent:
    def test_defaults(self):
        event = BackendEvent(3, 2, "ok", value=9)
        assert (event.index, event.attempt, event.kind) == (3, 2, "ok")
        assert event.failure is None
