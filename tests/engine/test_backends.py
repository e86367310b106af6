"""The pluggable persistence seam: backends, selection, degradation.

Four contracts are pinned here:

* **protocol units** -- both shipped backends satisfy the
  :class:`~repro.engine.backends.base.ArtifactBackend` protocol and
  agree on round-trip, miss, delete, and stats behaviour;
* **selection** -- an explicit backend beats
  ``REPRO_STORE_BACKEND``/``REPRO_STORE_URL``; a typo'd selection
  fails eagerly and typed;
* **degradation** -- a backend that cannot open downgrades the store
  to memory-only with a warning and a counter, never an exception;
* **fleet exactly-once** -- ≥3 forked processes sharing one SQLite
  database build each contended artifact exactly once fleet-wide, and
  every process reads byte-identical envelopes; cold-vs-warm session
  outcomes are equal across backends under both kernels.
"""

import hashlib
import multiprocessing
import os
import sqlite3
import time

import pytest

from repro.engine.backends import (
    ArtifactBackend,
    BackendDegradedWarning,
    LocalDirBackend,
    SQLiteBackend,
    create_backend,
    resolve_backend,
)
from repro.engine.backends.localdir import reset_sweep_registry
from repro.engine.engine import Engine
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import BackendConfigError, BackendUnavailableError
from repro.kernel.config import use_kernel
from repro.resilience.faults import inject
from repro.resilience.locks import LOCK_TTL_ENV_VAR

KEY = ArtifactKey("space", "fingerprint01", "bitset")

#: A pid no live process plausibly holds (beyond default pid_max).
DEAD_PID = 2**22 - 1


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch):
    """Selection and counter tests must not inherit ambient knobs."""
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)
    with inject(None):
        yield


def make_local(tmp_path) -> LocalDirBackend:
    backend = LocalDirBackend(str(tmp_path / "cache"))
    backend.open()
    return backend


def make_sqlite(tmp_path) -> SQLiteBackend:
    backend = SQLiteBackend(str(tmp_path / "artifacts.db"))
    backend.open()
    return backend


@pytest.fixture(params=[make_local, make_sqlite], ids=["local", "sqlite"])
def backend(request, tmp_path):
    return request.param(tmp_path)


class TestProtocolUnits:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, ArtifactBackend)

    def test_round_trip(self, backend):
        result = backend.put(KEY, b"payload bytes")
        assert result.persisted
        got = backend.get(KEY)
        assert got.payload == b"payload bytes"
        assert not got.corrupt
        assert got.io_retries == 0

    def test_absent_key_is_a_miss(self, backend):
        got = backend.get(KEY)
        assert got.payload is None
        assert not got.corrupt

    def test_delete_then_miss(self, backend):
        backend.put(KEY, b"payload")
        backend.delete(KEY)
        assert backend.get(KEY).payload is None

    def test_delete_of_absent_key_is_silent(self, backend):
        backend.delete(KEY)  # must not raise

    def test_overwrite_wins(self, backend):
        backend.put(KEY, b"first")
        backend.put(KEY, b"second")
        assert backend.get(KEY).payload == b"second"

    def test_stats_shape(self, backend):
        stats = backend.stats()
        assert stats["name"] in ("local", "sqlite")
        assert "sweep_reclaimed" in stats

    def test_lease_targets_are_shared_per_key(self, backend):
        lease_a = backend.lease_for(KEY)
        lease_b = backend.lease_for(KEY)
        assert lease_a is not lease_b
        assert lease_a.path == lease_b.path

    def test_distinct_kernels_do_not_collide(self, backend):
        other = ArtifactKey(KEY.kind, KEY.fingerprint, "naive")
        backend.put(KEY, b"bitset artifact")
        backend.put(other, b"naive artifact")
        assert backend.get(KEY).payload == b"bitset artifact"
        assert backend.get(other).payload == b"naive artifact"


class TestSQLiteSpecifics:
    def test_wal_mode_and_sharded_key(self, tmp_path):
        backend = make_sqlite(tmp_path)
        backend.put(KEY, b"payload")
        with sqlite3.connect(backend.url) as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
            row = conn.execute(
                "SELECT kind, shard, fingerprint, kernel FROM artifacts"
            ).fetchone()
        assert mode == "wal"
        assert row == ("space", KEY.fingerprint[:2], KEY.fingerprint, "bitset")

    def test_unopened_backend_raises_typed(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "db"))
        with pytest.raises(BackendUnavailableError):
            backend._connection()

    def test_open_on_a_directory_is_unavailable(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path))  # a directory, not a file
        with pytest.raises(BackendUnavailableError):
            backend.open()

    def test_close_is_idempotent(self, tmp_path):
        backend = make_sqlite(tmp_path)
        backend.close()
        backend.close()

    def test_failed_open_closes_the_connection(self, tmp_path, monkeypatch):
        # sqlite3.connect succeeds on a garbage file (it opens lazily);
        # the PRAGMA/schema statements then fail.  That error path must
        # close the connection it just made, or every failed open leaks
        # a file descriptor for the life of the process.
        db = tmp_path / "artifacts.db"
        db.write_bytes(b"this is not a sqlite database")
        opened = []
        real_connect = sqlite3.connect

        def tracking_connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", tracking_connect)
        backend = SQLiteBackend(str(db))
        with pytest.raises(BackendUnavailableError):
            backend.open()
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError):
            opened[0].execute("SELECT 1")  # a closed connection raises

    def test_dead_holders_lease_is_taken_over_at_once(
        self, tmp_path, monkeypatch
    ):
        """A lockfile left under ``<db>.leases/`` by a crashed holder
        needs no sweep: the next contender takes it over without
        waiting, and neither ``open()`` nor ``sweep()`` touches it."""
        monkeypatch.delenv(LOCK_TTL_ENV_VAR, raising=False)
        backend = make_sqlite(tmp_path)
        lease = backend.lease_for(KEY)
        # A fresh stamp: only the dead pid makes this holder stale.
        lease.path.write_text(f"{DEAD_PID} {time.time()}", "ascii")
        assert backend.sweep() == 0
        assert lease.path.exists()
        try:
            assert lease.acquire()
            assert lease.took_over
            assert not lease.waited
            holder = lease.path.read_text("ascii").split()[0]
            assert holder == str(os.getpid())
        finally:
            lease.release()
        assert not lease.path.exists()
        assert backend.stats()["sweep_reclaimed"] == 0


class TestLocalDirSweep:
    def _stale_temp(self, root):
        root.mkdir(parents=True, exist_ok=True)
        leftover = root / "space-bitset-f1.pkl.999999999.tmp"
        leftover.write_bytes(b"half-written")
        return leftover

    def test_sweep_is_one_shot_per_path(self, tmp_path):
        reset_sweep_registry()
        root = tmp_path / "cache"
        leftover = self._stale_temp(root)
        first = LocalDirBackend(str(root))
        first.open()
        assert not leftover.exists()
        assert first.sweep_reclaimed == 1
        # A second backend over the same path does not re-sweep.
        self._stale_temp(root)
        second = LocalDirBackend(str(root))
        second.open()
        assert second.sweep_reclaimed == 0
        assert (root / "space-bitset-f1.pkl.999999999.tmp").exists()

    def test_explicit_sweep_is_unconditional(self, tmp_path):
        reset_sweep_registry()
        root = tmp_path / "cache"
        backend = LocalDirBackend(str(root))
        backend.open()
        self._stale_temp(root)
        assert backend.sweep() == 1
        assert backend.sweep_reclaimed == 1

    def test_store_exposes_swept_alias(self, tmp_path):
        reset_sweep_registry()
        root = tmp_path / "cache"
        self._stale_temp(root)
        store = ArtifactStore(backend=LocalDirBackend(str(root)))
        assert store.backend.sweep_reclaimed == 1

    def test_open_on_a_file_is_unavailable(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        backend = LocalDirBackend(str(not_a_dir))
        with pytest.raises(BackendUnavailableError):
            backend.open()


class TestSelection:
    def test_memory_only_without_configuration(self):
        assert resolve_backend() is None
        assert ArtifactStore().backend is None

    def test_explicit_cache_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        monkeypatch.setenv("REPRO_STORE_URL", str(tmp_path / "db"))
        store = ArtifactStore(backend=LocalDirBackend(str(tmp_path / "dir")))
        assert isinstance(store.backend, LocalDirBackend)
        assert store.backend.root == str(tmp_path / "dir")

    def test_env_selects_sqlite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        monkeypatch.setenv("REPRO_STORE_URL", str(tmp_path / "db"))
        store = ArtifactStore()
        assert isinstance(store.backend, SQLiteBackend)
        assert store.backend.url == str(tmp_path / "db")

    def test_env_selects_local(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "local")
        monkeypatch.setenv("REPRO_STORE_URL", str(tmp_path))
        store = ArtifactStore()
        assert isinstance(store.backend, LocalDirBackend)
        assert store.backend.root == str(tmp_path)

    def test_unknown_backend_name_fails_eagerly(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqllite")  # typo
        monkeypatch.setenv("REPRO_STORE_URL", "/tmp/db")
        with pytest.raises(BackendConfigError, match="sqllite"):
            ArtifactStore()

    def test_missing_url_fails_eagerly(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "sqlite")
        with pytest.raises(BackendConfigError, match="REPRO_STORE_URL"):
            ArtifactStore()

    def test_create_backend_validates(self, tmp_path):
        with pytest.raises(BackendConfigError):
            create_backend("redis", str(tmp_path))
        with pytest.raises(BackendConfigError):
            create_backend("local", "")
        assert isinstance(
            create_backend("local", str(tmp_path)), LocalDirBackend
        )
        assert isinstance(
            create_backend("sqlite", str(tmp_path / "db")), SQLiteBackend
        )


class _ExplodingBackend:
    """A backend whose ``open`` fails -- the degradation fixture."""

    name = "exploding"

    def open(self) -> None:
        raise BackendUnavailableError("injected open failure")

    def get(self, key):  # pragma: no cover -- never reached
        raise AssertionError("store must not use a failed backend")

    put = delete = get

    def sweep(self) -> int:  # pragma: no cover
        return 0

    def stats(self):  # pragma: no cover
        return {"name": self.name}

    def lease_for(self, key):  # pragma: no cover
        return None


class TestOpenDegradation:
    def test_failed_open_degrades_to_memory_only(self):
        with pytest.warns(BackendDegradedWarning, match="exploding"):
            store = ArtifactStore(backend=_ExplodingBackend())
        assert store.backend is None
        # The store still works, purely in memory.
        value = store.get_or_build(KEY, lambda: "built", persist=True)
        assert value == "built"
        snapshot = store.stats()
        assert snapshot["backend"]["name"] == "none"
        assert snapshot["backend"]["open_failures"] == 1
        assert "injected open failure" in snapshot["backend"]["open_error"]
        assert snapshot["memory"]["space"]["builds"] == 1

    def test_sqlite_open_failure_degrades(self, tmp_path):
        with pytest.warns(BackendDegradedWarning):
            store = ArtifactStore(backend=SQLiteBackend(str(tmp_path)))
        assert store.backend is None
        assert store.stats()["backend"]["open_failures"] == 1


# -- fleet contention over one SQLite database --------------------------------

FLEET = 4
CONTENDED = ("alpha", "beta", "gamma")


def _fleet_worker(url, barrier, queue):
    """One process in the SQLite fleet-contention test.

    Constructs its *own* backend (SQLite connections are not
    fork-safe), races its siblings for every contended artifact, and
    reports its counters plus a digest of each persisted envelope.
    """
    from repro.resilience.faults import install_plan

    install_plan(None)  # deterministic regardless of REPRO_FAULT_SEED

    store = ArtifactStore(backend=SQLiteBackend(url))

    def slow_build(name):
        time.sleep(0.2)
        return {"artifact": name, "payload": list(range(50))}

    barrier.wait(timeout=30)
    values = {}
    for name in CONTENDED:
        key = ArtifactKey("space", name, "bitset")
        values[name] = store.get_or_build(
            key, lambda name=name: slow_build(name), persist=True
        )
    snapshot = store.stats()
    with sqlite3.connect(url) as conn:
        digests = {
            fingerprint: hashlib.sha256(bytes(blob)).hexdigest()
            for fingerprint, blob in conn.execute(
                "SELECT fingerprint, blob FROM artifacts"
            )
        }
    queue.put(
        {
            "values_ok": all(
                values[name] == {"artifact": name, "payload": list(range(50))}
                for name in CONTENDED
            ),
            "builds": snapshot["memory"]["space"]["builds"],
            "disk_hits": snapshot["backend"]["kinds"]["space"]["disk_hits"],
            "lease_timeouts": snapshot["leases"]["space"]["lease_timeouts"],
            "digests": digests,
        }
    )


class TestSQLiteFleetContention:
    def test_exactly_once_fleet_wide(self, tmp_path):
        url = str(tmp_path / "fleet.db")
        mp = multiprocessing.get_context("fork")
        barrier = mp.Barrier(FLEET)
        queue = mp.Queue()
        processes = [
            mp.Process(target=_fleet_worker, args=(url, barrier, queue))
            for _ in range(FLEET)
        ]
        for process in processes:
            process.start()
        reports = [queue.get(timeout=120) for _ in range(FLEET)]
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0

        assert all(report["values_ok"] for report in reports)
        # Each contended artifact was built exactly once fleet-wide;
        # everyone else read the winner's row.
        assert sum(report["builds"] for report in reports) == len(CONTENDED)
        assert sum(report["disk_hits"] for report in reports) == (
            FLEET * len(CONTENDED) - len(CONTENDED)
        )
        assert sum(report["lease_timeouts"] for report in reports) == 0
        # Every process saw byte-identical envelopes for every artifact.
        reference = reports[0]["digests"]
        assert sorted(reference) == sorted(CONTENDED)
        for report in reports[1:]:
            assert report["digests"] == reference
        # No lease lockfiles leaked.
        lease_dir = tmp_path / "fleet.db.leases"
        if lease_dir.exists():
            assert [p for p in lease_dir.iterdir() if p.suffix == ".lock"] == []


# -- cold-vs-warm parity across backends and kernels --------------------------


class TestColdWarmParityAcrossBackends:
    @pytest.mark.parametrize("kernel", ["bulk", "naive"])
    def test_session_outcomes_equal(
        self, tmp_path, kernel, small_chain, small_space
    ):
        """A session served warm from either backend produces verdicts
        identical to the cold build, under both kernels."""
        from repro.decomposition.projections import projection_view
        from repro.typealgebra.algebra import NULL

        def run_session(backend):
            engine = Engine(backend=backend)
            space = engine.space_from(small_chain)
            session = engine.session(
                small_chain.schema, small_chain.assignment, space
            )
            session.register_view(
                projection_view(small_chain, ("A", "B", "D"))
            )
            session.build_component_algebra(
                small_chain.all_component_views()
            )
            state = small_chain.state_from_edges(
                [{("a1", "b1")}, set(), {("c1", "d1")}]
            )
            view = session.view("Γ_ABD")
            view_state = view.apply(state, small_chain.assignment)
            targets = [
                view_state,
                view_state.deleting("R_ABD", ("a1", "b1", NULL)),
                view_state.deleting("R_ABD", (NULL, NULL, "d1")),
            ]
            outcomes = [
                session.update("Γ_ABD", state, target) for target in targets
            ]
            verdicts = [
                (o.accepted, o.reason, o.base_after) for o in outcomes
            ]
            return verdicts, engine.stats()

        with use_kernel(kernel):
            results = {}
            for name, factory in (
                ("local", lambda: LocalDirBackend(str(tmp_path / "cache"))),
                ("sqlite", lambda: SQLiteBackend(str(tmp_path / "db"))),
            ):
                cold_verdicts, _ = run_session(factory())
                warm_verdicts, warm_stats = run_session(factory())
                assert warm_verdicts == cold_verdicts
                # The warm run really was served by the backend.
                warm_kinds = warm_stats["artifacts"]["backend"]["kinds"]
                assert (
                    sum(k["disk_hits"] for k in warm_kinds.values()) >= 1
                )
                results[name] = cold_verdicts
            assert results["local"] == results["sqlite"]
