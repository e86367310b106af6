"""Concurrent use of the store, the engine, and sessions.

Three layers of the tentpole guarantee are exercised here:

* in-process single-flight -- N threads requesting one missing key
  produce exactly one build, the rest coalesce;
* cross-process leases -- N processes sharing one cache directory
  produce exactly one build of a contended artifact, the rest read the
  winner's envelope from disk;
* serving correctness -- a thread-stressed session returns verdicts
  identical to a serial run (the paper's semantics do not depend on
  scheduling).
"""

import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.engine import Engine
from repro.engine.backends import LocalDirBackend
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import ReproError
from repro.typealgebra.algebra import NULL
from repro.decomposition.projections import projection_view

THREADS = 8


@pytest.fixture(autouse=True)
def _hermetic_cache(monkeypatch):
    """Counter assertions need stores without an ambient disk cache."""
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)


def _key(name="k"):
    return ArtifactKey("space", name, "bitset")


class TestThreadSingleFlight:
    def test_exactly_one_build(self):
        store = ArtifactStore()
        builds = []
        release = threading.Event()

        def slow_build():
            builds.append(threading.get_ident())
            release.wait(timeout=5)
            return {"answer": 42}

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [
                pool.submit(store.get_or_build, _key(), slow_build)
                for _ in range(THREADS)
            ]
            # Let every thread reach the registry before the build ends.
            deadline = time.monotonic() + 5
            while (
                store.stats().get("space", {}).get("coalesced_builds", 0)
                < THREADS - 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            release.set()
            values = [future.result(timeout=10) for future in futures]

        assert len(builds) == 1
        first = values[0]
        assert all(value is first for value in values)
        counters = store.stats()["memory"]["space"]
        assert counters["builds"] == 1
        assert counters["misses"] == 1
        assert counters["coalesced_builds"] == THREADS - 1
        assert counters["hits"] == 0

    def test_followers_reraise_the_leaders_typed_error(self):
        store = ArtifactStore()
        release = threading.Event()

        def doomed_build():
            release.wait(timeout=5)
            raise ReproError("deterministic build failure")

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [
                pool.submit(store.get_or_build, _key(), doomed_build)
                for _ in range(THREADS)
            ]
            deadline = time.monotonic() + 5
            while (
                store.stats().get("space", {}).get("coalesced_builds", 0)
                < THREADS - 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
            release.set()
            errors = []
            for future in futures:
                with pytest.raises(ReproError, match="deterministic"):
                    future.result(timeout=10)
                errors.append(True)
        assert len(errors) == THREADS
        # The failure was not cached: the key is rebuildable.
        assert store.get_or_build(_key(), lambda: "ok") == "ok"

    def test_failed_build_does_not_wedge_the_registry(self):
        store = ArtifactStore()
        with pytest.raises(ReproError):
            store.get_or_build(_key(), _raise_repro)
        assert store.get_or_build(_key(), lambda: 1) == 1
        counters = store.stats()["memory"]["space"]
        assert counters["misses"] == 2
        assert counters["builds"] == 1

    def test_invalidate_races_with_builds(self, tmp_path):
        """Invalidation cascades hold the store lock: racing builders
        and invalidators must corrupt nothing and raise nothing."""
        store = ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        root = _key("root")
        stop = time.monotonic() + 0.5
        failures = []

        def build_loop(i):
            try:
                while time.monotonic() < stop:
                    store.get_or_build(root, lambda: "base", persist=True)
                    store.get_or_build(
                        _key(f"derived-{i}"),
                        lambda: i,
                        dependencies=(root,),
                    )
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        def invalidate_loop():
            try:
                while time.monotonic() < stop:
                    store.invalidate(root)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=build_loop, args=(i,)) for i in range(4)
        ] + [threading.Thread(target=invalidate_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not failures
        # The dependency maps survived: a final cascade still works.
        store.get_or_build(root, lambda: "base", persist=True)
        store.get_or_build(_key("final"), lambda: 9, dependencies=(root,))
        assert store.invalidate(root) >= 1


def _raise_repro():
    raise ReproError("deterministic build failure")


class TestSessionStress:
    def _requests(self, session, small_chain):
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
        return state, targets

    def _fresh_session(self, small_chain, small_space):
        engine = Engine()
        session = engine.session(
            small_chain.schema, small_chain.assignment, small_space
        )
        session.register_view(projection_view(small_chain, ("A", "B", "D")))
        session.build_component_algebra(small_chain.all_component_views())
        return session

    def test_threaded_updates_match_serial_verdicts(
        self, small_chain, small_space
    ):
        serial_session = self._fresh_session(small_chain, small_space)
        state, targets = self._requests(serial_session, small_chain)
        requests = [targets[i % len(targets)] for i in range(3 * THREADS)]
        serial = [
            serial_session.update("Γ_ABD", state, target)
            for target in requests
        ]

        stressed_session = self._fresh_session(small_chain, small_space)
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [
                pool.submit(stressed_session.update, "Γ_ABD", state, target)
                for target in requests
            ]
            threaded = [future.result(timeout=60) for future in futures]

        def verdict(outcome):
            return (outcome.accepted, outcome.reason, outcome.base_after)

        assert [verdict(o) for o in threaded] == [
            verdict(o) for o in serial
        ]
        # Sanity: the mix really contains both formal outcomes.
        assert {o.accepted for o in serial} == {True, False}


def _contend_worker(cache_dir, barrier, queue):
    """One process in the cross-process contention test.

    Builds the same persisted artifact as its siblings; the lease
    must ensure exactly one of them actually runs the builder.
    """
    from repro.resilience.faults import install_plan

    install_plan(None)  # deterministic regardless of REPRO_FAULT_SEED

    store = ArtifactStore(backend=LocalDirBackend(cache_dir))
    key = ArtifactKey("space", "contended", "bitset")

    def slow_build():
        time.sleep(0.4)
        return {"payload": list(range(100))}

    barrier.wait(timeout=30)
    value = store.get_or_build(key, slow_build, persist=True)
    snapshot = store.stats()
    queue.put(
        {
            "value_ok": value == {"payload": list(range(100))},
            "builds": snapshot["memory"]["space"]["builds"],
            "disk_hits": snapshot["backend"]["kinds"]["space"]["disk_hits"],
            "lease_waits": snapshot["leases"]["space"]["lease_waits"],
            "lease_timeouts": snapshot["leases"]["space"]["lease_timeouts"],
        }
    )


class TestCrossProcessLease:
    def test_exactly_one_process_builds(self, tmp_path):
        mp = multiprocessing.get_context("fork")
        workers = 3
        barrier = mp.Barrier(workers)
        queue = mp.Queue()
        processes = [
            mp.Process(
                target=_contend_worker,
                args=(str(tmp_path), barrier, queue),
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        reports = [queue.get(timeout=60) for _ in range(workers)]
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0

        assert all(report["value_ok"] for report in reports)
        assert sum(report["builds"] for report in reports) == 1
        # The losers waited on the lease and then read the winner's
        # envelope from disk instead of rebuilding.
        assert sum(report["disk_hits"] for report in reports) == workers - 1
        assert sum(report["lease_waits"] for report in reports) >= 1
        assert sum(report["lease_timeouts"] for report in reports) == 0
        # Exactly one artifact file, no leaked locks or temp files.
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["space-bitset-contended.pkl"]
