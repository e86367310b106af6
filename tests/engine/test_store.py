"""Unit tests for :mod:`repro.engine.store`."""

import pickle

import pytest

from repro.engine.backends import LocalDirBackend
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.resilience.faults import inject

#: The backend's attempt budget for transient I/O errors.
IO_ATTEMPTS = 3


@pytest.fixture(autouse=True)
def hermetic_faults():
    """These tests assert exact counter values; suspend any ambient
    ``REPRO_FAULT_SEED`` plan so only explicitly injected faults fire."""
    with inject(None):
        yield


@pytest.fixture(autouse=True)
def hermetic_store_env(monkeypatch):
    """Exact-counter tests must not inherit an ambient persistence
    backend (CI's sqlite matrix job exports one for the whole run)."""
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)


def key(kind, fp, kernel="bitset"):
    return ArtifactKey(kind, fp, kernel)


def local_store(path, **kwargs):
    """A store persisting to the directory *path*, retrying I/O without
    sleeping between attempts."""
    backend = LocalDirBackend(
        str(path), io_attempts=IO_ATTEMPTS, sleep=lambda seconds: None
    )
    return ArtifactStore(backend=backend, **kwargs)


class TestMemoization:
    def test_build_once_then_hit(self):
        store = ArtifactStore()
        calls = []
        build = lambda: calls.append(1) or "value"  # noqa: E731
        assert store.get_or_build(key("space", "f1"), build) == "value"
        assert store.get_or_build(key("space", "f1"), build) == "value"
        assert calls == [1]
        counters = store.stats()["memory"]["space"]
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["builds"] == 1

    def test_distinct_kernels_do_not_collide(self):
        store = ArtifactStore()
        store.get_or_build(key("space", "f1", "bitset"), lambda: "b")
        assert (
            store.get_or_build(key("space", "f1", "naive"), lambda: "n") == "n"
        )

    def test_ensure_is_stat_neutral(self):
        store = ArtifactStore()
        store.ensure(key("space", "f1"), "anchored")
        snapshot = store.stats()
        assert snapshot["memory"] == {}
        assert snapshot["leases"] == {}
        assert snapshot["backend"]["kinds"] == {}
        assert store.get_or_build(key("space", "f1"), lambda: "x") == "anchored"

    def test_stats_namespaces_are_the_only_spelling(self):
        store = ArtifactStore()
        store.get_or_build(key("space", "f1"), lambda: "v")
        store.get_or_build(key("space", "f1"), lambda: "v")
        snapshot = store.stats()
        assert snapshot["memory"]["space"]["hits"] == 1
        assert snapshot["memory"]["space"]["builds"] == 1
        assert snapshot["backend"]["name"] == "none"
        assert snapshot["backend"]["open_failures"] == 0
        assert snapshot["backend"]["kinds"]["space"]["disk_hits"] == 0
        assert snapshot["leases"]["space"]["lease_waits"] == 0
        # The pre-PR-7 flat per-kind alias is gone.
        assert set(snapshot) == {"memory", "backend", "leases"}


class TestLRU:
    def test_eviction_order(self):
        store = ArtifactStore(max_entries=2)
        store.get_or_build(key("k", "a"), lambda: 1)
        store.get_or_build(key("k", "b"), lambda: 2)
        store.get_or_build(key("k", "a"), lambda: 1)  # refresh a
        store.get_or_build(key("k", "c"), lambda: 3)  # evicts b
        assert key("k", "b") not in store
        assert key("k", "a") in store
        assert store.stats()["memory"]["k"]["evictions"] == 1


class TestInvalidation:
    def test_cascade_to_dependents(self):
        store = ArtifactStore()
        space = key("space", "s")
        poset = key("poset", "s")
        algebra = key("algebra", "s")
        store.get_or_build(space, lambda: "S")
        store.get_or_build(poset, lambda: "P", dependencies=(space,))
        store.get_or_build(algebra, lambda: "A", dependencies=(poset,))
        dropped = store.invalidate(space)
        assert dropped == 3
        assert len(store) == 0

    def test_unrelated_entries_survive(self):
        store = ArtifactStore()
        store.get_or_build(key("space", "s1"), lambda: 1)
        store.get_or_build(key("space", "s2"), lambda: 2)
        store.invalidate(key("space", "s1"))
        assert key("space", "s2") in store


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        store = local_store(tmp_path)
        value = {"payload": (1, 2, 3)}
        store.get_or_build(key("space", "f1"), lambda: value, persist=True)
        assert (tmp_path / key("space", "f1").filename()).exists()

        fresh = local_store(tmp_path)
        loaded = fresh.get_or_build(
            key("space", "f1"), lambda: pytest_fail(), persist=True
        )
        assert loaded == value
        snapshot = fresh.stats()
        assert snapshot["backend"]["kinds"]["space"]["disk_hits"] == 1
        assert snapshot["memory"]["space"]["builds"] == 0

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05broken"],
    )
    def test_corrupt_entry_rebuilds(self, tmp_path, garbage):
        store = local_store(tmp_path)
        path = tmp_path / key("space", "f1").filename()
        path.write_bytes(garbage)
        assert (
            store.get_or_build(key("space", "f1"), lambda: "fresh", persist=True)
            == "fresh"
        )
        assert (
            store.stats()["backend"]["kinds"]["space"]["corrupt_entries"]
            == 1
        )
        # The rebuilt value was re-persisted in the enveloped format.
        fresh = local_store(tmp_path)
        assert (
            fresh.get_or_build(key("space", "f1"), boom, persist=True)
            == "fresh"
        )

    def test_unpicklable_value_stays_memory_only(self, tmp_path):
        store = local_store(tmp_path)
        value = lambda: None  # noqa: E731
        built = store.get_or_build(
            key("space", "f1"), lambda: value, persist=True
        )
        assert built is value
        assert (
            store.stats()["backend"]["kinds"]["space"]["persist_failures"]
            == 1
        )
        assert not (tmp_path / key("space", "f1").filename()).exists()

    def test_no_dir_means_no_persistence(self):
        store = ArtifactStore()
        store.get_or_build(key("space", "f1"), lambda: 1, persist=True)
        assert store.backend is None


class TestDiskInvalidation:
    def test_invalidate_deletes_persisted_files(self, tmp_path):
        """Regression: a persisted artifact must not resurrect from
        disk after its key was invalidated."""
        store = local_store(tmp_path)
        space = key("space", "s")
        analysis = key("analysis", "s")
        store.get_or_build(space, lambda: "S", persist=True)
        store.get_or_build(
            analysis, lambda: "A", dependencies=(space,), persist=True
        )
        assert (tmp_path / space.filename()).exists()
        assert (tmp_path / analysis.filename()).exists()
        store.invalidate(space)
        assert not (tmp_path / space.filename()).exists()
        assert not (tmp_path / analysis.filename()).exists()
        # A fresh store rebuilds instead of reloading stale bytes.
        fresh = local_store(tmp_path)
        assert (
            fresh.get_or_build(space, lambda: "S2", persist=True) == "S2"
        )

    def test_invalidate_reaches_disk_for_evicted_entries(self, tmp_path):
        """Files are deleted even for keys no longer in the LRU."""
        store = local_store(tmp_path, max_entries=1)
        first = key("space", "s1")
        store.get_or_build(first, lambda: "S1", persist=True)
        store.get_or_build(key("space", "s2"), lambda: "S2", persist=True)
        assert first not in store  # evicted from memory
        store.invalidate(first)
        assert not (tmp_path / first.filename()).exists()


class TestTempFiles:
    def test_temp_name_is_per_process(self, tmp_path):
        import os

        store = local_store(tmp_path)
        path = tmp_path / key("space", "f1").filename()
        tmp = store.backend._temp_path(path)
        assert str(os.getpid()) in tmp.name
        assert tmp.name.startswith(path.name)

    def test_no_temp_file_left_behind(self, tmp_path):
        store = local_store(tmp_path)
        store.get_or_build(key("space", "f1"), lambda: "v", persist=True)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []


class TestTransientIO:
    def test_load_retries_transient_oserror(self, tmp_path):
        from repro.resilience.faults import FaultPlan, FaultRule, inject

        store = local_store(tmp_path)
        store.get_or_build(key("space", "f1"), lambda: "v", persist=True)
        fresh = local_store(tmp_path)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "store.load",
                    times=2,
                    exception=lambda: OSError("flaky disk"),
                ),
            )
        )
        with inject(plan):
            loaded = fresh.get_or_build(key("space", "f1"), boom, persist=True)
        assert loaded == "v"
        counters = fresh.stats()["backend"]["kinds"]["space"]
        assert counters["io_retries"] == 2
        assert counters["disk_hits"] == 1

    def test_load_gives_up_and_rebuilds(self, tmp_path):
        from repro.resilience.faults import FaultPlan, FaultRule, inject

        store = local_store(tmp_path)
        store.get_or_build(key("space", "f1"), lambda: "v", persist=True)
        fresh = local_store(tmp_path)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "store.load", exception=lambda: OSError("dead disk")
                ),
            )
        )
        with inject(plan):
            value = fresh.get_or_build(
                key("space", "f1"), lambda: "rebuilt", persist=True
            )
        assert value == "rebuilt"
        assert fresh.stats()["memory"]["space"]["builds"] == 1

    def test_save_gives_up_after_bounded_retries(self, tmp_path):
        from repro.resilience.faults import FaultPlan, FaultRule, inject

        store = local_store(tmp_path)
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "store.save", exception=lambda: OSError("read-only")
                ),
            )
        )
        with inject(plan):
            built = store.get_or_build(
                key("space", "f1"), lambda: "v", persist=True
            )
        assert built == "v"
        counters = store.stats()["backend"]["kinds"]["space"]
        assert counters["persist_failures"] == 1
        assert counters["io_retries"] == IO_ATTEMPTS - 1
        assert not (tmp_path / key("space", "f1").filename()).exists()


def boom():
    raise AssertionError("builder must not run on a disk hit")


def pytest_fail():
    raise AssertionError("builder must not run on a disk hit")
