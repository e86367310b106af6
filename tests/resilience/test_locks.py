"""Unit tests for :mod:`repro.resilience.locks`."""

import os

import pytest

from repro.errors import ConfigError
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.resilience.locks import (
    DEFAULT_LOCK_TTL_MS,
    FileLease,
    LOCK_TTL_ENV_VAR,
    lock_ttl_ms,
    sweep_stale_temp_files,
)

#: A pid no live process plausibly holds (max_pid is far below 2**22
#: on default Linux configurations; the liveness probe handles both).
DEAD_PID = 2**22 - 1


@pytest.fixture(autouse=True)
def _lease_env(monkeypatch):
    """Hermetic knobs: default TTL (leases on), regardless of CI env."""
    monkeypatch.delenv(LOCK_TTL_ENV_VAR, raising=False)


class TestKnobs:
    def test_default_ttl(self):
        assert lock_ttl_ms() == DEFAULT_LOCK_TTL_MS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(LOCK_TTL_ENV_VAR, "1500")
        assert lock_ttl_ms() == 1500.0

    def test_malformed_ttl_raises(self, monkeypatch):
        monkeypatch.setenv(LOCK_TTL_ENV_VAR, "soon")
        with pytest.raises(ValueError):
            lock_ttl_ms()

    def test_nan_ttl_refused(self, monkeypatch, tmp_path):
        """A NaN TTL would never let a live holder's lease expire."""
        monkeypatch.setenv(LOCK_TTL_ENV_VAR, "nan")
        with pytest.raises(
            ConfigError, match="REPRO_CACHE_LOCK_TTL_MS='nan'"
        ):
            FileLease(tmp_path / "artifact.pkl")

    def test_non_positive_ttl_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(LOCK_TTL_ENV_VAR, "-1")
        lease = FileLease(tmp_path / "artifact.pkl")
        assert not lease.acquire()
        assert not lease.path.exists()


class TestAcquireRelease:
    def test_acquire_creates_lockfile(self, tmp_path):
        lease = FileLease(tmp_path / "artifact.pkl")
        assert lease.acquire()
        assert lease.acquired
        assert lease.path.exists()
        payload = lease.path.read_text("ascii").split()
        assert int(payload[0]) == os.getpid()
        lease.release()
        assert not lease.path.exists()
        assert not lease.acquired

    def test_context_manager(self, tmp_path):
        with FileLease(tmp_path / "artifact.pkl") as lease:
            assert lease.acquired
        assert not lease.path.exists()

    def test_disabled_leases_never_touch_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LOCK_TTL_ENV_VAR, "0")
        lease = FileLease(tmp_path / "artifact.pkl")
        assert not lease.acquire()
        assert not lease.path.exists()
        lease.release()  # no-op, no raise

    def test_unwritable_directory_degrades(self, tmp_path):
        lease = FileLease(tmp_path / "missing" / "artifact.pkl")
        assert not lease.acquire()
        assert not lease.acquired

    def test_release_without_acquire_is_noop(self, tmp_path):
        FileLease(tmp_path / "artifact.pkl").release()


def _foreign_live_holder(target, age_seconds=0.0):
    """Write a lockfile held by a live pid that is not ours.

    The test process's parent (the pytest runner's shell or service
    manager) is alive for the duration of the test and never equals
    our own pid, which the lease would treat as a leak.
    """
    import time

    lockfile = target.parent / f"{target.name}.lock"
    pid = os.getppid() or 1
    lockfile.write_text(f"{pid} {time.time() - age_seconds}", "ascii")
    return lockfile


class TestContention:
    def test_live_holder_makes_us_wait_then_time_out(self, tmp_path):
        target = tmp_path / "artifact.pkl"
        _foreign_live_holder(target)
        sleeps = []
        waiter = FileLease(
            target, backoff=0.001, max_wait_ms=20, sleep=sleeps.append
        )
        assert not waiter.acquire()
        assert waiter.waited
        assert waiter.timed_out
        assert sleeps  # backed off at least once

    def test_wait_until_released(self, tmp_path):
        target = tmp_path / "artifact.pkl"
        lockfile = _foreign_live_holder(target)
        waiter = FileLease(
            target, backoff=0.001, sleep=lambda _s: lockfile.unlink()
        )
        assert waiter.acquire()
        assert waiter.waited
        assert not waiter.timed_out

    def test_same_pid_holder_is_stale(self, tmp_path):
        """In-process callers serialise through the store's single
        flight, so our own pid on disk is a leak -- taken over."""
        target = tmp_path / "artifact.pkl"
        leaked = FileLease(target)
        assert leaked.acquire()  # never released
        second = FileLease(target)
        assert second.acquire()
        assert second.took_over
        second.release()

    def test_dead_holder_is_taken_over(self, tmp_path):
        target = tmp_path / "artifact.pkl"
        lease = FileLease(target)
        lease.path.write_text(f"{DEAD_PID} 0.0", "ascii")
        assert lease.acquire()
        assert lease.took_over

    def test_expired_live_holder_is_taken_over(self, tmp_path):
        """Even a live pid loses the lease past the TTL: a wedged
        builder must not block every other process forever."""
        import time

        target = tmp_path / "artifact.pkl"
        lease = FileLease(target, ttl_ms=10)
        parent = os.getppid() or os.getpid()
        lease.path.write_text(f"{parent} {time.time() - 1.0}", "ascii")
        assert lease.acquire()
        assert lease.took_over

    def test_garbage_payload_falls_back_to_mtime(self, tmp_path):
        target = tmp_path / "artifact.pkl"
        lease = FileLease(target, ttl_ms=10)
        lease.path.write_text("not a payload", "ascii")
        os.utime(lease.path, (0, 0))  # ancient mtime -> stale
        assert lease.acquire()
        assert lease.took_over


class TestFaultAbsorption:
    def test_faulted_acquire_degrades_to_unleased(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule("lock.acquire"),))
        lease = FileLease(tmp_path / "artifact.pkl")
        with inject(plan):
            assert not lease.acquire()
        assert not lease.path.exists()
        assert plan.log == [("lock.acquire", "raise")]

    def test_faulted_release_leaks_then_recovers(self, tmp_path):
        """A crashed release leaves the lockfile; the next acquisition
        recognises the same-pid leak and takes over."""
        target = tmp_path / "artifact.pkl"
        lease = FileLease(target)
        assert lease.acquire()
        with inject(FaultPlan(rules=(FaultRule("lock.release"),))):
            lease.release()
        assert lease.path.exists()  # leaked on purpose
        second = FileLease(target)
        assert second.acquire()
        assert second.took_over
        second.release()
        assert not second.path.exists()


class TestTempSweep:
    def test_sweeps_only_dead_writers(self, tmp_path):
        dead = tmp_path / f"artifact.pkl.{DEAD_PID}.tmp"
        ours = tmp_path / f"artifact.pkl.{os.getpid()}.tmp"
        foreign = tmp_path / "not-a-temp-file.txt"
        unparsable = tmp_path / "artifact.pkl.notapid.tmp"
        for path in (dead, ours, foreign, unparsable):
            path.write_bytes(b"half-written")
        assert sweep_stale_temp_files(str(tmp_path)) == 1
        assert not dead.exists()
        assert ours.exists()
        assert foreign.exists()
        assert unparsable.exists()

    def test_missing_directory_sweeps_nothing(self, tmp_path):
        assert sweep_stale_temp_files(str(tmp_path / "missing")) == 0
