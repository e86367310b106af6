"""The self-healing HTTP backend: retries, breaker, spill, leases.

The degradation ladder is the contract under test: every failure mode
-- dead server, damaged bytes, injected faults, exhausted retries --
must end in a silent miss or a spill-tier answer, never an untyped
error.  A live :class:`ArtifactServer` plays the healthy case; the
unhealthy ones are a closed port, a monkeypatched transport, and the
fault points.
"""

import time

import pytest

from repro.artifactd import ArtifactServer
from repro.engine.backends import (
    ArtifactBackend,
    BackendDegradedWarning,
    RemoteBackend,
    create_backend,
    resolve_backend,
)
from repro.engine.backends.base import Lease
from repro.engine.backends.envelope import wrap_payload
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import BackendUnavailableError, ConfigError
from repro.resilience.faults import FaultPlan, FaultRule, RAISE, inject

from tests.remote.conftest import make_remote

KEY = ArtifactKey("space", "fingerprint01", "bitset")

#: A URL nothing listens on: reserved port 9 on localhost refuses fast.
DEAD_URL = "http://127.0.0.1:9"


def open_remote(artifactd, **kwargs) -> RemoteBackend:
    backend = make_remote(artifactd.url, **kwargs)
    backend.open()
    return backend


class TestProtocol:
    def test_satisfies_the_backend_protocol(self, artifactd):
        assert isinstance(open_remote(artifactd), ArtifactBackend)

    def test_round_trip(self, artifactd):
        backend = open_remote(artifactd)
        assert backend.put(KEY, b"payload bytes").persisted
        got = backend.get(KEY)
        assert got.payload == b"payload bytes"
        assert not got.corrupt

    def test_absent_key_is_a_miss(self, artifactd):
        got = open_remote(artifactd).get(KEY)
        assert got.payload is None
        assert not got.corrupt

    def test_delete_then_miss(self, artifactd):
        backend = open_remote(artifactd)
        backend.put(KEY, b"payload")
        backend.delete(KEY)
        assert backend.get(KEY).payload is None

    def test_overwrite_wins(self, artifactd):
        backend = open_remote(artifactd)
        backend.put(KEY, b"first")
        backend.put(KEY, b"second")
        assert backend.get(KEY).payload == b"second"

    def test_stats_shape(self, artifactd):
        backend = open_remote(artifactd)
        backend.put(KEY, b"payload")
        backend.get(KEY)
        stats = backend.stats()
        assert stats["name"] == "remote"
        assert stats["url"] == artifactd.url
        assert stats["breaker_state"] == "closed"
        assert stats["remote_puts"] == 1
        assert stats["remote_hits"] == 1

    def test_sweep_reports_server_reclaims(self, artifactd):
        backend = open_remote(artifactd)
        artifactd.lease(("a", "b", "c"), "dead-holder", 0.001)
        time.sleep(0.01)
        assert backend.sweep() == 1


class TestSelection:
    def test_env_selects_remote(self, artifactd, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "remote")
        monkeypatch.setenv("REPRO_STORE_URL", artifactd.url)
        monkeypatch.setenv("REPRO_REMOTE_TIMEOUT_MS", "750")
        monkeypatch.setenv("REPRO_REMOTE_SPILL_DIR", str(tmp_path))
        backend = resolve_backend()
        assert isinstance(backend, RemoteBackend)
        assert backend.url == artifactd.url
        assert backend.timeout_ms == 750.0
        assert backend.spill_dir == str(tmp_path)

    @pytest.mark.parametrize("timeout_ms", [-5.0, 0.0, float("nan")])
    def test_non_positive_timeout_refused(self, artifactd, timeout_ms):
        """A timeout of -5 ms would make a live artifactd look
        unreachable, so the store would silently run memory-only."""
        with pytest.raises(ConfigError, match="RemoteBackend"):
            RemoteBackend(artifactd.url, timeout_ms=timeout_ms)

    def test_create_backend_remote(self, artifactd):
        backend = create_backend("remote", artifactd.url)
        assert isinstance(backend, RemoteBackend)

    def test_store_integration(self, artifactd):
        first = ArtifactStore(backend=open_remote(artifactd))
        value = first.get_or_build(
            KEY, lambda: {"built": True}, persist=True
        )
        assert value == {"built": True}
        second = ArtifactStore(backend=open_remote(artifactd))
        rebuilt = []
        value = second.get_or_build(
            KEY, lambda: rebuilt.append(1) or {"built": True}, persist=True
        )
        assert value == {"built": True}
        assert rebuilt == []  # served from the server, not rebuilt


class TestRemoteLease:
    def test_satisfies_the_lease_protocol(self, artifactd):
        lease = open_remote(artifactd).lease_for(KEY)
        assert isinstance(lease, Lease)

    def test_acquire_and_release(self, artifactd):
        backend = open_remote(artifactd)
        lease = backend.lease_for(KEY)
        assert lease.acquire()
        assert lease.acquired and not lease.took_over
        lease.release()
        assert artifactd.stats()["counters"]["lease_releases"] == 1

    def test_contention_times_out_behind_a_live_holder(
        self, artifactd, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_LOCK_TTL_MS", "500")
        backend = open_remote(artifactd)
        holder = backend.lease_for(KEY)
        assert holder.acquire()
        contender = backend.lease_for(KEY)
        # Give up well before the holder's lease can expire: the
        # contender must report a timeout, not inherit a takeover.
        contender.max_wait_ms = 80.0
        assert not contender.acquire()
        assert contender.timed_out
        assert contender.waited

    def test_expired_holder_is_taken_over(self, artifactd, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_LOCK_TTL_MS", "40")
        backend = open_remote(artifactd)
        assert backend.lease_for(KEY).acquire()  # never released
        time.sleep(0.08)
        successor = backend.lease_for(KEY)
        assert successor.acquire()
        assert successor.took_over

    def test_disabled_leases_answer_false(self, artifactd, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_LOCK_TTL_MS", "0")
        assert not open_remote(artifactd).lease_for(KEY).acquire()
        assert artifactd.stats()["counters"]["lease_grants"] == 0

    def test_dead_transport_builds_unleased(self, artifactd):
        backend = open_remote(artifactd, io_attempts=2)
        artifactd.stop()
        lease = backend.lease_for(KEY)
        assert not lease.acquire()  # bounded strikes, then unleased
        lease.release()  # must not raise either

    def test_injected_lease_faults_build_unleased(self, artifactd):
        backend = open_remote(artifactd, io_attempts=2)
        plan = FaultPlan(
            rules=(FaultRule("remote.lease", RAISE, times=10),)
        )
        with inject(plan):
            assert not backend.lease_for(KEY).acquire()


class TestDeadServer:
    def test_open_without_spill_raises_typed(self):
        backend = make_remote(DEAD_URL)
        with pytest.raises(BackendUnavailableError):
            backend.open()

    def test_non_http_url_raises_typed(self):
        backend = make_remote("ftp://example.invalid")
        with pytest.raises(BackendUnavailableError):
            backend.open()

    def test_open_with_spill_degrades(self, tmp_path):
        backend = make_remote(DEAD_URL, spill_dir=tmp_path / "spill")
        with pytest.warns(BackendDegradedWarning, match="unreachable"):
            backend.open()
        assert backend.stats()["breaker_state"] == "open"
        # The spill tier carries reads and writes meanwhile.
        assert backend.put(KEY, b"payload").persisted
        assert backend.get(KEY).payload == b"payload"
        stats = backend.stats()
        assert stats["spill_puts"] == 1
        assert stats["spill_hits"] == 1
        assert stats["breaker_rejections"] >= 2

    def test_mid_run_death_degrades_to_spill(self, artifactd, tmp_path):
        backend = open_remote(
            artifactd,
            spill_dir=tmp_path / "spill",
            io_attempts=1,
            timeout_ms=500.0,
        )
        assert backend.put(KEY, b"before the outage").persisted
        artifactd.stop()
        other = ArtifactKey("space", "fingerprint02", "bitset")
        spilled = backend.put(other, b"during the outage")
        assert spilled.persisted  # landed in the spill tier
        assert backend.get(other).payload == b"during the outage"
        assert backend.stats()["spill_puts"] == 1

    def test_store_goes_memory_only_without_spill(self):
        with pytest.warns(BackendDegradedWarning):
            store = ArtifactStore(backend=make_remote(DEAD_URL))
        assert store.backend is None
        assert store.get_or_build(KEY, lambda: "built", persist=True) == (
            "built"
        )


class TestBreaker:
    def test_opens_after_consecutive_exhaustions(self, artifactd):
        backend = open_remote(
            artifactd, io_attempts=1, threshold=2, timeout_ms=500.0
        )
        artifactd.stop()
        assert backend.get(KEY).payload is None
        assert backend.get(KEY).payload is None
        assert backend.stats()["breaker_state"] == "open"
        assert backend.get(KEY).payload is None  # rejected, not attempted
        stats = backend.stats()
        assert stats["breaker_trips"] == 1
        assert stats["breaker_rejections"] >= 1
        assert stats["transport_failures"] == 2

    def test_half_open_probe_recovers(self, artifactd):
        backend = open_remote(
            artifactd, io_attempts=1, threshold=2, cooldown_ms=10.0
        )
        backend.put(KEY, b"payload")
        real_http = backend._http
        failures = {"left": 2}

        def flaky(method, path, body, timeout_s):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionError("injected outage")
            return real_http(method, path, body, timeout_s)

        backend._http = flaky
        backend.get(KEY)
        backend.get(KEY)
        assert backend.stats()["breaker_state"] == "open"
        time.sleep(0.02)
        # The cooldown elapsed: one probe goes through, succeeds, and
        # closes the breaker; service is fully restored.
        assert backend.get(KEY).payload == b"payload"
        assert backend.stats()["breaker_state"] == "closed"
        # Recovery closes the circuit but keeps the trip on record.
        assert backend.stats()["breaker_trips"] == 1


    def test_threshold_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            make_remote(DEAD_URL, threshold=0)


class TestReplyVerdicts:
    """What one logical operation makes of each reply: what is retried,
    and what the transport breaker is told."""

    @staticmethod
    def _script(backend, replies):
        def scripted(method, path, body, timeout_s):
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        backend._http = scripted

    def test_put_damaged_in_flight_is_retried(self, artifactd):
        backend = open_remote(artifactd, threshold=1)
        self._script(backend, [(400, b"damaged"), (204, b"")])
        result = backend.put(KEY, b"payload")
        assert result.persisted
        assert result.io_retries == 1
        assert backend.stats()["transport_failures"] == 1

    def test_put_rejections_are_breaker_successes(self, artifactd):
        backend = open_remote(artifactd, threshold=1)
        self._script(backend, [(400, b"damaged")] * 3)
        result = backend.put(KEY, b"payload")
        assert not result.persisted
        assert result.io_retries == 2
        stats = backend.stats()
        assert stats["transport_failures"] == 3
        # The server answered every time: threshold 1 stays closed.
        assert stats["breaker_state"] == "closed"

    def test_not_found_is_a_miss(self, artifactd):
        backend = open_remote(artifactd, threshold=1)
        self._script(backend, [(404, b"")])
        got = backend.get(KEY)
        assert got.payload is None
        assert not got.corrupt
        assert got.io_retries == 0
        stats = backend.stats()
        assert stats["transport_failures"] == 0
        assert stats["breaker_state"] == "closed"

    @pytest.mark.parametrize(
        "failure", [ConnectionError("injected"), (503, b"")]
    )
    def test_exhausted_op_is_one_breaker_failure(self, artifactd, failure):
        backend = open_remote(artifactd, io_attempts=2, threshold=2)
        self._script(backend, [failure] * 4)
        assert backend.get(KEY).io_retries == 1
        stats = backend.stats()
        assert stats["transport_failures"] == 2
        assert stats["transport_retries"] == 1
        assert stats["breaker_state"] == "closed"
        backend.get(KEY)
        stats = backend.stats()
        assert stats["breaker_state"] == "open"
        assert stats["breaker_trips"] == 1


class TestCorruptEnvelopes:
    def test_planted_damage_is_a_silent_miss(self, artifactd):
        backend = open_remote(artifactd, io_attempts=2)
        blob = bytearray(wrap_payload(b"payload"))
        blob[-1] ^= 0xFF
        # Plant past the PUT gate: damage at rest, not in flight.
        with artifactd._lock:
            artifactd._artifacts[
                (KEY.kind, KEY.fingerprint, KEY.kernel)
            ] = bytes(blob)
        got = backend.get(KEY)
        assert got.corrupt
        assert got.payload is None
        stats = backend.stats()
        # Damage survived every re-fetch, so each round counted it...
        assert stats["corrupt_envelopes"] == 2
        # ...and the entry was evicted so corruption is paid for once.
        assert artifactd.get_artifact(
            (KEY.kind, KEY.fingerprint, KEY.kernel)
        ) is None


class TestInjectedFaults:
    def test_get_retries_through_a_transient_fault(self, artifactd):
        backend = open_remote(artifactd)
        backend.put(KEY, b"payload")
        plan = FaultPlan(rules=(FaultRule("remote.get", RAISE, times=1),))
        with inject(plan):
            got = backend.get(KEY)
        assert got.payload == b"payload"
        assert got.io_retries == 1

    def test_put_retries_through_a_transient_fault(self, artifactd):
        backend = open_remote(artifactd)
        plan = FaultPlan(rules=(FaultRule("remote.put", RAISE, times=1),))
        with inject(plan):
            result = backend.put(KEY, b"payload")
        assert result.persisted
        assert result.io_retries == 1
        assert backend.get(KEY).payload == b"payload"

    def test_exhausted_faults_are_a_miss_not_an_error(self, artifactd):
        backend = open_remote(artifactd, io_attempts=2)
        backend.put(KEY, b"payload")
        plan = FaultPlan(rules=(FaultRule("remote.get", RAISE, times=10),))
        with inject(plan):
            got = backend.get(KEY)
        assert got.payload is None
        assert not got.corrupt


class TestSpillFlushBack:
    def test_outage_writes_heal_back_to_the_server(self, tmp_path):
        spill = tmp_path / "spill"
        # Phase 1: the server is down; the write lands in the spill.
        with pytest.warns(BackendDegradedWarning):
            outage = make_remote(DEAD_URL, spill_dir=spill)
            outage.open()
        assert outage.put(KEY, b"built during the outage").persisted
        # Phase 2: a healthy server, same spill dir.  The read falls
        # back to the spill and flushes the artifact upstream.
        with ArtifactServer() as server:
            healed = make_remote(server.url, spill_dir=spill)
            healed.open()
            got = healed.get(KEY)
            assert got.payload == b"built during the outage"
            assert healed.stats()["spill_flushes"] == 1
            # Phase 3: a spill-less client now hits the server cold.
            fresh = make_remote(server.url)
            fresh.open()
            assert fresh.get(KEY).payload == b"built during the outage"
