"""The derivation circuit breaker: unit tests and engine integration."""

import pytest

from repro.engine.engine import Engine
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    KernelFailureError,
    ReproError,
)
from repro.kernel.config import BULK, use_kernel
from repro.resilience.breaker import (
    ALLOW,
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    OPEN,
    PROBE,
)
from repro.resilience.faults import FaultPlan, FaultRule, inject


@pytest.fixture(autouse=True)
def _hermetic_engine_env(monkeypatch):
    """Counter assertions need engines unaffected by ambient knobs
    (a shared persistence backend would serve rebuilds from disk)."""
    for var in (
        "REPRO_STORE_BACKEND",
        "REPRO_STORE_URL",
        "REPRO_BREAKER_THRESHOLD",
        "REPRO_BREAKER_COOLDOWN_MS",
    ):
        monkeypatch.delenv(var, raising=False)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance_ms(self, ms):
        self.now += ms / 1e3


@pytest.fixture
def clock():
    return FakeClock()


class TestStateMachine:
    def test_closed_admits(self, clock):
        breaker = CircuitBreaker(threshold=3, clock=clock)
        assert breaker.admit("space", "fp") == ALLOW

    def test_trips_after_threshold(self, clock):
        breaker = CircuitBreaker(threshold=3, clock=clock)
        for _ in range(2):
            breaker.record_failure("space", "fp")
            assert breaker.admit("space", "fp") == ALLOW
        breaker.record_failure("space", "fp")
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.admit("space", "fp")
        assert excinfo.value.kind == "space"
        assert excinfo.value.fingerprint == "fp"
        assert excinfo.value.failures == 3
        assert excinfo.value.retry_after_ms > 0

    def test_circuit_open_error_is_typed(self):
        assert issubclass(CircuitOpenError, ReproError)

    def test_success_resets_the_count(self, clock):
        breaker = CircuitBreaker(threshold=2, clock=clock)
        breaker.record_failure("space", "fp")
        breaker.record_success("space", "fp")
        breaker.record_failure("space", "fp")
        assert breaker.admit("space", "fp") == ALLOW

    def test_derivations_are_independent(self, clock):
        breaker = CircuitBreaker(threshold=1, clock=clock)
        breaker.record_failure("space", "fp-bad")
        with pytest.raises(CircuitOpenError):
            breaker.admit("space", "fp-bad")
        assert breaker.admit("space", "fp-good") == ALLOW
        assert breaker.admit("analysis", "fp-bad") == ALLOW

    def test_half_open_single_probe(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=100, clock=clock)
        breaker.record_failure("space", "fp")
        clock.advance_ms(150)
        assert breaker.admit("space", "fp") == PROBE
        # The probe is in flight: everyone else still bounces.
        with pytest.raises(CircuitOpenError):
            breaker.admit("space", "fp")

    def test_probe_success_closes(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=100, clock=clock)
        breaker.record_failure("space", "fp")
        clock.advance_ms(150)
        assert breaker.admit("space", "fp") == PROBE
        breaker.record_success("space", "fp")
        assert breaker.admit("space", "fp") == ALLOW
        assert breaker.snapshot()["entries"] == {}

    def test_probe_failure_reopens_with_fresh_cooldown(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=100, clock=clock)
        breaker.record_failure("space", "fp")
        clock.advance_ms(150)
        assert breaker.admit("space", "fp") == PROBE
        breaker.record_failure("space", "fp")
        with pytest.raises(CircuitOpenError):
            breaker.admit("space", "fp")
        clock.advance_ms(150)  # cooldown restarted at the probe failure
        assert breaker.admit("space", "fp") == PROBE

    def test_reset_scopes(self, clock):
        breaker = CircuitBreaker(threshold=1, clock=clock)
        for key in ("a", "b"):
            breaker.record_failure("space", key)
        breaker.record_failure("analysis", "a")
        assert breaker.reset("space", "a") == 1
        assert breaker.reset("space") == 1
        assert breaker.reset() == 1
        assert breaker.admit("analysis", "a") == ALLOW

    def test_snapshot_shape(self, clock):
        breaker = CircuitBreaker(threshold=2, cooldown_ms=100, clock=clock)
        breaker.record_failure("space", "f" * 40)
        snap = breaker.snapshot()
        assert snap["open"] == 0
        (entry,) = snap["entries"].values()
        assert entry["state"] == CLOSED
        assert entry["failures"] == 1
        breaker.record_failure("space", "f" * 40)
        assert breaker.snapshot()["open"] == 1
        (entry,) = breaker.snapshot()["entries"].values()
        assert entry["state"] == OPEN
        clock.advance_ms(150)
        (entry,) = breaker.snapshot()["entries"].values()
        assert entry["state"] == HALF_OPEN

    def test_trip_opens_at_once_and_trips_survive_recovery(self, clock):
        breaker = CircuitBreaker(threshold=3, cooldown_ms=100, clock=clock)
        assert breaker.state("transport", "url") == CLOSED
        breaker.trip("transport", "url")
        assert breaker.state("transport", "url") == OPEN
        breaker.trip("transport", "url")  # already open: not a new trip
        assert breaker.trips == 1
        clock.advance_ms(150)
        assert breaker.state("transport", "url") == HALF_OPEN
        assert breaker.admit("transport", "url") == PROBE
        breaker.record_failure("transport", "url")  # a failed probe trips
        assert breaker.trips == 2
        clock.advance_ms(150)
        assert breaker.admit("transport", "url") == PROBE
        breaker.record_success("transport", "url")
        assert breaker.state("transport", "url") == CLOSED
        assert breaker.trips == 2

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_ms=-1)


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        for var in (
            "REPRO_BREAKER_THRESHOLD",
            "REPRO_BREAKER_COOLDOWN_MS",
        ):
            monkeypatch.delenv(var, raising=False)
        breaker = CircuitBreaker.from_env()
        assert breaker.threshold == 3
        assert breaker.cooldown_ms == 30_000.0

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "5")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN_MS", "1000")
        breaker = CircuitBreaker.from_env()
        assert breaker.threshold == 5
        assert breaker.cooldown_ms == 1000.0

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "several")
        with pytest.raises(ValueError):
            CircuitBreaker.from_env()

    def test_nan_cooldown_refused(self, monkeypatch):
        """A NaN cooldown would keep an opened circuit open for ever."""
        monkeypatch.delenv("REPRO_BREAKER_THRESHOLD", raising=False)
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN_MS", "nan")
        with pytest.raises(
            ConfigError, match="REPRO_BREAKER_COOLDOWN_MS='nan'"
        ):
            CircuitBreaker.from_env()


def _bulk_only_plan():
    """Only the bulk kernel crashes: every build is rescued by the
    naive retry."""
    return FaultPlan(
        rules=(FaultRule("kernel.analysis", kernel=BULK),)
    )


class FlakyAnalyze:
    """A stand-in for the engine's ``analyze_view`` builder target.

    While :attr:`crashing` it fails under *both* kernels (the crash
    is kernel-independent, like a real deterministic bug); flip it off
    and the real analysis runs.  :attr:`calls` counts builder entries,
    which is how the tests prove an open circuit skips the build.
    """

    def __init__(self, real):
        self.real = real
        self.crashing = True
        self.calls = 0

    def __call__(self, view, space):
        self.calls += 1
        if self.crashing:
            raise RuntimeError("deterministic analysis crash")
        return self.real(view, space)


@pytest.fixture
def flaky_analyze(monkeypatch):
    from repro.core.strong import analyze_view

    flaky = FlakyAnalyze(analyze_view)
    monkeypatch.setattr("repro.engine.engine.analyze_view", flaky)
    return flaky


class TestEngineIntegration:
    def _fail_once(self, engine, view, space):
        with use_kernel(BULK):
            with pytest.raises(KernelFailureError):
                engine.analysis(view, space)
        engine.store.clear()  # next request must re-derive

    def test_trips_then_fails_fast_without_ladder(
        self, small_chain, small_space, flaky_analyze
    ):
        """After K kernel failures the build stops running: the
        request dies in the breaker before the builder is invoked."""
        from repro.decomposition.projections import projection_view

        engine = Engine(
            breaker=CircuitBreaker(threshold=2, cooldown_ms=60_000)
        )
        view = projection_view(small_chain, ("A", "B", "D"))
        for _ in range(2):
            self._fail_once(engine, view, small_space)
        # Each failed build pays both kernels: bulk attempt + naive retry.
        assert flaky_analyze.calls == 4
        with use_kernel(BULK):
            with pytest.raises(CircuitOpenError):
                engine.analysis(view, small_space)
        # Fail-fast: the builder never ran again.
        assert flaky_analyze.calls == 4
        assert engine.stats()["breaker"]["open"] == 1
        counters = engine.stats()["artifacts"]["memory"]["analysis"]
        assert counters["degradations"] == 2

    def test_reset_breaker_reruns_the_ladder(
        self, small_chain, small_space, flaky_analyze
    ):
        from repro.decomposition.projections import projection_view

        engine = Engine(
            breaker=CircuitBreaker(threshold=1, cooldown_ms=60_000)
        )
        view = projection_view(small_chain, ("A", "B", "D"))
        self._fail_once(engine, view, small_space)
        with use_kernel(BULK):
            with pytest.raises(CircuitOpenError):
                engine.analysis(view, small_space)
        assert engine.reset_breaker("analysis") == 1
        flaky_analyze.crashing = False  # "operator fixed the bug"
        with use_kernel(BULK):
            analysis = engine.analysis(view, small_space)
        assert analysis is not None
        assert engine.stats()["breaker"]["entries"] == {}

    def test_half_open_probe_recovers(
        self, small_chain, small_space, flaky_analyze
    ):
        from repro.decomposition.projections import projection_view

        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown_ms=100, clock=clock
        )
        engine = Engine(breaker=breaker)
        view = projection_view(small_chain, ("A", "B", "D"))
        self._fail_once(engine, view, small_space)
        with use_kernel(BULK):
            with pytest.raises(CircuitOpenError):
                engine.analysis(view, small_space)
        clock.advance_ms(150)
        flaky_analyze.crashing = False
        with use_kernel(BULK):  # the probe runs clean and closes
            engine.analysis(view, small_space)
        assert engine.stats()["breaker"]["entries"] == {}

    def test_rescued_builds_never_trip(self, small_chain, small_space):
        """A build the naive retry rescues is served, so it is a
        success to the breaker however often it recurs."""
        from repro.decomposition.projections import projection_view

        engine = Engine(breaker=CircuitBreaker(threshold=1))
        view = projection_view(small_chain, ("A", "B", "D"))
        with use_kernel(BULK), inject(_bulk_only_plan()):
            for _ in range(3):
                assert engine.analysis(view, small_space) is not None
                engine.store.clear()  # next request must re-derive
        counters = engine.stats()["artifacts"]["memory"]["analysis"]
        assert counters["degradations"] == 3
        assert engine.stats()["breaker"]["open"] == 0


class TestConcurrentHalfOpenProbes:
    """A half-open circuit admits exactly one probe under contention.

    The serving tier leans on this: when a cooldown elapses while N
    requests race into admission, one of them must run the recovery
    probe and every other caller must get the typed fail-closed
    verdict -- never a thundering herd of N concurrent builds against
    artifacts that were crashing moments ago.
    """

    THREADS = 16

    def _race_admits(self, breaker):
        """All threads call ``admit`` together; collect the verdicts."""
        import threading

        barrier = threading.Barrier(self.THREADS, timeout=30)
        verdicts = [None] * self.THREADS

        def contender(slot):
            barrier.wait()
            try:
                verdicts[slot] = breaker.admit("space", "fp")
            except CircuitOpenError as exc:
                verdicts[slot] = exc

        threads = [
            threading.Thread(target=contender, args=(slot,))
            for slot in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(verdict is not None for verdict in verdicts)
        return verdicts

    def _opened_and_cooled(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000, clock=clock)
        breaker.record_failure("space", "fp")
        clock.advance_ms(1_500)  # past the cooldown: next admit probes
        return breaker

    def test_fail_fast_admits_exactly_one_probe(self, clock):
        breaker = self._opened_and_cooled(clock)
        verdicts = self._race_admits(breaker)
        assert verdicts.count(PROBE) == 1
        followers = [v for v in verdicts if v is not PROBE]
        assert len(followers) == self.THREADS - 1
        assert all(
            isinstance(follower, CircuitOpenError)
            for follower in followers
        )

    def test_probe_slot_reopens_for_the_next_cooldown(self, clock):
        """After the racing probe *fails*, the circuit is open again:
        a second race (post-cooldown) still admits exactly one."""
        breaker = self._opened_and_cooled(clock)
        first = self._race_admits(breaker)
        assert first.count(PROBE) == 1
        breaker.record_failure("space", "fp")  # the probe failed
        clock.advance_ms(1_500)
        second = self._race_admits(breaker)
        assert second.count(PROBE) == 1


class TestRetryHint:
    def test_none_when_nothing_tracked(self, clock):
        breaker = CircuitBreaker(clock=clock)
        assert breaker.retry_hint_ms() is None

    def test_none_while_closed_or_counting(self, clock):
        breaker = CircuitBreaker(threshold=3, clock=clock)
        breaker.record_failure("space", "fp")
        assert breaker.retry_hint_ms() is None

    def test_soonest_open_circuit_wins(self, clock):
        breaker = CircuitBreaker(
            threshold=1, cooldown_ms=1_000, clock=clock
        )
        breaker.record_failure("space", "fp1")
        clock.advance_ms(600)
        breaker.record_failure("algebra", "fp2")
        hint = breaker.retry_hint_ms()
        assert hint == pytest.approx(400)  # fp1 cools first

    def test_none_once_cooldown_elapsed(self, clock):
        """An elapsed cooldown means the next attempt is the recovery
        probe; admission must let it through, so no hint is given."""
        breaker = CircuitBreaker(
            threshold=1, cooldown_ms=1_000, clock=clock
        )
        breaker.record_failure("space", "fp")
        assert breaker.retry_hint_ms() == pytest.approx(1_000)
        clock.advance_ms(1_500)
        assert breaker.retry_hint_ms() is None
