"""Wire-level chaos: the remote tier under a misbehaving network.

The :class:`ChaosProxy` sits between a real client and a real server
and injects resets, truncations, bit flips, and latency on the wire.
The contract proven here is the PR's acceptance bar: under *every*
failure mode the backend answers with misses, retries, or spill hits
-- never an untyped error -- and a session served through heavy chaos
produces verdicts identical to one served over a clean wire.
"""

import time

import pytest

from repro.engine.backends import LocalDirBackend
from repro.engine.backends.envelope import wrap_payload
from repro.engine.engine import Engine
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.kernel.config import use_kernel
from repro.resilience.chaosproxy import ChaosProxy

from tests.remote.conftest import make_remote

KEY = ArtifactKey("space", "fingerprint01", "bitset")


def proxied_backend(artifactd, proxy, **kwargs):
    """Open through a momentarily-clean proxy, then restore the rates.

    ``open()``'s health probe is not the op under test: each test here
    pins one operation's behaviour under one failure mode, so the
    probe always crosses a clean wire and the chaos starts afterwards.
    (Probe-time failures have their own tests in
    :mod:`tests.remote.test_remote_backend`.)
    """
    backend = make_remote(proxy.url, **kwargs)
    rates = (
        proxy.reset_rate,
        proxy.truncate_rate,
        proxy.corrupt_rate,
        proxy.latency_rate,
    )
    proxy.reset_rate = proxy.truncate_rate = 0.0
    proxy.corrupt_rate = proxy.latency_rate = 0.0
    try:
        backend.open()
    finally:
        (
            proxy.reset_rate,
            proxy.truncate_rate,
            proxy.corrupt_rate,
            proxy.latency_rate,
        ) = rates
    return backend


class TestPassThrough:
    def test_clean_proxy_is_invisible(self, artifactd):
        with ChaosProxy("127.0.0.1", artifactd.port) as proxy:
            backend = proxied_backend(artifactd, proxy)
            assert backend.put(KEY, b"payload").persisted
            assert backend.get(KEY).payload == b"payload"
            assert proxy.counters["pass"] >= 2
            assert proxy.counters["connections"] >= 2


class TestSingleFailureModes:
    def test_resets_exhaust_to_a_silent_miss(self, artifactd):
        with ChaosProxy(
            "127.0.0.1", artifactd.port, reset_rate=1.0
        ) as proxy:
            backend = proxied_backend(
                artifactd, proxy, io_attempts=2, timeout_ms=500.0
            )
            got = backend.get(KEY)  # every attempt reset: still a miss
            assert got.payload is None
            assert not got.corrupt
            stats = backend.stats()
            assert stats["transport_failures"] == 2
            assert proxy.counters["reset"] >= 2

    def test_truncated_responses_never_raise(self, artifactd):
        artifactd.put_artifact(
            (KEY.kind, KEY.fingerprint, KEY.kernel),
            wrap_payload(b"payload"),
        )
        with ChaosProxy(
            "127.0.0.1", artifactd.port, truncate_rate=1.0
        ) as proxy:
            backend = proxied_backend(
                artifactd, proxy, io_attempts=2, timeout_ms=500.0
            )
            got = backend.get(KEY)
            assert got.payload is None  # torn replies, silent miss
            backend.put(KEY, b"other payload")  # must not raise
            # The *request* crossed intact, so the server stored the
            # envelope whatever the torn reply parsed as -- a bodyless
            # 204 cut after its status line can still read as success.
            # At-least-once is the contract; no-untyped-error the bar.
            assert artifactd.get_artifact(
                (KEY.kind, KEY.fingerprint, KEY.kernel)
            ) == wrap_payload(b"other payload")
            assert proxy.counters["truncate"] >= 2

    def test_corrupted_responses_are_caught_by_checksum(self, artifactd):
        artifactd.put_artifact(
            (KEY.kind, KEY.fingerprint, KEY.kernel),
            wrap_payload(b"payload " * 400),
        )
        with ChaosProxy(
            "127.0.0.1", artifactd.port, corrupt_rate=1.0
        ) as proxy:
            backend = proxied_backend(
                artifactd, proxy, io_attempts=2, timeout_ms=500.0
            )
            got = backend.get(KEY)  # damaged on every round-trip
            assert got.payload is None
            assert proxy.counters["corrupt"] >= 1

    def test_latency_within_deadline_is_absorbed(self, artifactd):
        with ChaosProxy(
            "127.0.0.1",
            artifactd.port,
            latency_rate=1.0,
            latency_s=0.05,
        ) as proxy:
            backend = proxied_backend(
                artifactd, proxy, timeout_ms=2_000.0
            )
            assert backend.put(KEY, b"payload").persisted
            assert backend.get(KEY).payload == b"payload"
            assert proxy.counters["latency"] >= 2

    def test_latency_past_deadline_is_a_timeout_miss(self, artifactd):
        with ChaosProxy(
            "127.0.0.1",
            artifactd.port,
            latency_rate=1.0,
            latency_s=0.4,
        ) as proxy:
            backend = proxied_backend(
                artifactd, proxy, io_attempts=2, timeout_ms=100.0
            )
            started = time.monotonic()
            got = backend.get(KEY)
            assert got.payload is None  # deadline, retry, give up
            assert time.monotonic() - started < 2.0


class TestChaosWithSpill:
    def test_spill_carries_what_the_wire_drops(self, artifactd, tmp_path):
        with ChaosProxy(
            "127.0.0.1", artifactd.port, reset_rate=1.0
        ) as proxy:
            backend = proxied_backend(
                artifactd,
                proxy,
                spill_dir=tmp_path / "spill",
                io_attempts=2,
                timeout_ms=500.0,
            )
            assert backend.put(KEY, b"payload").persisted
            assert backend.get(KEY).payload == b"payload"
            stats = backend.stats()
            assert stats["spill_puts"] == 1
            assert stats["spill_hits"] == 1


class TestColdWarmParityUnderChaos:
    @pytest.mark.parametrize(
        "chaos",
        [
            {"reset_rate": 0.25},
            {"truncate_rate": 0.25},
            {"corrupt_rate": 0.25, "corrupt_requests": True},
            {"latency_rate": 0.5, "latency_s": 0.02},
            {
                "reset_rate": 0.1,
                "truncate_rate": 0.1,
                "corrupt_rate": 0.1,
                "latency_rate": 0.1,
                "latency_s": 0.02,
                "corrupt_requests": True,
            },
        ],
        ids=["reset", "truncate", "corrupt", "latency", "mixed"],
    )
    def test_verdicts_identical_to_a_clean_wire(
        self, artifactd, tmp_path, chaos, small_chain
    ):
        """Cold-vs-warm sessions through heavy chaos equal clean runs.

        The artifact tier is never load-bearing: whatever the wire
        does, a failed fetch is a rebuild and a failed persist is a
        local (or memory) copy, so the *verdicts* cannot move.
        """
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
                session.update("Γ_ABD", state, target)
                for target in targets
            ]
            return [(o.accepted, o.reason, o.base_after) for o in outcomes]

        with use_kernel("bulk"):
            clean = run_session(
                LocalDirBackend(str(tmp_path / "reference"))
            )
            with ChaosProxy(
                "127.0.0.1", artifactd.port, seed=7, **chaos
            ) as proxy:
                factory = lambda: make_remote(  # noqa: E731
                    proxy.url,
                    spill_dir=tmp_path / "spill",
                    io_attempts=3,
                    timeout_ms=500.0,
                    threshold=50,  # chaos must not latch the breaker
                )
                cold = run_session(factory())
                warm = run_session(factory())
                assert proxy.counters["connections"] > 0
            assert cold == clean
            assert warm == clean


class TestStoreUnderChaosNeverRaises:
    def test_every_op_survives_a_hostile_wire(self, artifactd):
        """Zero untyped errors across a burst of mixed-fate round trips."""
        with ChaosProxy(
            "127.0.0.1",
            artifactd.port,
            seed=23,
            reset_rate=0.2,
            truncate_rate=0.2,
            corrupt_rate=0.2,
            latency_rate=0.1,
            latency_s=0.01,
            corrupt_requests=True,
        ) as proxy:
            backend = make_remote(
                proxy.url, io_attempts=4, timeout_ms=500.0, threshold=100
            )
            backend.open()
            store = ArtifactStore(backend=backend)
            for round_index in range(12):
                key = ArtifactKey(
                    "space", f"fingerprint{round_index:02d}", "bitset"
                )
                value = store.get_or_build(
                    key,
                    lambda i=round_index: {"round": i},
                    persist=True,
                )
                assert value == {"round": round_index}
            faults_fired = sum(
                proxy.counters[fate]
                for fate in ("reset", "truncate", "corrupt", "latency")
            )
            assert faults_fired > 0  # the wire really was hostile


class TestSocketLifecycle:
    """Leak regressions: every path out of the proxy closes its sockets."""

    def test_failed_bind_does_not_leak_the_listener(self, monkeypatch):
        import socket as socket_module

        blocker = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]
        made = []
        real_socket = socket_module.socket

        class TrackingSocket(real_socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket_module, "socket", TrackingSocket)
        try:
            proxy = ChaosProxy("127.0.0.1", 1, port=taken_port)
            with pytest.raises(OSError):
                proxy.start()
        finally:
            monkeypatch.undo()
            blocker.close()
        assert made, "start() never made a socket"
        assert all(sock.fileno() == -1 for sock in made)  # all closed

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_midstream_crash_still_closes_both_ends(
        self, artifactd, monkeypatch
    ):
        import socket as socket_module

        with ChaosProxy("127.0.0.1", artifactd.port) as proxy:
            closed = []
            original_close = proxy._close

            def tracking_close(sock):
                closed.append(sock)
                original_close(sock)

            def exploding_pump(*args, **kwargs):
                raise RuntimeError("injected mid-proxy crash")

            monkeypatch.setattr(proxy, "_close", tracking_close)
            monkeypatch.setattr(proxy, "_pump_response", exploding_pump)
            with socket_module.create_connection(
                ("127.0.0.1", proxy.port), timeout=5
            ) as client:
                client.settimeout(5)
                client.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                # The serving thread crashes after connecting upstream;
                # its finally must close our end (recv sees EOF rather
                # than hanging until the timeout).
                assert client.recv(1024) == b""
            # EOF arrives as soon as the client end is closed, which
            # can be before the same finally closes the upstream end.
            deadline = time.monotonic() + 5.0
            while len(closed) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(closed) >= 2  # client and upstream both closed
