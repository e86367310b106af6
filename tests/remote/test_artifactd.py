"""Endpoint and lease-table contracts of :mod:`repro.artifactd`.

Everything here speaks raw HTTP (``http.client``) against a live
server: the wire format in the module docs is the contract other
clients -- including non-Python ones -- would build against, so the
tests pin status codes, bodies, and framing, not Python call
signatures.
"""

import http.client
import json
import time

import pytest

from repro.artifactd import ArtifactServer, LeaseTable
from repro.artifactd.__main__ import main
from repro.artifactd.server import _MAX_ENVELOPE_BYTES
from repro.engine.backends.envelope import wrap_payload

KEY_PATH = "/artifact/space/fingerprint01/bitset"
LEASE_PATH = "/lease/space/fingerprint01/bitset"


def _request(server, method, path, body=None):
    """One raw exchange: ``(status, decoded-or-bytes)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/octet-stream"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type") == "application/json":
            return response.status, json.loads(raw)
        return response.status, raw
    finally:
        conn.close()


class TestArtifactEndpoints:
    def test_round_trip(self, artifactd):
        blob = wrap_payload(b"payload bytes")
        status, _ = _request(artifactd, "PUT", KEY_PATH, blob)
        assert status == 204
        status, fetched = _request(artifactd, "GET", KEY_PATH)
        assert status == 200
        assert fetched == blob

    def test_missing_artifact_is_404(self, artifactd):
        status, body = _request(artifactd, "GET", KEY_PATH)
        assert status == 404
        assert body["error"] == "not-found"

    def test_damaged_put_is_rejected(self, artifactd):
        blob = bytearray(wrap_payload(b"payload"))
        blob[-1] ^= 0xFF
        status, body = _request(artifactd, "PUT", KEY_PATH, bytes(blob))
        assert status == 400
        assert body["error"] == "damaged-envelope"
        assert _request(artifactd, "GET", KEY_PATH)[0] == 404
        assert artifactd.stats()["counters"]["puts_rejected"] == 1

    def test_oversize_put_is_413_before_reading(self, artifactd):
        conn = http.client.HTTPConnection(
            artifactd.host, artifactd.port, timeout=10
        )
        try:
            # Declare a body over the ceiling without sending it: the
            # server must refuse on the header, not read 64 MiB first.
            conn.putrequest("PUT", KEY_PATH)
            conn.putheader("Content-Length", str(_MAX_ENVELOPE_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_malformed_path_is_400(self, artifactd):
        status, body = _request(artifactd, "GET", "/artifact/only-kind")
        assert status == 400
        assert body["error"] == "bad-request"

    def test_unknown_route_is_404(self, artifactd):
        assert _request(artifactd, "GET", "/nope")[0] == 404
        assert _request(artifactd, "POST", "/nope")[0] == 404

    def test_delete_then_miss(self, artifactd):
        _request(artifactd, "PUT", KEY_PATH, wrap_payload(b"payload"))
        status, _ = _request(artifactd, "DELETE", KEY_PATH)
        assert status == 204
        assert _request(artifactd, "GET", KEY_PATH)[0] == 404

    def test_last_writer_wins(self, artifactd):
        _request(artifactd, "PUT", KEY_PATH, wrap_payload(b"first"))
        second = wrap_payload(b"second")
        _request(artifactd, "PUT", KEY_PATH, second)
        assert _request(artifactd, "GET", KEY_PATH)[1] == second

    def test_healthz_and_stats(self, artifactd):
        _request(artifactd, "PUT", KEY_PATH, wrap_payload(b"payload"))
        status, health = _request(artifactd, "GET", "/healthz")
        assert status == 200
        assert health["ok"] is True
        assert health["artifacts"] == 1
        status, stats = _request(artifactd, "GET", "/stats")
        assert status == 200
        assert stats["artifacts"] == 1
        assert stats["counters"]["puts"] == 1


class TestLeaseEndpoints:
    def _acquire(self, server, holder, ttl_ms=30_000.0):
        return _request(
            server,
            "POST",
            LEASE_PATH,
            json.dumps({"holder": holder, "ttl_ms": ttl_ms}).encode(),
        )

    def test_grant_conflict_release(self, artifactd):
        status, verdict = self._acquire(artifactd, "alice")
        assert status == 200
        assert verdict["granted"] is True
        assert verdict["took_over"] is False
        status, verdict = self._acquire(artifactd, "bob")
        assert status == 409
        assert verdict["granted"] is False
        assert verdict["holder"] == "alice"
        assert verdict["expires_in_ms"] > 0
        _request(artifactd, "DELETE", f"{LEASE_PATH}?holder=alice")
        status, verdict = self._acquire(artifactd, "bob")
        assert status == 200

    def test_same_holder_reacquire_refreshes(self, artifactd):
        self._acquire(artifactd, "alice")
        status, verdict = self._acquire(artifactd, "alice")
        assert status == 200
        assert verdict["took_over"] is False
        assert artifactd.stats()["counters"]["lease_takeovers"] == 0

    def test_expired_lease_is_taken_over(self, artifactd):
        self._acquire(artifactd, "alice", ttl_ms=20.0)
        time.sleep(0.05)
        status, verdict = self._acquire(artifactd, "bob")
        assert status == 200
        assert verdict["took_over"] is True

    def test_stale_release_is_a_noop(self, artifactd):
        self._acquire(artifactd, "alice")
        status, _ = _request(artifactd, "DELETE", f"{LEASE_PATH}?holder=bob")
        assert status == 204  # silent: the lease is not bob's to drop
        assert self._acquire(artifactd, "carol")[0] == 409

    def test_acquire_without_holder_is_400(self, artifactd):
        status, body = _request(artifactd, "POST", LEASE_PATH, b"{}")
        assert status == 400
        assert "holder" in body["message"]

    def test_sweep_purges_expired(self, artifactd):
        self._acquire(artifactd, "alice", ttl_ms=20.0)
        time.sleep(0.05)
        status, body = _request(artifactd, "POST", "/sweep", b"")
        assert status == 200
        assert body["reclaimed"] == 1


class TestLeaseTableUnit:
    def test_grant_and_len(self):
        table = LeaseTable()
        assert table.grant(("a", "b", "c"), "alice", 1_000.0)["granted"]
        assert len(table) == 1
        assert not table.grant(("a", "b", "c"), "bob", 1_000.0)["granted"]

    def test_release_only_by_holder(self):
        table = LeaseTable()
        table.grant(("a", "b", "c"), "alice", 1_000.0)
        assert not table.release(("a", "b", "c"), "bob")
        assert table.release(("a", "b", "c"), "alice")
        assert not table.release(("a", "b", "c"), "alice")

    def test_sweep_counts_only_expired(self):
        table = LeaseTable()
        table.grant(("a", "b", "c"), "alice", 0.001)
        table.grant(("d", "e", "f"), "bob", 60_000.0)
        time.sleep(0.01)
        assert table.sweep() == 1
        assert len(table) == 1


class TestRootMirror:
    def test_envelopes_survive_a_restart(self, tmp_path):
        blob = wrap_payload(b"persistent payload")
        root = str(tmp_path / "mirror")
        with ArtifactServer(root=root) as first:
            _request(first, "PUT", KEY_PATH, blob)
        with ArtifactServer(root=root) as second:
            status, fetched = _request(second, "GET", KEY_PATH)
        assert status == 200
        assert fetched == blob

    def test_damaged_mirror_file_is_purged(self, tmp_path):
        blob = wrap_payload(b"payload")
        root = tmp_path / "mirror"
        with ArtifactServer(root=str(root)) as first:
            _request(first, "PUT", KEY_PATH, blob)
        mirror_file = next(root.iterdir())
        mirror_file.write_bytes(blob[: len(blob) // 2])  # torn write
        with ArtifactServer(root=str(root)) as second:
            status, _ = _request(second, "GET", KEY_PATH)
            purged = second.stats()["counters"]["corrupt_purged"]
        assert status == 404
        assert purged == 1
        assert not mirror_file.exists()


def test_cli_refuses_a_port_out_of_range(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--port=70000"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert (
        "argument --port: '70000': expected an integer from 0 to 65535"
    ) in err
    assert "Traceback" not in err
