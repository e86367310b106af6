"""Corruption matrix for the hardened persistence backends.

Every damage mode applied to a *valid* persisted entry must read as a
silent miss -- in **every** backend: the builder runs again, the
damaged entry is removed, and the ``corrupt_entries`` counter records
the event.  No damage mode may surface an exception to the caller -- a
cache is never load-bearing.  The matrix runs against both the
pickle-directory backend (damage written to the artifact file) and the
SQLite backend (damage written to the blob column), proving the
envelope guarantees hold regardless of where the bytes live.

The envelope helpers are imported from ``repro.engine.store`` on
purpose: the deprecated re-exports must keep working for one PR while
callers migrate to :mod:`repro.engine.backends.envelope`.
"""

import sqlite3
import struct

import pytest

from repro.engine.backends import LocalDirBackend, SQLiteBackend
from repro.engine.backends.envelope import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    HEADER,
    unwrap_payload,
    wrap_payload,
)
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.resilience.faults import inject

KEY = ArtifactKey("space", "f1", "bitset")
VALUE = {"states": (1, 2, 3), "label": "artifact"}


@pytest.fixture(autouse=True)
def hermetic_faults():
    """The corruption matrix asserts exact counter values; suspend any
    ambient ``REPRO_FAULT_SEED`` plan for the duration of each test."""
    with inject(None):
        yield


class LocalHarness:
    """Damage injection against the pickle-directory backend."""

    name = "local"

    def __init__(self, tmp_path):
        self.root = tmp_path / "cache"

    def store(self) -> ArtifactStore:
        return ArtifactStore(backend=LocalDirBackend(str(self.root)))

    def read_blob(self) -> bytes:
        return (self.root / KEY.filename()).read_bytes()

    def write_blob(self, blob: bytes) -> None:
        (self.root / KEY.filename()).write_bytes(blob)


class SQLiteHarness:
    """Damage injection against the shared SQLite backend."""

    name = "sqlite"

    def __init__(self, tmp_path):
        self.url = str(tmp_path / "artifacts.db")

    def store(self) -> ArtifactStore:
        return ArtifactStore(backend=SQLiteBackend(self.url))

    def read_blob(self) -> bytes:
        with sqlite3.connect(self.url) as conn:
            row = conn.execute("SELECT blob FROM artifacts").fetchone()
        assert row is not None, "expected one persisted artifact row"
        return bytes(row[0])

    def write_blob(self, blob: bytes) -> None:
        with sqlite3.connect(self.url) as conn:
            conn.execute("UPDATE artifacts SET blob = ?", (blob,))
            conn.commit()


@pytest.fixture(params=[LocalHarness, SQLiteHarness], ids=lambda c: c.name)
def harness(request, tmp_path):
    return request.param(tmp_path)


def persist_valid_entry(harness) -> None:
    store = harness.store()
    store.get_or_build(KEY, lambda: VALUE, persist=True)


def truncate_half(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


def truncate_inside_header(blob: bytes) -> bytes:
    return blob[: HEADER.size - 3]


def flip_payload_byte(blob: bytes) -> bytes:
    mutated = bytearray(blob)
    mutated[-1] ^= 0x40
    return bytes(mutated)


def flip_header_byte(blob: bytes) -> bytes:
    mutated = bytearray(blob)
    mutated[0] ^= 0x01  # damages the magic
    return bytes(mutated)


def wrong_version(blob: bytes) -> bytes:
    magic, _version, length, digest = HEADER.unpack_from(blob)
    return (
        HEADER.pack(magic, ENVELOPE_VERSION + 1, length, digest)
        + blob[HEADER.size :]
    )


def empty_file(blob: bytes) -> bytes:
    return b""


def extra_trailing_bytes(blob: bytes) -> bytes:
    return blob + b"\x00\x00\x00\x00"


DAMAGE_MODES = [
    truncate_half,
    truncate_inside_header,
    flip_payload_byte,
    flip_header_byte,
    wrong_version,
    empty_file,
    extra_trailing_bytes,
]


@pytest.mark.parametrize("damage", DAMAGE_MODES, ids=lambda f: f.__name__)
class TestDamagedEntries:
    def test_silent_miss_and_rebuild(self, harness, damage):
        persist_valid_entry(harness)
        harness.write_blob(damage(harness.read_blob()))

        store = harness.store()
        rebuilt = store.get_or_build(KEY, lambda: "rebuilt", persist=True)
        assert rebuilt == "rebuilt"
        snapshot = store.stats()
        counters = snapshot["backend"]["kinds"]["space"]
        assert counters["corrupt_entries"] == 1
        assert counters["disk_hits"] == 0
        assert snapshot["memory"]["space"]["builds"] == 1

    def test_rebuild_replaces_damaged_entry(self, harness, damage):
        persist_valid_entry(harness)
        harness.write_blob(damage(harness.read_blob()))

        store = harness.store()
        store.get_or_build(KEY, lambda: "rebuilt", persist=True)
        # The re-persisted entry is valid again for the next process.
        fresh = harness.store()
        assert (
            fresh.get_or_build(KEY, lambda: "never", persist=True)
            == "rebuilt"
        )
        assert fresh.stats()["backend"]["kinds"]["space"]["disk_hits"] == 1

    def test_unwrap_rejects_without_raising(self, damage):
        blob = damage(wrap_payload(b"payload"))
        assert unwrap_payload(blob) is None


class TestEnvelopeFormat:
    def test_round_trip(self):
        payload = b"some pickled artifact bytes"
        assert unwrap_payload(wrap_payload(payload)) == payload

    def test_header_layout(self):
        blob = wrap_payload(b"x")
        magic, version, length, _digest = HEADER.unpack_from(blob)
        assert magic == ENVELOPE_MAGIC
        assert version == ENVELOPE_VERSION
        assert length == 1

    def test_foreign_file_is_rejected(self):
        assert unwrap_payload(b"not an artifact at all") is None

    def test_length_field_is_checked(self):
        payload = b"payload"
        blob = wrap_payload(payload)
        magic, version, _length, digest = struct.unpack_from(
            HEADER.format, blob
        )
        lying = HEADER.pack(magic, version, len(payload) + 5, digest)
        assert unwrap_payload(lying + payload) is None


class TestCrossBackendPortability:
    def test_envelopes_are_byte_identical_across_backends(self, tmp_path):
        """The same artifact persists to the same envelope bytes in a
        directory file and a SQLite blob -- artifacts are byte-portable
        between backends."""
        local = LocalHarness(tmp_path)
        shared = SQLiteHarness(tmp_path)
        # Pickle determinism holds within one process; both backends
        # receive the same payload and must frame it identically.
        persist_valid_entry(local)
        persist_valid_entry(shared)
        assert local.read_blob() == shared.read_blob()
