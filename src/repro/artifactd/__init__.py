"""``artifactd``: the stdlib HTTP artifact server for cross-host fleets.

The :class:`~repro.engine.store.ArtifactStore` made artifact reuse
process-wide, the local-dir and SQLite backends made it machine-wide;
this package makes it *fleet*-wide.  ``python -m repro.artifactd``
serves RPRO envelopes over plain HTTP/1.1, content-addressed by the
same ``(kind, fingerprint, kernel)`` triple every other backend keys
on, plus a lease endpoint mirroring
:class:`~repro.resilience.locks.FileLease` semantics (TTL + holder
token, last-writer-wins on expiry) so a fleet of workers on different
hosts still builds each contended artifact exactly once.

The server is deliberately dumb and deliberately strict at the edges:

* it stores and serves envelope *bytes* verbatim -- no unpickling, no
  interpretation -- so a server never needs the library version its
  clients run;
* every PUT is gated on the envelope's structural checksum
  (:func:`~repro.engine.backends.envelope.validate_envelope_structure`),
  so a connection that died mid-upload cannot poison the store with a
  torn payload;
* the envelope *version* byte is deliberately **not** checked here:
  mixed-version fleets may share one server, and version skew is the
  reading client's call (a silent miss), not the server's.

The client side is :class:`~repro.engine.backends.remote.RemoteBackend`
(``REPRO_STORE_BACKEND=remote``).
"""

from __future__ import annotations

from repro.artifactd.server import ArtifactServer, LeaseTable

__all__ = ["ArtifactServer", "LeaseTable"]
