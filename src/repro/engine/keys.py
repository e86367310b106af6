"""Artifact identity: the key type shared by the store and backends.

Lives in its own leaf module so that
:mod:`repro.engine.store` (the composition layer) and
:mod:`repro.engine.backends` (the persistence tier) can both import it
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ArtifactKey"]


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one cached artifact.

    ``kind`` names the derivation ("space", "analysis", ...); the
    fingerprint hashes the inputs; ``kernel`` records the active
    computation mode, since bulk- and naive-built structures may
    differ representationally even when semantically equal.
    """

    kind: str
    fingerprint: str
    kernel: str

    def filename(self) -> str:
        """The on-disk cache filename for this key."""
        return f"{self.kind}-{self.kernel}-{self.fingerprint}.pkl"

    def shard(self) -> str:
        """The fingerprint-prefix shard a fleet-shared namespace uses.

        Two hex characters give 256 shards -- enough to keep any one
        bucket small for prefix scans and future partitioning, cheap
        enough to index.  Transient fingerprints shorter than the
        prefix shard under themselves.
        """
        return self.fingerprint[:2]
