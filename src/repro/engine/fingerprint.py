"""Content fingerprints: stable hashes of the engine's cache keys.

Every artifact the engine layer memoizes -- state spaces, posets,
strong analyses, component algebras, update procedures -- is keyed by
the *fingerprints* of the objects it was derived from.  A fingerprint
is the SHA-256 digest of a canonical token tree built from an object's
semantic content, so that two independently constructed but equal
schemas (or assignments, views, ...) share every derived artifact.

Objects participate in one of two regimes:

* **content-addressed** -- the fingerprint is a pure function of the
  object's declarative content (relation schemas, constraints, query
  trees, domain extensions).  Such fingerprints are stable across
  processes, which is what makes the optional persistent artifact
  cache (``REPRO_STORE_BACKEND``) sound.
* **transient** -- objects wrapping arbitrary Python callables (e.g.
  :class:`~repro.views.mappings.FunctionMapping`) cannot be content
  hashed.  They receive a unique per-process token instead: caching
  still works within the process (two *uses* of the same object hit),
  but two *constructions* never collide, and artifacts derived from
  them are never persisted to disk.

This module is a leaf: it imports only the standard library and
:mod:`repro.errors`, so every layer (relational, typealgebra, views)
can adopt the ``fingerprint()`` protocol without import cycles.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import fields, is_dataclass
from typing import Hashable, Mapping

from repro.errors import ReproError

__all__ = [
    "FingerprintError",
    "canonical_token",
    "contains_transient",
    "dataclass_token",
    "stable_fingerprint",
    "transient_token",
    "is_content_addressed",
]


class FingerprintError(ReproError):
    """An object could not be canonically tokenized."""


_TRANSIENT_COUNTER = itertools.count(1)

#: Marker prefix of per-process (non-content-addressed) tokens.
TRANSIENT_PREFIX = "transient"


def transient_token(obj: object) -> str:
    """A unique per-process identity token, memoized on the object.

    Used by objects (arbitrary function mappings) that have no stable
    content hash: equal within the process by identity, never equal
    across processes, and never eligible for the on-disk cache.
    """
    token = getattr(obj, "_transient_token", None)
    if token is None:
        token = (
            f"{TRANSIENT_PREFIX}:{type(obj).__qualname__}:"
            f"{next(_TRANSIENT_COUNTER)}"
        )
        try:
            object.__setattr__(obj, "_transient_token", token)
        except (AttributeError, TypeError):
            raise FingerprintError(
                f"cannot attach a transient token to {type(obj).__name__} "
                "(add a '_transient_token' slot or implement fingerprint())"
            ) from None
    return token


def canonical_token(obj: object) -> Hashable:
    """A deterministic, hashable token tree for *obj*.

    Resolution order: primitives pass through; objects implementing the
    ``fingerprint()`` protocol delegate to it; containers recurse with
    deterministic ordering; dataclasses tokenize their compared fields;
    anything else with a custom (address-free) ``__repr__`` falls back
    to it.  Raises :class:`FingerprintError` for opaque objects.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    fingerprint = getattr(obj, "fingerprint", None)
    if callable(fingerprint) and not isinstance(obj, type):
        return ("#", fingerprint())
    if callable(obj) and not isinstance(obj, type):
        return ("callable", transient_token(obj))
    if isinstance(obj, (tuple, list)):
        return ("seq",) + tuple(canonical_token(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(
            sorted((canonical_token(item) for item in obj), key=repr)
        )
    if isinstance(obj, Mapping):
        return ("map",) + tuple(
            sorted(
                (
                    (canonical_token(key), canonical_token(value))
                    for key, value in obj.items()
                ),
                key=repr,
            )
        )
    if is_dataclass(obj):
        return dataclass_token(obj)
    if type(obj).__repr__ is not object.__repr__:
        return (type(obj).__qualname__, repr(obj))
    raise FingerprintError(
        f"cannot build a canonical token for {type(obj).__name__!r}; "
        "implement fingerprint() on it"
    )


def dataclass_token(obj: object) -> Hashable:
    """The token of a dataclass instance from its compared fields.

    Exposed separately so that a dataclass *implementing*
    ``fingerprint()`` can build its own digest from its fields without
    :func:`canonical_token` recursing back into the method.
    """
    return (type(obj).__qualname__,) + tuple(
        (field.name, canonical_token(getattr(obj, field.name)))
        for field in fields(obj)
        if field.compare
    )


def stable_fingerprint(*parts: object) -> str:
    """The SHA-256 hex digest of the canonical tokens of *parts*."""
    payload = repr(tuple(canonical_token(part) for part in parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def contains_transient(obj: object) -> bool:
    """True iff *obj*'s canonical token embeds a per-process token.

    Used to decide disk-cache eligibility for objects (e.g. query
    mappings) whose declarative content might smuggle in a raw callable.
    """

    def walk(token: object) -> bool:
        if isinstance(token, str):
            return token.startswith(f"{TRANSIENT_PREFIX}:")
        if isinstance(token, tuple):
            return any(walk(item) for item in token)
        return False

    return walk(canonical_token(obj))


def is_content_addressed(fingerprint_source: object) -> bool:
    """True iff an object's fingerprint is stable across processes.

    Objects advertise via an ``is_content_addressed`` attribute (the
    mapping/view protocol); everything else is assumed content-addressed
    since :func:`canonical_token` only admits declarative content.
    """
    flag = getattr(fingerprint_source, "is_content_addressed", None)
    if flag is None:
        return True
    return bool(flag)
