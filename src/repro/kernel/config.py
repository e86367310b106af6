"""Kernel-mode selection: ``bulk`` (default) vs ``naive``.

The bulk kernel is a pure optimisation -- both modes compute the same
state spaces, posets, tables, and algebras, and the equivalence suite
enforces that.  Two modes exist:

* ``bulk`` (the default) -- instances encoded as bitmasks
  (:mod:`repro.kernel.bitspace`) and word-packed bulk bitwise passes
  (:mod:`repro.kernel.bulkops`): whole-table sweeps of ``&``/``|``/
  ``^``/``bit_count`` over wide Python ints;
* ``naive`` -- the original tuple-by-tuple code, kept as the reference
  implementation and the engine's fallback after a bulk-kernel crash.

Selection::

    REPRO_KERNEL=naive python ...

or, programmatically and temporarily, with::

    with use_kernel("naive"):
        ...
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ReproError

KERNEL_ENV_VAR = "REPRO_KERNEL"

BULK = "bulk"
NAIVE = "naive"
_VALID_MODES = (BULK, NAIVE)

#: Process-local override installed by :func:`use_kernel`; wins over the
#: environment variable while active.
_override: Optional[str] = None


def _validated(mode: str, origin: str) -> str:
    normalized = mode.strip().lower()
    if normalized not in _VALID_MODES:
        raise ReproError(
            f"unknown kernel mode {mode!r} (from {origin}); "
            f"expected one of {_VALID_MODES}"
        )
    return normalized


def kernel_mode() -> str:
    """The active kernel mode: ``"bulk"`` or ``"naive"``.

    Resolution order: :func:`use_kernel` override, then the
    ``REPRO_KERNEL`` environment variable, then the default ``bulk``.
    """
    if _override is not None:
        return _override
    env = os.environ.get(KERNEL_ENV_VAR)
    return BULK if env is None else _validated(env, f"${KERNEL_ENV_VAR}")


def bulk_enabled() -> bool:
    """True iff the bulk kernel is active."""
    return kernel_mode() == BULK


@contextmanager
def use_kernel(mode: str) -> Iterator[str]:
    """Context manager pinning the kernel mode (reentrant)."""
    global _override
    mode = _validated(mode, "use_kernel()")
    previous = _override
    _override = mode
    try:
        yield mode
    finally:
        _override = previous
