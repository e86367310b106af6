"""The mask-based state-space kernel (bulk).

Every analysis in the library -- enumeration of ``LDB(D, mu)``, the
⊥-poset of states, kernels, strongness, component discovery -- bottoms
out in set operations over enumerated database states.  This package
encodes each :class:`~repro.relational.instances.DatabaseInstance` as a
single Python ``int`` bitmask over a fixed tuple table, so subset
tests, unions, intersections, and symmetric differences become single
integer operations instead of relation-by-relation frozenset work; the
bulk kernel further packs whole *families* of masks into single wide
ints and derives tables with O(words) bitwise sweeps.

The kernel sits *underneath* the public frozenset-based API: callers
keep constructing and receiving :class:`DatabaseInstance` objects, and
the hot paths (``enumerate_instances``, ``StateSpace.poset``,
``analyze_view``, ``View.image_table``) transparently switch to mask
arithmetic.  Modules:

* :mod:`~repro.kernel.config` -- kernel-mode selection.  The
  ``REPRO_KERNEL`` environment variable (``bulk``, the default, or
  ``naive``) is the escape hatch back to the reference
  implementation; :func:`use_kernel` overrides it per test.
* :mod:`~repro.kernel.bitspace` -- :class:`TupleCodec`, the
  instance <-> bitmask round trip.
* :mod:`~repro.kernel.bulkops` -- word-packed bulk primitives:
  pulled-back monotonicity, fiber masks, read-set restriction keys, the
  per-bit transpose that gives posets built without an encoding their
  up-sets, and the amortized ``StrideTicker`` guard discipline.
* :mod:`~repro.kernel.enumfast` -- per-relation constraints (FDs, JDs,
  typed columns) precompiled to mask predicates for enumeration.
* :mod:`~repro.kernel.strongfast` -- the strong-view analysis computed
  on index vectors, fiber masks and word-packed pulled selectors.

An equivalence test suite (``tests/kernel/``) asserts both kernels
produce identical state spaces, kernels, endomorphism tables, and
component algebras on the paper scenarios.
"""

from repro.kernel.config import KERNEL_ENV_VAR, kernel_mode, use_kernel
from repro.kernel.bitspace import TupleCodec

__all__ = [
    "KERNEL_ENV_VAR",
    "TupleCodec",
    "kernel_mode",
    "use_kernel",
]
