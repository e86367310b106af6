"""S9: word-packed bulk primitives vs their per-state counterparts.

Micro-benchmarks for the pieces the bulk kernel is built from:

* the **up-matrix read off the inclusion index** of a mask-built
  poset (one AND per tuple-bit of each element) against the per-bit
  walk that transposes the same poset's down-sets;
* **pulled-back monotonicity** (one mask containment per element)
  against the walk over every comparable pair;
* the **restriction-grouped image table** (one ``mapping.apply`` per
  distinct read-set restriction) against per-state application.

Each contender is asserted to agree with its reference before timing.
"""

import random

from repro.algebra.poset import FinitePoset
from repro.decomposition.chain import ChainSchema
from repro.kernel.bulkops import pullback_monotone
from repro.kernel.config import kernel_mode, use_kernel
from repro.relational.enumeration import StateSpace

N = 512


def bitwalk_transpose(rows, width):
    """The per-bit reference for a poset's up-matrix."""
    columns = [0] * width
    for i, row in enumerate(rows):
        probe = row
        while probe:
            low = probe & -probe
            probe ^= low
            columns[low.bit_length() - 1] |= 1 << i
    return columns


def up_matrix_fixture(seed=3, n=N, width=16):
    rng = random.Random(seed)
    masks = rng.sample(range(1 << width), n)
    return FinitePoset.from_masks(tuple(range(n)), masks)


def test_s9_up_matrix_from_index(benchmark):
    poset = up_matrix_fixture()
    benchmark.extra_info["kernel"] = kernel_mode()
    assert poset._up_matrix() == tuple(
        bitwalk_transpose(poset.leq_matrix(), N)
    )

    def kernel():
        poset._above = None  # drop the cached matrix: time the derivation
        return poset._up_matrix()

    benchmark(kernel)


def test_s9_bitwalk_transpose(benchmark):
    below = up_matrix_fixture().leq_matrix()
    benchmark.extra_info["kernel"] = kernel_mode()
    benchmark(lambda: bitwalk_transpose(below, N))


def monotone_pair_walk(below_source, below_target, fidx):
    """The comparable-pair reference pullback_monotone replaces."""
    n = len(below_source)
    for y in range(n):
        below_y = below_source[y]
        target_down = below_target[fidx[y]]
        probe = below_y
        while probe:
            x = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if not (target_down >> fidx[x]) & 1:
                return False
    return True


def monotone_fixture(seed=17, n=N, width=10):
    rng = random.Random(seed)
    masks = rng.sample(range(1 << width), n)
    source = FinitePoset.from_masks(tuple(range(n)), masks)
    # The chain 0 < 1 < ... < width, and the map sending each source
    # element to its popcount: mask inclusion never lowers a popcount,
    # so the map is monotone and both checks walk every element.
    chain = [(1 << k) - 1 for k in range(width + 1)]
    target = FinitePoset.from_masks(tuple(range(width + 1)), chain)
    fidx = [bin(mask).count("1") for mask in masks]
    below_s, below_t = source.leq_matrix(), target.leq_matrix()
    assert pullback_monotone(below_s, below_t, fidx)
    assert monotone_pair_walk(below_s, below_t, fidx)
    return below_s, below_t, fidx


def test_s9_pullback_monotone(benchmark):
    below_s, below_t, fidx = monotone_fixture()
    benchmark.extra_info["kernel"] = kernel_mode()
    assert benchmark(lambda: pullback_monotone(below_s, below_t, fidx))


def test_s9_monotone_pair_walk(benchmark):
    below_s, below_t, fidx = monotone_fixture()
    benchmark.extra_info["kernel"] = kernel_mode()
    assert benchmark(lambda: monotone_pair_walk(below_s, below_t, fidx))


def image_table_fixture():
    domains = {
        "A": ("a0", "a1"),
        "B": ("b0", "b1"),
        "C": ("c0", "c1"),
        "D": ("d0",),
    }
    chain = ChainSchema(("A", "B", "C", "D"), domains)
    return chain, chain.state_space()


def fresh_copy(space):
    """Untimed set-up for one round: a new space over the same states,
    with its codec and masks built.  A view's image table is memoized
    on the space, so only a new space makes the round build one."""
    fresh = StateSpace.from_states(
        space.schema, space.assignment, space.states, validate=False
    )
    fresh.masks
    return (fresh,), {}


def test_s9_bulk_image_table(benchmark):
    """Restriction-grouped image table on the 1024-state chain."""
    chain, space = image_table_fixture()
    benchmark.extra_info["ldb"] = len(space.states)
    benchmark.extra_info["kernel"] = "bulk"
    view = chain.component_view([0])

    def kernel(fresh):
        with use_kernel("bulk"):
            return len(view.image_table(fresh))

    rows = benchmark.pedantic(
        kernel, setup=lambda: fresh_copy(space), rounds=100
    )
    assert rows == len(space.states)


def test_s9_per_state_image_table(benchmark):
    """The same table computed state by state (the naive path)."""
    chain, space = image_table_fixture()
    benchmark.extra_info["ldb"] = len(space.states)
    benchmark.extra_info["kernel"] = "naive"
    view = chain.component_view([0])

    def kernel(fresh):
        with use_kernel("naive"):
            return len(view.image_table(fresh))

    rows = benchmark.pedantic(
        kernel, setup=lambda: fresh_copy(space), rounds=30
    )
    assert rows == len(space.states)


def test_s9_image_tables_agree():
    chain, space = image_table_fixture()
    with use_kernel("bulk"):
        bulk = chain.component_view([0]).image_table(space)
    with use_kernel("naive"):
        naive = chain.component_view([0]).image_table(space)
    assert bulk == naive
