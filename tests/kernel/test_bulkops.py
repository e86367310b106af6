"""Unit tests for :mod:`repro.kernel.bulkops` and the up-set rule of
:meth:`FinitePoset._up_matrix`.

Every primitive is checked against an obviously-correct naive reference
on randomized inputs, and a mask-built poset's up-sets, read off its
inclusion index, against the transpose of its down-sets.
"""

import random

import pytest

from repro.algebra.poset import FinitePoset
from repro.errors import DeadlineExceededError
from repro.kernel.bulkops import (
    DEFAULT_TICK_STRIDE,
    StrideTicker,
    fiber_masks,
    pullback_monotone,
    restriction_key_mask,
    transpose_masks,
    union_selected,
)
from repro.resilience.guard import ExecutionGuard, guarded


def naive_transpose(rows, width):
    out = [0] * width
    for i, row in enumerate(rows):
        for j in range(width):
            if (row >> j) & 1:
                out[j] |= 1 << i
    return out


class TestTransposeMasks:
    @pytest.mark.parametrize(
        "n,width",
        [(0, 0), (1, 1), (3, 5), (63, 63), (64, 64), (70, 130), (200, 10)],
    )
    def test_matches_naive_reference(self, n, width):
        rng = random.Random(n * 1000 + width)
        rows = [rng.getrandbits(width) for _ in range(n)]
        assert transpose_masks(rows, width) == naive_transpose(rows, width)

    @pytest.mark.parametrize("n,width", [(10, 20), (90, 70)])
    def test_is_an_involution(self, n, width):
        rng = random.Random(42)
        rows = [rng.getrandbits(width) for _ in range(n)]
        assert transpose_masks(transpose_masks(rows, width), n) == rows


class TestFiberAndUnion:
    def test_fiber_masks_partition_the_source(self):
        fidx = [0, 2, 0, 1, 2, 2]
        fibers = fiber_masks(fidx, 3)
        assert fibers == [0b000101, 0b001000, 0b110010]
        # The fibers partition the source index set.
        assert sum(fibers) == (1 << len(fidx)) - 1

    def test_union_selected(self):
        selectors = [0b001, 0b010, 0b100]
        assert union_selected(selectors, 0b101) == 0b101
        assert union_selected(selectors, 0) == 0
        assert union_selected(selectors, 0b111) == 0b111


def naive_monotone(below_source, below_target, fidx):
    n = len(below_source)
    for y in range(n):
        for x in range(n):
            if (below_source[y] >> x) & 1:
                if not (below_target[fidx[y]] >> fidx[x]) & 1:
                    return False
    return True


def random_mask_poset(rng, n, width):
    masks = rng.sample(range(1 << width), n)
    return FinitePoset.from_masks(tuple(range(n)), masks)


class TestPullbackMonotone:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_comparable_pair_walk(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        source = random_mask_poset(rng, n, 8)
        m = rng.randint(1, 12)
        target = random_mask_poset(rng, m, 6)
        fidx = [rng.randrange(m) for _ in range(n)]
        below_s = source.leq_matrix()
        below_t = target.leq_matrix()
        assert pullback_monotone(below_s, below_t, fidx) == naive_monotone(
            below_s, below_t, fidx
        )

    def test_constant_map_is_monotone(self):
        poset = random_mask_poset(random.Random(7), 20, 8)
        below = poset.leq_matrix()
        assert pullback_monotone(below, (1,), [0] * 20)

    def test_identity_is_monotone(self):
        poset = random_mask_poset(random.Random(8), 25, 8)
        below = poset.leq_matrix()
        assert pullback_monotone(below, below, list(range(25)))


class TestRestrictionKeyMask:
    def test_selects_slots_of_the_read_set(self):
        slots = [("R", ("a",)), ("S", ("b",)), ("R", ("c",)), ("T", ("d",))]
        assert restriction_key_mask(slots, {"R"}) == 0b0101
        assert restriction_key_mask(slots, {"S", "T"}) == 0b1010
        assert restriction_key_mask(slots, set()) == 0
        assert restriction_key_mask(slots, {"R", "S", "T"}) == 0b1111


class TestTickStride:
    def test_default(self):
        guard = ExecutionGuard()
        ticker = StrideTicker(guard=guard)
        for _ in range(DEFAULT_TICK_STRIDE - 1):
            ticker.tick()
        assert guard.steps == 0
        ticker.tick()
        assert guard.steps == DEFAULT_TICK_STRIDE == 256


class TestStrideTicker:
    def test_steps_advance_by_exactly_the_iteration_count(self):
        guard = ExecutionGuard()
        ticker = StrideTicker(guard=guard, stride=16)
        for _ in range(100):
            ticker.tick()
        ticker.flush()
        assert guard.steps == 100

    def test_charges_in_stride_batches(self):
        guard = ExecutionGuard()
        ticker = StrideTicker(guard=guard, stride=10)
        for _ in range(9):
            ticker.tick()
        assert guard.steps == 0  # below one stride, nothing charged yet
        ticker.tick()
        assert guard.steps == 10
        ticker.flush()
        assert guard.steps == 10  # flush of an empty remainder is a no-op

    def test_step_budget_trips_at_the_same_total(self):
        guard = ExecutionGuard(max_steps=50)
        ticker = StrideTicker(guard=guard, stride=8)
        with pytest.raises(DeadlineExceededError):
            for _ in range(200):
                ticker.tick()
        # The trip happened at the first stride boundary past the
        # budget, not after all 200 iterations.
        assert guard.steps == 56

    def test_no_guard_is_a_cheap_no_op(self):
        ticker = StrideTicker(guard=None, stride=4)
        for _ in range(100):
            ticker.tick()
        ticker.flush()  # nothing to charge, nothing to raise


def random_mask_family(seed, max_n=300):
    """Distinct masks of 1 to *max_n* elements; even seeds include 0."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    masks = rng.sample(range(1, 1 << rng.randint(n.bit_length(), 14)), n)
    if seed % 2 == 0:
        masks[rng.randrange(n)] = 0
    return masks


class TestUpMatrix:
    @pytest.mark.parametrize("seed", range(20))
    def test_index_matches_the_transposed_down_sets(self, seed):
        masks = random_mask_family(seed)
        n = len(masks)
        poset = FinitePoset.from_masks(tuple(range(n)), masks)
        assert poset._up_matrix() == tuple(
            naive_transpose(poset.leq_matrix(), n)
        )

    def test_lone_empty_mask(self):
        poset = FinitePoset.from_masks(("only",), [0])
        assert poset._up_matrix() == (1,)
        assert poset.maximal_elements() == ("only",)

    def test_only_posets_without_an_encoding_transpose(self, monkeypatch):
        from repro.kernel import bulkops

        calls = []

        def counting(rows, width):
            calls.append(width)
            return transpose_masks(rows, width)

        monkeypatch.setattr(bulkops, "transpose_masks", counting)
        masks = random_mask_family(5, max_n=70)
        FinitePoset.from_masks(tuple(range(len(masks))), masks)._up_matrix()
        assert calls == []
        divides = FinitePoset.from_leq(range(1, 71), lambda a, b: b % a == 0)
        assert divides._up_matrix() == tuple(
            naive_transpose(divides.leq_matrix(), 70)
        )
        assert calls == [70]

    def test_step_budget_trips_and_caches_nothing(self):
        rng = random.Random(300)
        masks = rng.sample(range(1 << 12), 300)
        poset = FinitePoset.from_masks(tuple(range(300)), masks)
        with guarded(ExecutionGuard(max_steps=100)):
            with pytest.raises(DeadlineExceededError):
                poset._up_matrix()
        assert poset._up_matrix() == tuple(
            naive_transpose(poset.leq_matrix(), 300)
        )
