"""S1: constructive vs enumerative translation as the universe grows.

The implementer's evaluation the paper never ran.  Three contenders for
servicing component updates on chain schemas:

* **symbolic** (:class:`ChainComponentUpdater`): Theorem 3.1.1's formula
  computed on the edge decomposition directly -- per-update cost linear
  in the instance, *no* state enumeration at all;
* **table** (:class:`ComponentTranslator`): the formula from
  precomputed ``gamma#``/``gamma^Theta`` tables -- cheap per update, but
  setup requires enumerating and analysing ``LDB``;
* **enumerative** (:class:`ConstantComplementTranslator`): the
  Bancilhon-Spyratos definition executed literally via a
  ``(view state, complement state) -> state`` index over ``LDB``.

The two setup rows run each timed round under a fresh
:class:`~repro.engine.engine.Engine`, so every round enumerates the
space and builds the views' image tables cold (a space memoizes its
tables, and the engine memoizes the space).

Expected shape: all three agree on every answer (asserted); per-update
latencies are comparable once setup is paid, but setup is Theta(|LDB|)
(or worse) for the table/enumerative translators, so only the symbolic
one survives domain growth -- the `huge` benchmark runs it on a
universe of ~7e16 states that the others cannot even enumerate.
"""

import time

import pytest

from repro.core.components import ComponentAlgebra
from repro.core.constant_complement import (
    ComponentTranslator,
    ConstantComplementTranslator,
)
from repro.decomposition.chain import ChainSchema
from repro.decomposition.updates import ChainComponentUpdater
from repro.engine.engine import Engine
from repro.kernel.config import kernel_mode
from repro.workloads.generators import random_chain_states


def note_chain(benchmark, chain):
    """Record |LDB| and the active kernel for BENCH_kernel.json."""
    benchmark.extra_info["ldb"] = chain.state_count()
    benchmark.extra_info["kernel"] = kernel_mode()


def make_chain(a, b, c, d):
    domains = {
        "A": tuple(f"a{i}" for i in range(a)),
        "B": tuple(f"b{i}" for i in range(b)),
        "C": tuple(f"c{i}" for i in range(c)),
        "D": tuple(f"d{i}" for i in range(d)),
    }
    return ChainSchema(("A", "B", "C", "D"), domains)


SIZES = {
    "8-states": (1, 1, 1, 1),
    "64-states": (2, 1, 2, 1),
    "1024-states": (2, 2, 2, 1),
}


def workload_for(chain, updater, count=50):
    states = random_chain_states(chain, count, seed=11)
    moved = random_chain_states(chain, count, seed=13)
    requests = []
    for state, donor in zip(states, moved):
        donor_edges = chain.edges_of(donor)
        masked = chain.state_from_edges(
            [
                donor_edges[i] if i in updater.edges else frozenset()
                for i in range(chain.edge_count)
            ]
        )
        target = updater.view.apply(masked, chain.assignment)
        requests.append((state, target))
    return requests


@pytest.mark.parametrize("label", list(SIZES))
def test_s1_symbolic_translation(benchmark, label):
    chain = make_chain(*SIZES[label])
    note_chain(benchmark, chain)
    updater = ChainComponentUpdater(chain, [0])
    requests = workload_for(chain, updater)

    def kernel():
        for state, target in requests:
            updater.apply(state, target)
        return len(requests)

    assert benchmark(kernel) == len(requests)


@pytest.mark.parametrize("label", list(SIZES))
def test_s1_table_translation_including_setup(benchmark, label):
    chain = make_chain(*SIZES[label])
    note_chain(benchmark, chain)
    updater = ChainComponentUpdater(chain, [0])
    requests = workload_for(chain, updater)
    phases = {}

    def kernel():
        with Engine().activate():
            t0 = time.perf_counter()
            space = chain.state_space()
            t1 = time.perf_counter()
            algebra = ComponentAlgebra.discover(
                space,
                [chain.component_view([0]), chain.component_view([1, 2])],
            )
            t2 = time.perf_counter()
            translator = ComponentTranslator.for_component(
                algebra.named(updater.view.name), space
            )
            t3 = time.perf_counter()
            for state, target in requests:
                translator.apply(state, target)
            t4 = time.perf_counter()
        for phase, spent in (
            ("space", t1 - t0),
            ("discover", t2 - t1),
            ("tables", t3 - t2),
            ("apply", t4 - t3),
        ):
            phases[phase] = min(phases.get(phase, spent), spent)
        return len(requests)

    count = benchmark.pedantic(kernel, rounds=3, iterations=1)
    benchmark.extra_info["phase_seconds"] = phases
    assert count == len(requests)


@pytest.mark.parametrize("label", list(SIZES))
def test_s1_enumerative_translation_including_setup(benchmark, label):
    chain = make_chain(*SIZES[label])
    note_chain(benchmark, chain)
    updater = ChainComponentUpdater(chain, [0])
    requests = workload_for(chain, updater)
    complement = chain.component_view([1, 2])

    def kernel():
        with Engine().activate():
            space = chain.state_space()
            translator = ConstantComplementTranslator(
                chain.component_view([0]), complement, space
            )
            for state, target in requests:
                translator.apply(state, target)
        return len(requests)

    count = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert count == len(requests)


def test_s1_agreement(small_chain, small_space, small_algebra):
    """All three translators compute the same map (spot-checked)."""
    updater = ChainComponentUpdater(small_chain, [0])
    component = small_algebra.component_of_view(updater.view)
    table = ComponentTranslator.for_component(component, small_space)
    enumerative = ConstantComplementTranslator(
        component.view, component.complement.view, small_space
    )
    targets = component.view.image_states(small_space)
    for state in small_space.states[::7]:
        for target in targets[::2]:
            expected = enumerative.apply(state, target)
            assert table.apply(state, target) == expected
            assert updater.apply(state, target) == expected


def test_s1_symbolic_on_unenumerable_universe(benchmark):
    """The crossover in the limit: |LDB| ~ 7.9e28, symbolic still fast."""
    chain = make_chain(8, 8, 8, 6)
    note_chain(benchmark, chain)
    assert chain.state_count() > 10**28
    updater = ChainComponentUpdater(chain, [0])
    requests = workload_for(chain, updater, count=20)

    def kernel():
        for state, target in requests:
            updater.apply(state, target)
        return len(requests)

    assert benchmark(kernel) == len(requests)
