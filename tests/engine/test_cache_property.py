"""Property tests: cached artifacts are indistinguishable from cold builds.

For random small schemas, the state space served from the artifact cache
-- whether an in-memory hit or a disk round-trip through a cache
directory -- must equal the cold-built one, under both kernel modes.
"""

import shutil
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import Engine
from repro.engine.backends import LocalDirBackend
from repro.engine.store import ArtifactStore
from repro.kernel.config import use_kernel
from repro.relational.schema import RelationSchema, Schema
from repro.resilience.faults import inject
from repro.typealgebra.assignment import TypeAssignment


@pytest.fixture(autouse=True)
def hermetic_faults():
    """These properties assert exact hit/build counters; suspend any
    ambient ``REPRO_FAULT_SEED`` plan so misses are never injected."""
    with inject(None):
        yield


@contextmanager
def fresh_cache_dir():
    path = tempfile.mkdtemp(prefix="repro-cache-")
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def small_universe(size_a, size_b, use_second_relation):
    relations = [RelationSchema("R", ("A",))]
    domains = {"A": tuple(f"a{i}" for i in range(size_a))}
    if use_second_relation:
        relations.append(RelationSchema("S", ("B",)))
        domains["B"] = tuple(f"b{i}" for i in range(size_b))
    schema = Schema(name="Drand", relations=tuple(relations))
    return schema, TypeAssignment.from_names(domains)


universes = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)


@pytest.mark.parametrize("mode", ["bulk", "naive"])
@given(params=universes)
@settings(max_examples=20, deadline=None)
def test_memory_hit_equals_cold_build(mode, params):
    schema, assignment = small_universe(*params)
    with use_kernel(mode):
        engine = Engine()
        cold = engine.space(schema, assignment)
        warm = engine.space(schema, assignment)
        assert warm is cold
        assert engine.stats()["artifacts"]["memory"]["space"]["hits"] >= 1

        independent = Engine().space(schema, assignment)
        assert independent == cold
        assert independent.fingerprint() == cold.fingerprint()


@pytest.mark.parametrize("mode", ["bulk", "naive"])
@given(params=universes)
@settings(max_examples=10, deadline=None)
def test_disk_round_trip_equals_cold_build(mode, params):
    schema, assignment = small_universe(*params)
    with use_kernel(mode), fresh_cache_dir() as cache_dir:
        cold_engine = Engine(
            store=ArtifactStore(backend=LocalDirBackend(cache_dir))
        )
        cold = cold_engine.space(schema, assignment)
        assert cold_engine.stats()["artifacts"]["memory"]["space"]["builds"] == 1

        warm_engine = Engine(
            store=ArtifactStore(backend=LocalDirBackend(cache_dir))
        )
        loaded = warm_engine.space(schema, assignment)
        artifacts = warm_engine.stats()["artifacts"]
        assert artifacts["backend"]["kinds"]["space"]["disk_hits"] == 1
        assert artifacts["memory"]["space"]["builds"] == 0

        assert loaded == cold
        assert hash(loaded) == hash(cold)
        assert tuple(loaded.states) == tuple(cold.states)
