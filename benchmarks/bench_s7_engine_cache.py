"""S7: what the engine's artifact cache buys at update-servicing time.

The cold path is what every pre-engine caller paid per universe:
enumerate ``LDB``, analyse the candidate views, discover the component
algebra, compile the update procedure -- then service the request.  The
warm path services the same request through an already-compiled
session, so the only per-request work is Procedure 3.2.3's table
lookups: the session has bound its procedure, and the timed updates
are asserted to add no artifact-store lookups.  The ratio is the
engine's reason to exist; the suite asserts it is at least 5x on the
1024-state S1 chain.
"""

import time

from repro.typealgebra.algebra import NULL
from repro.decomposition.chain import ChainSchema
from repro.decomposition.projections import projection_view
from repro.engine.engine import Engine
from repro.kernel.config import kernel_mode
from repro.core.system import ViewUpdateSystem

MIN_SPEEDUP = 5.0


def make_chain():
    domains = {
        "A": ("a0", "a1"),
        "B": ("b0", "b1"),
        "C": ("c0", "c1"),
        "D": ("d0",),
    }
    return ChainSchema(("A", "B", "C", "D"), domains)


def build_system(chain, engine):
    space = engine.space_from(chain)
    system = ViewUpdateSystem(
        chain.schema, chain.assignment, space, engine=engine
    )
    system.register_view(projection_view(chain, ("A", "B", "D")))
    system.build_component_algebra(chain.all_component_views())
    return system


def procedure_hits(engine):
    return engine.stats()["artifacts"]["memory"]["procedure"]["hits"]


def request_for(chain, system):
    state = chain.state_from_edges(
        [{("a0", "b0")}, set(), {("c0", "d0")}]
    )
    view = system.view("Γ_ABD")
    view_state = view.apply(state, chain.assignment)
    target = view_state.deleting("R_ABD", ("a0", "b0", NULL))
    return state, target


def test_s7_cold_system_construction(benchmark):
    """The pre-engine unit of work: compile everything, serve one update."""
    chain = make_chain()
    benchmark.extra_info["ldb"] = chain.state_count()
    benchmark.extra_info["kernel"] = kernel_mode()
    phases = {}

    def kernel():
        t0 = time.perf_counter()
        system = build_system(chain, Engine())
        t1 = time.perf_counter()
        state, target = request_for(chain, system)
        outcome = system.update("Γ_ABD", state, target)
        t2 = time.perf_counter()
        for phase, spent in (("build", t1 - t0), ("update", t2 - t1)):
            phases[phase] = min(phases.get(phase, spent), spent)
        return outcome

    assert benchmark.pedantic(kernel, rounds=3, iterations=1) is not None
    benchmark.extra_info["phase_seconds"] = phases


def test_s7_warm_session_update(benchmark):
    """Per-request cost once the session's artifacts are compiled."""
    chain = make_chain()
    benchmark.extra_info["ldb"] = chain.state_count()
    benchmark.extra_info["kernel"] = kernel_mode()
    engine = Engine()
    system = build_system(chain, engine)
    state, target = request_for(chain, system)
    system.update("Γ_ABD", state, target)  # compile and bind the procedure
    hits = procedure_hits(engine)

    def kernel():
        return system.session.update("Γ_ABD", state, target)

    outcome = benchmark(kernel)
    assert outcome.accepted
    assert procedure_hits(engine) == hits, "a warm update hit the store"


def test_s7_warm_session_speedup():
    """Acceptance gate: warm servicing beats cold construction >= 5x."""
    chain = make_chain()

    started = time.perf_counter()
    engine = Engine()
    system = build_system(chain, engine)
    state, target = request_for(chain, system)
    first = system.session.update("Γ_ABD", state, target)
    cold_seconds = time.perf_counter() - started
    assert first.accepted
    hits = procedure_hits(engine)

    rounds = 20
    started = time.perf_counter()
    for _ in range(rounds):
        outcome = system.session.update("Γ_ABD", state, target)
    warm_seconds = (time.perf_counter() - started) / rounds
    assert outcome.accepted
    assert procedure_hits(engine) == hits, "a warm update hit the store"

    speedup = cold_seconds / warm_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"warm update servicing only {speedup:.1f}x faster than cold "
        f"construction ({warm_seconds:.6f}s vs {cold_seconds:.3f}s)"
    )
