"""What a pickled component algebra or update procedure carries.

A strong analysis keeps its verdicts and its ``gamma#`` /
``gamma^Theta`` tables, not ``gamma'`` as a poset morphism, so the
artifacts the store pickles hold neither the state poset nor a view's
image poset: an algebra reaches only its own component poset, and a
procedure reaches no poset at all.
"""

import io
import pickle

import pytest

from repro.algebra.morphisms import PosetMorphism
from repro.algebra.poset import FinitePoset
from repro.decomposition.projections import projection_view
from repro.engine.engine import Engine
from repro.kernel.config import use_kernel
from repro.workloads.scenarios import abcd_chain_small


class OrderRecorder(pickle.Pickler):
    """Pickles into a scratch buffer, recording every poset and poset
    morphism it meets (each object once: the memo skips repeats)."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO())
        self.posets = []
        self.morphisms = []

    def reducer_override(self, obj):
        if isinstance(obj, FinitePoset):
            self.posets.append(obj)
        elif isinstance(obj, PosetMorphism):
            self.morphisms.append(obj)
        return NotImplemented


def reached(artifact):
    recorder = OrderRecorder()
    recorder.dump(artifact)
    return recorder.posets, recorder.morphisms


@pytest.mark.parametrize("mode", ["bulk", "naive"])
def test_algebra_and_procedures_pickle_no_view_posets(mode):
    chain = abcd_chain_small()
    views = (
        chain.component_view([0]),
        chain.component_view([1, 2]),
        projection_view(chain, ("A", "B", "D")),
    )
    with use_kernel(mode):
        engine = Engine()
        space = engine.space_from(chain)
        algebra = engine.algebra(space, chain.all_component_views() + views)
        procedures = [engine.procedure(view, algebra) for view in views]

    posets, morphisms = reached(algebra)
    assert len(algebra.algebra.poset) == len(algebra) == 8
    assert [id(poset) for poset in posets] == [id(algebra.algebra.poset)]
    assert morphisms == []
    for procedure in procedures:
        assert reached(procedure) == ([], [])
