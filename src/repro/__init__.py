"""repro: canonical view update support through Boolean algebras of components.

A from-scratch Python reproduction of Stephen J. Hegner, *Canonical
View Update Support through Boolean Algebras of Components* (PODS
1984).  The library implements the paper's full framework --

* a relational substrate with first-order constraints and type algebras
  including value-inapplicable nulls (:mod:`repro.relational`,
  :mod:`repro.logic`, :mod:`repro.typealgebra`);
* views, their kernels, and the partial lattice they form
  (:mod:`repro.views`);
* ⊥-posets, strong morphisms/endomorphisms, and finite Boolean algebras
  (:mod:`repro.algebra`);
* strong views, the **component algebra**, constant-complement update
  translation, and Update Procedure 3.2.3 (:mod:`repro.core`);
* null-padded chain decompositions (:mod:`repro.decomposition`);
* the bulk state-space kernel: integer-encoded instances backing the
  enumeration, poset, and component-discovery hot paths
  (:mod:`repro.kernel`, escape hatch ``REPRO_KERNEL=naive``);
* baseline strategies, workloads, and the experiment harness
  (:mod:`repro.strategies`, :mod:`repro.workloads`, :mod:`repro.harness`).

Quickstart::

    from repro import ViewUpdateSystem
    from repro.workloads import abcd_chain_small

    chain = abcd_chain_small()
    system = ViewUpdateSystem(chain.schema, chain.assignment,
                              chain.state_space())
    for view in chain.all_component_views():
        system.register_view(view)
    system.build_component_algebra([])
    # ... system.update(view_name, base_state, view_target)
"""

from repro.errors import (
    DeadlineExceededError,
    KernelFailureError,
    NotAComplementError,
    NotStrongError,
    ReproError,
    ResilienceError,
    UpdateRejected,
)
from repro.relational import (
    DatabaseInstance,
    Relation,
    RelationSchema,
    Schema,
    StateSpace,
)
from repro.typealgebra import NULL, TypeAlgebra, TypeAssignment
from repro.views import View, identity_view, zero_view
from repro.core import (
    Component,
    ComponentAlgebra,
    ComponentTranslator,
    ConstantComplementTranslator,
    UpdateProcedure,
    ViewUpdateSystem,
    analyze_view,
)
from repro.decomposition import ChainSchema
from repro.kernel import KERNEL_ENV_VAR, TupleCodec, kernel_mode, use_kernel

__version__ = "1.0.0"

__all__ = [
    "KERNEL_ENV_VAR",
    "NULL",
    "ChainSchema",
    "Component",
    "ComponentAlgebra",
    "ComponentTranslator",
    "ConstantComplementTranslator",
    "DatabaseInstance",
    "DeadlineExceededError",
    "KernelFailureError",
    "NotAComplementError",
    "NotStrongError",
    "Relation",
    "RelationSchema",
    "ReproError",
    "ResilienceError",
    "Schema",
    "StateSpace",
    "TupleCodec",
    "TypeAlgebra",
    "TypeAssignment",
    "UpdateProcedure",
    "UpdateRejected",
    "View",
    "ViewUpdateSystem",
    "analyze_view",
    "identity_view",
    "kernel_mode",
    "use_kernel",
    "zero_view",
    "__version__",
]
