from __future__ import annotations

import dataclasses

import beliefhtn
from beliefhtn import communication, domfile, engine, htn, observability, planner, state

REMOVED = {
    communication: ("CommPlan", "build_comm_action"),
    engine: ("AgentModel", "update_on_act", "update_on_observe"),
    observability: ("place_of", "copresent", "assess"),
    state: ("lookup", "DivergenceReport", "DivergenceEntry"),
    htn: ("enumerate_decompositions", "is_primitive", "Term", "Test", "Effect"),
    domfile: ("OpEntry", "MethodEntry", "_build_effect", "SvarEntry", "PlaceEntry"),
    planner: ("_TRACE_LIMIT",),
}


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from beliefhtn import *", namespace)
    assert [name for name in beliefhtn.__all__ if name not in namespace] == []
    assert len(set(beliefhtn.__all__)) == len(beliefhtn.__all__)


def test_removed_aliases_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in beliefhtn.__all__
            assert not hasattr(beliefhtn, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(planner.PolicyNode, "agendas")
    assert not hasattr(htn.AgentDomain, "operator_names")
    fields = {f.name for f in dataclasses.fields(planner.ExecutionReport)}
    assert "traces" not in fields
    # One lifted operator form: every schema is REGULAR and names its owner.
    fields = {f.name for f in dataclasses.fields(htn.OperatorSchema)}
    assert fields.isdisjoint({"kind", "agent"})
    # One form for the observability conventions: each attribute's class
    # lives on its declaration, and tell actions are not operators.
    assert not hasattr(beliefhtn.builtin_bundle("cooking").obs_model, "classes")
    assert "COMMUNICATION" not in htn.OpKind.__members__


def test_moved_names_stay_importable():
    assert beliefhtn.ObsClass is observability.ObsClass is state.ObsClass
    assert htn.AttrRef is state.AttrRef
