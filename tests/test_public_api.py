from __future__ import annotations

import dataclasses

import beliefhtn
from beliefhtn import engine, htn, observability, planner, state

REMOVED = {
    engine: ("AgentModel", "update_on_act", "update_on_observe"),
    observability: ("place_of", "copresent", "assess"),
    state: ("lookup",),
    htn: ("enumerate_decompositions", "is_primitive"),
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
    fields = {f.name for f in dataclasses.fields(planner.ExecutionReport)}
    assert "traces" not in fields
