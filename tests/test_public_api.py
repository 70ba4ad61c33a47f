from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefhtn
from beliefhtn import (
    builtins,
    communication,
    domfile,
    engine,
    errors,
    experiment,
    htn,
    observability,
    planner,
    policyio,
    state,
)

from oracles import detect_deadlock

REMOVED = {
    beliefhtn: ("builtin",),
    builtins: ("builtin",),
    communication: ("CommPlan", "build_comm_action", "apply_comm"),
    engine: ("AgentModel", "update_on_act", "update_on_observe", "StepResult"),
    errors: ("StaleComm",),
    observability: ("place_of", "copresent", "assess"),
    state: ("lookup", "DivergenceReport", "DivergenceEntry"),
    htn: (
        "enumerate_decompositions", "is_primitive", "Term", "Test", "Effect", "apply", "unify_task"
    ),
    domfile: ("OpEntry", "MethodEntry", "_build_effect", "SvarEntry", "PlaceEntry"),
    planner: ("_TRACE_LIMIT", "_SimStats", "detect_deadlock", "emulate_human_choices"),
    policyio: ("to_json_obj", "_KINDS"),
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
    # A network is read through its tuples; nothing in the library asks
    # for one node's task or for the available nodes on their own.
    assert not hasattr(htn.TaskNetwork, "available")
    assert not hasattr(htn.TaskNetwork, "task_of")
    assert not hasattr(htn.AgentDomain, "operator_names")
    # Helpers only tests call live with the tests' oracles.
    assert not hasattr(observability.ObservabilityModel, "place_of")
    assert not hasattr(planner.TraceResult, "primitive_length")
    fields = {f.name for f in dataclasses.fields(planner.ExecutionReport)}
    assert "traces" not in fields
    # One lifted operator form: every schema is REGULAR and names its owner.
    fields = {f.name for f in dataclasses.fields(htn.OperatorSchema)}
    assert fields.isdisjoint({"kind", "agent"})
    # One form for the observability conventions: each attribute's class
    # lives on its declaration, and tell actions are not operators.
    assert not hasattr(beliefhtn.builtin_bundle("cooking").obs_model, "classes")
    assert "COMMUNICATION" not in htn.OpKind.__members__


def test_fields_nothing_reads_are_gone():
    # A tell is an attribute and a value, a study's size follows from its
    # spec's dimensions, and the domain format has one version.
    gone = {
        communication.CommAction: {"sender", "receiver"},
        experiment.ModeMetrics: {"aligned_success", "aligned_total"},
        experiment.GeneratorSpec: {"expected_total", "expected_aligned"},
        domfile.DomainFile: {"version"},
    }
    for cls, names in gone.items():
        assert names.isdisjoint(f.name for f in dataclasses.fields(cls)), cls.__name__
    assert [f.name for f in dataclasses.fields(communication.CommAction)] == ["attr", "value"]


def test_moved_names_stay_importable():
    assert beliefhtn.ObsClass is observability.ObsClass is state.ObsClass
    assert htn.AttrRef is state.AttrRef


def test_planner_config_holds_only_the_search_limits():
    fields = {f.name for f in dataclasses.fields(planner.PlannerConfig)}
    assert fields == {"depth_bound"}


def test_stall_threshold_is_one_constant():
    # The search and every replay read planner.STALL_THRESHOLD; no caller
    # can replay a policy under another convention than it was planned with.
    for func in (planner.simulate, planner.enumerate_traces, detect_deadlock):
        assert "stall_threshold" not in inspect.signature(func).parameters, func.__name__
    assert planner.STALL_THRESHOLD == 4


def test_policy_node_records_done_instead_of_a_network():
    # A node holds its turn's tells; its kind follows from done and its edges.
    fields = [f.name for f in dataclasses.fields(planner.PolicyNode)]
    assert fields == ["world", "human_belief", "done", "turn", "comms", "edges"]
    assert isinstance(planner.PolicyNode.kind, property)


def test_policy_edge_holds_what_executes():
    # Nothing path-dependent: no node ids of the network the search took,
    # and no tells, which are the node's.
    fields = [f.name for f in dataclasses.fields(planner.PolicyEdge)]
    assert fields == ["action", "child"]
    fields = [f.name for f in dataclasses.fields(planner._Candidate)]
    assert fields == ["op", "network", "commits"]
    assert not hasattr(planner._Candidate, "signature")


def test_one_move_rule_outside_the_search():
    # The search, the policy loader and the test oracles ask planner.moves;
    # the search keeps `_choices` only as the layer the bench traces.
    assert not hasattr(planner._Search, "_moves")
    assert not hasattr(planner._Search, "_other")
    assert inspect.isfunction(planner._Search.__dict__["_choices"])
    for func in (planner.moves, planner.choices):
        assert list(inspect.signature(func).parameters) == ["domains", "belief", "network", "agent"]
        assert func.__name__ not in beliefhtn.__all__


def test_search_keeps_one_state_table(cooking):
    search = planner._Search(
        cooking.problem, cooking.obs_model, planner.MODE_NEW, planner.PlannerConfig()
    )
    assert not hasattr(search, "memo")
    assert not hasattr(search, "failed")


def test_instance_result_holds_the_report_instead_of_copies():
    fields = {f.name for f in dataclasses.fields(experiment.InstanceResult)}
    assert "report" in fields
    assert fields.isdisjoint({"n_traces", "n_success", "n_na", "n_idl", "mean_comms", "mean_len"})


def test_report_means_derive_from_its_sums():
    # The branch count is the sum of the per-outcome counts, and not stored.
    assert "n_traces" not in {f.name for f in dataclasses.fields(planner.ExecutionReport)}
    assert isinstance(planner.ExecutionReport.n_traces, property)
    report = planner.ExecutionReport("na", "", 2, 1, 1, 18, 3)
    assert report.n_traces == 4
    assert report.mean_primitive_length == 18 / 4
    assert report.mean_comm_count == 3 / 4
    empty = planner.ExecutionReport("", "", 0, 0, 0, 0, 0)
    assert (empty.mean_primitive_length, empty.mean_comm_count) == (0.0, 0.0)


def test_derived_and_unread_facts_are_not_stored():
    # The certifying depth follows from the bundle's primitive bound; an
    # agent's domain holds the ground tables the search reads, while the
    # lifted schemas stay in the domain file.
    assert isinstance(planner.SearchCache.depth, property)
    fields = [f.name for f in dataclasses.fields(htn.AgentDomain)]
    assert fields == ["ground_ops", "ground_methods", "op_names", "yields"]
    # The study is exhaustive, so it takes no seed; callers index a
    # problem's domains directly.
    assert "seed" not in {f.name for f in dataclasses.fields(experiment.ExperimentConfig)}
    assert not hasattr(htn.HtnProblem, "domain_of")


TEST_ONLY = ("hypothesis", "networkx")


def test_the_library_loads_no_test_only_package():
    # The test extra alone lists hypothesis and networkx, and importing every
    # module of the library in a fresh interpreter loads neither.
    root = Path(__file__).resolve().parents[1]
    modules = sorted(p.stem for p in (root / "src" / "beliefhtn").glob("*.py") if p.stem[0] != "_")
    code = (
        "import importlib, sys, beliefhtn\n"
        f"for name in {modules!r}: importlib.import_module('beliefhtn.' + name)\n"
        f"print(sorted(set({TEST_ONLY!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    extras = project["optional-dependencies"]
    assert {name: set(TEST_ONLY) & set(listed) for name, listed in extras.items()} == {
        "test": set(TEST_ONLY)
    }


def test_a_policy_file_always_embeds_its_domain(cooking):
    # One export function, whose bundle has no default: a file without the
    # domain text does not load.
    parameter = inspect.signature(policyio.to_json).parameters["bundle"]
    assert parameter.default is inspect.Parameter.empty
    obj = json.loads(policyio.to_json(planner.plan(cooking.problem, cooking.obs_model), cooking))
    del obj["domain_text"]
    with pytest.raises(errors.DomainSyntaxError, match="lacks the field 'domain_text'"):
        policyio.load_json(json.dumps(obj))
