"""The library names the benchmark under ``bench/`` reads.

``bench/worker.py`` patches the hot layers by name and reads the
``_canonical`` cache's counter; a name that is gone is recorded as missing
and its metrics come out null.  This test loads the worker and its tracer
as they are and checks every name they read, so a rename fails here first.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, builtin_bundle, planner, policyio
from beliefhtn.experiment import ExperimentConfig
from beliefhtn.planner import PlannerConfig, plan, simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    """A tracer with the worker's layers patched, unpatched after the test."""
    tracer_module = _load("tracer")
    # worker.py imports its tracer by module name and prepends the source
    # tree to sys.path; both are restored after the test.
    monkeypatch.setitem(sys.modules, "tracer", tracer_module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load("worker")
    tracer = tracer_module.Tracer()
    try:
        worker._patch_layers(tracer)
        yield tracer
    finally:
        tracer.unpatch()


def test_the_benchmark_finds_every_layer_it_patches(tracer):
    assert tracer.missing == []
    assert callable(planner._canonical.cache_info)
    bundle = builtin_bundle("cooking")
    config = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW, config)
    assert policy.nodes_expanded > 0
    assert tracer.calls("planner.choices") > 0


STEP_LAYER = {MODE_NEW: "engine.step_belief_protocol", MODE_LEGACY: "engine.legacy_step"}


def test_the_traced_run_cross_checks_hold(tracer):
    # bench/run.py marks a traced run incorrect when a plan's step calls
    # differ from nodes_expanded - 1, or a layer's measure comes out null.
    config = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)
    for domain in ("cooking", "box"):
        bundle = builtin_bundle(domain).with_start("human")
        for mode in (MODE_LEGACY, MODE_NEW):
            before = tracer.calls(STEP_LAYER[mode])
            policy = plan(bundle.problem, bundle.obs_model, mode, config)
            # Every expanded node but the root is entered by one step.
            assert tracer.calls(STEP_LAYER[mode]) - before == policy.nodes_expanded - 1
    for layer in ("communication.is_relevant_divergence", "communication.min_comm_bfs"):
        assert tracer.calls(layer) > 0
        assert isinstance(tracer.measured(layer), int)
    assert tracer.measured("communication.min_comm_bfs") > 0  # some plan tells
    assert callable(planner._canonical.cache_info)


# The layers the copy-on-change kernel and the tuple-summing replay rewrite.
# A layer inlined away would read zero calls here and null in the traced run.
KERNEL_LAYERS = (
    "observability.assess",
    "htn.apply_effects",
    "htn.applicable",
    "state.with_value",
    "engine.step_belief_protocol",
    "engine.legacy_step",
    "planner.simulate",
)


def test_the_rewritten_kernel_layers_are_all_called(tracer):
    # The worker wraps simulate itself, as here, and patches the rest.
    simulate_fn = tracer.wrap("planner.simulate", simulate, lambda r: r.n_traces)
    config = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)
    for domain in ("cooking", "box"):
        bundle = builtin_bundle(domain).with_start("human")
        for mode in (MODE_LEGACY, MODE_NEW):
            before = tracer.calls(STEP_LAYER[mode])
            policy = plan(bundle.problem, bundle.obs_model, mode, config)
            assert tracer.calls(STEP_LAYER[mode]) - before == policy.nodes_expanded - 1
            assert simulate_fn(policy, bundle.obs_model).n_traces > 0
    assert tracer.missing == []
    assert {layer: tracer.calls(layer) > 0 for layer in KERNEL_LAYERS} == dict.fromkeys(
        KERNEL_LAYERS, True
    )


# The layers of choice enumeration.  A layer routed around would read zero
# calls here and null in the traced run.
CHOICE_LAYERS = ("planner.choices", "htn.decompose", "htn.without_node")


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_the_choice_kernel_layers_are_all_called(tracer, domain):
    config = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)
    bundle = builtin_bundle(domain)
    for mode in (MODE_LEGACY, MODE_NEW):
        plan(bundle.problem, bundle.obs_model, mode, config)
    assert tracer.missing == []
    assert {layer: tracer.calls(layer) > 0 for layer in CHOICE_LAYERS} == dict.fromkeys(
        CHOICE_LAYERS, True
    )
    assert tracer.measured("planner.choices") > 0  # candidates returned


@pytest.mark.parametrize("workload", ["study-cooking", "study-box"])
def test_the_worker_sets_up_each_study(workload):
    # The worker imports the library names of its set-up in main; a name
    # that is gone fails every benchmark run there, before any layer is
    # patched.
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
         "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["setup_s"] and result["setup_s"] > 0


def test_the_names_a_pass_imports_exist():
    # study_fields and ladder_fields import these inside a pass, which
    # --setup-only never reaches.
    assert callable(planner.policy_comm_edges)
    assert callable(policyio.to_text)
