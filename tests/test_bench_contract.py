"""The library names the benchmark under ``bench/`` reads.

``bench/worker.py`` patches the hot layers by name and reads the
``_canonical`` cache's counter; a name that is gone is recorded as missing
and its metrics come out null.  This test loads the worker and its tracer
as they are and checks every name they read, and that the rows a pass
writes equal the golden rows, so a rename fails here first.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, builtin_bundle, parse_bundle, planner
from beliefhtn.builtins import box_dom
from beliefhtn.experiment import DEFAULT_SPECS, ExperimentConfig, generate_initial_states
from beliefhtn.planner import PlannerConfig, plan, simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"
PASS_CONFIG = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)  # as in every pass


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def worker(monkeypatch):
    """``bench/worker.py`` as it is, loaded as a module."""
    # worker.py imports its tracer by module name and prepends the source
    # tree to sys.path; both are restored after the test.
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    return _load("worker")


@pytest.fixture
def tracer(worker):
    """A tracer with the worker's layers patched, unpatched after the test."""
    tracer = sys.modules["tracer"].Tracer()
    try:
        worker._patch_layers(tracer)
        yield tracer
    finally:
        tracer.unpatch()


def test_the_benchmark_finds_every_layer_it_patches(tracer):
    assert tracer.missing == []
    assert callable(planner._canonical.cache_info)
    bundle = builtin_bundle("cooking")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW, PASS_CONFIG)
    assert policy.nodes_expanded > 0
    assert tracer.calls("planner.choices") > 0


STEP_LAYER = {MODE_NEW: "engine.step_belief_protocol", MODE_LEGACY: "engine.legacy_step"}


def test_the_traced_run_cross_checks_hold(tracer):
    # bench/run.py marks a traced run incorrect when a plan's step calls
    # differ from nodes_expanded - 1, or a layer's measure comes out null.
    for domain in ("cooking", "box"):
        bundle = builtin_bundle(domain).with_start("human")
        for mode in (MODE_LEGACY, MODE_NEW):
            before = tracer.calls(STEP_LAYER[mode])
            policy = plan(bundle.problem, bundle.obs_model, mode, PASS_CONFIG)
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
    for domain in ("cooking", "box"):
        bundle = builtin_bundle(domain).with_start("human")
        for mode in (MODE_LEGACY, MODE_NEW):
            before = tracer.calls(STEP_LAYER[mode])
            policy = plan(bundle.problem, bundle.obs_model, mode, PASS_CONFIG)
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
    bundle = builtin_bundle(domain)
    for mode in (MODE_LEGACY, MODE_NEW):
        plan(bundle.problem, bundle.obs_model, mode, PASS_CONFIG)
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


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_a_pass_writes_the_golden_study_rows(worker, domain):
    # study_fields and ladder_fields read library names inside a pass, which
    # --setup-only never reaches (policy_comm_edges, the report's means,
    # to_text).  Instance 0 of the study, planned cold in both modes, must
    # give its golden row.
    harness = _load("harness")
    golden = harness.load_golden(f"study-{domain}")
    bundle = builtin_bundle(domain)
    inst = generate_initial_states(bundle, DEFAULT_SPECS[domain])[0]
    problem = replace(bundle.problem, world=inst.world, human_belief=inst.human)
    for mode in (MODE_LEGACY, MODE_NEW):
        policy = plan(problem, bundle.obs_model, mode, PASS_CONFIG)
        key = harness.study_key({"mode": mode, "instance": inst.index})
        assert worker.study_fields(policy, simulate(policy, bundle.obs_model)) == golden[key]


def test_a_pass_writes_the_golden_ladder_row(worker):
    # ladder_fields hashes to_text, so the policy's exact text is pinned.
    harness = _load("harness")
    bundle = parse_bundle(box_dom(boxes=2))
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW, PASS_CONFIG)
    fields = worker.ladder_fields(policy, simulate(policy, bundle.obs_model))
    assert fields == harness.load_golden("ladder-box")[harness.ladder_key({"boxes": 2})]
