"""The bundle's shared search table and the certifying depth behind it.

A plan shares its bundle's state table only when it searches at least to
the depth from which the hierarchy bound rules out every depth and cycle
prune, which is the default depth (see ``PlannerConfig``); these tests check
the bound and the default, that a warm table plans exactly as a cold one,
that a plan cut short leaves the table clean, that shared nodes are frozen,
and that the replay walks leave no cyclic garbage behind.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
from dataclasses import replace

import pytest

from beliefhtn import (
    MODE_LEGACY,
    MODE_NEW,
    PlannerConfig,
    PolicyNode,
    builtin_bundle,
    enumerate_traces,
    parse_bundle,
    plan,
    simulate,
)
from beliefhtn import planner
from beliefhtn.builtins import box_dom
from beliefhtn.errors import DepthExceeded, UniverseMismatch
from beliefhtn.experiment import DEFAULT_SPECS, generate_initial_states, run_instance
from beliefhtn.htn import TaskInstance, TaskNetwork, analyse_hierarchy
from beliefhtn.planner import (
    RECURSIVE_DEPTH,
    STALL_THRESHOLD,
    SearchCache,
    _Search,
    policy_comm_edges,
)
from beliefhtn.policyio import load_json, to_json, to_text

STUDY = PlannerConfig()  # the experiment's depth bound: the certifying depth
MODES = (MODE_LEGACY, MODE_NEW)
STRIDE = 17

# SHA-256 over the concatenated to_text of every study instance's policy, in
# index order, one study and mode at a time through one bundle.  Recorded
# with the per-plan state table at depth 128, before the table was shared.
STUDY_DIGESTS = {
    ("cooking", MODE_LEGACY): "05ad03143bee32b7062573d31641a2592f6d0e43b6ff4e069938c9eca30d18a6",
    ("cooking", MODE_NEW): "85535da1a587bfbb642bcc7dc6c9f8c607214c1c66f532ac8218577d1ed34715",
    ("box", MODE_LEGACY): "c90a751e690cf2f14f52f790255c3a5a577c29415d65f1ac03e115cb29dd69fc",
    ("box", MODE_NEW): "d3d3cbc242cde5639b161be36600df978ceec01ee422268a60ccfa312954fce0",
}

# `Loop` decomposes into a tick and `Loop` again, or into the human's
# `finish`, which needs two ticks: a recursive hierarchy that plans.
RECURSIVE_DOM = """\
beliefhtn-domain 1
domain count
group Places Here
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
svar Count -> int 0 2 : inf
operator tick for bot
  eff Count += 1
end
operator finish for person
  pre Count = 2
end
method loop-again for both
  task Loop
  sub t tick
  sub l Loop
  order t < l
end
method loop-exit for both
  task Loop
  sub f finish
end
root r Loop
init AgtAt(bot) = Here
init AgtAt(person) = Here
init Count = 0
start bot
"""


def study_problems(bundle, domain, stride=1):
    """(instance index, problem) for every ``stride``-th study state."""
    instances = generate_initial_states(bundle, DEFAULT_SPECS[domain])[::stride]
    return [
        (inst.index, replace(bundle.problem, world=inst.world, human_belief=inst.human))
        for inst in instances
    ]


def planned(bundle, problem, mode):
    policy = plan(problem, bundle.obs_model, mode, STUDY)
    return to_text(policy), simulate(policy, bundle.obs_model), policy.nodes_expanded


# -- the static hierarchy bound and the default depth -------------------------


def bundle_of(domain):
    """A builtin by name, or ``box_dom`` with that many boxes."""
    return builtin_bundle(domain) if isinstance(domain, str) else parse_bundle(box_dom(domain))


BOUNDS = [("cooking", 6), ("box", 16)] + [(n, 4 * n + 4) for n in range(2, 8)]


@pytest.mark.parametrize(
    "domain, most", BOUNDS, ids=[d if isinstance(d, str) else f"box{d}" for d, _ in BOUNDS]
)
def test_builtin_hierarchies_are_acyclic_with_their_bound(domain, most):
    bundle = bundle_of(domain)
    problem = bundle.problem
    assert analyse_hierarchy(problem.domains.values(), problem.network) == most
    # The certifying depth is (P + 1) * STALL_THRESHOLD, and the default.
    assert problem.search_cache.depth == (most + 1) * STALL_THRESHOLD
    search = _Search(problem, bundle.obs_model, MODE_NEW, PlannerConfig())
    assert search.certified and search.depth_bound == problem.search_cache.depth


def test_certificate_needs_the_depth_bound():
    cooking, box, box7 = (bundle_of(d) for d in ("cooking", "box", 7))

    def certified(bundle, depth_bound, problem=None, obs_model=None):
        search = _Search(
            problem or bundle.problem, obs_model or bundle.obs_model, MODE_NEW,
            PlannerConfig(depth_bound),
        )
        return search.certified

    for bundle, least in ((cooking, 28), (box, 68), (box7, 132)):
        assert bundle.problem.search_cache.depth == least
        assert certified(bundle, least) and certified(bundle, 128 + least)
        assert not certified(bundle, least - 1)
    # Another bundle's observability model is not the one the table serves,
    # and another root network is not the one the depth was derived for.
    assert not certified(box, None, obs_model=cooking.obs_model)
    refill = TaskNetwork.build([TaskInstance("RefillTrip", ())], [])
    assert not certified(box, None, problem=replace(box.problem, network=refill))


def test_an_explicit_depth_bound_keeps_its_meaning():
    # Below the certifying depth a plan searches with a table of its own
    # and reports the bound it was given.
    bundle = builtin_bundle("box")
    search = _Search(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig(67))
    assert search.depth_bound == 67
    assert search.states is not bundle.problem.search_cache.tables[MODE_NEW]
    with pytest.raises(DepthExceeded, match="no policy within depth bound 3$"):
        plan(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig(3))
    assert bundle.problem.search_cache.tables == {MODE_NEW: {}, MODE_LEGACY: {}}


def test_recursive_hierarchy_plans_with_a_table_of_its_own():
    bundle = parse_bundle(RECURSIVE_DOM)
    cache = bundle.problem.search_cache
    assert analyse_hierarchy(bundle.problem.domains.values(), bundle.problem.network) is None
    assert cache.depth is None
    search = _Search(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig())
    assert not search.certified and search.depth_bound == RECURSIVE_DEPTH
    for mode in MODES:
        first = plan(bundle.problem, bundle.obs_model, mode)
        second = plan(bundle.problem, bundle.obs_model, mode)
        assert to_text(first) == to_text(second)
        assert first.nodes_expanded == second.nodes_expanded == 5
    assert cache.tables == {MODE_NEW: {}, MODE_LEGACY: {}}


def test_no_state_lies_deeper_than_the_static_bound(monkeypatch):
    depths = set()
    solve = _Search._solve

    def recording(self, world, human_belief, network, turn, depth, stall):
        depths.add(depth)
        return solve(self, world, human_belief, network, turn, depth, stall)

    monkeypatch.setattr(_Search, "_solve", recording)
    for domain, recorded in (("cooking", 10), ("box", 23)):
        bundle = builtin_bundle(domain)
        bound = bundle.problem.search_cache.depth
        depths.clear()
        for _, problem in study_problems(bundle, domain, STRIDE):
            for mode in MODES:
                # A table per plan: every state of the plan is expanded.
                plan(replace(problem, search_cache=None), bundle.obs_model, mode, STUDY)
        assert 0 < max(depths) <= recorded < bound


# -- a warm table plans exactly as a cold one ---------------------------------


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_warm_plans_equal_cold_plans(domain):
    bundle = builtin_bundle(domain)
    shared = bundle.problem.search_cache
    most = analyse_hierarchy(shared.domains.values(), shared.network)
    jobs = [(mode, p) for _, p in study_problems(bundle, domain, STRIDE) for mode in MODES]
    random.Random(1).shuffle(jobs)
    warm_nodes = cold_nodes = 0
    for mode, problem in jobs:
        text, report, nodes = planned(bundle, problem, mode)
        # The empty table a freshly built bundle starts with.
        fresh = SearchCache(shared.domains, shared.obs_model, shared.network, most)
        cold_text, cold_report, cold_n = planned(bundle, replace(problem, search_cache=fresh), mode)
        assert (text, report) == (cold_text, cold_report), mode
        assert nodes <= cold_n
        warm_nodes += nodes
        cold_nodes += cold_n
    assert warm_nodes < cold_nodes


@pytest.fixture(scope="module")
def full_studies(monkeypatch_module):
    """Every study instance planned through one bundle per domain, mode by
    mode in index order: ({(domain, mode): digest}, {state key: networks})."""
    networks: dict[tuple, set] = {}
    state_key = _Search._state_key

    def recording(self, world, hb, network, turn, stall):
        key = state_key(self, world, hb, network, turn, stall)
        networks.setdefault(key, set()).add(network)
        return key

    monkeypatch_module.setattr(_Search, "_state_key", recording)
    digests = {}
    for domain in ("cooking", "box"):
        bundle = builtin_bundle(domain)
        problems = study_problems(bundle, domain)
        for mode in MODES:
            h = hashlib.sha256()
            for _, problem in problems:
                h.update(to_text(plan(problem, bundle.obs_model, mode, STUDY)).encode())
            digests[(domain, mode)] = h.hexdigest()
    monkeypatch_module.undo()
    return digests, networks


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_full_study_policies_are_unchanged(full_studies):
    digests, _ = full_studies
    assert digests == STUDY_DIGESTS


def test_networks_sharing_a_state_key_are_isomorphic(full_studies):
    # The state key holds a 2-round Weisfeiler-Lehman label of the network,
    # which can collide (tests/test_htn.py); on the studies it must not.
    import networkx as nx

    def graph(network):
        g = nx.DiGraph()
        g.add_nodes_from((i, {"task": t}) for i, t in network.nodes)
        g.add_edges_from(network.constraints)
        return g

    def same_task(a, b):
        return a["task"] == b["task"]

    _, networks = full_studies
    shared = 0
    for nets in networks.values():
        first, *rest = [graph(n) for n in nets]
        shared += bool(rest)
        for other in rest:
            assert nx.is_isomorphic(first, other, node_match=same_task)
    assert shared > 0  # some keys are reached through distinct exact networks


# -- a plan cut short ---------------------------------------------------------


def test_plan_cut_short_leaves_no_open_state(monkeypatch):
    bundle = builtin_bundle("box")
    table = bundle.problem.search_cache.tables[MODE_NEW]
    step = planner._step
    calls = 0

    class Interrupted(Exception):
        pass

    def interrupted(*args):
        nonlocal calls
        calls += 1
        if calls == 30:  # a cold plan takes 43 steps
            raise Interrupted
        return step(*args)

    monkeypatch.setattr(planner, "_step", interrupted)
    with pytest.raises(Interrupted):
        plan(bundle.problem, bundle.obs_model, MODE_NEW, STUDY)
    # The table holds only results: each entry a solved node or a failure.
    assert table
    assert all(entry is None or isinstance(entry, PolicyNode) for entry in table.values())
    monkeypatch.undo()
    warm = planned(bundle, bundle.problem, MODE_NEW)
    fresh = builtin_bundle("box")
    cold = planned(fresh, fresh.problem, MODE_NEW)
    assert warm[:2] == cold[:2]
    assert warm[2] < cold[2] == 44


def test_node_cap_applies_only_to_uncertified_plans(monkeypatch):
    # A certified search is finite, so the cap cannot make its result
    # depend on how warm the shared table is.
    bundle = builtin_bundle("box")
    monkeypatch.setattr(planner, "MAX_NODES", 40)
    with pytest.raises(DepthExceeded, match="exceeded 40 nodes"):
        plan(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig(67))
    assert plan(bundle.problem, bundle.obs_model, MODE_NEW).nodes_expanded == 44


# -- shared nodes are frozen --------------------------------------------------


def test_shared_policy_nodes_cannot_be_changed():
    bundle = builtin_bundle("cooking")
    first = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    text = to_text(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.root.edges = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.root.edges[0].child = first.root
    second = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    assert second.root is first.root
    assert to_text(second) == text


# -- only beliefs over the bundle's universe reach its table ------------------


def test_beliefs_of_another_bundle_raise_before_the_table_is_read():
    # The foreign beliefs equal the bundle's own in value, so a table that
    # took them would hand them to the bundle's later plans, whose tells then
    # mix two universes.
    bundle, other = builtin_bundle("cooking"), builtin_bundle("cooking")
    spec = DEFAULT_SPECS["cooking"]
    for mode in MODES:
        for inst in generate_initial_states(other, spec)[::STRIDE]:
            with pytest.raises(UniverseMismatch, match="not over its universe"):
                run_instance(bundle, inst, mode)
    assert bundle.problem.search_cache.tables == {MODE_NEW: {}, MODE_LEGACY: {}}
    own = generate_initial_states(bundle, spec)
    results = [run_instance(bundle, inst, mode) for mode in MODES for inst in own]
    assert len(results) == 1024
    assert all(not r.outcome.startswith("error:") for r in results)


# -- replay walks free their memos on return ----------------------------------


def test_replay_walks_leave_no_cyclic_garbage():
    bundle = builtin_bundle("box")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    saved = to_json(policy, bundle)
    calls = {
        "simulate": lambda: simulate(policy, bundle.obs_model),
        "enumerate_traces": lambda: enumerate_traces(policy, bundle.obs_model),
        "policy_comm_edges": lambda: policy_comm_edges(policy),
        "to_text": lambda: to_text(policy),
        "load_json": lambda: load_json(saved),
    }
    gc.collect()
    gc.disable()
    try:
        found = {}
        for name, call in calls.items():
            gc.collect()
            call()
            found[name] = gc.collect()
    finally:
        gc.enable()
    assert found == dict.fromkeys(calls, 0)
