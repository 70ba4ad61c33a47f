from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import networkx as nx
import pytest

from beliefhtn import (
    MODE_LEGACY,
    MODE_NEW,
    PlannerConfig,
    enumerate_traces,
    parse,
    parse_bundle,
    plan,
    simulate,
)
from beliefhtn.builtins import box_dom
from beliefhtn.communication import apply_comm_plan
from beliefhtn.errors import BadArgument, DepthExceeded, DomainSyntaxError, Unsolvable
from beliefhtn.experiment import DEFAULT_SPECS, generate_initial_states
from beliefhtn.htn import (
    OpKind,
    TaskInstance,
    TaskNetwork,
    applicable,
    ground_all_operators,
    idle_op,
    wait_op,
)
from beliefhtn.planner import (
    STALL_THRESHOLD,
    NodeKind,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    _Search,
    choices,
    moves,
    policy_comm_edges,
)
from beliefhtn.policyio import _collect, load_json, to_json, to_text

from oracles import detect_deadlock, replay_reaches_stored_beliefs, report_totals, trace_totals


# -- emulated human choices ---------------------------------------------------


def human_choices(bundle, human_belief, network):
    """The human's emulated choices: the human's moves, each action once."""
    found = moves(bundle.problem.domains, human_belief, network, bundle.problem.human)
    return tuple(dict.fromkeys(m.op for m in found))


def test_emulation_scenario_b_start(cooking):
    # Human starts; the only sensible first step is fetching the pasta.
    bundle = cooking.with_start("human")
    emulated = human_choices(bundle, bundle.problem.human_belief, bundle.problem.network)
    assert [str(op) for op in emulated] == ["move-to-pasta(Kitchen, Room)"]


def test_emulation_empty_agenda_idles(cooking):
    empty = TaskNetwork.build([])
    emulated = human_choices(cooking, cooking.problem.human_belief, empty)
    assert [op.kind for op in emulated] == [OpKind.IDLE]


def test_emulation_blocked_agenda_waits(cooking):
    # Only the pour remains but the human believes the pot is unsalted.
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("HumanHasPasta"), "true")
    )
    human = world.with_owner("human").with_value(u.attr("SaltInPot"), "false")
    agenda = TaskNetwork.build([TaskInstance("pour-pasta")])
    emulated = human_choices(cooking, human, agenda)
    assert [op.kind for op in emulated] == [OpKind.WAIT]


def test_emulation_idles_when_only_robot_work_remains(cooking):
    agenda = TaskNetwork.build([TaskInstance("add-salt")])
    emulated = human_choices(cooking, cooking.problem.human_belief, agenda)
    assert [op.kind for op in emulated] == [OpKind.IDLE]


# -- golden scenarios ---------------------------------------------------------


def test_scenario_a_modes_equivalent(cooking):
    new_pol = plan(cooking.problem, cooking.obs_model, MODE_NEW)
    leg_pol = plan(cooking.problem, cooking.obs_model, MODE_LEGACY)
    new_rep = simulate(new_pol, cooking.obs_model)
    leg_rep = simulate(leg_pol, cooking.obs_model)
    assert new_rep.outcome == "success"
    assert leg_rep.outcome == "success"
    assert not policy_comm_edges(new_pol)
    new_traces = enumerate_traces(new_pol, cooking.obs_model)
    leg_traces = enumerate_traces(leg_pol, cooking.obs_model)
    new_seqs = sorted(tuple(str(a) for a in t.actions) for t in new_traces)
    leg_seqs = sorted(tuple(str(a) for a in t.actions) for t in leg_traces)
    assert new_seqs == leg_seqs


def test_scenario_b_one_salt_tell(cooking):
    bundle = cooking.with_start("human")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    report = simulate(policy, bundle.obs_model)
    assert report.outcome == "success"
    comm_edges = policy_comm_edges(policy)
    tells = [str(ca) for _, edge in comm_edges for ca in edge.comms]
    assert tells == ["tell(SaltInPot, true)"]
    # The stove correction comes from assessment alone: the pour happens with
    # the stove believed on, yet no stove fact was ever communicated.
    (trace,) = enumerate_traces(policy, bundle.obs_model)
    actions = [str(a) for a in trace.actions]
    assert "pour-pasta" in actions
    assert all("Stove" not in c for c in [str(x) for x in trace.comms])


def test_scenario_b_stove_assessed_at_pour(cooking):
    bundle = cooking.with_start("human")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    u = bundle.universe

    # Find the node whose outgoing edge is pour-pasta and check the belief.
    def find_pour(node, seen):
        if id(node) in seen:
            return None
        seen.add(id(node))
        for edge in node.edges:
            if edge.action.name == "pour-pasta":
                return node
            found = find_pour(edge.child, seen)
            if found is not None:
                return found
        return None

    node = find_pour(policy.root, set())
    assert node is not None
    assert node.human_belief.get(u.attr("Stove")) == "on"


def test_scenario_c_assessment_replaces_communication(cooking):
    bundle = (
        cooking.with_world({"PastaLoc": "Kitchen"})
        .with_human_belief({"PastaLoc": "Room"})
        .with_start("human")
    )
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    report = simulate(policy, bundle.obs_model)
    assert report.outcome == "success"
    assert policy_comm_edges(policy) == []


def test_scenario_c_legacy_is_na(cooking):
    bundle = (
        cooking.with_world({"PastaLoc": "Kitchen"})
        .with_human_belief({"PastaLoc": "Room"})
        .with_start("human")
    )
    policy = plan(bundle.problem, bundle.obs_model, MODE_LEGACY)
    report = simulate(policy, bundle.obs_model)
    assert report.outcome == "na"


def test_salt_already_achieved_legacy_deadlocks(cooking):
    # World salt already true; the human wrongly believes it false and waits
    # for an add-salt that can never happen.
    bundle = cooking.with_world({"SaltInPot": "true"}).with_human_belief(
        {"SaltInPot": "false"}
    )
    policy = plan(bundle.problem, bundle.obs_model, MODE_LEGACY)
    report = simulate(policy, bundle.obs_model)
    assert report.outcome == "idl"
    new_policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    new_report = simulate(new_policy, bundle.obs_model)
    assert new_report.outcome == "success"
    tells = [
        str(ca) for _, e in policy_comm_edges(new_policy) for ca in e.comms
    ]
    assert "tell(SaltInPot, true)" in tells


# -- replay: the memoised aggregate against the explicit traces ---------------


STUDY_STRIDE = 17


@pytest.fixture(scope="module", params=["cooking", "box"])
def study_policies(request, cooking, box):
    """Every STUDY_STRIDE-th study state planned in both modes:
    (domain, bundle, [(mode, instance index, problem, policy), ...])."""
    domain = request.param
    bundle = cooking if domain == "cooking" else box
    instances = generate_initial_states(bundle, DEFAULT_SPECS[domain])[::STUDY_STRIDE]
    planned = []
    for mode in (MODE_LEGACY, MODE_NEW):
        for inst in instances:
            problem = replace(bundle.problem, world=inst.world, human_belief=inst.human)
            policy = plan(problem, bundle.obs_model, mode, PlannerConfig(depth_bound=128))
            planned.append((mode, inst.index, problem, policy))
    return domain, bundle, planned


def test_simulate_totals_match_enumerated_traces_on_study(study_policies):
    domain, bundle, planned = study_policies
    outcomes = set()
    n_idl = 0
    for mode, index, _, policy in planned:
        report = simulate(policy, bundle.obs_model)
        traces = enumerate_traces(policy, bundle.obs_model)
        assert report_totals(report) == trace_totals(traces), (mode, index)
        outcomes.add(report.outcome)
        for trace in traces:
            # The detector and replay agree on which traces stall.
            assert detect_deadlock(trace.actions) == (trace.outcome == "idl"), (mode, index)
            n_idl += trace.outcome == "idl"
    # The sample holds failing policies, not only successes, and the cooking
    # sample holds stalled (idl) traces.
    assert outcomes - {"success"}
    assert n_idl > 0 or domain == "box"


def test_simulate_totals_match_enumerated_traces_on_failures(cooking):
    scenario_c = (
        cooking.with_world({"PastaLoc": "Kitchen"})
        .with_human_belief({"PastaLoc": "Room"})
        .with_start("human")
    )
    salt = cooking.with_world({"SaltInPot": "true"}).with_human_belief(
        {"SaltInPot": "false"}
    )
    for bundle, expected in ((scenario_c, "na"), (salt, "idl")):
        policy = plan(bundle.problem, bundle.obs_model, MODE_LEGACY)
        report = simulate(policy, bundle.obs_model)
        assert report.outcome == expected
        assert report_totals(report) == trace_totals(
            enumerate_traces(policy, bundle.obs_model)
        )


def wait_chain(bundle, n_waits, idles=0, done=False):
    """A hand-built policy of alternating WAIT turns over the full agenda;
    the last ``idles`` turns IDLE instead, and every node records ``done``."""
    problem = bundle.problem
    world = problem.world
    human = bundle.obs_model.assess(problem.human_belief, world)
    turns = [problem.robot, problem.human] * n_waits
    node = PolicyNode(
        world=world, human_belief=human, done=done, turn=turns[n_waits], kind=NodeKind.SUCCESS
    )
    for i in reversed(range(n_waits)):
        turn = turns[i]
        op = idle_op(turn) if i >= n_waits - idles else wait_op(turn)
        edge = PolicyEdge(action=op, comms=(), child=node)
        node = PolicyNode(
            world=world, human_belief=human, done=done, turn=turn, edges=(edge,)
        )
    return PolicyTree(
        MODE_NEW, problem.robot, problem.human, world, problem.human_belief, node
    )


def test_stall_verdict_names_its_threshold(cooking):
    # Below the threshold the chain replays to its success leaf.
    short = wait_chain(cooking, STALL_THRESHOLD - 1)
    assert simulate(short, cooking.obs_model).outcome == "success"
    policy = wait_chain(cooking, 6)
    report = simulate(policy, cooking.obs_model)
    assert report.outcome == "idl"
    assert report.detail == f"{STALL_THRESHOLD} consecutive WAIT/IDLE turns"
    (trace,) = enumerate_traces(policy, cooking.obs_model)
    assert (trace.outcome, trace.detail) == ("idl", report.detail)
    assert len(trace.actions) == STALL_THRESHOLD
    assert report_totals(report) == trace_totals([trace])
    assert detect_deadlock(trace.actions)
    assert not detect_deadlock(trace.actions[:-1])


def test_stall_ending_in_an_idle_pair_is_a_deadlock(cooking):
    # WAIT, WAIT, IDLE, IDLE over the unfinished agenda: the IDLE pair
    # follows a WAIT, so it is no completed plan's closing pair.
    chain = wait_chain(cooking, STALL_THRESHOLD, idles=2)
    (trace,) = enumerate_traces(chain, cooking.obs_model)
    assert [a.kind.value for a in trace.actions] == ["wait", "wait", "idle", "idle"]
    assert trace.outcome == "idl"
    assert detect_deadlock(trace.actions)


def test_done_node_ends_no_branch_on_a_stall(cooking):
    # Once the agenda is done, WAIT/IDLE turns never count as a stall.
    chain = wait_chain(cooking, 6, done=True)
    assert simulate(chain, cooking.obs_model).outcome == "success"


def test_first_failure_follows_walk_order(cooking):
    # The human may pour (not applicable: nothing is ready) or wait into a
    # stall; the report names the first failure in walk order.
    chain = wait_chain(cooking, 6)
    root = chain.root
    human_ops = cooking.problem.domain_of("human").operators
    pour = next(
        op for op in ground_all_operators(cooking.universe, human_ops) if op.name == "pour-pasta"
    )
    success = PolicyNode(
        world=root.world, human_belief=root.human_belief, done=False, turn="robot",
        kind=NodeKind.SUCCESS,
    )
    edges = (
        PolicyEdge(action=pour, comms=(), child=success),
        PolicyEdge(action=wait_op("human"), comms=(), child=root),
    )
    human_root = PolicyNode(
        world=root.world, human_belief=root.human_belief, done=False, turn="human", edges=edges
    )
    policy = PolicyTree(
        MODE_NEW, "robot", "human", chain.init_world, chain.init_human, human_root
    )
    report = simulate(policy, cooking.obs_model)
    assert (report.n_na, report.n_idl) == (1, 1)
    assert report.outcome == "na"
    assert report.detail.startswith("pour-pasta")
    assert report_totals(report) == trace_totals(enumerate_traces(policy, cooking.obs_model))


@pytest.mark.parametrize("kind", ["deadlock", "decision"])
def test_replay_ends_a_branch_at_a_loaded_node_without_edges(cooking, kind):
    # The search enters a deadlock leaf only by the stalling turn replay
    # already ends as IDL, so only a loaded file leads replay into one, or
    # into a decision node with no edges: the branch ends there as an
    # embedded deadlock.
    policy = plan(cooking.problem, cooking.obs_model, MODE_NEW)
    obj = json.loads(to_json(policy, cooking))
    obj["nodes"][2].update(kind=kind, edges=[])
    bundle, loaded = load_json(json.dumps(obj))
    report = simulate(loaded, bundle.obs_model)
    assert (report.outcome, report.detail) == ("idl", "plan-embedded inactivity deadlock")
    assert (report.n_traces, report.n_idl) == (1, 1)
    (trace,) = enumerate_traces(loaded, bundle.obs_model)
    assert (trace.outcome, trace.detail) == ("idl", report.detail)
    assert len(trace.actions) == 2
    assert report_totals(report) == trace_totals([trace])


# -- deadlock detector --------------------------------------------------------


def test_detect_deadlock_boundary_cases():
    assert detect_deadlock(["act", "wait", "idle", "wait", "wait", "act"])
    assert not detect_deadlock(["wait", "wait", "wait", "act", "wait"])
    assert detect_deadlock(["wait"] * 4)
    assert not detect_deadlock(["wait"] * 3)
    assert not detect_deadlock([])


def test_detect_deadlock_excludes_terminal_idle_pair(cooking):
    policy = plan(cooking.problem, cooking.obs_model, MODE_NEW)
    (trace,) = enumerate_traces(policy, cooking.obs_model)
    kinds = [a.kind.value for a in trace.actions]
    assert kinds[-2:] == ["idle", "idle"]
    assert not detect_deadlock(trace.actions)


def test_detect_deadlock_mixed_wait_idle_run():
    assert detect_deadlock(["act", "wait", "idle", "wait", "idle"])


# -- policy structure invariants ----------------------------------------------


def walk_edges(policy):
    seen = set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for edge in node.edges:
            yield node, edge
            yield from visit(edge.child)

    yield from visit(policy.root)


def test_new_mode_human_actions_applicable_in_both(cooking, box):
    for bundle in (cooking, box):
        for start in ("robot", "human"):
            b = bundle.with_start(start)
            policy = plan(b.problem, b.obs_model, MODE_NEW)
            # Re-walk the policy with the true protocol and check both sides.
            from beliefhtn.engine import step_belief_protocol

            def check(node, world, human):
                for edge in node.edges:
                    h = apply_comm_plan(edge.comms, human)
                    if not edge.action.is_pseudo and node.turn == b.problem.human:
                        assert applicable(edge.action, h), edge.action
                        assert applicable(edge.action, world), edge.action
                    check(edge.child, *step_belief_protocol(
                        world, h, edge.action, node.turn, "robot", "human", b.obs_model
                    ))

            init_h = b.obs_model.assess(b.problem.human_belief, b.problem.world)
            check(policy.root, b.problem.world, init_h)


def test_comm_edges_only_on_relevant_divergence(cooking):
    # Where a tell appears, re-deriving the pre-edge belief state shows a
    # relevant divergence; where none appears, there is none.
    from beliefhtn import is_relevant_divergence
    from beliefhtn.engine import step_belief_protocol
    from beliefhtn.htn import ground_all_operators

    bundle = cooking.with_world({"SaltInPot": "true"}).with_human_belief(
        {"SaltInPot": "false"}
    )
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    ops = ground_all_operators(
        bundle.universe, bundle.problem.domain_of("human").operators
    )

    def check(node, world, human):
        if node.kind is not NodeKind.DECISION or not node.edges:
            return
        has_comms = bool(node.edges[0].comms)
        if not node.done:
            assert has_comms == is_relevant_divergence(world, human, ops)
        for edge in node.edges:
            h = apply_comm_plan(edge.comms, human)
            check(edge.child, *step_belief_protocol(
                world, h, edge.action, node.turn, "robot", "human", bundle.obs_model
            ))

    init_h = bundle.obs_model.assess(bundle.problem.human_belief, bundle.problem.world)
    check(policy.root, bundle.problem.world, init_h)


def test_each_planned_tell_writes_a_value_the_human_lacks(cooking, box):
    # Replay and the search write tells without checking them, so this pins
    # what a tell rule that raised on a held value guarded at run time: each
    # tell of a comm edge, applied in order to the node's stored human
    # belief, names an attribute whose told value that belief does not hold.
    policies = []
    for bundle, domain in ((cooking, "cooking"), (box, "box")):
        instances = generate_initial_states(bundle, DEFAULT_SPECS[domain])[::STUDY_STRIDE]
        for start in ("robot", "human"):
            started = bundle.with_start(start).problem
            for inst in instances:
                problem = replace(started, world=inst.world, human_belief=inst.human)
                policies.append(plan(problem, bundle.obs_model, MODE_NEW))
    diverged = parse_bundle(box_dom(3))
    diverged = diverged.with_human_belief({f"BallsInBox(box{i})": 1 for i in (1, 2, 3)})
    policies.append(plan(diverged.problem, diverged.obs_model, MODE_NEW))
    edges = tells = 0
    for policy in policies:
        for node, edge in policy_comm_edges(policy):
            belief = node.human_belief
            for ca in edge.comms:
                assert belief.get(ca.attr) != ca.value, str(ca)
                belief = apply_comm_plan((ca,), belief)
                tells += 1
            edges += 1
    # The box_dom(3) plan tells all three counts on one edge.
    assert [len(edge.comms) for _, edge in policy_comm_edges(policies[-1])] == [3]
    assert (edges, tells) == (17 + 18 + 24 + 24 + 1, 17 + 18 + 30 + 30 + 3)


def network_graph(network):
    graph = nx.DiGraph()
    graph.add_nodes_from((i, {"task": t}) for i, t in network.nodes)
    graph.add_edges_from(network.constraints)
    return graph


def isomorphic(a, b):
    """True iff a bijection of the nodes keeps every task and maps the
    precedence pairs of one network onto those of the other: exact, where
    ``canonical_key`` only refines labels for two rounds."""
    if a == b:
        return True
    if Counter(a.tasks) != Counter(b.tasks) or len(a.constraints) != len(b.constraints):
        return False
    return nx.is_isomorphic(
        network_graph(a), network_graph(b), node_match=lambda x, y: x["task"] == y["task"]
    )


def entered_networks(policy, problem, obs_model):
    """Walk every path of the policy, carrying the set of task networks
    consistent with it; returns each node's id -> the exact networks it is
    entered with.

    An edge's action must be one of the agent's moves (``planner.moves``)
    from some network of the set, in the belief the search used: the world
    on a robot turn, the human's belief after the edge's tells on a human
    turn.  The next set is the networks those moves leave, one per
    isomorphism class (:func:`isomorphic`), and a success leaf's set must
    hold an empty network.
    """
    entered: dict[int, set] = {}
    walked = set()

    def walk(node, networks):
        if (id(node), networks) in walked:
            return
        walked.add((id(node), networks))
        entered.setdefault(id(node), set()).update(networks)
        if node.kind is NodeKind.SUCCESS:
            assert any(w.is_empty for w in networks)
        for edge in node.edges:
            if node.turn == problem.robot:
                belief = node.world
            else:
                belief = apply_comm_plan(edge.comms, node.human_belief)
            after = []
            for w in networks:
                for move in moves(problem.domains, belief, w, node.turn):
                    if move.op == edge.action and not any(
                        isomorphic(move.network, kept) for kept in after
                    ):
                        after.append(move.network)
            assert after, (node.turn, str(edge.action))
            walk(edge.child, frozenset(after))

    walk(policy.root, frozenset({problem.network}))
    return entered


def test_every_path_is_a_sequence_of_search_moves(cooking, box):
    for bundle, start in ((cooking, "robot"), (cooking, "human"), (box, "robot")):
        b = bundle.with_start(start)
        policy = plan(b.problem, b.obs_model, MODE_NEW)
        entered_networks(policy, b.problem, b.obs_model)


def test_every_study_path_is_a_sequence_of_search_moves(study_policies):
    domain, bundle, planned = study_policies
    shared = 0
    for _, _, problem, policy in planned:
        entered = entered_networks(policy, problem, bundle.obs_model)
        shared += any(len(networks) > 1 for networks in entered.values())
    # In the cooking sample some memo-shared nodes are entered with two
    # different exact networks, so no edge may hold a path's node ids.
    assert shared > 0 or domain == "box"


def test_every_human_choice_is_an_edge_on_study(study_policies):
    # At each human (AND) node the edge actions are the human's moves from
    # every network consistent with a path to the node, in the belief after
    # the node's tells: the policy answers every emulated choice.
    domain, bundle, planned = study_policies
    checks = 0
    for mode, index, problem, policy in planned:
        entered = entered_networks(policy, problem, bundle.obs_model)
        for node in _collect(policy)[1]:
            if node.turn != problem.human or not node.edges:
                continue
            belief = apply_comm_plan(node.edges[0].comms, node.human_belief)
            actions = [edge.action for edge in node.edges]
            for network in entered[id(node)]:
                found = moves(problem.domains, belief, network, problem.human)
                assert [m.op for m in found] == actions, (mode, index, network)
                checks += 1
    assert checks > 0


def test_every_study_policy_loads_as_it_was_saved(study_policies):
    # The loader re-derives each node's tells by min_comm_bfs, and its moves
    # by the move rule, and accepts every policy the search built.
    domain, bundle, planned = study_policies
    for mode, index, _, policy in planned:
        _, loaded = load_json(to_json(policy, bundle))
        assert to_text(loaded) == to_text(policy), (mode, index)


def test_a_policy_with_a_human_edge_dropped_does_not_load(box):
    # Dropping a human edge changes no remaining node's digests, and replay
    # walks only the edges left, so only the move check tells the file from
    # a policy that answers every emulated human choice.
    policy = plan(box.problem, box.obs_model, MODE_NEW)
    assert simulate(policy, box.obs_model).n_traces == 15
    obj = json.loads(to_json(policy, box))
    node = next(n for n in obj["nodes"] if n["turn"] == "human" and len(n["edges"]) >= 2)
    node["edges"].pop()
    with pytest.raises(DomainSyntaxError, match=rf"node {node['id']}: the edges are not the"):
        load_json(json.dumps(obj))


def test_new_mode_replay_reaches_each_node_with_its_beliefs_on_study(study_policies):
    # Replay reaches every node of a new-mode policy with the world and the
    # human belief the search stored there: the solver's model of the human
    # is the one execution uses.
    domain, bundle, planned = study_policies
    checks = 0
    for mode, index, _, policy in planned:
        if mode != MODE_NEW:
            continue
        reached = replay_reaches_stored_beliefs(policy, bundle.obs_model)
        assert reached == {id(node) for node in _collect(policy)[1]}, index
        checks += len(reached)
    assert checks > 0


def test_unsolvable_raised_when_no_strategy(cooking):
    # Pasta nowhere reachable: world says Kitchen but the human must pour
    # with the stove broken off forever -> no method can ever turn it on if
    # the robot is barred from the kitchen.
    bundle = cooking.with_world({"AgtAt(robot)": "Room", "SaltInPot": "false"})
    with pytest.raises(Unsolvable):
        plan(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig(depth_bound=32))


def test_simulate_respects_overridden_initial_state(cooking):
    # A policy planned for the default start simulates to NA when the true
    # world had the pasta elsewhere all along.
    policy = plan(cooking.problem, cooking.obs_model, MODE_NEW)
    u = cooking.universe
    true_world = cooking.problem.world.with_value(u.attr("PastaLoc"), "Kitchen")
    report = simulate(policy, cooking.obs_model, true_world, cooking.problem.human_belief)
    assert report.outcome in ("na", "idl")


# -- choice enumeration -------------------------------------------------------

MINIMALITY_DOM = """\
beliefhtn-domain 1
domain minimality
group Places Here
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
operator work for bot
end
operator rest for person
end
method a-work for both
  task A
  sub w work
end
method b-empty for both
  task B
end
method b-rest for both
  task B
  sub r rest
end
root a1 A
root b B
root a2 A
rootorder b < a2
init AgtAt(bot) = Here
init AgtAt(person) = Here
start bot
"""


def test_choices_keep_only_minimal_commitments_per_action():
    # `work` is reachable through a1 alone, or through a2 after emptying the
    # B that blocks it.  Only the choice committing A's method survives.
    bundle = parse(MINIMALITY_DOM).build()
    problem = bundle.problem
    found = choices(problem.domains, problem.world, problem.network, problem.robot)
    assert [str(c.op) for c in found] == ["work"]
    (choice,) = found
    assert choice.commits == ((TaskInstance("A"), "a-work"),)
    assert sorted(t.symbol for _, t in choice.network.nodes) == ["A", "B"]


# -- the search's prunes: cycle, depth bound, known failure -------------------

PRUNE_HEAD = """\
beliefhtn-domain 1
domain {name}
group Places Here
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
"""

# The robot may tick forever; the human's `finish` needs a Done nothing sets.
LOOP_DOM = PRUNE_HEAD.format(name="loop") + """\
svar Done -> bool : inf
operator tick for bot
end
operator finish for person
  pre Done = true
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
init Done = false
start bot
"""

# The same recursion, but each tick counts up (saturating at 2) and `finish`
# needs the count at 2.
COUNT_DOM = (
    LOOP_DOM.replace("domain loop", "domain count")
    .replace("svar Done -> bool : inf", "svar Count -> int 0 2 : inf")
    .replace("operator tick for bot\nend", "operator tick for bot\n  eff Count += 1\nend")
    .replace("pre Done = true", "pre Count = 2")
    .replace("init Done = false", "init Count = 0")
)

# Two unordered robot primitives before a human `finish` that never runs.
FAILED_DOM = PRUNE_HEAD.format(name="failed") + """\
svar Done -> bool : inf
operator do-a for bot
end
operator do-b for bot
end
operator finish for person
  pre Done = true
end
method m-root for both
  task Root
  sub a do-a
  sub b do-b
  sub f finish
  order a < f
  order b < f
end
root r Root
init AgtAt(bot) = Here
init AgtAt(person) = Here
init Done = false
start bot
"""


def search_outcome(text, mode, depth_bound=64):
    """(policy or the exception the search raised, nodes expanded)."""
    bundle = parse_bundle(text)
    search = _Search(bundle.problem, bundle.obs_model, mode, PlannerConfig(depth_bound=depth_bound))
    try:
        result = search.run()
    except (Unsolvable, DepthExceeded) as exc:
        result = exc
    return result, search.nodes_expanded


@pytest.mark.parametrize("mode", [MODE_NEW, MODE_LEGACY])
def test_cycle_prune_fails_the_endless_loop(mode):
    # After tick and the human's WAIT, a second tick returns to a state on
    # the current path; depth 64 is never reached, so the failure is the
    # problem's own, not the bound's.
    result, nodes = search_outcome(LOOP_DOM, mode)
    assert isinstance(result, Unsolvable)
    assert nodes == 4


@pytest.mark.parametrize("mode", [MODE_NEW, MODE_LEGACY])
def test_depth_bound_prunes_the_loop(mode):
    result, nodes = search_outcome(LOOP_DOM, mode, depth_bound=2)
    assert isinstance(result, DepthExceeded)
    assert str(result) == "no policy within depth bound 2"
    assert nodes == 3


def test_known_failure_is_not_expanded_twice():
    # do-a then do-b and do-b then do-a reach one state; it fails once and
    # the second order finds it already failed.
    result, nodes = search_outcome(FAILED_DOM, MODE_NEW)
    assert isinstance(result, Unsolvable)
    assert nodes == 11
    # The legacy solver closes the stalled human as an embedded deadlock.
    policy, nodes = search_outcome(FAILED_DOM, MODE_LEGACY)
    assert isinstance(policy, PolicyTree)
    assert nodes == policy.nodes_expanded == 8


# The human picks `good` or `spoil`; after `spoil` the robot's `finish` can
# never run.  The robot cannot steer that choice.
CHOICE_DOM = PRUNE_HEAD.format(name="choice") + """\
svar Spoiled -> bool : inf
operator good for person
end
operator spoil for person
  eff Spoiled = true
end
operator finish for bot
  pre Spoiled = false
end
method pick-good for person
  task Pick
  sub g good
end
method pick-spoil for person
  task Pick
  sub s spoil
end
root p Pick
root f finish
rootorder p < f
init AgtAt(bot) = Here
init AgtAt(person) = Here
init Spoiled = false
start person
"""


def test_a_human_node_needs_every_move_solved():
    # The new solver fails the human (AND) node on the spoiled branch; the
    # legacy solver keeps both edges and closes that branch as a deadlock.
    result, _ = search_outcome(CHOICE_DOM, MODE_NEW)
    assert isinstance(result, Unsolvable)
    policy, _ = search_outcome(CHOICE_DOM, MODE_LEGACY)
    assert [str(edge.action) for edge in policy.root.edges] == ["good", "spoil"]
    assert simulate(policy, parse_bundle(CHOICE_DOM).obs_model).n_idl == 1


@pytest.mark.parametrize(
    "mode,digest",
    [
        (MODE_NEW, "b5173a8686b006adb5d52a61463d15216c52a36291ce3592b7afc22319b2384a"),
        (MODE_LEGACY, "7da9b1997ff973d79d844799323fb25f81806be1222d971307a3963aa385cb5a"),
    ],
)
def test_recursion_that_makes_progress_plans(mode, digest):
    policy, nodes = search_outcome(COUNT_DOM, mode)
    assert isinstance(policy, PolicyTree)
    assert nodes == policy.nodes_expanded == 5
    assert hashlib.sha256(to_text(policy).encode()).hexdigest() == digest


@pytest.mark.parametrize("bound", [0, -3, True, False, 2.0, "8"])
def test_a_depth_bound_that_is_not_a_positive_int_is_rejected(bound):
    # A bool is an int to Python, but True would search to depth 1.
    with pytest.raises(BadArgument, match="depth bound must be a positive int"):
        PlannerConfig(depth_bound=bound)


def test_the_smallest_depth_bound_is_accepted():
    assert PlannerConfig(depth_bound=1).depth_bound == 1
    assert PlannerConfig().depth_bound is None
