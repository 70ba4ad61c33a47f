from __future__ import annotations

from dataclasses import replace

import pytest

from beliefhtn import (
    MODE_LEGACY,
    MODE_NEW,
    PlannerConfig,
    detect_deadlock,
    emulate_human_choices,
    enumerate_traces,
    parse,
    plan,
    simulate,
)
from beliefhtn.errors import Unsolvable
from beliefhtn.experiment import DEFAULT_SPECS, generate_initial_states
from beliefhtn.htn import (
    OpKind,
    TaskInstance,
    TaskNetwork,
    applicable,
    decompose,
    ground_all_operators,
    wait_op,
)
from beliefhtn.planner import (
    NodeKind,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    _Search,
    policy_comm_edges,
)


# -- emulated human choices ---------------------------------------------------


def test_emulation_scenario_b_start(cooking):
    # Human starts; the only sensible first step is fetching the pasta.
    bundle = cooking.with_start("human")
    choices = emulate_human_choices(
        bundle.problem,
        bundle.obs_model,
        bundle.problem.world,
        bundle.problem.human_belief,
        bundle.problem.network,
    )
    assert [str(op) for op in choices] == ["move-to-pasta(Kitchen, Room)"]


def test_emulation_empty_agenda_idles(cooking):
    empty = TaskNetwork.build([])
    choices = emulate_human_choices(
        cooking.problem,
        cooking.obs_model,
        cooking.problem.world,
        cooking.problem.human_belief,
        empty,
    )
    assert [op.kind for op in choices] == [OpKind.IDLE]


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
    choices = emulate_human_choices(
        cooking.problem, cooking.obs_model, world, human, agenda
    )
    assert [op.kind for op in choices] == [OpKind.WAIT]


def test_emulation_idles_when_only_robot_work_remains(cooking):
    agenda = TaskNetwork.build([TaskInstance("add-salt")])
    choices = emulate_human_choices(
        cooking.problem,
        cooking.obs_model,
        cooking.problem.world,
        cooking.problem.human_belief,
        agenda,
    )
    assert [op.kind for op in choices] == [OpKind.IDLE]


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


def trace_totals(traces):
    first = next((t for t in traces if t.outcome != "success"), None)
    return (
        len(traces),
        sum(t.outcome == "success" for t in traces),
        sum(t.outcome == "na" for t in traces),
        sum(t.outcome == "idl" for t in traces),
        sum(t.primitive_length for t in traces),
        sum(len(t.comms) for t in traces),
        first.outcome if first else "success",
        first.detail if first else "",
    )


def report_totals(report):
    return (
        report.n_traces,
        report.n_success,
        report.n_na,
        report.n_idl,
        round(report.mean_primitive_length * report.n_traces),
        round(report.mean_comm_count * report.n_traces),
        report.outcome,
        report.detail,
    )


STUDY_STRIDE = 17


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_simulate_totals_match_enumerated_traces_on_study(domain, cooking, box):
    bundle = cooking if domain == "cooking" else box
    instances = generate_initial_states(bundle, DEFAULT_SPECS[domain])[::STUDY_STRIDE]
    outcomes = set()
    for mode in (MODE_LEGACY, MODE_NEW):
        for inst in instances:
            problem = replace(bundle.problem, world=inst.world, human_belief=inst.human)
            policy = plan(problem, bundle.obs_model, mode, PlannerConfig(depth_bound=128))
            report = simulate(policy, bundle.obs_model)
            traces = enumerate_traces(policy, bundle.obs_model)
            assert report_totals(report) == trace_totals(traces), (mode, inst.index)
            outcomes.add(report.outcome)
    # The sample holds failing policies, not only successes.
    assert outcomes - {"success"}


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


def wait_chain(bundle, n_waits):
    """A hand-built policy of alternating WAIT turns over the full agenda."""
    problem = bundle.problem
    world = problem.world
    human = bundle.obs_model.assess(problem.human_belief, world)
    turns = [problem.robot, problem.human] * n_waits
    node = PolicyNode(world, human, problem.network, turns[n_waits], NodeKind.SUCCESS)
    for turn in reversed(turns[:n_waits]):
        edge = PolicyEdge(wait_op(turn), (), (), None, node)
        node = PolicyNode(world, human, problem.network, turn, NodeKind.DECISION, (edge,))
    return PolicyTree(
        MODE_NEW, problem.robot, problem.human, world, problem.human_belief, node
    )


@pytest.mark.parametrize("threshold", [4, 2])
def test_stall_verdict_names_its_threshold(cooking, threshold):
    policy = wait_chain(cooking, 6)
    # Below the threshold the chain replays to its success leaf.
    assert simulate(policy, cooking.obs_model, stall_threshold=7).outcome == "success"
    report = simulate(policy, cooking.obs_model, stall_threshold=threshold)
    assert report.outcome == "idl"
    assert report.detail == f"{threshold} consecutive WAIT/IDLE turns"
    (trace,) = enumerate_traces(policy, cooking.obs_model, stall_threshold=threshold)
    assert (trace.outcome, trace.detail) == ("idl", report.detail)
    assert len(trace.actions) == threshold
    assert report_totals(report) == trace_totals([trace])
    assert detect_deadlock(trace.actions, threshold)
    assert not detect_deadlock(trace.actions[: threshold - 1], threshold)


def test_first_failure_follows_walk_order(cooking):
    # The human may pour (not applicable: nothing is ready) or wait into a
    # stall; the report names the first failure in walk order.
    chain = wait_chain(cooking, 6)
    root = chain.root
    human_ops = cooking.problem.domain_of("human").operators
    pour = next(
        op for op in ground_all_operators(cooking.universe, human_ops) if op.name == "pour-pasta"
    )
    success = PolicyNode(root.world, root.human_belief, root.network, "robot", NodeKind.SUCCESS)
    edges = (
        PolicyEdge(pour, (), (), None, success),
        PolicyEdge(wait_op("human"), (), (), None, root),
    )
    human_root = PolicyNode(root.world, root.human_belief, root.network, "human", edges=edges)
    policy = PolicyTree(
        MODE_NEW, "robot", "human", chain.init_world, chain.init_human, human_root
    )
    report = simulate(policy, cooking.obs_model)
    assert (report.n_na, report.n_idl) == (1, 1)
    assert report.outcome == "na"
    assert report.detail.startswith("pour-pasta")
    assert report_totals(report) == trace_totals(enumerate_traces(policy, cooking.obs_model))


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
            from beliefhtn.communication import apply_comm
            from beliefhtn.errors import StaleComm

            def check(node, world, human):
                for edge in node.edges:
                    w, h = world, human
                    for ca in edge.comms:
                        try:
                            h = apply_comm(ca, h)
                        except StaleComm:
                            pass
                    if not edge.action.is_pseudo and node.turn == b.problem.human:
                        assert applicable(edge.action, h), edge.action
                        assert applicable(edge.action, w), edge.action
                    res = step_belief_protocol(
                        w, h, edge.action, node.turn, b.problem.robot, b.problem.human, b.obs_model
                    )
                    check(edge.child, res.world, res.human_belief)

            init_h = b.obs_model.assess(b.problem.human_belief, b.problem.world)
            check(policy.root, b.problem.world, init_h)


def test_comm_edges_only_on_relevant_divergence(cooking):
    # Where a tell appears, re-deriving the pre-edge belief state shows a
    # relevant divergence; where none appears, there is none.
    from beliefhtn import is_relevant_divergence
    from beliefhtn.engine import step_belief_protocol
    from beliefhtn.communication import apply_comm
    from beliefhtn.errors import StaleComm
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
        if not node.network.is_empty:
            assert has_comms == is_relevant_divergence(world, human, ops)
        for edge in node.edges:
            w, h = world, human
            for ca in edge.comms:
                try:
                    h = apply_comm(ca, h)
                except StaleComm:
                    pass
            res = step_belief_protocol(
                w, h, edge.action, node.turn, "robot", "human", bundle.obs_model
            )
            check(edge.child, res.world, res.human_belief)

    init_h = bundle.obs_model.assess(bundle.problem.human_belief, bundle.problem.world)
    check(policy.root, bundle.problem.world, init_h)


def test_every_branch_is_a_valid_decomposition(cooking, box):
    # Replay oracle: re-run each branch's recorded decompositions against
    # the initial network; every executed action must be an available task
    # node at its time, and the network must end empty.
    for bundle, start in ((cooking, "robot"), (cooking, "human"), (box, "robot")):
        b = bundle.with_start(start)
        policy = plan(b.problem, b.obs_model, MODE_NEW)

        def replay(node, network):
            if node.kind is NodeKind.SUCCESS:
                assert network.is_empty
                return
            for edge in node.edges:
                w = network
                for node_id, gm in edge.decomps:
                    w = decompose(w, node_id, gm)
                if edge.node_id is not None:
                    task = w.task_of(edge.node_id)
                    assert edge.node_id in w.available()
                    assert task.symbol == edge.action.name
                    assert task.args == edge.action.args
                    w = w.without_node(edge.node_id)
                replay(edge.child, w)

        replay(policy.root, b.problem.network)


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
    search = _Search(problem, bundle.obs_model, MODE_NEW, PlannerConfig())
    choices = search._choices(problem.world, problem.network, problem.robot)
    assert [str(c.op) for c in choices] == ["work"]
    (choice,) = choices
    assert [gm.name for _, gm in choice.decomps] == ["a-work"]
    assert sorted(t.symbol for _, t in choice.network.nodes) == ["A", "B"]
