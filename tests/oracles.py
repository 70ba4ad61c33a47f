"""Test-side oracles: rules the tests check the library against.

``detect_deadlock`` reads a finished trace on its own, with a trailing-IDLE
rule of its own, and so checks from outside that replay's stall verdicts
fall where :data:`beliefhtn.planner.STALL_THRESHOLD` puts them.
``available`` and ``task_of`` read a network's node tuples the plain way,
for the reference enumerators of the differential tests.
``trace_totals`` sums explicit traces into the totals ``report_totals``
reads off a :func:`~beliefhtn.planner.simulate` report, and
``replay_reaches_stored_beliefs`` walks a new-mode replay node by node.
``_subset_minimum`` counts the fewest tells that leave no relevant
divergence by trying every subset, to check
:func:`~beliefhtn.communication.min_comm_bfs` against.
``place_of`` reads one attribute's place off a model's placement map, and
``primitive_length`` counts a trace's regular actions.
``comm_edges`` and ``preorder`` are the two recursive policy walks that
:func:`~beliefhtn.planner._policy_walk` replaced, kept to check it against.
``solvable`` is a memo-free AND/OR search over the planner's own rules, to
check :func:`~beliefhtn.planner.plan`'s table against.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from beliefhtn import planner
from beliefhtn.communication import apply_comm_plan, is_relevant_divergence
from beliefhtn.htn import GroundedOperator, OpKind, TaskInstance, TaskNetwork
from beliefhtn.state import diverging_attributes


def detect_deadlock(actions: Iterable[GroundedOperator | str]) -> bool:
    """True iff the trace stalls for :data:`STALL_THRESHOLD` or more
    consecutive WAIT/IDLE turns, the run :func:`simulate` reports as IDL.

    Accepts operators or their kind strings.  A trailing IDLE pair that
    opens the trace or follows a regular action does not count: it is the
    closing pair of a completed plan, since the agenda empties only on a
    primitive and the search closes an empty agenda at once.
    """
    kinds = [a.kind.value if isinstance(a, GroundedOperator) else str(a).lower() for a in actions]
    if kinds[-2:] == ["idle", "idle"] and kinds[-3:-2] not in (["wait"], ["idle"]):
        kinds = kinds[:-2]
    run = 0
    for k in kinds:
        run = planner._stall_run(run, k in ("wait", "idle"))
        if run >= planner.STALL_THRESHOLD:
            return True
    return False


def available(network: TaskNetwork) -> tuple[int, ...]:
    """Nodes with no pending predecessor, in id order."""
    return tuple(i for i, mask in zip(network.ids, network.preds) if not mask)


def task_of(network: TaskNetwork, node_id: int) -> TaskInstance:
    return network.tasks[network.ids.index(node_id)]


def trace_totals(traces):
    first = next((t for t in traces if t.outcome != "success"), None)
    return (
        len(traces),
        sum(t.outcome == "success" for t in traces),
        sum(t.outcome == "na" for t in traces),
        sum(t.outcome == "idl" for t in traces),
        sum(primitive_length(t) for t in traces),
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


def replay_reaches_stored_beliefs(policy: planner.PolicyTree, model) -> set[int]:
    """Walk a new-mode replay of ``policy`` edge by edge, asserting that
    every edge executes and every node is reached with the world and human
    belief the search stored there; returns the ids of the nodes reached."""
    world, human = planner._replay_start(policy, model, None, None)
    stack = [(policy.root, world, human, 0)]
    reached, expanded = set(), set()
    while stack:
        node, w, h, run = stack.pop()
        assert (w.owner, w.values) == (node.world.owner, node.world.values)
        assert (h.owner, h.values) == (node.human_belief.owner, node.human_belief.values)
        reached.add(id(node))
        if (id(node), run) in expanded:
            continue  # the beliefs are the node's own, so the run is all that varies
        expanded.add((id(node), run))
        for edge in node.edges:
            verdict, detail, nxt, new_run = planner._classify_edge(
                policy, model, node, edge, w, h, run
            )
            assert verdict == "", detail
            stack.append((edge.child, *nxt, new_run))
    return reached


def _subset_minimum(world, human, ops):
    divergent = diverging_attributes(world, human)
    if not is_relevant_divergence(world, human, ops):
        return 0
    for k in range(len(divergent) + 1):
        for combo in itertools.combinations(divergent, k):
            belief = human.with_values_at((i, world.values[i]) for i in combo)
            if not is_relevant_divergence(world, belief, ops):
                return k
    raise AssertionError("full alignment must remove relevance")


def place_of(model, attr, state):
    """The place where the attribute is currently assessable, if any."""
    index = model.universe.index_of(attr)
    placement = model.placements.get(index)
    if placement is None:
        return None
    reference, place = placement
    if reference is None:
        return place
    return model._referenced_place(index, reference, state.values)


def primitive_length(trace) -> int:
    """The number of regular (not WAIT/IDLE) actions of a trace."""
    return sum(1 for a in trace.actions if a.kind is OpKind.REGULAR)


def comm_edges(policy):
    """Every (node, edge) carrying a tell: the recursive walk, each edge
    checked before its child's subtree."""
    out = []
    _comm_edges(policy.root, set(), out)
    return out


def _comm_edges(node, seen, out):
    if id(node) in seen:
        return
    seen.add(id(node))
    for edge in node.edges:
        if edge.comms:
            out.append((node, edge))
        _comm_edges(edge.child, seen, out)


def preorder(policy):
    """(node identity -> number, nodes in order): the recursive preorder."""
    ids, order = {}, []
    _preorder(policy.root, ids, order)
    return ids, order


def _preorder(node, ids, order):
    if id(node) in ids:
        return
    ids[id(node)] = len(order)
    order.append(node)
    for edge in node.edges:
        _preorder(edge.child, ids, order)


def solvable(bundle, mode=planner.MODE_NEW) -> bool:
    """Whether the bundle's problem has a policy in ``mode``, by a plain
    AND/OR recursion with no table: the robot needs one move whose child is
    solvable, the human every move.  It asks the planner's move rule
    (:func:`~beliefhtn.planner.moves`), tell rule and step rule, stops a
    stall run at :data:`~beliefhtn.planner.STALL_THRESHOLD` (a deadlock leaf
    in legacy, a failure in the new mode), fails a state that repeats on its
    path, and prunes at the bundle's certifying depth."""
    problem, model = bundle.problem, bundle.obs_model
    bound = problem.search_cache.depth
    assert bound is not None, "the reference search needs an acyclic hierarchy"
    human_ops = tuple(problem.domain_of(problem.human).ground_ops.values())

    def solve(world, human, network, turn, depth, stall, path):
        if network.is_empty:
            return True
        if stall >= planner.STALL_THRESHOLD:
            return mode == planner.MODE_LEGACY
        if depth >= bound:
            return False
        key = (turn, world.values, human.values, network.canonical_key(), stall)
        if key in path:
            return False
        path = path | {key}
        told = apply_comm_plan(planner._tell_rule(mode, world, human, human_ops), human)
        is_human = turn == problem.human
        other = problem.robot if is_human else problem.human
        found = planner.moves(problem.domains, told if is_human else world, network, turn)
        results = (
            solve(
                *planner._step(
                    mode, model, problem.robot, problem.human, world, told, move.op, turn
                ),
                move.network, other, depth + 1,
                planner._stall_run(stall, move.op.is_pseudo), path,
            )
            for move in found
        )
        return all(results) if is_human else any(results)

    world = problem.world
    human = planner._root_human(mode, model, world, problem.human_belief)
    return solve(world, human, problem.network, problem.start_agent, 0, 0, frozenset())
