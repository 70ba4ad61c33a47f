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
``STUCK_DOM`` is a domain whose agenda never empties, so every branch
stalls: a legacy plan ends in a deadlock leaf, and a new-mode plan fails.
``EITHER_ORDER_DOM`` is a domain whose plan reaches one state with two
distinct exact networks, isomorphic ones.
``agent_schemas`` splits a bundle's lifted schemas by owner, the way a
bundle's build does, for the references of the grounded agent tables.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterable

from beliefhtn import planner
from beliefhtn.communication import apply_comm_plan, is_relevant_divergence, min_comm_bfs
from beliefhtn.htn import GroundedOperator, OpKind, TaskInstance, TaskNetwork
from beliefhtn.state import diverging_attributes


# The root task's one method has no subtasks, so no move ever empties the
# agenda: P = 0, and the certifying depth is STALL_THRESHOLD.
STUCK_DOM = """\
beliefhtn-domain 1
domain stuck
group Places P1
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
operator r0 for bot
end
operator h0 for person
end
method m0 for both
  task T0
end
root t0 T0
init AgtAt(bot) = P1
init AgtAt(person) = P1
start bot
"""


# Two unordered root tasks, X -> {h0, r0} and Y -> {h1, r1}; the robot's
# r0 and r1 wait for both of the human's counts.  The human starts with h0
# or with h1, the robot WAITs, and the human runs the other one: after h0
# then h1 the network is [r0, r1], after h1 then h0 it is [r1, r0], with the
# same beliefs on the same turn, so one state key and one policy node are
# reached with both networks.
EITHER_ORDER_DOM = """\
beliefhtn-domain 1
domain either
group Places P1
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
svar Count -> int 0 2 : obs
operator h0 for person
  eff Count += 1
end
operator h1 for person
  eff Count += 1
end
operator r0 for bot
  pre Count = 2
end
operator r1 for bot
  pre Count = 2
end
method mx for both
  task X
  sub h h0
  sub r r0
end
method my for both
  task Y
  sub h h1
  sub r r1
end
root x X
root y Y
init AgtAt(bot) = P1
init AgtAt(person) = P1
init Count = 0
start person
"""


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


def agent_schemas(bundle, agent: str) -> tuple[tuple, tuple]:
    """The lifted operators and methods of ``agent`` in the bundle's domain
    file: those it owns or ``both`` do, each operator owned by ``agent``."""
    dom = bundle.domfile
    ops = tuple(replace(op, owner=agent) for op in dom.operators if op.owner in (agent, "both"))
    return ops, tuple(m for m in dom.methods if m.owner in (agent, "both"))


def available(network: TaskNetwork) -> tuple[int, ...]:
    """Positions of the nodes with no pending predecessor, in order."""
    return tuple(k for k, mask in enumerate(network.preds) if not mask)


def task_of(network: TaskNetwork, k: int) -> TaskInstance:
    return network.tasks[k]


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
        told = apply_comm_plan(node.comms, h)
        for edge in node.edges:
            verdict, detail, nxt, new_run = planner._classify_edge(
                policy, model, node, edge, w, told, run
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
    """Every (node, edge) whose node tells: the recursive walk, each edge
    checked before its child's subtree."""
    out = []
    _comm_edges(policy.root, set(), out)
    return out


def _comm_edges(node, seen, out):
    if id(node) in seen:
        return
    seen.add(id(node))
    for edge in node.edges:
        if node.comms:
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


def solvable(bundle, mode=planner.MODE_NEW, depth=None) -> bool:
    """Whether the bundle's problem has a policy in ``mode``, by a plain
    AND/OR recursion with no table: the robot needs one move whose child is
    solvable, the human every move.  It asks the planner's move rule
    (:func:`~beliefhtn.planner.moves`) and step rule, restates its tell rule
    (``min_comm_bfs`` in the new mode, none in legacy), stops a stall run
    at :data:`~beliefhtn.planner.STALL_THRESHOLD` (a deadlock leaf in
    legacy, a failure in the new mode), fails a state that repeats on its
    path, and prunes at ``depth``, by default the bundle's certifying
    depth."""
    problem, model = bundle.problem, bundle.obs_model
    bound = problem.search_cache.depth if depth is None else depth
    assert bound is not None, "a recursive hierarchy needs an explicit depth"
    human_ops = tuple(problem.domains[problem.human].ground_ops.values())

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
        tells = min_comm_bfs(world, human, human_ops) if mode == planner.MODE_NEW else ()
        told = apply_comm_plan(tells, human)
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
