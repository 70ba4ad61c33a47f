"""Test-side oracles: rules the tests check the library against.

``detect_deadlock`` reads a finished trace on its own, with a trailing-IDLE
rule of its own, and so checks from outside that replay's stall verdicts
fall where :data:`beliefhtn.planner.STALL_THRESHOLD` puts them.
``available`` and ``task_of`` read a network's node tuples the plain way,
for the reference enumerators of the differential tests.
``trace_totals`` sums explicit traces into the totals ``report_totals``
reads off a :func:`~beliefhtn.planner.simulate` report, and
``replay_reaches_stored_beliefs`` walks a new-mode replay node by node.
"""

from __future__ import annotations

from typing import Iterable

from beliefhtn import planner
from beliefhtn.htn import GroundedOperator, TaskInstance, TaskNetwork


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
