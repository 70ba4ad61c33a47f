"""Test-side oracles: rules the tests check the library against.

``detect_deadlock`` reads a finished trace on its own, with a trailing-IDLE
rule of its own, and so checks from outside that replay's stall verdicts
fall where :data:`beliefhtn.planner.STALL_THRESHOLD` puts them.
``available`` and ``task_of`` read a network's node tuples the plain way,
for the reference enumerators of the differential tests.
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
