"""Communication actions, divergence relevance, and minimal alignment search.

A communication action transmits one attribute-value pair from the robot to
the human; its preconditions require the sender to hold the value and the
receiver to disagree.  A divergence is *relevant* when it changes which
actions the human can perform, or what some performable action would do.
When relevant, a breadth-first search over single-attribute alignments finds
a minimum-cardinality sequence of communication actions after which the
remaining divergence is no longer relevant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import NoAlignment, StaleComm
from .htn import GroundedOperator, applicable, apply_effects
from .state import BeliefState, GroundedAttribute, Value, diverging_attributes


@dataclass(frozen=True)
class CommAction:
    """Robot-to-human transmission of one ground-truth attribute value."""

    sender: str
    receiver: str
    attr: GroundedAttribute
    value: Value

    def __str__(self) -> str:
        return f"tell({self.attr}, {self.value})"


def apply_comm(ca: CommAction, receiver_belief: BeliefState) -> BeliefState:
    """Receiver adopts the communicated value; nothing else changes."""
    if receiver_belief.get(ca.attr) == ca.value:
        raise StaleComm(f"receiver already believes {ca.attr} = {ca.value}")
    return receiver_belief.with_value(ca.attr, ca.value)


def apply_comm_plan(
    plan: tuple[CommAction, ...], receiver_belief: BeliefState
) -> BeliefState:
    belief = receiver_belief
    for ca in plan:
        belief = apply_comm(ca, belief)
    return belief


def is_relevant_divergence(
    world: BeliefState,
    human_belief: BeliefState,
    human_ops: Sequence[GroundedOperator],
) -> bool:
    """True iff the divergence changes the human's options or their outcomes.

    Over every grounded human operator, whether or not the remaining agenda
    can still call for it:
    (a) the sets of human actions applicable under the two beliefs differ, or
    (b) some action applicable under both yields different values on its
    effect-touched attributes when applied to each belief.
    This one rule decides both whether the planner must communicate before a
    turn and when :func:`min_comm_bfs` may stop aligning.
    """
    if world.values == human_belief.values:
        return False
    for op in human_ops:
        if op.is_pseudo:
            continue
        in_belief = applicable(op, human_belief)
        if in_belief != applicable(op, world):
            return True
        if in_belief and op.eff:
            after_belief = apply_effects(op, human_belief).values
            after_world = apply_effects(op, world).values
            for index, _, _ in op.eff:
                if after_belief[index] != after_world[index]:
                    return True
    return False


def min_comm_bfs(
    world: BeliefState,
    human_belief: BeliefState,
    human_ops: Sequence[GroundedOperator],
) -> tuple[CommAction, ...]:
    """Minimum-cardinality communication sequence removing relevance.

    Breadth-first search over belief states: the source is the human's
    current belief, each communication action aligns exactly one diverging
    attribute with the ground truth, and the first belief selected for
    expansion whose remaining divergence is no longer relevant wins; the
    actions on its path are the plan.  Diverging attributes expand in
    interned-index order and visited states are pruned by their
    aligned-attribute subset, so the result is deterministic.  Full
    alignment always removes relevance, so the search cannot fail.
    """
    attributes = world.universe.attributes
    divergent = diverging_attributes(world, human_belief)
    truth = world.values
    queue: deque[tuple[BeliefState, tuple[int, ...]]] = deque([(human_belief, ())])
    visited: set[frozenset[int]] = {frozenset()}
    while queue:
        belief, aligned = queue.popleft()
        if not is_relevant_divergence(world, belief, human_ops):
            return tuple(
                CommAction(world.owner, human_belief.owner, attributes[i], truth[i])
                for i in aligned
            )
        for i in divergent:
            if i in aligned:
                continue
            key = frozenset(aligned) | {i}
            if key in visited:
                continue
            visited.add(key)
            queue.append((belief.with_values_at(((i, truth[i]),)), aligned + (i,)))
    raise NoAlignment(
        "full alignment failed to remove relevance; this cannot happen"
    )  # pragma: no cover
