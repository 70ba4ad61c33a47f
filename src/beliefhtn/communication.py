"""Communication actions, divergence relevance, and the choice of tells.

A communication action, a *tell*, is one attribute and the value the robot
believes it has; the robot tells it to the human, who must disagree.  A
divergence is *relevant* when it changes which actions the human can
perform, or what some performable action would do.
One function, :func:`min_comm_bfs`, decides both *if* and *what* to tell:
it tries the subsets of the diverging attributes smallest first and tells
the first whose alignment leaves no relevant divergence, which is none at
all when the divergence is already irrelevant.  The search calls it at
each new-mode state, and the policy loader checks a saved node's tells by
it.  One rule applies tells, for the search, replay and the loader:
:func:`apply_comm_plan` writes each told value into the human's belief, in
order, and a value held stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .htn import GroundedOperator, applicable, apply_effects
from .state import BeliefState, GroundedAttribute, Value, diverging_attributes


@dataclass(frozen=True)
class CommAction:
    """Robot-to-human transmission of one ground-truth attribute value."""

    attr: GroundedAttribute
    value: Value

    def __str__(self) -> str:
        return f"tell({self.attr}, {self.value})"


def apply_comm_plan(
    plan: tuple[CommAction, ...], receiver_belief: BeliefState
) -> BeliefState:
    """Each tell of ``plan`` writes its value into the receiver's belief, in
    order; the same belief object when every told value is already held."""
    belief = receiver_belief
    for ca in plan:
        belief = belief.with_value(ca.attr, ca.value)
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
    A WAIT or IDLE has neither precondition nor effect, so it never counts.
    :func:`min_comm_bfs` applies this one rule, to the belief itself first,
    so it decides both whether and what the planner tells before a turn.
    """
    if world.values == human_belief.values:
        return False
    for op in human_ops:
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
    """The fewest tells after which no divergence is relevant.

    Tries every subset of the diverging attributes, smallest first and, at
    each size, in ``itertools.combinations`` order over interned indices; the
    first subset whose alignment leaves no relevant divergence is told, so
    the result is deterministic.  The empty subset is the belief itself, so
    an irrelevant divergence yields ``()``.  Full alignment leaves no
    divergence at all, so some subset always succeeds.
    """
    attributes = world.universe.attributes
    divergent = diverging_attributes(world, human_belief)
    truth = world.values
    for k in range(len(divergent) + 1):
        for subset in combinations(divergent, k):
            aligned = human_belief.with_values_at((i, truth[i]) for i in subset)
            if not is_relevant_divergence(world, aligned, human_ops):
                return tuple(CommAction(attributes[i], truth[i]) for i in subset)
    raise AssertionError("full alignment leaves no divergence")  # pragma: no cover
