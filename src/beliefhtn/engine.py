"""Belief-update protocol around each executed action.

Four channels update an agent's belief: acting (own effects), observing a
co-present agent's action (all effects, since inferrable ones are inferred
and observable ones are confirmed by the immediately following assessment),
situation assessment, and communication, where each tell writes its value
(:func:`~beliefhtn.communication.apply_comm_plan`).  The robot's belief is
the ground truth and absorbs every effect unconditionally.

``step_belief_protocol`` composes the channels in the fixed order used by
the planner: act/observe updates, then situation assessment for the human.
It and the omniscient ``legacy_step`` share one applicability rule: a human
actor's action must be applicable in the human's belief, a robot actor's in
the ground truth; the belief protocol also requires a human's action to be
applicable in the ground truth.  Replay executes each edge through
``step_belief_protocol``, so its NA verdicts carry these messages.

Each step returns the belief pair ``(world, human_belief)`` after the
action, which the search and replay take as it is.  A step that changes
nothing returns the same belief objects it was given: every channel returns
its input belief when it writes no new value, so a WAIT, an IDLE or an
assessment with nothing to see builds no belief.
"""

from __future__ import annotations

from .errors import NotApplicable
from .htn import GroundedOperator, applicable, apply_effects
from .observability import ObservabilityModel
from .state import BeliefState


def _check_actor(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    human_id: str,
    protocol: bool,
) -> None:
    """The one actor rule of both steps: a human actor acts on its own
    belief, a robot actor on the ground truth.  Under the belief protocol
    (``protocol``) a human's action must also be applicable in the ground
    truth, which is what it changes."""
    if not op.pre:  # applicable everywhere, WAIT and IDLE included
        return
    human = actor_id == human_id
    if human and not applicable(op, human_belief):
        raise NotApplicable(f"{op} not applicable in the human's belief")
    if (protocol or not human) and not applicable(op, world):
        raise NotApplicable(f"{op} not applicable in the ground truth")


def step_belief_protocol(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    robot_id: str,
    human_id: str,
    model: ObservabilityModel,
) -> tuple[BeliefState, BeliefState]:
    """Run act + observe + assess for one executed action (new solver).

    The ground truth (robot belief) always receives all effects.  The human
    receives effects through acting or observing, then assesses the world
    from their new location.
    """
    _check_actor(world, human_belief, op, actor_id, human_id, protocol=True)
    world_after = apply_effects(op, world)
    # A robot's action is observed only when the human is co-present with
    # the actor throughout it, i.e. in both the pre- and the post-state;
    # an action that changed nothing leaves one state to check.
    if actor_id == human_id or (
        model.copresent(human_id, actor_id, world)
        and (world_after is world or model.copresent(human_id, actor_id, world_after))
    ):
        human_belief = apply_effects(op, human_belief)
    human_belief = model.assess(human_belief, world_after)
    return world_after, human_belief


def legacy_step(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    human_id: str,
) -> tuple[BeliefState, BeliefState]:
    """Omniscient baseline update: every belief absorbs every effect."""
    _check_actor(world, human_belief, op, actor_id, human_id, protocol=False)
    return apply_effects(op, world), apply_effects(op, human_belief)
