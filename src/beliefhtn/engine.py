"""Belief-update protocol around each executed action.

Four channels update an agent's belief: acting (own effects), observing a
co-present agent's action (all effects, since inferrable ones are inferred
and observable ones are confirmed by the immediately following assessment),
situation assessment, and communication (handled by the communication
module).  The robot's belief is the ground truth and absorbs every effect
unconditionally.

``step_belief_protocol`` composes the channels in the fixed order used by
the planner: act/observe updates, then situation assessment for the human.
It and the omniscient ``legacy_step`` share one applicability rule: a human
actor's action must be applicable in the human's belief, a robot actor's in
the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotApplicable
from .htn import GroundedOperator, applicable, apply_effects
from .observability import ObservabilityModel
from .state import BeliefState


@dataclass(frozen=True)
class StepResult:
    world: BeliefState
    human_belief: BeliefState


def _check_actor(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    human_id: str,
) -> None:
    """The one actor rule of both steps: a human actor acts on its own
    belief, a robot actor on the ground truth."""
    if actor_id == human_id:
        if not applicable(op, human_belief):
            raise NotApplicable(f"{op} not applicable in the human's belief")
    elif not applicable(op, world):
        raise NotApplicable(f"{op} not applicable in the ground truth")


def step_belief_protocol(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    robot_id: str,
    human_id: str,
    model: ObservabilityModel,
) -> StepResult:
    """Run act + observe + assess for one executed action (new solver).

    The ground truth (robot belief) always receives all effects.  The human
    receives effects through acting or observing, then assesses the world
    from their new location.
    """
    _check_actor(world, human_belief, op, actor_id, human_id)
    world_before = world
    world = apply_effects(op, world)
    # A robot's action is observed only when the human is co-present with
    # the actor throughout it, i.e. in both the pre- and the post-state.
    if actor_id == human_id or (
        model.copresent(human_id, actor_id, world_before)
        and model.copresent(human_id, actor_id, world)
    ):
        human_belief = apply_effects(op, human_belief)
    human_belief = model.assess(human_belief, world)
    return StepResult(world, human_belief)


def legacy_step(
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor_id: str,
    human_id: str,
) -> StepResult:
    """Omniscient baseline update: every belief absorbs every effect."""
    _check_actor(world, human_belief, op, actor_id, human_id)
    return StepResult(apply_effects(op, world), apply_effects(op, human_belief))
