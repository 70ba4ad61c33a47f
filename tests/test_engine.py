from __future__ import annotations

import random

import pytest

from beliefhtn import legacy_step, parse, step_belief_protocol
from beliefhtn.errors import NotApplicable
from beliefhtn.htn import applicable, apply_effects, idle_op, wait_op


def op_table(bundle):
    table = {}
    for agent, dom in bundle.problem.domains.items():
        for gop in dom.ground_ops.values():
            table[(agent, gop.name, gop.args)] = gop
    return table


def step(bundle, world, human, op, actor):
    return step_belief_protocol(world, human, op, actor, "robot", "human", bundle.obs_model)


def test_each_step_returns_the_belief_pair(cooking):
    # Both steps return (world, human belief) as a plain pair.
    add_salt = op_table(cooking)[("robot", "add-salt", ())]
    world, human = cooking.problem.world, cooking.problem.human_belief
    for after in (
        step(cooking, world, human, add_salt, "robot"),
        legacy_step(world, human, add_salt, "robot", "human"),
    ):
        assert type(after) is tuple and len(after) == 2
        assert (after[0].owner, after[1].owner) == ("robot", "human")


def test_update_on_act_applies_effects(cooking):
    u = cooking.universe
    add_salt = op_table(cooking)[("robot", "add-salt", ())]
    world_after, human_after = step(
        cooking, cooking.problem.world, cooking.problem.human_belief, add_salt, "robot"
    )
    assert world_after.get(u.attr("SaltInPot")) == "true"


def test_update_on_act_wait_is_identity(cooking):
    world = cooking.problem.world
    human = cooking.obs_model.assess(cooking.problem.human_belief, world)
    world_after, human_after = step(cooking, world, human, wait_op("human"), "human")
    assert world_after == world
    assert human_after == human


def test_update_on_act_move(cooking):
    u = cooking.universe
    move = op_table(cooking)[("human", "move-to-pasta", ("Kitchen", "Room"))]
    world_after, human_after = step(
        cooking, cooking.problem.world, cooking.problem.human_belief, move, "human"
    )
    assert human_after.get(u.attr("AgtAt", "human")) == "Room"


def test_update_on_act_checks_own_belief(cooking):
    # The world allows the pour; the human's own belief (unsalted) does not.
    u = cooking.universe
    pour = op_table(cooking)[("human", "pour-pasta", ())]
    world = (
        cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("HumanHasPasta"), "true")
    )
    human = world.with_owner("human").with_value(u.attr("SaltInPot"), "false")
    assert applicable(pour, world)
    with pytest.raises(NotApplicable):
        step(cooking, world, human, pour, "human")


def test_observe_copresent_learns_inferrable(cooking):
    u = cooking.universe
    add_salt = op_table(cooking)[("robot", "add-salt", ())]
    world_after, human_after = step(
        cooking, cooking.problem.world, cooking.problem.human_belief, add_salt, "robot"
    )
    assert human_after.get(u.attr("SaltInPot")) == "true"


def test_observe_away_learns_nothing(cooking):
    u = cooking.universe
    add_salt = op_table(cooking)[("robot", "add-salt", ())]
    world = cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
    away = cooking.problem.human_belief.with_value(u.attr("AgtAt", "human"), "Room")
    world_after, human_after = step(cooking, world, away, add_salt, "robot")
    assert human_after.get(u.attr("SaltInPot")) == "false"


def test_robot_observes_everything_from_anywhere(cooking):
    # The human grabs the pasta in another room; the robot's belief updates anyway.
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
        .with_value(u.attr("AgtAt", "robot"), "Kitchen")
        .with_value(u.attr("HumanHasPasta"), "false")
    )
    grab = op_table(cooking)[("human", "grab-pasta", ("Room",))]
    world_after, human_after = step(cooking, world, world.with_owner("human"), grab, "human")
    assert world_after.get(u.attr("HumanHasPasta")) == "true"


LEAVING_DOM = """\
beliefhtn-domain 1
domain leaving

group Places Kitchen Room
group Agents robot human
agents robot human

svar AgtAt (?a Agents) -> Places : obs
svar Salted -> bool : inf

place AgtAt(?a) value-of AgtAt(?a)

operator salt-and-leave for robot
  pre AgtAt(robot) = Kitchen
  eff Salted = true
  eff AgtAt(robot) = Room
end

operator salt-and-stay for robot
  pre AgtAt(robot) = Kitchen
  eff Salted = true
end

root t0 salt-and-stay
init AgtAt(robot) = Kitchen
init AgtAt(human) = Kitchen
init Salted = false
start robot
"""


def test_observation_needs_copresence_throughout():
    # Co-present in the pre-state but not the post-state: no observation.
    bundle = parse(LEAVING_DOM).build()
    u = bundle.universe
    ops = {op.name: op for op in op_table(bundle).values()}
    world, human = bundle.problem.world, bundle.problem.human_belief
    left_world, left_human = step(bundle, world, human, ops["salt-and-leave"], "robot")
    assert left_world.get(u.attr("Salted")) == "true"
    assert left_human.get(u.attr("Salted")) == "false"
    stayed_world, stayed_human = step(bundle, world, human, ops["salt-and-stay"], "robot")
    assert stayed_human.get(u.attr("Salted")) == "true"


def test_step_protocol_scenario_a_turn_on(cooking):
    # Both agents in Kitchen: the human knows the stove is on via observation.
    u = cooking.universe
    turn_on = op_table(cooking)[("robot", "turn-on", ())]
    world_after, human_after = step_belief_protocol(
        cooking.problem.world,
        cooking.problem.human_belief,
        turn_on,
        "robot",
        "robot",
        "human",
        cooking.obs_model,
    )
    assert world_after.get(u.attr("Stove")) == "on"
    assert human_after.get(u.attr("Stove")) == "on"


def test_step_protocol_idle_changes_nothing(cooking):
    world_after, human_after = step_belief_protocol(
        cooking.problem.world,
        cooking.problem.human_belief,
        idle_op("robot"),
        "robot",
        "robot",
        "human",
        cooking.obs_model,
    )
    assert world_after == cooking.problem.world
    assert human_after == cooking.problem.human_belief


def test_step_protocol_return_triggers_assessment(cooking):
    # Scenario B's return step: assess fixes the stove but not the salt.
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("HumanHasPasta"), "true")
    )
    human = (
        world.with_owner("human")
        .with_value(u.attr("Stove"), "off")
        .with_value(u.attr("SaltInPot"), "false")
    )
    move_back = op_table(cooking)[("human", "move-to-kitchen", ())]
    world_after, human_after = step_belief_protocol(
        world, human, move_back, "human", "robot", "human", cooking.obs_model
    )
    assert human_after.get(u.attr("Stove")) == "on"  # assessed
    assert human_after.get(u.attr("SaltInPot")) == "false"  # inferrable


def test_legacy_step_updates_both_beliefs_unconditionally(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
    human = cooking.problem.human_belief.with_value(u.attr("AgtAt", "human"), "Room")
    add_salt = op_table(cooking)[("robot", "add-salt", ())]
    world_after, human_after = legacy_step(world, human, add_salt, "robot", "human")
    assert world_after.get(u.attr("SaltInPot")) == "true"
    assert human_after.get(u.attr("SaltInPot")) == "true"  # omniscient


def random_trace_states(bundle, rng, steps=14):
    """Random executable trace; yields (op, actor, world_before) triples."""
    table = op_table(bundle)
    world = bundle.problem.world
    human = bundle.obs_model.assess(bundle.problem.human_belief, world)
    actors = [bundle.problem.robot, bundle.problem.human]
    turn = rng.choice([0, 1])
    for _ in range(steps):
        actor = actors[turn % 2]
        belief = world if actor == bundle.problem.robot else human
        ops = [
            op
            for key, op in sorted(table.items())
            if key[0] == actor and applicable(op, belief) and applicable(op, world)
        ]
        op = rng.choice(ops) if ops else wait_op(actor)
        yield op, actor, world, human
        world, human = step_belief_protocol(
            world, human, op, actor, bundle.problem.robot, bundle.problem.human, bundle.obs_model
        )
        turn += 1


def test_robot_belief_equals_ground_truth_replay(cooking, box):
    # Oracle: replay the same effects on a bare state; the protocol's world
    # (the robot belief) must match after any action sequence.
    for bundle in (cooking, box):
        rng = random.Random(11)
        for _ in range(40):
            bare = bundle.problem.world
            for op, actor, world, human in random_trace_states(bundle, rng):
                bare = apply_effects(op, bare)
            assert bare == apply_effects(op, world)  # final step agrees


def test_omniscient_degenerate_case(cooking):
    # If both agents stay co-present for the whole trace, the human belief
    # equals the ground truth at every step (old-solver behavior).
    u = cooking.universe
    table = op_table(cooking)
    world = cooking.problem.world.with_value(u.attr("PastaLoc"), "Kitchen")
    human = world.with_owner("human")
    rng = random.Random(3)
    stationary = [
        table[("robot", "add-salt", ())],
        table[("robot", "turn-on", ())],
        table[("human", "grab-pasta", ("Kitchen",))],
        table[("human", "pour-pasta", ())],
    ]
    for step in range(8):
        actor = ("robot", "human")[step % 2]
        ops = [
            op
            for op in stationary
            if op.agent == actor and applicable(op, world) and applicable(op, human)
        ]
        op = rng.choice(ops) if ops else wait_op(actor)
        world, human = step_belief_protocol(
            world, human, op, actor, "robot", "human", cooking.obs_model
        )
        assert human.values == world.values
