from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import BeliefState, ObsClass
from beliefhtn.errors import BadArgument, BadRule
from beliefhtn.observability import ObservabilityModel, PlacementRule
from beliefhtn.state import AttrRef, Group, StateVariableDecl, Universe

from oracles import place_of


def test_place_of_stove_is_fixed_kitchen(cooking):
    u = cooking.universe
    world = cooking.problem.world
    assert place_of(cooking.obs_model, u.attr("Stove"), world) == "Kitchen"


def test_place_of_agent_location_is_its_value(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
    assert place_of(cooking.obs_model, u.attr("AgtAt", "human"), world) == "Room"


def test_place_of_pasta_follows_its_location(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("PastaLoc"), "Kitchen")
    assert place_of(cooking.obs_model, u.attr("PastaLoc"), world) == "Kitchen"
    moved = world.with_value(u.attr("PastaLoc"), "Room")
    assert place_of(cooking.obs_model, u.attr("PastaLoc"), moved) == "Room"


def test_place_of_unruled_attribute_is_none():
    u = Universe(
        [Group("Places", ("Here",)), Group("Agents", ("robot", "human"))],
        [
            StateVariableDecl("AgtAt", (("?a", "Agents"),), "Places", ObsClass.OBS),
            StateVariableDecl("Hidden", (), "bool", ObsClass.INF),
        ],
    )
    model = ObservabilityModel(u, [])
    state = BeliefState("robot", u, ("Here", "Here", "false"))
    assert place_of(model, u.attr("Hidden"), state) is None


def test_a_rule_places_by_exactly_one_of_place_and_reference():
    for place, reference in ((None, None), ("Here", AttrRef("AgtAt", ("?a",)))):
        with pytest.raises(BadArgument, match="exactly one of place/reference"):
            PlacementRule(AttrRef("AgtAt", ("?a",)), place=place, reference=reference)


def test_a_model_needs_the_places_group():
    u = Universe([Group("Rooms", ("Here",))], [StateVariableDecl("Flag", (), "bool", ObsClass.OBS)])
    with pytest.raises(BadArgument, match="no group 'Places' declared"):
        ObservabilityModel(u, [])


def test_bad_rule_when_reference_is_not_a_place():
    u = Universe(
        [Group("Places", ("Here",)), Group("Agents", ("robot", "human"))],
        [
            StateVariableDecl("AgtAt", (("?a", "Agents"),), "Places", ObsClass.OBS),
            StateVariableDecl("Flag", (), "bool", ObsClass.OBS),
        ],
    )
    model = ObservabilityModel(u, [PlacementRule(AttrRef("Flag"), reference=AttrRef("Flag"))])
    state = BeliefState("robot", u, ("Here", "Here", "true"))
    with pytest.raises(BadRule):
        place_of(model, u.attr("Flag"), state)


def test_rule_binds_template_variables_by_position():
    # The svar names its parameters (?a, ?b); the rule's own (?b, ?a) bind
    # by position, so Near(x, y) is placed wherever Loc(y) is.
    u = Universe(
        [
            Group("Places", ("P1", "P2")),
            Group("Agents", ("robot", "human")),
            Group("Objs", ("x", "y")),
        ],
        [
            StateVariableDecl("AgtAt", (("?a", "Agents"),), "Places", ObsClass.OBS),
            StateVariableDecl("Loc", (("?o", "Objs"),), "Places", ObsClass.OBS),
            StateVariableDecl(
                "Near", (("?a", "Objs"), ("?b", "Objs")), "bool", ObsClass.OBS
            ),
        ],
    )
    rule = PlacementRule(AttrRef("Near", ("?b", "?a")), reference=AttrRef("Loc", ("?a",)))
    model = ObservabilityModel(u, [rule])
    for first, second in (("x", "y"), ("y", "x"), ("x", "x")):
        near = u.index_of(u.attr("Near", first, second))
        assert model.placements[near] == (u.index_of(u.attr("Loc", second)), None)


def test_copresent_both_in_kitchen(cooking):
    world = cooking.problem.world  # both agents start in Kitchen
    assert cooking.obs_model.copresent("robot", "human", world)


def test_copresent_reflexive(cooking):
    assert cooking.obs_model.copresent("human", "human", cooking.problem.world)


def test_copresent_split_locations(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
    assert not cooking.obs_model.copresent("robot", "human", world)


def test_assess_corrects_observable_stove(cooking):
    # Entering the kitchen, the human assesses that the stove is on.
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("Stove"), "on")
    human = world.with_owner("human").with_value(u.attr("Stove"), "off")
    assessed = cooking.obs_model.assess(human, world)
    assert assessed.get(u.attr("Stove")) == "on"


def test_assess_noop_when_aligned(cooking):
    world = cooking.problem.world
    human = world.with_owner("human")
    assert cooking.obs_model.assess(human, world) == human


def test_assess_never_reveals_inferrable_salt(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
    human = world.with_owner("human").with_value(u.attr("SaltInPot"), "false")
    assessed = cooking.obs_model.assess(human, world)
    assert assessed.get(u.attr("SaltInPot")) == "false"


def test_assess_skips_attributes_placed_elsewhere(cooking):
    u = cooking.universe
    # Human in Room cannot assess the kitchen-placed stove.
    world = (
        cooking.problem.world.with_value(u.attr("AgtAt", "human"), "Room")
        .with_value(u.attr("Stove"), "on")
    )
    human = world.with_owner("human").with_value(u.attr("Stove"), "off")
    assessed = cooking.obs_model.assess(human, world)
    assert assessed.get(u.attr("Stove")) == "off"


@st.composite
def cooking_pair(draw):
    from beliefhtn import builtin_bundle

    bundle = builtin_bundle("cooking")
    u = bundle.universe
    w_vals = tuple(draw(st.sampled_from(dom)) for dom in u.value_domains)
    h_vals = tuple(draw(st.sampled_from(dom)) for dom in u.value_domains)
    world = BeliefState("robot", u, w_vals)
    human = BeliefState("human", u, h_vals)
    return bundle, world, human


@settings(max_examples=150, deadline=None)
@given(cooking_pair())
def test_assess_is_idempotent(data):
    bundle, world, human = data
    once = bundle.obs_model.assess(human, world)
    assert bundle.obs_model.assess(once, world) == once


@settings(max_examples=150, deadline=None)
@given(cooking_pair())
def test_assess_never_touches_inf_attributes(data):
    bundle, world, human = data
    assessed = bundle.obs_model.assess(human, world)
    for attr in bundle.universe.attributes:
        if bundle.obs_model.obs_class(attr) is ObsClass.INF:
            assert assessed.get(attr) == human.get(attr)


@settings(max_examples=150, deadline=None)
@given(cooking_pair())
def test_assess_aligns_obs_attributes_at_human_place(data):
    bundle, world, human = data
    model = bundle.obs_model
    assessed = model.assess(human, world)
    here = model.agent_place("human", world)
    for attr in bundle.universe.attributes:
        if (
            model.obs_class(attr) is ObsClass.OBS
            and place_of(model, attr, world) == here
        ):
            assert assessed.get(attr) == world.get(attr)


def test_static_place_rule_constant_over_random_walk(box):
    # Fixed-place rules never move, whatever happens to the state.
    from beliefhtn.htn import applicable, apply_effects

    u = box.universe
    model = box.obs_model
    sticker = u.attr("Sticker", "box1")
    ops = [
        op
        for dom in box.problem.domains.values()
        for op in dom.ground_ops.values()
    ]
    rng = random.Random(7)
    state = box.problem.world
    for _ in range(60):
        assert place_of(model, sticker, state) == "Workshop"
        candidates = [op for op in ops if applicable(op, state)]
        if not candidates:
            break
        state = apply_effects(rng.choice(candidates), state)
