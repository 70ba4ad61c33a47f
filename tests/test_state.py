from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import (
    BeliefState,
    Group,
    GroundedAttribute,
    ObsClass,
    StateVariableDecl,
    Universe,
    diverging_attributes,
)
from beliefhtn.errors import BadArgument, BadValue, UniverseMismatch, UnknownAttribute
from beliefhtn.htn import applicable, apply_effects
from beliefhtn.state import BOOL_DOMAIN


def small_universe() -> Universe:
    groups = [
        Group("Places", ("Kitchen", "Room")),
        Group("Agents", ("robot", "human")),
        Group("StoveState", ("off", "on")),
    ]
    decls = [
        StateVariableDecl("AgtAt", (("?a", "Agents"),), "Places", ObsClass.OBS),
        StateVariableDecl("SaltInPot", (), "bool", ObsClass.INF),
        StateVariableDecl("Stove", (), "StoveState", ObsClass.OBS),
    ]
    return Universe(groups, decls)


def total_state(universe: Universe, owner: str = "robot", **overrides) -> BeliefState:
    defaults = {a: universe.value_domains[i][0] for i, a in enumerate(universe.attributes)}
    state = BeliefState.from_mapping(owner, universe, defaults)
    for key, value in overrides.items():
        state = state.with_value(universe.attr(key), value)
    return state


def test_group_rejects_duplicate_members():
    with pytest.raises(BadArgument):
        Group("Places", ("Kitchen", "Kitchen"))


def test_constant_in_two_groups_rejected():
    with pytest.raises(BadArgument):
        Universe(
            [Group("A", ("x",)), Group("B", ("x",))],
            [],
        )


def test_empty_value_domain_rejected():
    with pytest.raises(BadValue):
        StateVariableDecl("Broken", (), (1, 0), ObsClass.OBS)
    with pytest.raises(BadValue):
        Universe([Group("Empty", ())], [StateVariableDecl("Broken", (), "Empty", ObsClass.OBS)])


def test_value_ranges_resolve_to_domains():
    u = small_universe()
    assert u.value_domain(u.attr("AgtAt", "human")) == ("Kitchen", "Room")
    assert u.value_domain(u.attr("SaltInPot")) == BOOL_DOMAIN
    counter = Universe([], [StateVariableDecl("Counter", (), (2, 4), ObsClass.INF)])
    assert counter.value_domains == ((2, 3, 4),)
    assert counter.decls["Counter"].is_integer
    with pytest.raises(UnknownAttribute):
        Universe([], [StateVariableDecl("Stove", (), "StoveState", ObsClass.OBS)])


def test_from_mapping_rejects_an_undeclared_attribute():
    u = small_universe()
    total = {a: u.value_domains[i][0] for i, a in enumerate(u.attributes)}
    with pytest.raises(UnknownAttribute, match=r"undeclared attributes: Oven\(hot\)"):
        BeliefState.from_mapping("robot", u, {**total, GroundedAttribute("Oven", ("hot",)): "x"})


def test_beliefs_compare_and_hash_by_values():
    u = small_universe()
    robot = total_state(u)
    human = robot.with_owner("human")
    assert human == robot and hash(human) == hash(robot)
    assert robot != robot.values  # a belief equals only a belief


def test_interning_is_dense_and_total():
    u = small_universe()
    assert len(u) == 4  # AgtAt x2, SaltInPot, Stove
    assert sorted(u.index.values()) == list(range(4))


def test_lookup_stove_after_turn_on(cooking):
    # The world where the stove was switched on reads back as on.
    u = cooking.universe
    world = cooking.problem.world
    turn_on = next(
        op
        for key, op in sorted(_op_table(cooking).items())
        if key[1] == "turn-on"
    )
    assert applicable(turn_on, world)
    after = apply_effects(turn_on, world)
    assert after.get(u.attr("Stove")) == "on"


def _op_table(bundle):
    table = {}
    for agent, dom in bundle.problem.domains.items():
        for gop in dom.ground_ops.values():
            table[(agent, gop.name, gop.args)] = gop
    return table


def test_lookup_read_after_write():
    u = small_universe()
    b = total_state(u, "human")
    b2 = b.with_value(u.attr("AgtAt", "human"), "Kitchen")
    assert b2.get(u.attr("AgtAt", "human")) == "Kitchen"


def test_lookup_fresh_box_initial_state(box):
    # All boxes start empty in the built-in initial state.
    world = box.problem.world
    assert world.get(box.universe.attr("BallsInBox", "box1")) == 0


# A value equal to a domain value but of another type: `True == 1` and
# `1.0 == 1` make `in` accept both for an int range.
WRONG_TYPE = [
    ("BucketBalls", (), True),
    ("BucketBalls", (), 1.0),
    ("BucketBalls", (), "1"),
    ("BallsInBox", ("box1",), False),
    ("Sticker", ("box1",), 1),
]


@pytest.mark.parametrize("symbol, args, value", WRONG_TYPE)
def test_a_value_of_the_wrong_type_is_rejected(box, symbol, args, value):
    world = box.problem.world
    attr = box.universe.attr(symbol, *args)
    index = box.universe.index_of(attr)
    with pytest.raises(BadValue):
        world.with_value(attr, value)
    with pytest.raises(BadValue):
        world.with_values_at([(index, world.values[index]), (index, value)])
    with pytest.raises(BadValue):
        box.universe.check_value(index, value)
    with pytest.raises(BadValue):
        BeliefState.from_mapping("robot", box.universe, {**world.as_dict(), attr: value})
    assert box.universe.value_types[index] is type(world.values[index])


def test_lookup_unknown_symbol_and_bad_argument():
    u = small_universe()
    b = total_state(u)
    with pytest.raises(UnknownAttribute):
        u.attr("NoSuchThing")
    with pytest.raises(UnknownAttribute):
        u.attr("SaltInPot", "robot")  # wrong arity
    with pytest.raises(BadArgument):
        u.attr("AgtAt", "Kitchen")  # not an agent
    with pytest.raises(BadValue):
        b.with_value(u.attr("Stove"), "warm")


def test_divergence_pasta_location(cooking):
    u = cooking.universe
    robot = cooking.problem.world.with_value(u.attr("PastaLoc"), "Kitchen")
    human = robot.with_owner("human").with_value(u.attr("PastaLoc"), "Room")
    (index,) = diverging_attributes(robot, human)
    assert str(u.attributes[index]) == "PastaLoc"
    assert (robot.values[index], human.values[index]) == ("Kitchen", "Room")


def test_divergence_identical_beliefs_empty():
    u = small_universe()
    b = total_state(u)
    assert diverging_attributes(b, b.with_owner("human")) == ()


def test_divergence_two_entries():
    u = small_universe()
    robot = total_state(u, "robot", SaltInPot="true", Stove="on")
    human = total_state(u, "human", SaltInPot="false", Stove="off")
    # Oracle: enumerate every grounded attribute and compare by hand.
    expected = [a for a in u.attributes if robot.get(a) != human.get(a)]
    divergent = diverging_attributes(robot, human)
    assert [u.attributes[i] for i in divergent] == expected
    assert list(divergent) == sorted(divergent)  # index order
    assert len(divergent) == 2


def test_divergence_universe_mismatch():
    u1, u2 = small_universe(), small_universe()
    with pytest.raises(UniverseMismatch):
        diverging_attributes(total_state(u1), total_state(u2, "human"))


def test_totality_enforced():
    u = small_universe()
    partial = {u.attr("SaltInPot"): "false"}
    with pytest.raises(BadValue):
        BeliefState.from_mapping("robot", u, partial)


@st.composite
def belief_pair(draw):
    u = small_universe()
    values1 = tuple(draw(st.sampled_from(dom)) for dom in u.value_domains)
    values2 = tuple(draw(st.sampled_from(dom)) for dom in u.value_domains)
    return BeliefState("robot", u, values1), BeliefState("human", u, values2)


@settings(max_examples=200, deadline=None)
@given(belief_pair())
def test_divergence_count_matches_naive_scan(pair):
    robot, human = pair
    naive = sum(1 for a in robot.universe.attributes if robot.get(a) != human.get(a))
    assert len(diverging_attributes(robot, human)) == naive
    assert diverging_attributes(robot, robot.with_owner("human")) == ()


@settings(max_examples=200, deadline=None)
@given(belief_pair(), st.data())
def test_single_write_frame_property(pair, data):
    belief, _ = pair
    u = belief.universe
    attr = data.draw(st.sampled_from(list(u.attributes)))
    value = data.draw(st.sampled_from(list(u.value_domain(attr))))
    after = belief.with_value(attr, value)
    assert after.get(attr) == value
    for other in u.attributes:
        if other != attr:
            assert after.get(other) == belief.get(other)
