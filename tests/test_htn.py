from __future__ import annotations

import itertools

import pytest

from beliefhtn import BOX_DOM, COOKING_DOM, parse
from beliefhtn.builtins import box_dom
from beliefhtn.errors import BadArgument, NotApplicable, NotRelevant
from beliefhtn.htn import (
    GroundedMethod,
    TaskInstance,
    TaskNetwork,
    applicable,
    apply,
    decompose,
    ground_all_operators,
    ground_method,
    idle_op,
)


def op_table(bundle):
    table = {}
    for agent, dom in bundle.problem.domains.items():
        for gop in ground_all_operators(bundle.universe, dom.operators):
            table[(agent, gop.name, gop.args)] = gop
    return table


def get_op(bundle, agent, name, *args):
    return op_table(bundle)[(agent, name, tuple(args))]


# -- applicability -----------------------------------------------------------


def test_pour_pasta_blocked_by_salt_belief(cooking):
    # Pouring is possible only after salt gets added and the stove is on.
    u = cooking.universe
    pour = get_op(cooking, "human", "pour-pasta")
    belief = (
        cooking.problem.human_belief.with_value(u.attr("AgtAt", "human"), "Kitchen")
        .with_value(u.attr("HumanHasPasta"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("SaltInPot"), "false")
    )
    assert not applicable(pour, belief)
    assert applicable(pour, belief.with_value(u.attr("SaltInPot"), "true"))


def test_idle_applicable_everywhere(cooking):
    assert applicable(idle_op("robot"), cooking.problem.world)


def test_add_salt_needs_robot_in_kitchen(cooking):
    u = cooking.universe
    add_salt = get_op(cooking, "robot", "add-salt")
    in_kitchen = cooking.problem.world.with_value(u.attr("AgtAt", "robot"), "Kitchen")
    in_room = cooking.problem.world.with_value(u.attr("AgtAt", "robot"), "Room")
    assert applicable(add_salt, in_kitchen)
    assert not applicable(add_salt, in_room)


# -- application -------------------------------------------------------------


def test_apply_turn_on_switches_stove(cooking):
    u = cooking.universe
    turn_on = get_op(cooking, "robot", "turn-on")
    before = cooking.problem.world
    after = apply(turn_on, before)
    assert after.get(u.attr("Stove")) == "on"
    for attr in u.attributes:
        if str(attr) != "Stove":
            assert after.get(attr) == before.get(attr)
    assert before.get(u.attr("Stove")) == "off"  # input unchanged


def test_apply_idle_is_identity(cooking):
    world = cooking.problem.world
    assert apply(idle_op("human"), world) == world


def test_apply_fill_arithmetic(box):
    u = box.universe
    fill = get_op(box, "human", "fill-h", "box1")
    before = box.problem.world
    after = apply(fill, before)
    assert after.get(u.attr("BallsInBox", "box1")) == 1
    assert after.get(u.attr("BucketBalls")) == 4


def test_apply_fill_saturates_at_capacity(box):
    u = box.universe
    fill = get_op(box, "robot", "fill-r", "box2")
    full = box.problem.world.with_value(u.attr("BallsInBox", "box2"), 2)
    after = apply(fill, full)
    assert after.get(u.attr("BallsInBox", "box2")) == 2  # clamped
    assert after.get(u.attr("BucketBalls")) == 4


def test_apply_checks_precondition(cooking):
    u = cooking.universe
    pour = get_op(cooking, "human", "pour-pasta")
    with pytest.raises(NotApplicable):
        apply(pour, cooking.problem.human_belief)


def test_apply_frame_axiom_over_all_grounded_ops(box):
    # Full-state diff: applying any applicable op changes only eff attrs.
    world = box.problem.world
    for (agent, _, _), op in sorted(op_table(box).items()):
        if not applicable(op, world):
            continue
        after = apply(op, world)
        touched = {box.universe.attributes[index] for index, _, _ in op.eff}
        for attr in box.universe.attributes:
            if attr not in touched:
                assert after.get(attr) == world.get(attr), (op, attr)


# -- decomposition -----------------------------------------------------------


def relevant_methods(bundle, agent, task):
    out = []
    for m in bundle.problem.domain_of(agent).methods:
        out.extend(ground_method(bundle.universe, m, task))
    return out


def test_decompose_make_pasta_expansion(cooking):
    w = cooking.problem.network
    (node_id,) = w.available()
    (gm,) = relevant_methods(cooking, "robot", w.task_of(node_id))
    w2 = decompose(w, node_id, gm)
    names = sorted(str(t) for _, t in w2.nodes)
    assert names == ["AddSalt", "GetPasta", "PourPasta", "TurnOn"]
    by_name = {str(t): i for i, t in w2.nodes}
    expected_edges = {
        (by_name["AddSalt"], by_name["PourPasta"]),
        (by_name["TurnOn"], by_name["PourPasta"]),
        (by_name["GetPasta"], by_name["PourPasta"]),
    }
    assert w2.constraints == frozenset(expected_edges)


def test_decompose_empty_method_contracts_constraints():
    w = TaskNetwork.build(
        [TaskInstance("A"), TaskInstance("Mid"), TaskInstance("B")],
        [(0, 1), (1, 2)],
    )
    empty = GroundedMethod("m-empty", TaskInstance("Mid"), (), ())
    w2 = decompose(w, 1, empty)
    assert sorted(str(t) for _, t in w2.nodes) == ["A", "B"]
    assert w2.constraints == frozenset({(0, 2)})


def transitive_closure(pairs, nodes):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(nodes, repeat=2):
            if (a, b) not in closure:
                if any((a, c) in closure and (c, b) in closure for c in nodes):
                    closure.add((a, b))
                    changed = True
    return closure


def test_decompose_retargets_to_all_subtasks():
    # u1 < u < u2 with unordered {a, b} inserted: u1 < a, u1 < b, a < u2, b < u2.
    w = TaskNetwork.build(
        [TaskInstance("U1"), TaskInstance("U"), TaskInstance("U2")],
        [(0, 1), (1, 2)],
    )
    m = GroundedMethod(
        "m-ab", TaskInstance("U"), (TaskInstance("a"), TaskInstance("b")), ()
    )
    w2 = decompose(w, 1, m)
    labels = {i: str(t) for i, t in w2.nodes}
    got = {(labels[a], labels[b]) for a, b in w2.constraints}
    assert got == {("U1", "a"), ("U1", "b"), ("a", "U2"), ("b", "U2")}
    # Oracle: the closure restricted to surviving nodes is preserved.
    old_closure = transitive_closure(w.constraints, [i for i, _ in w.nodes])
    new_closure = transitive_closure(w2.constraints, [i for i, _ in w2.nodes])
    for a, b in old_closure:
        if a != 1 and b != 1:
            assert (a, b) in new_closure


def test_decompose_rejects_irrelevant_method(cooking):
    w = cooking.problem.network
    (node_id,) = w.available()
    wrong = GroundedMethod("m-wrong", TaskInstance("SomethingElse"), (), ())
    with pytest.raises(NotRelevant):
        decompose(w, node_id, wrong)


def test_network_build_rejects_cycle():
    from beliefhtn.errors import CycleIntroduced

    with pytest.raises(CycleIntroduced):
        TaskNetwork.build([TaskInstance("A"), TaskInstance("B")], [(0, 1), (1, 0)])


def test_grounded_method_rejects_bad_order():
    # decompose runs no cycle check, so a hand-built method must not carry
    # a cyclic (or dangling) subtask order in the first place.
    from beliefhtn.errors import BadArgument, CycleIntroduced

    subtasks = (TaskInstance("A"), TaskInstance("B"), TaskInstance("C"))
    with pytest.raises(CycleIntroduced):
        GroundedMethod("m-cyclic", TaskInstance("T"), subtasks, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(BadArgument):
        GroundedMethod("m-dangling", TaskInstance("T"), subtasks, ((0, 3),))


def test_network_fixpoint_iff_primitive(cooking, box):
    # Decomposing any non-primitive node (available or not) until none is
    # left must terminate, and only then is the network primitive.
    for bundle in (cooking, box):
        w = bundle.problem.network
        op_names = set()
        for dom in bundle.problem.domains.values():
            op_names |= dom.op_names

        def is_primitive(w):
            return all(t.symbol in op_names for _, t in w.nodes)

        assert not is_primitive(w)
        for _ in range(200):
            expandable = [
                (i, t) for i, t in w.nodes if t.symbol not in op_names
            ]
            if not expandable:
                break
            node_id, task = expandable[0]
            gm = relevant_methods(bundle, "robot", task)[0]
            w = decompose(w, node_id, gm)
        else:
            pytest.fail("decomposition did not reach a fixpoint")
        assert is_primitive(w)


def test_ground_operator_rejects_double_assignment(cooking):
    from beliefhtn.htn import Effect, EffectOp, OperatorSchema, Term, ground_operator

    schema = OperatorSchema(
        "bad",
        "robot",
        (),
        (),
        (
            Effect("Stove", (), EffectOp.SET, Term("on")),
            Effect("Stove", (), EffectOp.SET, Term("off")),
        ),
    )
    with pytest.raises(BadArgument):
        ground_operator(cooking.universe, schema, {})


def test_method_table_matches_per_schema_grounding():
    # Reference: the loop over method schemas that the table replaces.
    def reference(bundle, dom, task):
        return tuple(gm for m in dom.methods for gm in ground_method(bundle.universe, m, task))

    texts = [COOKING_DOM, BOX_DOM] + [box_dom(boxes=n) for n in range(2, 6)]
    outside = TaskInstance("FillBox", ("Storage",))
    for text in texts:
        bundle = parse(text).build()
        domains = bundle.problem.domains.values()
        seen = {t for _, t in bundle.problem.network.nodes}
        frontier = list(seen)
        while frontier:
            task = frontier.pop()
            for dom in domains:
                expected = reference(bundle, dom, task)
                assert dom.ground_methods.get(task, ()) == expected, (dom.agent, task)
                for sub in {s for gm in expected for s in gm.subtasks} - seen:
                    seen.add(sub)
                    frontier.append(sub)
        assert len(seen) > len(bundle.problem.network.nodes)
        # A task whose argument lies outside the head's group has no method.
        assert all(dom.ground_methods.get(outside, ()) == () for dom in domains)
