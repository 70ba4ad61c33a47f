"""Differential test: index-keyed belief access against attribute-keyed code.

Grounded operators and the situation-assessment table hold dense
``Universe`` indices.  The reference functions below keep the earlier
attribute-keyed implementations of ``applicable``, ``apply_effects``,
``ObservabilityModel.assess`` and ``BeliefState.with_value``: every
precondition and effect is named by its ``GroundedAttribute`` (re-derived
from the operator schema, not from the stored index), every placement
rule is grounded here from the parsed file, and every lookup goes through
``universe.index_of``.  On random world/human pairs both versions
must return the same values, return the input object in the same cases and
raise the same errors.

A second set of references keeps the index-keyed kernel that copied on
every write: ``with_values_at`` building a full copy before comparing it,
``apply_effects`` and ``assess`` always building an update list, the two
belief steps checking and observing every operator, and a replay walk that
built one ``ExecutionReport`` per node.  The copy-on-change kernel must
agree with it on values, on which calls return their input object, and on
the type and message of every error.
"""

from __future__ import annotations

import random

import pytest

from beliefhtn import (
    MODE_LEGACY,
    MODE_NEW,
    BeliefState,
    ObsClass,
    legacy_step,
    parse,
    parse_bundle,
    simulate,
    step_belief_protocol,
)
from beliefhtn.builtins import BOX_DOM, COOKING_DOM, box_dom
from beliefhtn.errors import BadRule, BadValue, BeliefHtnError, NotApplicable
from beliefhtn.htn import EffectOp, applicable, apply_effects, idle_op, wait_op
from beliefhtn.observability import LOCATION_SYMBOL
from beliefhtn.planner import (
    STALL_THRESHOLD,
    ExecutionReport,
    _replay_start,
    _stall_run,
)

from oracles import agent_schemas
from test_search_cache import STRIDE

PAIRS = 60


# -- reference: attribute-keyed implementations ------------------------------


def ref_with_value(belief, attr, value):
    universe = belief.universe
    idx = universe.index_of(attr)
    if value not in universe.value_domains[idx]:
        raise BadValue(f"{value!r} is not in the value domain of {attr}")
    if belief.values[idx] == value:
        return belief
    vals = list(belief.values)
    vals[idx] = value
    return BeliefState(belief.owner, universe, tuple(vals))


def ref_applicable(pre, belief):
    return all(belief.get(attr) == value for attr, value in pre)


def ref_apply_effects(eff, state):
    new = state
    for attr, eop, value in eff:
        if eop is EffectOp.SET:
            new = ref_with_value(new, attr, value)
        else:
            domain = state.universe.value_domain(attr)
            lo, hi = domain[0], domain[-1]
            current = new.get(attr)
            delta = value if eop is EffectOp.INC else -value
            new = ref_with_value(new, attr, min(hi, max(lo, current + delta)))
    return new


def ref_place_of(model, rules, attr, state):
    rule = rules.get(attr)
    if rule is None:
        return None
    fixed_place, reference = rule
    if fixed_place is not None:
        return fixed_place
    value = state.get(reference)
    if value not in model.places:
        raise BadRule(f"placement of {attr} references {reference}")
    return value


def ref_assess(model, reference, observer_belief, world):
    rules, classes = reference
    here = world.get(model.universe.attr(LOCATION_SYMBOL, observer_belief.owner))
    belief = observer_belief
    for attr in model.universe.attributes:
        if classes[attr.symbol] is not ObsClass.OBS:
            continue
        if ref_place_of(model, rules, attr, world) == here:
            belief = ref_with_value(belief, attr, world.get(attr))
    return belief


def ref_op(universe, schema, op):
    """The operator's pre/eff keyed by attributes grounded from its schema."""
    binding = {var: arg for (var, _), arg in zip(schema.params, op.args)}

    def attr(ref):
        return universe.attr(ref.symbol, *(binding.get(a, a) for a in ref.args))

    pre = tuple((attr(ref), value) for (ref, _), (_, value) in zip(schema.pre, op.pre))
    eff = tuple(
        (attr(ref), eop, value) for (ref, _, _), (_, eop, value) in zip(schema.eff, op.eff)
    )
    return pre, eff


# -- harness -----------------------------------------------------------------


def outcome(fn, *args):
    """("ok", result) or ("raise", exception type), for comparing both sides."""
    try:
        return "ok", fn(*args)
    except (BadRule, BadValue) as exc:
        return "raise", type(exc)


def same(new, ref, source):
    """Equal outcomes; when both return a belief, equal values and identity."""
    assert new[0] == ref[0], (new, ref)
    if new[0] == "raise":
        assert new[1] is ref[1]
        return
    assert new[1].values == ref[1].values
    assert (new[1] is source) == (ref[1] is source)


def build_with_rules(text):
    """Build a bundle, plus the attribute-keyed reference for assessment:
    the parsed placement rules grounded attribute by attribute, as the
    builder once did (each rule covers every attribute of its symbol and
    binds the template's variables by position), and each symbol's class."""
    bundle = parse(text).build()
    u = bundle.universe
    rules = {}
    for p in bundle.domfile.places:
        for attr in u.attributes:
            if attr.symbol != p.template.symbol:
                continue
            binding = dict(zip(p.template.args, attr.args))
            if p.place is not None:
                rules[attr] = (p.place, None)
            else:
                ref_args = tuple(binding.get(a, a) for a in p.reference.args)
                rules[attr] = (None, u.attr(p.reference.symbol, *ref_args))
    classes = {sv.symbol: sv.obs for sv in bundle.domfile.svars}
    return bundle, (rules, classes)


def random_pair(bundle, rng, bounds=None):
    u = bundle.universe
    w_vals = [rng.choice(dom) for dom in u.value_domains]
    for attr, pick in (bounds or {}).items():
        w_vals[u.index_of(attr)] = pick(u.value_domain(attr))
    h_vals = [
        w if rng.random() < 0.5 else rng.choice(dom)
        for w, dom in zip(w_vals, u.value_domains)
    ]
    return (
        BeliefState(bundle.problem.robot, u, tuple(w_vals)),
        BeliefState(bundle.problem.human, u, tuple(h_vals)),
    )


def saturating_bounds(bundle):
    """Box domains: every box full and the bucket empty, so that the fill
    operators' ``BallsInBox += 1`` and ``BucketBalls -= 1`` saturate."""
    u = bundle.universe
    if "BucketBalls" not in u.decls:
        return None
    bounds = {u.attr("BucketBalls"): lambda dom: dom[0]}
    for attr in u.attributes:
        if attr.symbol == "BallsInBox":
            bounds[attr] = lambda dom: dom[-1]
    return bounds


def check_pair(bundle, reference, ops, world, human, rng):
    model = bundle.obs_model
    u = bundle.universe
    for op, (pre, eff) in ops:
        for belief in (world, human):
            assert applicable(op, belief) == ref_applicable(pre, belief), op
            same(
                outcome(apply_effects, op, belief),
                outcome(ref_apply_effects, eff, belief),
                belief,
            )
    same(
        outcome(model.assess, human, world),
        outcome(ref_assess, model, reference, human, world),
        human,
    )
    attr = rng.choice(u.attributes)
    for value in (rng.choice(u.value_domain(attr)), "not-a-value"):
        same(
            outcome(human.with_value, attr, value),
            outcome(ref_with_value, human, attr, value),
            human,
        )


@pytest.mark.parametrize(
    "text",
    # BOX_DOM is box_dom(boxes=3).
    [pytest.param(COOKING_DOM, id="cooking"), pytest.param(BOX_DOM, id="box")]
    + [pytest.param(box_dom(boxes=n), id=f"box{n}") for n in (2, 4)],
)
def test_index_access_matches_attribute_reference(text):
    bundle, reference = build_with_rules(text)
    u = bundle.universe
    ops = [
        (op, ref_op(u, schema, op))
        for agent, dom in bundle.problem.domains.items()
        for schema in agent_schemas(bundle, agent)[0]
        for op in dom.ground_ops.values()
        if op.name == schema.name
    ]
    assert ops
    rng = random.Random(len(u))
    bounds = saturating_bounds(bundle)
    saturated = 0
    for n in range(PAIRS):
        world, human = random_pair(bundle, rng, bounds if n % 3 == 0 else None)
        check_pair(bundle, reference, ops, world, human, rng)
        if bounds and n % 3 == 0:
            for op, (_, eff) in ops:
                after = apply_effects(op, world)
                for attr, eop, _ in eff:
                    if eop is not EffectOp.SET:
                        assert after.get(attr) == bounds[attr](u.value_domain(attr))
                        saturated += 1
    assert saturated or bounds is None


def test_reference_that_is_not_a_place_raises_in_both():
    text = box_dom(boxes=2).replace(
        "place HumanHasBalls value-of AgtAt(human)",
        "place HumanHasBalls value-of Sticker(box1)",
    )
    bundle, reference = build_with_rules(text)
    world, human = random_pair(bundle, random.Random(3))
    with pytest.raises(BadRule):
        bundle.obs_model.assess(human, world)
    with pytest.raises(BadRule):
        ref_assess(bundle.obs_model, reference, human, world)


# -- reference: the kernel that copied on every write ------------------------


def copying_with_values_at(belief, updates):
    values = list(belief.values)
    for index, value in updates:
        belief.universe.check_value(index, value)
        values[index] = value
    new = tuple(values)
    if new == belief.values:
        return belief
    return BeliefState(belief.owner, belief.universe, new)


def copying_apply_effects(op, state):
    values = state.values
    domains = state.universe.value_domains
    updates = []
    for index, eop, value in op.eff:
        if eop is not EffectOp.SET:
            domain = domains[index]
            delta = value if eop is EffectOp.INC else -value
            value = min(domain[-1], max(domain[0], values[index] + delta))
        updates.append((index, value))
    return copying_with_values_at(state, updates)


def copying_assess(model, observer_belief, world):
    here = model.agent_place(observer_belief.owner, world)
    truth = world.values
    believed = observer_belief.values
    updates = []
    for index, reference, place in model.assessable:
        if reference is not None:
            place = model._referenced_place(index, reference, truth)
        if place == here and believed[index] != truth[index]:
            updates.append((index, truth[index]))
    return copying_with_values_at(observer_belief, updates)


def copying_check_actor(world, human_belief, op, actor_id, human_id, protocol):
    human = actor_id == human_id
    if human and not applicable(op, human_belief):
        raise NotApplicable(f"{op} not applicable in the human's belief")
    if (protocol or not human) and not applicable(op, world):
        raise NotApplicable(f"{op} not applicable in the ground truth")


def copying_step(world, human_belief, op, actor_id, robot_id, human_id, model):
    copying_check_actor(world, human_belief, op, actor_id, human_id, protocol=True)
    world_before = world
    world = copying_apply_effects(op, world)
    if actor_id == human_id or (
        model.copresent(human_id, actor_id, world_before)
        and model.copresent(human_id, actor_id, world)
    ):
        human_belief = copying_apply_effects(op, human_belief)
    return world, copying_assess(model, human_belief, world)


def copying_legacy_step(world, human_belief, op, actor_id, human_id):
    copying_check_actor(world, human_belief, op, actor_id, human_id, protocol=False)
    return copying_apply_effects(op, world), copying_apply_effects(op, human_belief)


def copying_simulate(policy, model):
    world, human = _replay_start(policy, model, None, None)
    return copying_replay(policy, model, {}, policy.root, world, human, 0)


def copying_replay(policy, model, memo, node, w, h, run):
    key = (id(node), w.values, h.values, min(run, STALL_THRESHOLD))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not node.edges and node.done:
        report = ExecutionReport("success", "", 1, 0, 0, 0, 0)
    elif not node.edges:
        report = ExecutionReport("idl", "plan-embedded inactivity deadlock", 0, 0, 1, 0, 0)
    else:
        s = na = idl = plen = comms = 0
        first, detail = "success", ""
        for edge in node.edges:
            hb = h  # the node's tells, written again for each edge
            for ca in node.comms:
                index = hb.universe.index_of(ca.attr)
                hb = copying_with_values_at(hb, ((index, ca.value),))
            op = edge.action
            new_run = _stall_run(run, op.is_pseudo)
            sub = None
            if op.is_pseudo and not node.done and new_run >= STALL_THRESHOLD:
                sub = ExecutionReport(
                    "idl", f"{STALL_THRESHOLD} consecutive WAIT/IDLE turns", 0, 0, 1, 0, 0
                )
            else:
                try:
                    w2, h2 = copying_step(
                        w, hb, op, node.turn, policy.robot, policy.human, model
                    )
                except NotApplicable as exc:
                    sub = ExecutionReport("na", str(exc), 0, 1, 0, 0, 0)
            if sub is None:
                sub = copying_replay(policy, model, memo, edge.child, w2, h2, new_run)
            step_len = 0 if op.is_pseudo else 1
            s += sub.n_success
            na += sub.n_na
            idl += sub.n_idl
            plen += sub.sum_primitive_len + step_len * sub.n_traces
            comms += sub.sum_comms + len(node.comms) * sub.n_traces
            if first == "success":
                first, detail = sub.outcome, sub.detail
        report = ExecutionReport(first, detail, s, na, idl, plen, comms)
    memo[key] = report
    return report


def result(fn, *args):
    """("ok", beliefs returned) or ("raise", error type, message)."""
    try:
        out = fn(*args)
    except BeliefHtnError as exc:
        return "raise", type(exc), str(exc)
    if isinstance(out, BeliefState):
        return "ok", (out,)
    return "ok", out


def agree(new, ref, inputs):
    """Same outcome; returned beliefs equal in value and owner, and each the
    corresponding input object in the same cases."""
    assert new[0] == ref[0], (new, ref)
    if new[0] == "raise":
        assert new[1:] == ref[1:]
        return "raise"
    for got, want, given in zip(new[1], ref[1], inputs):
        assert got.values == want.values and got.owner == want.owner
        assert (got is given) == (want is given)
    return "same" if all(got is given for got, given in zip(new[1], inputs)) else "changed"


KERNEL_DOMAINS = [
    pytest.param(COOKING_DOM, id="cooking"),
    pytest.param(BOX_DOM, id="box"),
] + [pytest.param(box_dom(boxes=n), id=f"box{n}") for n in (2, 3, 4)]


@pytest.mark.parametrize("text", KERNEL_DOMAINS)
def test_copy_on_change_writes_match_the_copying_kernel(text):
    bundle = parse(text).build()
    u = bundle.universe
    rng = random.Random(7 * len(u))
    seen = set()
    for _ in range(PAIRS):
        world, human = random_pair(bundle, rng)
        for belief in (world, human):
            i, j = rng.sample(range(len(u)), 2)
            other = next(v for v in u.value_domains[i] if v != belief.values[i])
            batches = [
                # several writes, some of which may change nothing
                [(k, rng.choice(u.value_domains[k])) for k in rng.sample(range(len(u)), 4)],
                [(i, other), (i, belief.values[i])],  # set, then restore
                [(i, other), (j, belief.values[j])],
                [(j, belief.values[j]), (i, "not-a-value")],  # no change, then bad
                [(i, "not-a-value"), (j, belief.values[j])],
                [(i, other), (j, "not-a-value")],  # a change, then bad
                [(j, belief.values[j])],
                [],
            ]
            for updates in batches:
                kind = agree(
                    result(belief.with_values_at, updates),
                    result(copying_with_values_at, belief, updates),
                    (belief,),
                )
                seen.add(kind)
    assert seen == {"same", "changed", "raise"}


def kernel_ops(bundle):
    """Every grounded operator of both agents, plus each agent's WAIT/IDLE."""
    ops = []
    for agent, dom in bundle.problem.domains.items():
        ops.extend(dom.ground_ops.values())
        ops.extend((wait_op(agent), idle_op(agent)))
    return ops


@pytest.mark.parametrize("text", KERNEL_DOMAINS)
def test_belief_steps_match_the_copying_kernel(text):
    bundle = parse(text).build()
    problem, model = bundle.problem, bundle.obs_model
    robot, human_id = problem.robot, problem.human
    ops = kernel_ops(bundle)
    rng = random.Random(len(bundle.universe))
    seen = {"protocol": set(), "legacy": set()}
    for n in range(PAIRS):
        world, human = random_pair(bundle, rng)
        if n % 2:  # an assessed human, as a step after the root sees one
            human = model.assess(human, world)
        for op in ops:
            for actor in (robot, human_id):
                seen["protocol"].add(agree(
                    result(step_belief_protocol, world, human, op, actor, robot, human_id, model),
                    result(copying_step, world, human, op, actor, robot, human_id, model),
                    (world, human),
                ))
                seen["legacy"].add(agree(
                    result(legacy_step, world, human, op, actor, human_id),
                    result(copying_legacy_step, world, human, op, actor, human_id),
                    (world, human),
                ))
    assert seen["protocol"] == seen["legacy"] == {"same", "changed", "raise"}


# An agent with no AgtAt attribute: the robot is outside AgtAt's group.
UNPLACED_DOM = """\
beliefhtn-domain 1
domain unplaced
group Places Here
group Bots bot
group Humans person
agents bot person
svar AgtAt (?a Humans) -> Places : obs
svar Done -> bool : obs
place AgtAt(?a) value-of AgtAt(?a)
place Done at Here
operator tick for bot
end
operator mark for bot
  eff Done = true
end
operator finish for person
  pre Done = true
end
method m-root for both
  task Root
  sub m mark
  sub f finish
  order m < f
end
root r Root
init AgtAt(person) = Here
init Done = false
start bot
"""


def test_an_actor_with_no_location_raises_in_both_kernels():
    # The bundle builds, so each step must still look the actor's place
    # up, even for an operator that changes nothing.
    bundle = parse_bundle(UNPLACED_DOM)
    problem, model = bundle.problem, bundle.obs_model
    world, human = problem.world, problem.human_belief
    ops = {op.name: op for op in kernel_ops(bundle) if op.agent == "bot"}
    for name in ("tick", "mark", "WAIT", "IDLE"):
        args = (world, human, ops[name], "bot", "bot", "person", model)
        new = result(step_belief_protocol, *args)
        assert new[0] == "raise" and "'bot' is not a member of group 'Humans'" in new[2]
        assert new == result(copying_step, *args)


@pytest.mark.parametrize("domain", ["cooking", "box"])
@pytest.mark.parametrize("mode", [MODE_NEW, MODE_LEGACY])
def test_replay_totals_match_one_report_per_node(domain, mode, studies):
    # The stride-17 study sample, as the session's one run planned it.
    study = studies.runs[domain]
    model = study.bundle.obs_model
    for _, _, policy in study.in_order(mode)[::STRIDE]:
        assert simulate(policy, model) == copying_simulate(policy, model)
