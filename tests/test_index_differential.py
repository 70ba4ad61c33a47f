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
"""

from __future__ import annotations

import random

import pytest

from beliefhtn import BeliefState, ObsClass, parse
from beliefhtn.builtins import BOX_DOM, COOKING_DOM, box_dom
from beliefhtn.errors import BadRule, BadValue
from beliefhtn.htn import EffectOp, applicable, apply_effects
from beliefhtn.observability import LOCATION_SYMBOL

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
        for dom in bundle.problem.domains.values()
        for schema in dom.operators
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
