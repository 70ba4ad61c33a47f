from __future__ import annotations

import itertools
import random

from beliefhtn import (
    BeliefState,
    CommAction,
    apply_comm_plan,
    diverging_attributes,
    is_relevant_divergence,
    min_comm_bfs,
)


def tell(world, human, attr):
    """The robot telling the human its ground-truth value of ``attr``."""
    return CommAction(attr, world.get(attr))


def human_ops(bundle):
    return tuple(bundle.problem.domains[bundle.problem.human].ground_ops.values())


def test_apply_comm_salt(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
    human = cooking.problem.human_belief
    ca = tell(world, human, u.attr("SaltInPot"))
    updated = apply_comm_plan((ca,), human)
    assert updated.get(u.attr("SaltInPot")) == "true"
    for attr in u.attributes:
        if str(attr) != "SaltInPot":
            assert updated.get(attr) == human.get(attr)


def test_a_tell_of_a_held_value_writes_nothing(cooking):
    # A tell is a write: of a value the human holds, it leaves the same
    # belief object, and a tell said twice writes once.
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
    human = cooking.problem.human_belief
    held = CommAction(u.attr("SaltInPot"), human.get(u.attr("SaltInPot")))
    assert apply_comm_plan((held,), human) is human
    assert apply_comm_plan((), human) is human
    ca = tell(world, human, u.attr("SaltInPot"))
    once = apply_comm_plan((ca,), human)
    assert once is not human
    assert apply_comm_plan((ca, ca), human) == once
    assert apply_comm_plan((ca,), once) is once


def test_apply_comm_pasta_location(cooking):
    u = cooking.universe
    world = cooking.problem.world.with_value(u.attr("PastaLoc"), "Kitchen")
    human = cooking.problem.human_belief.with_value(u.attr("PastaLoc"), "Room")
    ca = tell(world, human, u.attr("PastaLoc"))
    assert apply_comm_plan((ca,), human).get(u.attr("PastaLoc")) == "Kitchen"


def test_relevance_salt_blocks_pour(cooking):
    # Human ready to pour but believing the pot unsalted: the divergence
    # changes the applicable set, hence relevant.
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("HumanHasPasta"), "true")
    )
    human = world.with_owner("human").with_value(u.attr("SaltInPot"), "false")
    assert is_relevant_divergence(world, human, human_ops(cooking))


def test_relevance_zero_divergence_false(cooking):
    world = cooking.problem.world
    assert not is_relevant_divergence(world, world.with_owner("human"), human_ops(cooking))


def test_relevance_ignores_unread_attribute(cooking):
    # PastaInPot is written only by a constant effect and read by nothing:
    # diverging on it never changes what the human can do or would cause.
    u = cooking.universe
    world = cooking.problem.world
    human = world.with_owner("human").with_value(u.attr("PastaInPot"), "true")
    ops = human_ops(cooking)
    # Brute-force oracle over both applicable sets.
    from beliefhtn.htn import applicable

    set_belief = {str(op) for op in ops if applicable(op, human)}
    set_world = {str(op) for op in ops if applicable(op, world)}
    assert set_belief == set_world
    assert not is_relevant_divergence(world, human, ops)


def test_relevance_different_effects_clause(box):
    # fill is applicable under both beliefs but lands on different counts.
    u = box.universe
    world = box.problem.world
    human = world.with_owner("human").with_value(u.attr("BallsInBox", "box1"), 1)
    assert is_relevant_divergence(world, human, human_ops(box))


def test_min_comm_single_salt_tell(cooking):
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("HumanHasPasta"), "true")
    )
    human = world.with_owner("human").with_value(u.attr("SaltInPot"), "false")
    plan = min_comm_bfs(world, human, human_ops(cooking))
    assert len(plan) == 1
    assert str(plan[0]) == "tell(SaltInPot, true)"


def test_min_comm_empty_when_not_relevant(cooking):
    world = cooking.problem.world
    plan = min_comm_bfs(world, world.with_owner("human"), human_ops(cooking))
    assert len(plan) == 0


def test_min_comm_skips_irrelevant_divergence(cooking):
    # Salt relevant, PastaInPot irrelevant: only salt is communicated, and
    # the 2^2 subset oracle confirms no smaller aligning set exists.
    u = cooking.universe
    world = (
        cooking.problem.world.with_value(u.attr("SaltInPot"), "true")
        .with_value(u.attr("Stove"), "on")
        .with_value(u.attr("HumanHasPasta"), "true")
        .with_value(u.attr("PastaInPot"), "true")
    )
    human = (
        world.with_owner("human")
        .with_value(u.attr("SaltInPot"), "false")
        .with_value(u.attr("PastaInPot"), "false")
    )
    ops = human_ops(cooking)
    plan = min_comm_bfs(world, human, ops)
    assert [str(ca.attr) for ca in plan] == ["SaltInPot"]
    assert subset_minimum(world, human, ops) == 1


def subset_minimum(world, human, ops):
    """Exhaustive oracle: smallest aligning subset of diverging attributes."""
    divergent = diverging_attributes(world, human)
    if not is_relevant_divergence(world, human, ops):
        return 0
    for k in range(len(divergent) + 1):
        for combo in itertools.combinations(divergent, k):
            belief = human.with_values_at((i, world.values[i]) for i in combo)
            if not is_relevant_divergence(world, belief, ops):
                return k
    raise AssertionError("full alignment must remove relevance")


def random_pair(bundle, rng):
    u = bundle.universe
    w_vals = tuple(rng.choice(dom) for dom in u.value_domains)
    h_vals = tuple(
        w_vals[i] if rng.random() < 0.6 else rng.choice(u.value_domains[i])
        for i in range(len(w_vals))
    )
    return BeliefState("robot", u, w_vals), BeliefState("human", u, h_vals)


def test_min_comm_matches_subset_oracle_randomized(cooking, box):
    rng = random.Random(2024)
    for bundle in (cooking, box):
        ops = human_ops(bundle)
        for _ in range(80):
            world, human = random_pair(bundle, rng)
            plan = min_comm_bfs(world, human, ops)
            assert len(plan) == subset_minimum(world, human, ops)
            aligned = apply_comm_plan(plan, human)
            assert not is_relevant_divergence(world, aligned, ops)
            # Soundness persists after a subsequent assessment.
            assessed = bundle.obs_model.assess(aligned, world)
            assert not is_relevant_divergence(world, assessed, ops)


def test_min_comm_upper_bound_and_determinism(cooking):
    rng = random.Random(7)
    ops = human_ops(cooking)
    for _ in range(60):
        world, human = random_pair(cooking, rng)
        plan1 = min_comm_bfs(world, human, ops)
        plan2 = min_comm_bfs(world, human, ops)
        assert plan1 == plan2
        assert len(plan1) <= len(diverging_attributes(world, human))
