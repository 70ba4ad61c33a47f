"""Differential test: smallest-first subset tells against the queue BFS.

``min_comm_bfs`` tries the subsets of the diverging attributes smallest
first, in ``itertools.combinations`` order, and tells the first whose
alignment leaves no relevant divergence; the empty subset is the belief
itself.  The reference below keeps the earlier search: a breadth-first
queue over beliefs, one aligned attribute per step, pruned by a visited set
of aligned-attribute subsets, with the relevance rule that skipped WAIT and
IDLE operators, entered only after a separate relevance check.  Both must
return exactly the same tells on every new-mode state the stride-17 study
sample plans, in both domains, and on seeded random diverged beliefs of
``box_dom(2..5)``.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from beliefhtn import MODE_NEW, BeliefState, builtin_bundle, parse_bundle, plan, planner
from beliefhtn.builtins import box_dom
from beliefhtn.communication import (
    CommAction,
    apply_comm_plan,
    is_relevant_divergence,
    min_comm_bfs,
)
from beliefhtn.htn import applicable, apply_effects, idle_op, wait_op
from beliefhtn.state import diverging_attributes

from test_search_cache import STRIDE, study_problems

RANDOM_PAIRS = 250


# -- reference: queue BFS over aligned-attribute subsets ----------------------


def ref_is_relevant(world, human_belief, human_ops) -> bool:
    if world.values == human_belief.values:
        return False
    for op in human_ops:
        if op.is_pseudo:
            continue
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


def ref_tells(world, human_belief, human_ops) -> tuple[CommAction, ...]:
    if not ref_is_relevant(world, human_belief, human_ops):
        return ()
    attributes = world.universe.attributes
    divergent = diverging_attributes(world, human_belief)
    truth = world.values
    queue = deque([(human_belief, ())])
    visited = {frozenset()}
    while queue:
        belief, aligned = queue.popleft()
        if not ref_is_relevant(world, belief, human_ops):
            return tuple(CommAction(attributes[i], truth[i]) for i in aligned)
        for i in divergent:
            if i in aligned:
                continue
            key = frozenset(aligned) | {i}
            if key in visited:
                continue
            visited.add(key)
            queue.append((belief.with_values_at(((i, truth[i]),)), aligned + (i,)))
    raise AssertionError("full alignment must remove relevance")


# -- the two agree ------------------------------------------------------------


def assert_same_tells(world, human, ops):
    tells = min_comm_bfs(world, human, ops)
    assert tells == ref_tells(world, human, ops)
    relevant = is_relevant_divergence(world, human, ops)
    assert relevant == ref_is_relevant(world, human, ops)
    assert (tells == ()) == (not relevant)
    assert not is_relevant_divergence(world, apply_comm_plan(tells, human), ops)
    return relevant


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_planned_states_get_the_reference_tells(domain, monkeypatch):
    seen = []
    tells = planner.min_comm_bfs

    def recording(world, human_belief, human_ops):
        seen.append((world, human_belief, human_ops))
        return tells(world, human_belief, human_ops)

    monkeypatch.setattr(planner, "min_comm_bfs", recording)
    bundle = builtin_bundle(domain)
    for _, problem in study_problems(bundle, domain, STRIDE):
        plan(problem, bundle.obs_model, MODE_NEW)
    monkeypatch.undo()
    relevant = sum(assert_same_tells(*args) for args in seen)
    assert 0 < relevant < len(seen)  # both outcomes occur


@pytest.mark.parametrize("boxes", [2, 3, 4, 5])
def test_random_diverged_beliefs_get_the_reference_tells(boxes):
    bundle = parse_bundle(box_dom(boxes))
    u = bundle.universe
    robot, human = bundle.problem.robot, bundle.problem.human
    ops = tuple(bundle.problem.domains[human].ground_ops.values())
    rng = random.Random(boxes)
    relevant = 0
    for _ in range(RANDOM_PAIRS):
        w_vals = tuple(rng.choice(dom) for dom in u.value_domains)
        h_vals = tuple(
            v if rng.random() < 0.7 else rng.choice(dom) for v, dom in zip(w_vals, u.value_domains)
        )
        world, belief = BeliefState(robot, u, w_vals), BeliefState(human, u, h_vals)
        relevant += assert_same_tells(world, belief, ops)
        # WAIT and IDLE can never make a divergence relevant.
        with_pseudo = ops + (wait_op(human), idle_op(human))
        assert is_relevant_divergence(world, belief, with_pseudo) == ref_is_relevant(
            world, belief, ops
        )
    assert 0 < relevant < RANDOM_PAIRS
