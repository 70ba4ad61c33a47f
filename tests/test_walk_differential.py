"""Differential test: the one policy walk against the two it replaced.

``planner._policy_walk`` visits each (node, edge) of a policy DAG once,
depth first, with each edge followed by its child's subtree on the child's
first visit.  ``policy_comm_edges`` keeps the pairs whose edge carries a
tell, and ``policyio._collect`` numbers the root and then each edge's child
where the walk first reaches it.  The references in ``oracles`` are the
recursive walks they replaced: ``comm_edges`` and ``preorder``.  Both
results must equal the references', order included, on the stride-17 study
sample (both domains, both modes), on ``box_dom(2..4)``, and on a
hand-built DAG whose shared child sits below two tell edges and holds a
tell edge of its own, where a walk that visits all of a node's edges before
descending would put that tell edge last.
"""

from __future__ import annotations

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, builtin_bundle, parse_bundle, plan
from beliefhtn.builtins import box_dom
from beliefhtn.communication import CommAction
from beliefhtn.htn import idle_op
from beliefhtn.planner import NodeKind, PolicyEdge, PolicyNode, PolicyTree, policy_comm_edges
from beliefhtn.policyio import _collect

from oracles import comm_edges, preorder
from test_search_cache import STRIDE, study_problems

MODES = (MODE_LEGACY, MODE_NEW)


def assert_walks_agree(policy: PolicyTree) -> None:
    assert policy_comm_edges(policy) == comm_edges(policy)
    assert _collect(policy) == preorder(policy)


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_walk_matches_the_recursive_walks_on_the_study_sample(domain):
    bundle = builtin_bundle(domain)
    told = 0
    for mode in MODES:
        for _, problem in study_problems(bundle, domain, STRIDE):
            policy = plan(problem, bundle.obs_model, mode)
            assert_walks_agree(policy)
            told += bool(comm_edges(policy))
    assert told > 0  # the sample has tell edges to order


@pytest.mark.parametrize("boxes", [2, 3, 4])
def test_walk_matches_the_recursive_walks_on_box_dom(boxes):
    bundle = parse_bundle(box_dom(boxes))
    for mode in MODES:
        assert_walks_agree(plan(bundle.problem, bundle.obs_model, mode))


def test_walk_descends_before_the_next_edge_on_a_shared_child(cooking):
    world = cooking.problem.world
    robot, human = cooking.problem.robot, cooking.problem.human
    attr = cooking.universe.attributes[0]
    tell = (CommAction(attr, world.get(attr)),)

    def node(turn, *edges, kind=NodeKind.DECISION):
        return PolicyNode(world, world.with_owner(human), False, turn, kind, edges)

    leaf = node(robot, kind=NodeKind.SUCCESS)
    shared = node(human, PolicyEdge(idle_op(human), tell, leaf))
    root = node(
        robot,
        PolicyEdge(idle_op(robot), tell, shared),
        PolicyEdge(idle_op(robot), tell, shared),
    )
    policy = PolicyTree(MODE_NEW, robot, human, world, world.with_owner(human), root)
    assert_walks_agree(policy)
    first, second = root.edges
    assert policy_comm_edges(policy) == [
        (root, first), (shared, shared.edges[0]), (root, second)
    ]
    assert _collect(policy)[1] == [root, shared, leaf]
