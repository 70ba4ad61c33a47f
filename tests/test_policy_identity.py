"""Policy identity: search refactors must not change any planned policy.

Each row pins the SHA-256 of ``to_text(plan(...))`` and ``nodes_expanded``
for one problem, as recorded before the planner search was folded into a
single expansion loop.  A change here is a behaviour change of the planner
and must be justified as such, not absorbed by re-recording.
"""

from __future__ import annotations

import hashlib

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, builtin_bundle, parse, plan
from beliefhtn.builtins import box_dom
from beliefhtn.policyio import to_text

COOKING_ROBOT_NEW = "54723012c304c641e769be49b7907982098e60b6c027b6cb03c95f4ea51f6a27"
COOKING_ROBOT_LEGACY = "c22ad26b9a9350373ecebed72d8547374633ba74d90463c636309d9c35aec036"
COOKING_HUMAN_NEW = "4be74652563a00fedeebde8a22b7f2740341e7966853952afbfc7320b85fa9a3"
COOKING_HUMAN_LEGACY = "403efe5716ea057de6751c5b5a7a0e5d064021e970c9e87a110cc00e1858f16a"
BOX_NEW = "8cba3a482d569a89e4f1361f4d2c9b93a6ecd722404f21aa23ba7859aaa7188c"
BOX_LEGACY = "5638bd8db39c27c516d49d003a36918a52b10bdfd6a7977ca951649239217c0f"
BOX2_NEW = "1c60cdfe804e77db20a7ea0487f3cef27fb8b1116719e2e1b63f857d5c1d1096"
BOX4_NEW = "affd2780d31c12d29c7d8b210f69beb45252f2acbd868fb9a13e21cfab803cff"

CASES = [
    ("cooking", "robot", MODE_NEW, COOKING_ROBOT_NEW, 9),
    ("cooking", "robot", MODE_LEGACY, COOKING_ROBOT_LEGACY, 9),
    ("cooking", "human", MODE_NEW, COOKING_HUMAN_NEW, 8),
    ("cooking", "human", MODE_LEGACY, COOKING_HUMAN_LEGACY, 8),
    ("box", "robot", MODE_NEW, BOX_NEW, 44),
    ("box", "robot", MODE_LEGACY, BOX_LEGACY, 44),
    # box_dom(boxes=3) is the builtin box domain.
    (2, "robot", MODE_NEW, BOX2_NEW, 25),
    (3, "robot", MODE_NEW, BOX_NEW, 44),
    (4, "robot", MODE_NEW, BOX4_NEW, 107),
]


@pytest.mark.parametrize(
    "domain, start, mode, digest, nodes",
    CASES,
    ids=[f"{d if isinstance(d, str) else f'box{d}'}-{s}-{m}" for d, s, m, _, _ in CASES],
)
def test_policy_unchanged(domain, start, mode, digest, nodes):
    if isinstance(domain, str):
        bundle = builtin_bundle(domain).with_start(start)
    else:
        bundle = parse(box_dom(boxes=domain)).build()
    policy = plan(bundle.problem, bundle.obs_model, mode)
    text = to_text(policy)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert policy.nodes_expanded == nodes
