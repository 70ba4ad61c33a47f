"""Policy export formats: a text graph and a JSON object, plus a loader.

The JSON form embeds the domain text and the initial beliefs, so a saved
policy is self-contained: reloading rebuilds the problem bundle and the
policy DAG, enough to re-simulate or re-export.  Node beliefs are exported
as short digests.  Reloading re-derives them as the search did: from the
root beliefs, each edge applies its ``tell``s and then the mode's step, so a
reloaded policy prints exactly as the original.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .communication import CommAction, apply_comm_plan
from .domfile import ProblemBundle, parse_bundle
from .errors import DomainSyntaxError
from .htn import idle_op, wait_op
from .planner import (
    MODE_LEGACY,
    MODE_NEW,
    NodeKind,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    _root_human,
    _step,
)
from .state import BeliefState

POLICY_FORMAT = "beliefhtn-policy"
POLICY_VERSION = 1


def _digest(belief: BeliefState) -> str:
    payload = repr(belief.values).encode()
    return hashlib.sha1(payload).hexdigest()[:8]


def _collect(policy: PolicyTree) -> tuple[dict[int, int], list[PolicyNode]]:
    """Stable node numbering via preorder walk of the DAG."""
    ids: dict[int, int] = {}
    order: list[PolicyNode] = []

    def visit(node: PolicyNode) -> None:
        if id(node) in ids:
            return
        ids[id(node)] = len(order)
        order.append(node)
        for edge in node.edges:
            visit(edge.child)

    visit(policy.root)
    return ids, order


def to_text(policy: PolicyTree) -> str:
    ids, order = _collect(policy)
    lines = [
        f"policy mode={policy.mode} robot={policy.robot} human={policy.human} "
        f"nodes={len(order)}"
    ]
    for node in order:
        nid = ids[id(node)]
        lines.append(
            f"n{nid} turn={node.turn} kind={node.kind.value} "
            f"world=#{_digest(node.world)} belief=#{_digest(node.human_belief)}"
        )
        for edge in node.edges:
            comm = ""
            if edge.comms:
                comm = " [" + "; ".join(str(ca) for ca in edge.comms) + "]"
            lines.append(
                f"n{nid} -> n{ids[id(edge.child)]} : {edge.action}{comm}"
            )
    return "\n".join(lines) + "\n"


def to_json_obj(policy: PolicyTree, bundle: Optional[ProblemBundle] = None) -> dict:
    ids, order = _collect(policy)
    nodes = []
    for node in order:
        edges = []
        for edge in node.edges:
            edges.append(
                {
                    "action": {
                        "name": edge.action.name,
                        "agent": edge.action.agent,
                        "args": list(edge.action.args),
                        "kind": edge.action.kind.value,
                    },
                    "comms": [
                        {"attr": str(ca.attr), "value": ca.value} for ca in edge.comms
                    ],
                    "child": ids[id(edge.child)],
                }
            )
        nodes.append(
            {
                "id": ids[id(node)],
                "turn": node.turn,
                "kind": node.kind.value,
                "done": node.done,
                "world": f"#{_digest(node.world)}",
                "belief": f"#{_digest(node.human_belief)}",
                "edges": edges,
            }
        )
    obj = {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "mode": policy.mode,
        "robot": policy.robot,
        "human": policy.human,
        "init_world": {str(a): v for a, v in policy.init_world.as_dict().items()},
        "init_human": {str(a): v for a, v in policy.init_human.as_dict().items()},
        "root": 0,
        "nodes": nodes,
    }
    if bundle is not None:
        from .domfile import serialize

        obj["domain_text"] = serialize(bundle.domfile)
    return obj


def to_json(policy: PolicyTree, bundle: Optional[ProblemBundle] = None) -> str:
    return json.dumps(to_json_obj(policy, bundle), indent=2, sort_keys=False)


def load_json(text: str) -> tuple[ProblemBundle, PolicyTree]:
    """Rebuild a problem bundle and policy DAG from an exported JSON policy."""
    obj = json.loads(text)
    if obj.get("format") != POLICY_FORMAT or obj.get("version") != POLICY_VERSION:
        raise DomainSyntaxError("not a beliefhtn policy file")
    if "domain_text" not in obj:
        raise DomainSyntaxError("policy file has no embedded domain text")
    bundle = parse_bundle(obj["domain_text"])
    universe = bundle.universe

    def belief_from(table: dict, owner: str) -> BeliefState:
        assignment = {bundle.attr(key): value for key, value in table.items()}
        return BeliefState.from_mapping(owner, universe, assignment)

    init_world = belief_from(obj["init_world"], obj["robot"])
    init_human = belief_from(obj["init_human"], obj["human"])

    mode, robot, human = obj["mode"], obj["robot"], obj["human"]
    if mode not in (MODE_NEW, MODE_LEGACY):
        raise DomainSyntaxError(f"unknown solver mode {mode!r}")
    specs = {spec["id"]: spec for spec in obj["nodes"]}
    nodes: dict[int, PolicyNode] = {}

    def build(nid: int, world: BeliefState, human_belief: BeliefState) -> PolicyNode:
        if nid in nodes:  # the search memoised it: same beliefs on every path
            return nodes[nid]
        spec = specs[nid]
        node = nodes[nid] = PolicyNode(
            world, human_belief, spec["done"], spec["turn"], NodeKind(spec["kind"])
        )
        edges = []
        for e in spec["edges"]:
            a = e["action"]
            kind = a["kind"]
            if kind == "idle":
                op = idle_op(a["agent"])
            elif kind == "wait":
                op = wait_op(a["agent"])
            else:
                op = bundle.problem.domain_of(a["agent"]).ground_ops[(a["name"], tuple(a["args"]))]
            comms = tuple(
                CommAction(robot, human, bundle.attr(c["attr"]), c["value"])
                for c in e["comms"]
            )
            w2, h2 = _step(
                mode, bundle.obs_model, robot, human, world,
                apply_comm_plan(comms, human_belief), op, node.turn,
            )
            edges.append(PolicyEdge(op, comms, (), None, build(e["child"], w2, h2)))
        node.edges = tuple(edges)
        return node

    root = build(
        obj["root"], init_world, _root_human(mode, bundle.obs_model, init_world, init_human)
    )
    return bundle, PolicyTree(mode, robot, human, init_world, init_human, root)
