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
from .domfile import ProblemBundle, parse_bundle, serialize
from .errors import DomainSyntaxError
from .htn import GroundedOperator, idle_op, wait_op
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
_KINDS = {kind.value for kind in NodeKind}


def _digest(belief: BeliefState) -> str:
    payload = repr(belief.values).encode()
    return hashlib.sha1(payload).hexdigest()[:8]


def _collect(policy: PolicyTree) -> tuple[dict[int, int], list[PolicyNode]]:
    """Stable node numbering via preorder walk of the DAG."""
    ids: dict[int, int] = {}
    order: list[PolicyNode] = []
    _preorder(policy.root, ids, order)
    return ids, order


def _preorder(node: PolicyNode, ids: dict[int, int], order: list[PolicyNode]) -> None:
    if id(node) in ids:
        return
    ids[id(node)] = len(order)
    order.append(node)
    for edge in node.edges:
        _preorder(edge.child, ids, order)


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

    def edge_obj(edge: PolicyEdge) -> dict:
        op = edge.action
        action = {"name": op.name, "agent": op.agent, "args": list(op.args), "kind": op.kind.value}
        comms = [{"attr": str(ca.attr), "value": ca.value} for ca in edge.comms]
        return {"action": action, "comms": comms, "child": ids[id(edge.child)]}

    nodes = [
        {
            "id": ids[id(node)],
            "turn": node.turn,
            "kind": node.kind.value,
            "done": node.done,
            "world": f"#{_digest(node.world)}",
            "belief": f"#{_digest(node.human_belief)}",
            "edges": [edge_obj(edge) for edge in node.edges],
        }
        for node in order
    ]
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
        obj["domain_text"] = serialize(bundle.domfile)
    return obj


def to_json(policy: PolicyTree, bundle: Optional[ProblemBundle] = None) -> str:
    return json.dumps(to_json_obj(policy, bundle), indent=2, sort_keys=False)


def load_json(text: str) -> tuple[ProblemBundle, PolicyTree]:
    """Rebuild a problem bundle and policy DAG from an exported JSON policy.

    A file that is not a policy over its embedded domain's robot and human,
    with boolean ``done`` flags, known node kinds, operators of the acting
    agent and edges to listed nodes, raises :class:`DomainSyntaxError`.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise DomainSyntaxError(f"policy file is not JSON: {exc}") from exc
    if obj.get("format") != POLICY_FORMAT or obj.get("version") != POLICY_VERSION:
        raise DomainSyntaxError("not a beliefhtn policy file")
    if "domain_text" not in obj:
        raise DomainSyntaxError("policy file has no embedded domain text")
    bundle = parse_bundle(obj["domain_text"])
    try:
        return bundle, _load_policy(obj, bundle)
    except KeyError as exc:
        raise DomainSyntaxError(f"policy file lacks the field {exc}") from exc


def _load_policy(obj: dict, bundle: ProblemBundle) -> PolicyTree:
    mode, robot, human = obj["mode"], obj["robot"], obj["human"]
    if mode not in (MODE_NEW, MODE_LEGACY):
        raise DomainSyntaxError(f"unknown solver mode {mode!r}")
    if (robot, human) != (bundle.problem.robot, bundle.problem.human):
        raise DomainSyntaxError(f"robot/human {robot!r}/{human!r} are not the domain's agents")

    def belief_from(table: dict, owner: str) -> BeliefState:
        assignment = {bundle.attr(key): value for key, value in table.items()}
        return BeliefState.from_mapping(owner, bundle.universe, assignment)

    init_world = belief_from(obj["init_world"], robot)
    init_human = belief_from(obj["init_human"], human)
    specs = {spec["id"]: spec for spec in obj["nodes"]}
    root = _load_node(
        bundle, mode, specs, {}, obj["root"], init_world,
        _root_human(mode, bundle.obs_model, init_world, init_human),
    )
    return PolicyTree(mode, robot, human, init_world, init_human, root)


def _load_node(
    bundle: ProblemBundle,
    mode: str,
    specs: dict,
    nodes: dict[int, Optional[PolicyNode]],
    nid: int,
    world: BeliefState,
    human_belief: BeliefState,
) -> PolicyNode:
    """Rebuild node ``nid`` reached with these beliefs, after its subtree.

    ``nodes`` holds each node built so far, and None for each node on the
    current path: a policy is acyclic, and each node has one pair of beliefs.
    """
    if nid in nodes:
        node = nodes[nid]
        if node is None:
            raise DomainSyntaxError(f"node {nid}: an edge leads back to it on its own path")
        if (node.world, node.human_belief) != (world, human_belief):
            raise DomainSyntaxError(f"node {nid}: reached with two different beliefs")
        return node
    if nid not in specs:
        raise DomainSyntaxError(f"policy file names no node {nid!r}")
    robot, human = bundle.problem.robot, bundle.problem.human
    spec = specs[nid]
    turn, done, kind = spec["turn"], spec["done"], spec["kind"]
    if turn not in (robot, human) or not isinstance(done, bool) or kind not in _KINDS:
        raise DomainSyntaxError(f"node {nid}: bad turn/done/kind {turn!r}/{done!r}/{kind!r}")
    nodes[nid] = None
    edges = []
    for e in spec["edges"]:
        op = _operator(bundle, e["action"], turn)
        comms = tuple(
            CommAction(robot, human, bundle.attr(c["attr"]), c["value"]) for c in e["comms"]
        )
        w2, h2 = _step(
            mode, bundle.obs_model, robot, human, world,
            apply_comm_plan(comms, human_belief), op, turn,
        )
        child = _load_node(bundle, mode, specs, nodes, e["child"], w2, h2)
        edges.append(PolicyEdge(op, comms, child))
    node = nodes[nid] = PolicyNode(world, human_belief, done, turn, NodeKind(kind), tuple(edges))
    return node


def _operator(bundle: ProblemBundle, a: dict, turn: str) -> GroundedOperator:
    """The operator an exported action names, which ``turn`` must own."""
    name, args, kind = a["name"], tuple(a["args"]), a["kind"]
    if kind in ("idle", "wait") and a["agent"] == turn:
        return idle_op(turn) if kind == "idle" else wait_op(turn)
    op = bundle.problem.domain_of(turn).ground_ops.get((name, args))
    if op is None or a["agent"] != turn or op.kind.value != kind:
        raise DomainSyntaxError(f"{kind} action {name}{args} is not an operator of {turn!r}")
    return op
