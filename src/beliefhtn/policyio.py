"""Policy export formats: a text graph and a JSON object, plus a loader.

The JSON form embeds the domain text and the initial beliefs, so a saved
policy is self-contained: reloading rebuilds the problem bundle and the
policy DAG, enough to re-simulate or re-export.  Node beliefs are exported
as short digests.  Reloading re-derives them as the search did: from the
root beliefs, each edge applies its ``tell``s and then the mode's step, and
checks each node's digests, so a reloaded policy prints exactly as the
original.  It also re-derives the task networks consistent with each path
and asks :func:`~beliefhtn.planner.moves`, the search's own move rule,
whether each edge is a move and whether each human node answers every
emulated human choice, and it lets no branch end in success, or count as
done, before its work is; so a policy that replays successfully covers
every emulated choice.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .communication import CommAction, apply_comm_plan
from .domfile import ProblemBundle, parse_bundle, serialize
from .errors import BeliefHtnError, DomainSyntaxError
from .htn import GroundedOperator, HtnProblem, TaskNetwork, idle_op, wait_op
from .planner import (
    MODE_LEGACY,
    MODE_NEW,
    NodeKind,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    _canonical,
    _policy_walk,
    _root_human,
    _step,
    _tell_rule,
    moves,
)
from .state import BeliefState

POLICY_FORMAT = "beliefhtn-policy"
POLICY_VERSION = 1
_KINDS = {kind.value for kind in NodeKind}


def _digest(belief: BeliefState) -> str:
    payload = repr(belief.values).encode()
    return hashlib.sha1(payload).hexdigest()[:8]


def _collect(policy: PolicyTree) -> tuple[dict[int, int], list[PolicyNode]]:
    """Stable node numbering in preorder: the root, then each edge's child
    where :func:`~beliefhtn.planner._policy_walk` first reaches it."""
    ids = {id(policy.root): 0}
    order = [policy.root]

    def number(_: PolicyNode, edge: PolicyEdge) -> None:
        if id(edge.child) not in ids:
            ids[id(edge.child)] = len(order)
            order.append(edge.child)

    _policy_walk(policy.root, number, set())
    return ids, order


def _tells(comms: tuple[CommAction, ...]) -> str:
    return "; ".join(str(ca) for ca in comms)


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
            comm = f" [{_tells(edge.comms)}]" if edge.comms else ""
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

    A malformed file raises :class:`DomainSyntaxError`: a field missing or
    of the wrong JSON type, a node id listed twice, a told value outside its
    domain, an edge the beliefs its path derives cannot take, or a node
    whose digests do not match them.  So does a policy the search could not
    have built: an edge whose tells are not the ones the search's tell
    rule, :func:`~beliefhtn.planner._tell_rule`, gives for the node's
    beliefs (none at a done node); or (:func:`_check_moves`) an edge that
    is not a move of its node's agent, a robot node with two
    edges, a human node whose edges are not the human's moves from any
    network its path allows, or a node marked done or a success leaf while
    work is left.  The robot's choice of move stays free: a file whose
    robot takes another move that still succeeds loads.  Any other node
    without edges ends its branch, which replay reports as a deadlock.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise DomainSyntaxError(f"policy file is not JSON: {exc}") from exc
    header = (obj.get("format"), obj.get("version")) if type(obj) is dict else None
    if header != (POLICY_FORMAT, POLICY_VERSION):
        raise DomainSyntaxError("not a beliefhtn policy file")
    bundle = parse_bundle(_field(obj, "domain_text", str))
    try:
        return bundle, _load_policy(obj, bundle)
    except DomainSyntaxError:
        raise
    except BeliefHtnError as exc:  # a value, tell or action the beliefs cannot take
        raise DomainSyntaxError(str(exc)) from exc


def _field(obj: object, key: str, *types: type):
    """``obj[key]`` of a JSON object; its type must be one of ``types``, if
    any are given (exactly, so a boolean is not an int)."""
    if type(obj) is not dict or key not in obj:
        raise DomainSyntaxError(f"policy file lacks the field {key!r}")
    if types and type(obj[key]) not in types:
        raise DomainSyntaxError(f"policy file: the field {key!r} has the wrong type")
    return obj[key]


def _load_policy(obj: dict, bundle: ProblemBundle) -> PolicyTree:
    mode, robot, human = (_field(obj, key, str) for key in ("mode", "robot", "human"))
    if mode not in (MODE_NEW, MODE_LEGACY):
        raise DomainSyntaxError(f"unknown solver mode {mode!r}")
    if (robot, human) != (bundle.problem.robot, bundle.problem.human):
        raise DomainSyntaxError(f"robot/human {robot!r}/{human!r} are not the domain's agents")

    def belief_from(key: str, owner: str) -> BeliefState:
        assignment = {bundle.attr(name): value for name, value in _field(obj, key, dict).items()}
        return BeliefState.from_mapping(owner, bundle.universe, assignment)

    init_world = belief_from("init_world", robot)
    init_human = belief_from("init_human", human)
    specs: dict[int, dict] = {}
    for spec in _field(obj, "nodes", list):
        nid = _field(spec, "id", int)
        if nid in specs:
            raise DomainSyntaxError(f"node {nid} is listed twice")
        specs[nid] = spec
    nodes: dict[int, Optional[PolicyNode]] = {}
    human_ops = tuple(bundle.problem.domain_of(human).ground_ops.values())
    root = _load_node(
        bundle, mode, human_ops, specs, nodes, _field(obj, "root", int), init_world,
        _root_human(mode, bundle.obs_model, init_world, init_human),
    )
    _check_moves(bundle.problem, root, {id(node): nid for nid, node in nodes.items()})
    return PolicyTree(mode, robot, human, init_world, init_human, root)


def _check_moves(problem: HtnProblem, root: PolicyNode, names: dict[int, int]) -> None:
    """Check that each edge is a move (:func:`~beliefhtn.planner.moves`) of
    its node's agent, that a robot node has one edge and a human node's
    edges are its moves, and that a node is ``done`` or a success leaf only
    once the work is.

    The walk carries, with each node, the task networks consistent with its
    path from ``problem.network``, one per canonical key.  A robot's moves
    that share an action but leave different networks all stay in the set,
    so it may hold networks the node was not planned from.  A human node's
    edge actions must be the moves, in the belief after the node's one set
    of tells, from at least one of them; the others are dropped, and edge i
    leads on to the network of move i.  A robot node's edge must be a move
    from one of them, and a done or success node needs an empty one.
    ``names`` maps each node's identity to its id in the file.
    """
    walked: set[tuple[int, frozenset]] = set()
    stack = [(root, {id(_canonical(problem.network)): problem.network})]
    while stack:
        node, networks = stack.pop()
        seen = (id(node), frozenset(networks))
        if seen in walked:
            continue
        walked.add(seen)
        nid = names[id(node)]
        if node.done or node.kind is NodeKind.SUCCESS:
            if not any(network.is_empty for network in networks.values()):
                raise DomainSyntaxError(f"node {nid}: done or a success while work is left")
        if not node.edges:
            continue
        is_human = node.turn == problem.human
        if not is_human and len(node.edges) > 1:
            raise DomainSyntaxError(f"node {nid}: the robot takes more than one move")
        comms = node.edges[0].comms  # every edge's, by the tell rule
        belief = apply_comm_plan(comms, node.human_belief) if is_human else node.world
        actions = [edge.action for edge in node.edges]
        after: list[dict[int, TaskNetwork]] = [{} for _ in actions]
        for network in networks.values():
            found = moves(problem.domains, belief, network, node.turn)
            if is_human:
                if [m.op for m in found] != actions:
                    continue  # not a network this node was planned from
                taken = zip(after, found)  # edge i is move i
            else:
                taken = ((after[0], m) for m in found if m.op == actions[0])
            for reached, move in taken:
                reached.setdefault(id(_canonical(move.network)), move.network)
        if is_human and not after[0]:
            raise DomainSyntaxError(f"node {nid}: the edges are not the human's moves")
        for edge, reached in zip(node.edges, after):
            if not reached:
                raise DomainSyntaxError(
                    f"node {nid}: {edge.action} is not a move of {node.turn!r}"
                )
            stack.append((edge.child, reached))


def _load_node(
    bundle: ProblemBundle,
    mode: str,
    human_ops: tuple[GroundedOperator, ...],
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
    turn, done, kind = _field(spec, "turn", str), _field(spec, "done"), _field(spec, "kind", str)
    if turn not in (robot, human) or not isinstance(done, bool) or kind not in _KINDS:
        raise DomainSyntaxError(f"node {nid}: bad turn/done/kind {turn!r}/{done!r}/{kind!r}")
    digests = f"#{_digest(world)}", f"#{_digest(human_belief)}"
    if (_field(spec, "world"), _field(spec, "belief")) != digests:
        raise DomainSyntaxError(f"node {nid}: digests do not match the beliefs its path derives")
    nodes[nid] = None
    rule = () if done else _tell_rule(mode, world, human_belief, human_ops)
    edges = []
    for e in _field(spec, "edges", list):
        op = _operator(bundle, _field(e, "action", dict), turn)
        comms = tuple(
            CommAction(bundle.attr(_field(c, "attr", str)), _field(c, "value"))
            for c in _field(e, "comms", list)
        )
        told = apply_comm_plan(comms, human_belief)  # first: a value outside its domain raises
        if comms != rule:
            raise DomainSyntaxError(
                f"node {nid}: {op} carries the tells [{_tells(comms)}], "
                f"not the search's [{_tells(rule)}]"
            )
        w2, h2 = _step(mode, bundle.obs_model, robot, human, world, told, op, turn)
        child = _load_node(bundle, mode, human_ops, specs, nodes, _field(e, "child", int), w2, h2)
        edges.append(PolicyEdge(op, comms, child))
    node = nodes[nid] = PolicyNode(world, human_belief, done, turn, NodeKind(kind), tuple(edges))
    return node


def _operator(bundle: ProblemBundle, a: dict, turn: str) -> GroundedOperator:
    """The operator an exported action names, which ``turn`` must own."""
    name, agent, kind = (_field(a, key, str) for key in ("name", "agent", "kind"))
    args = tuple(_field(a, "args", list))
    if any(type(arg) is not str for arg in args):
        raise DomainSyntaxError(f"action {name}: its arguments must be strings")
    if kind in ("idle", "wait") and agent == turn:
        return idle_op(turn) if kind == "idle" else wait_op(turn)
    op = bundle.problem.domain_of(turn).ground_ops.get((name, args))
    if op is None or agent != turn or op.kind.value != kind:
        raise DomainSyntaxError(f"{kind} action {name}{args} is not an operator of {turn!r}")
    return op
