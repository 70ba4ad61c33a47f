"""Policy export formats: a text graph and a JSON object, plus a loader.

The JSON form embeds the domain text and the initial beliefs, so a saved
policy is self-contained: reloading rebuilds the problem bundle and the
policy DAG, enough to re-simulate or re-export.  Node beliefs are exported
as short digests.  The loader walks the file once from its root, carrying
to each node the beliefs, WAIT/IDLE run and task networks its path
derives, and checks the node's digests, turn, ``done``, tells and edges
there against the search's own node rule and move rule.  So a reloaded
policy prints exactly as the original, and one that replays successfully
covers every emulated human choice.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .communication import CommAction, apply_comm_plan
from .domfile import ProblemBundle, parse_bundle, serialize
from .errors import BadArgument, BeliefHtnError, DomainSyntaxError
from .htn import GroundedOperator, TaskNetwork, idle_op, wait_op
from .planner import (
    STALL_THRESHOLD,
    PolicyEdge,
    PolicyNode,
    PolicyTree,
    _canonical,
    _leaf_rule,
    _policy_walk,
    _root_human,
    _stall_run,
    _step,
    _turn_rule,
    check_mode,
    moves,
)
from .state import BeliefState

POLICY_FORMAT = "beliefhtn-policy"
POLICY_VERSION = 1


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
        comm = f" [{_tells(node.comms)}]" if node.comms else ""
        for edge in node.edges:
            lines.append(
                f"n{nid} -> n{ids[id(edge.child)]} : {edge.action}{comm}"
            )
    return "\n".join(lines) + "\n"


def to_json(policy: PolicyTree, bundle: ProblemBundle) -> str:
    """The policy as JSON with the bundle's domain text, as :func:`load_json` reads it."""
    ids, order = _collect(policy)

    def edge_obj(edge: PolicyEdge, comms: list[dict]) -> dict:
        op = edge.action
        action = {"name": op.name, "agent": op.agent, "args": list(op.args), "kind": op.kind.value}
        return {"action": action, "comms": comms, "child": ids[id(edge.child)]}

    def node_obj(node: PolicyNode) -> dict:
        comms = [{"attr": str(ca.attr), "value": ca.value} for ca in node.comms]
        return {
            "id": ids[id(node)],
            "turn": node.turn,
            "kind": node.kind.value,
            "done": node.done,
            "world": f"#{_digest(node.world)}",
            "belief": f"#{_digest(node.human_belief)}",
            "edges": [edge_obj(edge, comms) for edge in node.edges],
        }

    obj = {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "mode": policy.mode,
        "robot": policy.robot,
        "human": policy.human,
        "init_world": {str(a): v for a, v in policy.init_world.as_dict().items()},
        "init_human": {str(a): v for a, v in policy.init_human.as_dict().items()},
        "root": 0,
        "nodes": [node_obj(node) for node in order],
        "domain_text": serialize(bundle.domfile),
    }
    return json.dumps(obj, indent=2, sort_keys=False)


def load_json(text: str) -> tuple[ProblemBundle, PolicyTree]:
    """Rebuild a problem bundle and policy DAG from an exported JSON policy.

    A malformed file raises :class:`DomainSyntaxError`: a field missing or
    of the wrong JSON type, a node id listed twice or that no edge reaches,
    a WAIT or IDLE action with another name or with arguments, a told value
    outside its domain, or a node whose digests do not match the beliefs
    its path derives.  So does a policy the search could not have built,
    which the one walk (:class:`_Walk`) finds by the search's node rule: a
    node whose turn, ``done``, tells, edges or ``kind`` differ from the
    rule's answers on some path to it.  The robot's choice of move stays free.
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
    try:
        check_mode(mode)
    except BadArgument as exc:
        raise DomainSyntaxError(str(exc)) from exc
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
    walk = _Walk(bundle, mode, specs)
    # The root's turn is the domain's start: the other agent moved last.
    last = human if bundle.problem.start_agent == robot else robot
    root = walk.node(
        _field(obj, "root", int), last, init_world,
        _root_human(mode, bundle.obs_model, init_world, init_human), 0,
        {id(_canonical(bundle.problem.network)): bundle.problem.network},
    )
    for nid in specs:
        if nid not in walk.nodes:
            raise DomainSyntaxError(f"node {nid}: no edge reaches it")
    return PolicyTree(mode, robot, human, init_world, init_human, root)


class _Walk:
    """The loader's one walk, from the root, which checks each node on every
    path to it against the search's node rule.  ``nodes`` holds each node
    built so far with its run, and None for each node on the current path:
    a policy is acyclic, and each node has one pair of beliefs and one run.
    ``walked`` holds each node with each set of networks it was checked
    with, and ``found`` each node's moves from each network, asked once."""

    def __init__(self, bundle: ProblemBundle, mode: str, specs: dict[int, dict]):
        self.bundle = bundle
        self.problem = bundle.problem
        self.mode = mode
        self.specs = specs
        self.human_ops = tuple(self.problem.domains[self.problem.human].ground_ops.values())
        self.nodes: dict[int, Optional[tuple[PolicyNode, int]]] = {}
        self.walked: set[tuple[int, frozenset]] = set()
        self.found: dict[tuple[int, int], list] = {}

    def node(
        self, nid: int, mover: str, world: BeliefState, human_belief: BeliefState,
        run: int, networks: dict[int, TaskNetwork],
    ) -> PolicyNode:
        """Node ``nid``, reached after ``mover``'s turn (at the root, the agent
        who does not start) with these beliefs, WAIT/IDLE ``run`` and
        ``networks``, one per canonical key: a robot's moves that share an
        action but leave different networks all stay.  The node rule keeps
        those that agree on ``done``."""
        robot, human = self.problem.robot, self.problem.human
        hit = self.nodes.get(nid, False)
        if hit is None:
            raise DomainSyntaxError(f"node {nid}: an edge leads back to it on its own path")
        if hit and (hit[0].world, hit[0].human_belief, hit[1]) != (world, human_belief, run):
            raise DomainSyntaxError(f"node {nid}: reached with two different beliefs or runs")
        if nid not in self.specs:
            raise DomainSyntaxError(f"policy file names no node {nid!r}")
        spec = self.specs[nid]
        turn, done, kind = _field(spec, "turn", str), _field(spec, "done"), _field(spec, "kind", str)
        if turn not in (robot, human) or turn == mover or not isinstance(done, bool):
            raise DomainSyntaxError(f"node {nid}: bad turn/done {turn!r}/{done!r}")
        if (nid, frozenset(networks)) in self.walked:
            return hit[0]
        self.walked.add((nid, frozenset(networks)))
        digests = f"#{_digest(world)}", f"#{_digest(human_belief)}"
        if (_field(spec, "world"), _field(spec, "belief")) != digests:
            raise DomainSyntaxError(f"node {nid}: digests do not match the beliefs its path derives")
        networks = {
            key: network for key, network in networks.items()
            if (_leaf_rule(self.mode, network, run) == "done") == done
        }
        if not networks:
            raise DomainSyntaxError(
                f"node {nid}: done while work is left" if done
                else f"node {nid}: not done, but no work is left"
            )
        edge_specs = _field(spec, "edges", list)
        leaf = _leaf_rule(self.mode, next(iter(networks.values())), run)
        if leaf == "dead end" or leaf != "done" and (leaf is None) != bool(edge_specs):
            raise DomainSyntaxError(
                f"node {nid}: work is left, so it ends its branch exactly after "
                f"{STALL_THRESHOLD} WAIT/IDLE turns, in the legacy mode"
            )
        # A leaf tells nothing, and a done node's one move, IDLE, reads no belief.
        tells, told, belief = (
            _turn_rule(self.mode, world, human_belief, turn, human, self.human_ops)
            if leaf is None else ((), human_belief, world)
        )
        ops = []
        for e in edge_specs:
            op = _operator(self.bundle, _field(e, "action", dict), turn)
            comms = tuple(
                CommAction(self.bundle.attr(_field(c, "attr", str)), _field(c, "value"))
                for c in _field(e, "comms", list)
            )
            apply_comm_plan(comms, human_belief)  # first: a value outside its domain raises
            if comms != tells:
                raise DomainSyntaxError(
                    f"node {nid}: {op} carries the tells [{_tells(comms)}], "
                    f"not the search's [{_tells(tells)}]"
                )
            ops.append(op)
        after = self._moves(nid, networks, belief, turn, ops)
        self.nodes[nid] = None
        edges = []
        for e, op, reached in zip(edge_specs, ops, after):
            w2, h2 = _step(self.mode, self.bundle.obs_model, robot, human, world, told, op, turn)
            child = self.node(
                _field(e, "child", int), turn, w2, h2, _stall_run(run, op.is_pseudo), reached
            )
            edges.append(PolicyEdge(op, child))
        node = hit[0] if hit else PolicyNode(world, human_belief, done, turn, tells, tuple(edges))
        if kind != node.kind.value:  # the kind its done and edges give
            raise DomainSyntaxError(f"node {nid}: kind {kind!r}, not {node.kind.value!r}")
        self.nodes[nid] = (node, run)
        return node

    def _moves(
        self, nid: int, networks: dict[int, TaskNetwork], belief: BeliefState, turn: str,
        ops: list[GroundedOperator],
    ) -> list[dict[int, TaskNetwork]]:
        """The networks each edge leads on to.  A robot (OR) node's one edge is
        a move from one of ``networks`` at least; a human (AND) node's edges
        are all the moves from one at least, edge i leading to move i's."""
        is_human = turn == self.problem.human
        if not is_human and len(ops) > 1:
            raise DomainSyntaxError(f"node {nid}: the robot takes more than one move")
        after: list[dict[int, TaskNetwork]] = [{} for _ in ops]
        for key, network in networks.items() if ops else ():
            found = self.found.get((nid, key))
            if found is None:
                found = self.found[nid, key] = moves(self.problem.domains, belief, network, turn)
            if is_human:
                if [m.op for m in found] != ops:
                    continue  # not a network this node was planned from
                taken = zip(after, found)
            else:
                taken = ((after[0], m) for m in found if m.op == ops[0])
            for reached, move in taken:
                reached.setdefault(id(_canonical(move.network)), move.network)
        if ops and not after[0]:  # a human node that matches leads on along every edge
            raise DomainSyntaxError(
                f"node {nid}: the edges are not the human's moves" if is_human
                else f"node {nid}: {ops[0]} is not a move of {turn!r}"
            )
        return after


def _operator(bundle: ProblemBundle, a: dict, turn: str) -> GroundedOperator:
    """The operator an exported action names, which ``turn`` must own."""
    name, agent, kind = (_field(a, key, str) for key in ("name", "agent", "kind"))
    args = tuple(_field(a, "args", list))
    if any(type(arg) is not str for arg in args):
        raise DomainSyntaxError(f"action {name}: its arguments must be strings")
    if kind in ("idle", "wait"):
        op = idle_op(turn) if kind == "idle" else wait_op(turn)
    else:
        op = bundle.problem.domains[turn].ground_ops.get((name, args))
    if op is None or (op.name, op.args, op.agent, op.kind.value) != (name, args, agent, kind):
        raise DomainSyntaxError(f"{kind} action {name}{args} is not an operator of {turn!r}")
    return op
