"""Two-agent alternating search over a joint task network.

Produces a policy tree: robot turns are OR nodes (one chosen action), human
turns are AND nodes branching on every emulated human choice, all of which
must lead to completion.  Decompositions are committed lazily: an agent's
choice at a node is a pair (decomposition sequence using its own methods,
one applicable primitive it owns).

Two solver modes share the machinery:

* ``new`` -- per-agent beliefs evolve through the act/observe/assess
  protocol; at every node the planner checks whether the human's belief
  divergence is relevant and, if so, splices a minimal communication
  sequence onto the outgoing edge(s).  Stalled branches fail and are
  backtracked.
* ``legacy`` -- the omniscient baseline: every effect updates both beliefs,
  no assessment, no communication, and the solver plans optimistically:
  a run of ``PlannerConfig.stall_threshold`` (default 4) consecutive
  WAIT/IDLE turns closes the branch as an embedded deadlock leaf instead of
  failing.

One stall rule, :func:`_stall_run`, counts that run for the search, for
replay (:func:`simulate`, :func:`enumerate_traces`) and for
:func:`detect_deadlock`.  One step rule, :func:`_step`, moves the beliefs
along an edge for the search and for a reloaded policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional

from .communication import (
    CommAction,
    apply_comm,
    apply_comm_plan,
    is_relevant_divergence,
    min_comm_bfs,
)
from .engine import legacy_step, step_belief_protocol
from .errors import DepthExceeded, StaleComm, Unsolvable
from .htn import (
    GroundedMethod,
    GroundedOperator,
    HtnProblem,
    OpKind,
    TaskNetwork,
    applicable,
    decompose,
    idle_op,
    wait_op,
)
from .observability import ObservabilityModel
from .state import BeliefState

MODE_NEW = "new"
MODE_LEGACY = "legacy"


@dataclass(frozen=True)
class PlannerConfig:
    """Search limits.

    ``depth_bound`` bounds the search, not the depth of the returned policy:
    the memo key omits depth, so a subtree solved at a shallow depth can be
    reused deeper, and a policy branch can run past the bound.
    ``stall_threshold`` is the WAIT/IDLE run that ends a branch (see the
    module docstring); ``max_nodes`` caps the states expanded per plan.
    """

    depth_bound: int = 64
    stall_threshold: int = 4
    max_nodes: int = 500_000


class NodeKind(Enum):
    DECISION = "decision"
    SUCCESS = "success"
    DEADLOCK = "deadlock"


@dataclass
class PolicyEdge:
    action: GroundedOperator
    comms: tuple[CommAction, ...]
    decomps: tuple[tuple[int, GroundedMethod], ...]
    node_id: Optional[int]  # executed task node, None for WAIT/IDLE
    child: "PolicyNode"


@dataclass
class PolicyNode:
    world: BeliefState
    human_belief: BeliefState
    network: TaskNetwork
    turn: str
    kind: NodeKind = NodeKind.DECISION
    edges: tuple[PolicyEdge, ...] = ()


@dataclass
class PolicyTree:
    mode: str
    robot: str
    human: str
    init_world: BeliefState
    init_human: BeliefState
    root: PolicyNode
    nodes_expanded: int = 0


@dataclass(frozen=True)
class _Candidate:
    """One move of the agent on turn; ``network`` is the agenda after it."""

    op: GroundedOperator
    node_id: Optional[int]  # None for WAIT/IDLE
    network: TaskNetwork
    decomps: tuple[tuple[int, GroundedMethod], ...]

    def signature(self) -> tuple:
        """Order-free multiset of the decompositions this choice commits."""
        return tuple(
            sorted((gm.task.symbol, gm.task.args, gm.name) for _, gm in self.decomps)
        )


def _multiset_lt(a: tuple, b: tuple) -> bool:
    """True iff multiset a is a strict sub-multiset of b."""
    if len(a) >= len(b):
        return False
    counts: dict = {}
    for item in b:
        counts[item] = counts.get(item, 0) + 1
    for item in a:
        if counts.get(item, 0) == 0:
            return False
        counts[item] -= 1
    return True


@lru_cache(maxsize=65536)
def _canonical(network: TaskNetwork) -> tuple:
    return network.canonical_key()


def _stall_run(run: int, pseudo: bool) -> int:
    """The WAIT/IDLE run after one more turn: one longer when the turn is a
    WAIT/IDLE (``pseudo``), 0 after any other turn."""
    return run + 1 if pseudo else 0


def _root_human(
    mode: str, obs_model: ObservabilityModel, world: BeliefState, human_belief: BeliefState
) -> BeliefState:
    """The human's belief at the root: assessed first in the new mode."""
    if mode == MODE_NEW:
        return obs_model.assess(human_belief, world)
    return human_belief


def _step(
    mode: str,
    obs_model: ObservabilityModel,
    robot: str,
    human: str,
    world: BeliefState,
    human_belief: BeliefState,
    op: GroundedOperator,
    actor: str,
) -> tuple[BeliefState, BeliefState]:
    """Both beliefs after ``actor`` runs ``op`` under the mode's update."""
    if mode == MODE_NEW:
        res = step_belief_protocol(world, human_belief, op, actor, robot, human, obs_model)
    else:
        res = legacy_step(world, human_belief, op, actor, human)
    return res.world, res.human_belief


class _Search:
    def __init__(
        self,
        problem: HtnProblem,
        obs_model: ObservabilityModel,
        mode: str,
        config: PlannerConfig,
    ):
        if mode not in (MODE_NEW, MODE_LEGACY):
            raise ValueError(f"unknown solver mode {mode!r}")
        self.problem = problem
        self.obs = obs_model
        self.mode = mode
        self.config = config
        self.robot = problem.robot
        self.human = problem.human
        self.human_ops = tuple(problem.domain_of(self.human).ground_ops.values())
        self.nodes_expanded = 0
        self.memo: dict[tuple, PolicyNode] = {}
        self.failed: set[tuple] = set()

    # -- choice enumeration -------------------------------------------------

    def _choices(
        self, belief: BeliefState, network: TaskNetwork, agent: str
    ) -> list[_Candidate]:
        """All (decomposition path, applicable own primitive) choices.

        Each candidate carries the network after the primitive has run, and
        choices leading to the same action and the same resulting network
        are one.  A decomposition sequence only belongs to a choice when it
        is needed to expose the chosen primitive: among candidates for the
        same grounded action, any whose committed-decomposition multiset
        strictly contains another's is dropped (gratuitous commitments of
        unrelated tasks would both multiply branches and discard the other
        agent's options).  The result is sorted by action, then resulting
        network.
        """
        dom = self.problem.domain_of(agent)
        own_ops = dom.op_names
        other_ops = self.problem.domain_of(self._other(agent)).op_names
        results: dict[tuple, _Candidate] = {}
        visited: set[tuple] = set()
        stack: list[tuple[TaskNetwork, tuple]] = [(network, ())]
        while stack:
            w, trace = stack.pop()
            key = _canonical(w)
            if key in visited:
                continue
            visited.add(key)
            for node_id in w.available():
                task = w.task_of(node_id)
                if task.symbol in own_ops:
                    op = dom.ground_ops.get((task.symbol, task.args))
                    if op is not None and applicable(op, belief):
                        after = w.without_node(node_id)
                        dkey = (op.name, op.args, _canonical(after))
                        if dkey not in results:
                            results[dkey] = _Candidate(op, node_id, after, trace)
                elif task.symbol not in other_ops:
                    for gm in dom.ground_methods.get(task, ()):
                        w2 = decompose(w, node_id, gm)
                        stack.append((w2, trace + ((node_id, gm),)))
        by_action: dict[tuple, list[_Candidate]] = {}
        for cand in results.values():
            by_action.setdefault((cand.op.name, cand.op.args), []).append(cand)
        minimal: list[_Candidate] = []
        for group in by_action.values():
            sigs = [c.signature() for c in group]
            for i, cand in enumerate(group):
                if not any(_multiset_lt(sigs[j], sigs[i]) for j in range(len(group))):
                    minimal.append(cand)
        return sorted(minimal, key=lambda c: (c.op.name, c.op.args, _canonical(c.network)))

    def _moves(
        self, belief: BeliefState, network: TaskNetwork, agent: str
    ) -> list[_Candidate]:
        """The agent's choices, or the single WAIT/IDLE turn when it has none.

        The agent WAITs while the network still holds work that can lead to
        one of its own primitives, and IDLEs otherwise; either way the
        network is unchanged.
        """
        choices = self._choices(belief, network, agent)
        if choices:
            return choices
        yields = self.problem.domain_of(agent).yields
        if any(t.symbol in yields for t in network.tasks):
            return [_Candidate(wait_op(agent), None, network, ())]
        return [_Candidate(idle_op(agent), None, network, ())]

    def _other(self, agent: str) -> str:
        return self.human if agent == self.robot else self.robot

    # -- search -------------------------------------------------------------

    def run(self) -> PolicyTree:
        world = self.problem.world
        human_belief = _root_human(self.mode, self.obs, world, self.problem.human_belief)
        node, tainted = self._solve(
            world, human_belief, self.problem.network, self.problem.start_agent, 0, 0, frozenset()
        )
        if node is None:
            if tainted:
                raise DepthExceeded(
                    f"no policy within depth bound {self.config.depth_bound}"
                )
            raise Unsolvable("no robot strategy covers every emulated human choice")
        return PolicyTree(
            self.mode,
            self.robot,
            self.human,
            self.problem.world,
            self.problem.human_belief,
            node,
            self.nodes_expanded,
        )

    def _state_key(
        self, world: BeliefState, hb: BeliefState, network: TaskNetwork, turn: str, stall: int
    ) -> tuple:
        return (
            turn,
            world.values,
            hb.values,
            _canonical(network),
            min(stall, self.config.stall_threshold),
        )

    def _solve(
        self,
        world: BeliefState,
        human_belief: BeliefState,
        network: TaskNetwork,
        turn: str,
        depth: int,
        stall: int,
        path: frozenset,
    ) -> tuple[Optional[PolicyNode], bool]:
        """Expand one state; returns (policy node or None, tainted).

        ``tainted`` is true when the failure may be due to a depth or cycle
        prune along ``path`` rather than to the state itself, so the state is
        not recorded as failed.  In the new mode a relevant divergence first
        fixes the minimal communication for every outgoing edge.  Then one
        loop tries the agent's moves (:meth:`_moves`) in order: a robot (OR)
        node keeps the first move whose child is solved, a human (AND) node
        needs every move solved.  A WAIT/IDLE move leaves the network as it
        is; :func:`_stall_run` extends or resets the stall run.
        """
        self.nodes_expanded += 1
        if self.nodes_expanded > self.config.max_nodes:
            raise DepthExceeded(f"search exceeded {self.config.max_nodes} nodes")

        if network.is_empty:
            return self._terminal(world, human_belief, network, turn), False

        if stall >= self.config.stall_threshold:
            if self.mode == MODE_LEGACY:
                return (
                    PolicyNode(world, human_belief, network, turn, NodeKind.DEADLOCK),
                    False,
                )
            return None, False  # a stalled new-mode branch is a dead end

        if depth >= self.config.depth_bound:
            return None, True

        key = self._state_key(world, human_belief, network, turn, stall)
        if key in path:
            return None, True  # cycle: fail along this path only
        if key in self.memo:
            return self.memo[key], False
        if key in self.failed:
            return None, False

        comms: tuple[CommAction, ...] = ()
        post_comm_belief = human_belief
        if self.mode == MODE_NEW and is_relevant_divergence(
            world, human_belief, self.human_ops
        ):
            comms = min_comm_bfs(world, human_belief, self.human_ops)
            post_comm_belief = apply_comm_plan(comms, human_belief)

        is_human = turn == self.human
        moves = self._moves(post_comm_belief if is_human else world, network, turn)
        sub_path = path | {key}
        tainted = False
        edges: list[PolicyEdge] = []
        for move in moves:
            if is_human and self.mode == MODE_NEW and not applicable(move.op, world):
                raise AssertionError(
                    f"emulated human action {move.op} is belief-applicable but not "
                    "applicable in the ground truth; the relevance check should "
                    "have forced communication first"
                )
            w2, hb2 = _step(
                self.mode, self.obs, self.robot, self.human, world, post_comm_belief,
                move.op, turn,
            )
            child, t = self._solve(
                w2,
                hb2,
                move.network,
                self._other(turn),
                depth + 1,
                _stall_run(stall, move.op.is_pseudo),
                sub_path,
            )
            if child is None:
                tainted = tainted or t
                if is_human:
                    break  # one uncovered human choice fails the AND node
                continue
            edges.append(PolicyEdge(move.op, comms, move.decomps, move.node_id, child))
            if not is_human:
                break  # the OR node commits to its first solved move

        if len(edges) == (len(moves) if is_human else 1):
            node = PolicyNode(
                world, human_belief, network, turn, NodeKind.DECISION, tuple(edges)
            )
            self.memo[key] = node
            return node, False
        if not tainted:
            self.failed.add(key)
        return None, tainted

    def _terminal(
        self, world: BeliefState, human_belief: BeliefState, network: TaskNetwork, turn: str
    ) -> PolicyNode:
        """All work done: each agent idles once, then the success leaf."""
        other = self._other(turn)
        leaf = PolicyNode(world, human_belief, network, turn, NodeKind.SUCCESS)
        second = PolicyNode(
            world,
            human_belief,
            network,
            other,
            NodeKind.DECISION,
            (PolicyEdge(idle_op(other), (), (), None, leaf),),
        )
        return PolicyNode(
            world,
            human_belief,
            network,
            turn,
            NodeKind.DECISION,
            (PolicyEdge(idle_op(turn), (), (), None, second),),
        )


def emulate_human_choices(
    problem: HtnProblem,
    obs_model: ObservabilityModel,
    world: BeliefState,
    human_belief: BeliefState,
    network: TaskNetwork,
) -> tuple[GroundedOperator, ...]:
    """Grounded human actions available as next steps of the agenda.

    All primitives reachable through the human's own decompositions and
    applicable in the human's belief; {WAIT} when the agenda still holds
    human-relevant work but nothing is applicable; {IDLE} otherwise.
    """
    search = _Search(problem, obs_model, MODE_NEW, PlannerConfig())
    moves = search._moves(human_belief, network, problem.human)
    return tuple(dict.fromkeys(m.op for m in moves))


def plan(
    problem: HtnProblem,
    obs_model: ObservabilityModel,
    mode: str = MODE_NEW,
    config: PlannerConfig = PlannerConfig(),
) -> PolicyTree:
    """Solve the joint problem under the requested solver mode."""
    return _Search(problem, obs_model, mode, config).run()


# ---------------------------------------------------------------------------
# Deadlock detection and simulation


def detect_deadlock(
    actions: Iterable[GroundedOperator | str], stall_threshold: int = 4
) -> bool:
    """True iff the trace stalls for ``stall_threshold`` or more consecutive
    WAIT/IDLE turns, the run :func:`simulate` reports as IDL.

    Accepts operators or their kind strings; the terminal all-done IDLE
    pair of a completed plan does not count.
    """
    kinds: list[str] = []
    for a in actions:
        if isinstance(a, GroundedOperator):
            kinds.append(a.kind.value)
        else:
            kinds.append(str(a).lower())
    if len(kinds) >= 2 and kinds[-1] == "idle" and kinds[-2] == "idle":
        kinds = kinds[:-2]
    run = 0
    for k in kinds:
        run = _stall_run(run, k in ("wait", "idle"))
        if run and run >= stall_threshold:
            return True
    return False


@dataclass
class TraceResult:
    actions: tuple[GroundedOperator, ...]
    comms: tuple = ()
    outcome: str = "success"  # "success" | "na" | "idl"
    detail: str = ""

    @property
    def primitive_length(self) -> int:
        return sum(1 for a in self.actions if a.kind is OpKind.REGULAR)


@dataclass(frozen=True)
class _SimStats:
    n_traces: int
    n_success: int
    n_na: int
    n_idl: int
    first_failure: str = ""  # "" | "na" | "idl", in walk order
    first_detail: str = ""
    sum_primitive_len: int = 0
    sum_comms: int = 0


@dataclass
class ExecutionReport:
    """Aggregated outcome of replaying every branch of a policy."""

    outcome: str  # "success" | "na" | "idl"
    detail: str
    n_traces: int
    n_success: int
    n_na: int
    n_idl: int
    mean_primitive_length: float
    mean_comm_count: float


_EMBEDDED_DEADLOCK = "plan-embedded inactivity deadlock"


def _replay_start(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState],
    human0: Optional[BeliefState],
) -> tuple[BeliefState, BeliefState]:
    """True initial beliefs of a replay; the human assesses before acting."""
    world = world0 if world0 is not None else policy.init_world
    human = human0 if human0 is not None else policy.init_human
    return world, obs_model.assess(human, world)


def _classify_edge(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    stall_threshold: int,
    node: PolicyNode,
    edge: PolicyEdge,
    w: BeliefState,
    h: BeliefState,
    run: int,
) -> tuple[str, str, Optional[tuple[BeliefState, BeliefState]], int]:
    """Execute one prescribed edge; returns (verdict, detail, next state, run).

    The verdict is "" when the edge executes, else "na" or "idl" (the branch
    ends here).  ``run`` counts consecutive WAIT/IDLE turns.
    """
    for ca in edge.comms:
        try:
            h = apply_comm(ca, h)
        except StaleComm:
            pass  # already aligned in this execution
    op = edge.action
    new_run = _stall_run(run, op.is_pseudo)
    if not op.is_pseudo:
        actor_belief = w if node.turn == policy.robot else h
        if not applicable(op, actor_belief):
            return (
                "na",
                f"{op} not applicable in {node.turn}'s belief at execution",
                None,
                new_run,
            )
        if not applicable(op, w):
            return "na", f"{op} not applicable in the ground truth", None, new_run
    elif not node.network.is_empty and new_run >= stall_threshold:
        return "idl", f"{stall_threshold} consecutive WAIT/IDLE turns", None, new_run
    res = step_belief_protocol(
        w, h, op, node.turn, policy.robot, policy.human, obs_model
    )
    return "", "", (res.world, res.human_belief), new_run


def simulate(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState] = None,
    human0: Optional[BeliefState] = None,
    stall_threshold: int = 4,
) -> ExecutionReport:
    """Replay every branch of a policy against the true belief protocol.

    Each prescribed action is checked against the ground truth and against
    its actor's true (protocol-evolved) belief; the first violation makes
    the trace NA.  A run of ``stall_threshold`` consecutive WAIT/IDLE
    actions before completion makes it IDL.  Communication edges are
    executed as zero-time robot actions (already-aligned facts are skipped).

    Shared policy subtrees are aggregated through a memo, so the walk is
    exhaustive over branches without materializing any action sequence;
    :func:`enumerate_traces` lists the branches themselves.
    """
    world, human = _replay_start(policy, obs_model, world0, human0)
    memo: dict[tuple, _SimStats] = {}

    def walk(node: PolicyNode, w: BeliefState, h: BeliefState, run: int) -> _SimStats:
        key = (id(node), w.values, h.values, min(run, stall_threshold))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if node.kind is NodeKind.SUCCESS:
            stats = _SimStats(1, 1, 0, 0)
        elif node.kind is NodeKind.DEADLOCK or not node.edges:
            stats = _SimStats(1, 0, 0, 1, "idl", _EMBEDDED_DEADLOCK)
        else:
            n = s = na = idl = plen = comms = 0
            first, detail = "", ""
            for edge in node.edges:
                verdict, vdetail, nxt, new_run = _classify_edge(
                    policy, obs_model, stall_threshold, node, edge, w, h, run
                )
                step_len = 0 if edge.action.is_pseudo else 1
                if verdict:
                    n += 1
                    na += verdict == "na"
                    idl += verdict == "idl"
                    plen += step_len
                    comms += len(edge.comms)
                    if not first:
                        first, detail = verdict, vdetail
                    continue
                assert nxt is not None
                sub = walk(edge.child, nxt[0], nxt[1], new_run)
                n += sub.n_traces
                s += sub.n_success
                na += sub.n_na
                idl += sub.n_idl
                plen += sub.sum_primitive_len + step_len * sub.n_traces
                comms += sub.sum_comms + len(edge.comms) * sub.n_traces
                if not first and sub.first_failure:
                    first, detail = sub.first_failure, sub.first_detail
            stats = _SimStats(n, s, na, idl, first, detail, plen, comms)
        memo[key] = stats
        return stats

    stats = walk(policy.root, world, human, 0)
    return ExecutionReport(
        outcome=stats.first_failure or "success",
        detail=stats.first_detail,
        n_traces=stats.n_traces,
        n_success=stats.n_success,
        n_na=stats.n_na,
        n_idl=stats.n_idl,
        mean_primitive_length=stats.sum_primitive_len / max(stats.n_traces, 1),
        mean_comm_count=stats.sum_comms / max(stats.n_traces, 1),
    )


def enumerate_traces(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState] = None,
    human0: Optional[BeliefState] = None,
    stall_threshold: int = 4,
) -> list[TraceResult]:
    """Every branch of the policy as an explicit trace, in walk order.

    Applies the same edge rules as :func:`simulate` but without a memo, so
    the cost grows with the number of branches; intended for small policies.
    """
    world, human = _replay_start(policy, obs_model, world0, human0)
    out: list[TraceResult] = []

    def walk(
        node: PolicyNode,
        w: BeliefState,
        h: BeliefState,
        actions: tuple[GroundedOperator, ...],
        comms: tuple,
        run: int,
    ) -> None:
        if node.kind is NodeKind.SUCCESS:
            out.append(TraceResult(actions, comms))
            return
        if node.kind is NodeKind.DEADLOCK or not node.edges:
            out.append(TraceResult(actions, comms, "idl", _EMBEDDED_DEADLOCK))
            return
        for edge in node.edges:
            verdict, detail, nxt, new_run = _classify_edge(
                policy, obs_model, stall_threshold, node, edge, w, h, run
            )
            edge_actions = actions + (edge.action,)
            edge_comms = comms + tuple(edge.comms)
            if verdict:
                out.append(TraceResult(edge_actions, edge_comms, verdict, detail))
            else:
                assert nxt is not None
                walk(edge.child, nxt[0], nxt[1], edge_actions, edge_comms, new_run)

    walk(policy.root, world, human, (), (), 0)
    return out


def policy_comm_edges(policy: PolicyTree) -> list[tuple[PolicyNode, PolicyEdge]]:
    """Every edge of the policy carrying at least one communication action."""
    seen: set[int] = set()
    out: list[tuple[PolicyNode, PolicyEdge]] = []

    def visit(node: PolicyNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for edge in node.edges:
            if edge.comms:
                out.append((node, edge))
            visit(edge.child)

    visit(policy.root)
    return out
