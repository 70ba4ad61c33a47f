"""Two-agent alternating search over a joint task network.

Produces a policy tree: robot turns are OR nodes (one chosen action), human
turns are AND nodes branching on every emulated human choice, all of which
must lead to completion.  Decompositions are committed lazily: an agent's
choice at a node is a pair (decomposition sequence using its own methods,
one applicable primitive it owns).  One move rule, :func:`moves`, a
function of the two agents' domains, gives an agent's :func:`choices`, or
its one WAIT/IDLE turn when it has none; the policy loader and the tests'
oracles ask it.  The search applies the same rule in two parts, the
choices through :meth:`_Search._choices`, the layer the benchmark traces,
and then :func:`_no_choice`, until the tracer reads :func:`choices`
itself (ROADMAP item 1).

Two solver modes share the machinery:

* ``new`` -- per-agent beliefs evolve through the act/observe/assess
  protocol; at every node :func:`min_comm_bfs` picks the fewest tells
  that leave the human's belief divergence irrelevant (none when it already
  is), and the planner splices them onto the outgoing edge(s).  Stalled
  branches fail and are backtracked.
* ``legacy`` -- the omniscient baseline: every effect updates both beliefs,
  no assessment, no communication, and the solver plans optimistically:
  a run of :data:`STALL_THRESHOLD` consecutive WAIT/IDLE turns closes the
  branch as an embedded deadlock leaf instead of failing.

The search keeps one state table (see :meth:`_Search._solve`).  Each
bundle owns a :class:`SearchCache` that holds the depth its acyclic method
hierarchy certifies; every plan searches to that depth by default and then
shares the cache's table, one per mode, with the plans of all the bundle's
instances (see :class:`PlannerConfig`).  Any other plan gets a table of its
own.  A plan that fails after a depth prune, or an uncertified plan after
:data:`MAX_NODES` expansions, raises :class:`DepthExceeded`; any other
failure raises :class:`Unsolvable`.

One stall rule, :func:`_stall_run`, counts that run for the search and for
replay (:func:`simulate`, :func:`enumerate_traces`), and both end it at the
one :data:`STALL_THRESHOLD`, so a policy replays under the convention it was
planned with.  Each :class:`PolicyNode` records whether its agenda is
``done``; replay and export read that, not the task network.  For the
search and a reloaded policy, the tell rule :func:`_tell_rule` picks a
node's tells, ``apply_comm_plan`` writes them and the step rule :func:`_step`
moves the belief pair along an edge.  One walk, :func:`_policy_walk`, serves
:func:`policy_comm_edges` and the exporters' node numbering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, Optional

from .communication import CommAction, apply_comm_plan, min_comm_bfs
from .engine import legacy_step, step_belief_protocol
from .errors import BadArgument, DepthExceeded, NotApplicable, UniverseMismatch, Unsolvable
from .htn import (
    AgentDomain,
    GroundedOperator,
    HtnProblem,
    TaskInstance,
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

MAX_NODES = 500_000  # states an uncertified plan may expand before it gives up
RECURSIVE_DEPTH = 64  # the default depth bound of a plan no bundle certifies
STALL_THRESHOLD = 4  # consecutive WAIT/IDLE turns that end a branch (IDL)


@dataclass(frozen=True)
class PlannerConfig:
    """Search limits.

    ``depth_bound`` prunes each state that many turns from the root, for
    the current path only; a plan that fails after such a prune raises
    :class:`DepthExceeded`.  It bounds the search, not the depth of the
    returned policy: the state key omits depth, so a subtree solved at a
    shallow depth can be reused deeper, and a policy branch can run past
    the bound.  None, the default, means the bundle's certifying depth
    (:attr:`SearchCache.depth`), or :data:`RECURSIVE_DEPTH` when there is
    none.  :data:`MAX_NODES` and :data:`STALL_THRESHOLD` are module
    constants, not part of the config.

    A plan is *certified* when its bundle's method hierarchy is acyclic and
    its depth bound is at least the certifying depth.  Every turn then
    either runs a primitive or extends a stall run shorter than
    :data:`STALL_THRESHOLD`, so no state reaches the bound and no state
    repeats on a path: no depth or cycle prune can occur, and a state's
    result depends on its state key alone.  A certified plan reads and
    extends its bundle's shared table, so it reuses every subtree any
    earlier plan on the bundle solved, in the same mode.  Its search is
    finite, so :data:`MAX_NODES` caps only uncertified plans.  A bound that
    is not a positive int (a bool included) raises :class:`BadArgument`.
    """

    depth_bound: Optional[int] = None

    def __post_init__(self) -> None:
        bound = self.depth_bound
        if bound is not None and (
            not isinstance(bound, int) or isinstance(bound, bool) or bound < 1
        ):
            raise BadArgument(f"depth bound must be a positive int, got {bound!r}")


class NodeKind(Enum):
    DECISION = "decision"
    SUCCESS = "success"
    DEADLOCK = "deadlock"


@dataclass(frozen=True, slots=True, eq=False)
class PolicyEdge:
    action: GroundedOperator
    comms: tuple[CommAction, ...]  # the tells said just before the action
    child: "PolicyNode"


@dataclass(frozen=True, slots=True, eq=False)
class PolicyNode:
    world: BeliefState
    human_belief: BeliefState
    done: bool  # the agenda is empty: only the closing IDLE turns remain
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
    """One move of the agent on turn: ``network`` is the agenda after it, and
    ``commits`` the (task, method name) decompositions it made, in any order."""

    op: GroundedOperator
    network: TaskNetwork
    commits: tuple[tuple[TaskInstance, str], ...]


@lru_cache(maxsize=65536)
def _canonical(network: TaskNetwork) -> tuple:
    return network.canonical_key()


class SearchCache:
    """The state tables that the plans on one bundle share.

    Built once with the bundle, for its ``domains``, ``obs_model`` and root
    ``network``, and held by its :class:`~beliefhtn.htn.HtnProblem`.  It keeps
    the ``primitives`` P it is built with, the bound
    :func:`~beliefhtn.htn.analyse_hierarchy` gives, or None for a recursive
    hierarchy; its certifying ``depth`` is ``(P + 1) * STALL_THRESHOLD``, or
    None.
    ``tables`` holds one table per mode, over the search's state key
    (:meth:`_Search._state_key`): a solved node, or None for a known
    failure.  A plan the cache does not certify (see :class:`PlannerConfig`)
    builds a cache of its own instead.  The tables live as long as the
    bundle and are never evicted; every belief they store is interned
    (:meth:`intern`), which keeps them small.
    """

    __slots__ = (
        "domains", "obs_model", "network", "primitives", "depth", "tables", "_beliefs", "_values"
    )

    def __init__(
        self,
        domains: Mapping[str, AgentDomain],
        obs_model: ObservabilityModel,
        network: TaskNetwork,
        primitives: Optional[int] = None,
    ):
        self.domains = domains
        self.obs_model = obs_model
        self.network = network
        self.primitives = primitives
        self.depth = None if primitives is None else (primitives + 1) * STALL_THRESHOLD
        self.tables: dict[str, dict[tuple, object]] = {MODE_NEW: {}, MODE_LEGACY: {}}
        self._beliefs: dict[str, dict[tuple, BeliefState]] = {}
        self._values: dict[tuple, tuple] = {}

    def certifies(self, problem: HtnProblem, obs_model: ObservabilityModel) -> bool:
        """True iff plans of ``problem`` that search to :attr:`depth` or
        deeper may share these tables: the hierarchy is acyclic, and the
        problem is over the cache's network, domains and observability model
        (``dataclasses.replace`` can swap the network)."""
        return (
            self.depth is not None
            and problem.network == self.network
            and problem.domains is self.domains
            and obs_model is self.obs_model
        )

    def intern(self, belief: BeliefState) -> BeliefState:
        """One object per owner and values, over one tuple per distinct values."""
        by_values = self._beliefs.setdefault(belief.owner, {})
        hit = by_values.get(belief.values)
        if hit is None:
            values = self._values.setdefault(belief.values, belief.values)
            if values is not belief.values:
                belief = BeliefState(belief.owner, belief.universe, values)
            hit = by_values[values] = belief
        return hit


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


def _tell_rule(
    mode: str, world: BeliefState, human_belief: BeliefState,
    human_ops: tuple[GroundedOperator, ...],
) -> tuple[CommAction, ...]:
    """The tells said before every move at a node: in the new mode the
    fewest that leave the human's divergence irrelevant
    (:func:`min_comm_bfs`, none when it already is), none in legacy."""
    if mode == MODE_NEW:
        return min_comm_bfs(world, human_belief, human_ops)
    return ()


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
        return step_belief_protocol(world, human_belief, op, actor, robot, human, obs_model)
    return legacy_step(world, human_belief, op, actor, human)


def choices(
    domains: Mapping[str, AgentDomain], belief: BeliefState, network: TaskNetwork, agent: str
) -> list[_Candidate]:
    """All (decomposition path, applicable own primitive) choices of ``agent``
    under the two agents' ``domains``, in ``belief``.

    Each candidate carries the network after the primitive has run, and
    choices leading to the same action and the same resulting network are
    one.  A decomposition sequence only belongs to a choice when it is
    needed to expose the chosen primitive: among candidates for the same
    grounded action, any whose committed-decomposition multiset strictly
    contains another's is dropped (gratuitous commitments of unrelated
    tasks would both multiply branches and discard the other agent's
    options).  The result is sorted by action, then resulting network.

    The depth-first walk visits each network once and keeps the first
    candidate per action and resulting network, both tracked by the
    identity of the network's canonical key, which
    :meth:`TaskNetwork.canonical_key` interns.  Within one action group the
    candidates are tested in order of commit count against the minimal ones
    kept so far: a candidate with a strict sub-multiset below it has a
    minimal one below it, since the relation is transitive, so this keeps
    exactly the candidates no other one of the group is strictly below.
    """
    dom = domains[agent]
    own_ops = dom.op_names
    other_ops = next(d.op_names for name, d in domains.items() if name != agent)
    ground_ops = dom.ground_ops
    ground_methods = dom.ground_methods
    # (op name, op args) -> id of the resulting network's key -> candidate
    by_action: dict[tuple, dict[int, _Candidate]] = {}
    visited: set[int] = set()
    stack: list[tuple[TaskNetwork, tuple]] = [(network, ())]
    while stack:
        w, commits = stack.pop()
        key = id(_canonical(w))
        if key in visited:
            continue
        visited.add(key)
        for node_id, task, mask in zip(w.ids, w.tasks, w.preds):
            if mask:
                continue  # a predecessor is pending
            if task.symbol in own_ops:
                op = ground_ops.get((task.symbol, task.args))
                if op is not None and applicable(op, belief):
                    after = w.without_node(node_id)
                    group = by_action.setdefault((op.name, op.args), {})
                    after_key = id(_canonical(after))
                    if after_key not in group:
                        group[after_key] = _Candidate(op, after, commits)
            elif task.symbol not in other_ops:
                for gm in ground_methods.get(task, ()):
                    stack.append((decompose(w, node_id, gm), commits + ((task, gm.name),)))
    minimal: list[_Candidate] = []
    for group in by_action.values():
        if len(group) == 1:
            minimal.extend(group.values())
            continue
        kept: list[tuple[int, Counter]] = []  # (commit count, commit multiset)
        for cand in sorted(group.values(), key=lambda c: len(c.commits)):
            size = len(cand.commits)
            counts = Counter(cand.commits)
            if not any(
                below < size and all(counts[item] >= n for item, n in other.items())
                for below, other in kept
            ):
                kept.append((size, counts))
                minimal.append(cand)
    return sorted(minimal, key=lambda c: (c.op.name, c.op.args, _canonical(c.network)))


def moves(
    domains: Mapping[str, AgentDomain], belief: BeliefState, network: TaskNetwork, agent: str
) -> list[_Candidate]:
    """The agent's :func:`choices`, or its one WAIT/IDLE turn when it has
    none: the moves the search tries and a loaded policy may take."""
    return choices(domains, belief, network, agent) or _no_choice(domains, network, agent)


def _no_choice(
    domains: Mapping[str, AgentDomain], network: TaskNetwork, agent: str
) -> list[_Candidate]:
    """The one move of an agent without choices, which leaves the network as
    it is: WAIT while it holds work that can lead to one of the agent's own
    primitives, IDLE otherwise."""
    yields = domains[agent].yields
    pseudo = wait_op if any(t.symbol in yields for t in network.tasks) else idle_op
    return [_Candidate(pseudo(agent), network, ())]


class _Search:
    def __init__(
        self,
        problem: HtnProblem,
        obs_model: ObservabilityModel,
        mode: str,
        config: PlannerConfig,
    ):
        if mode not in (MODE_NEW, MODE_LEGACY):
            raise BadArgument(f"unknown solver mode {mode!r}")
        if not (problem.world.universe is problem.human_belief.universe is problem.universe):
            # another bundle's beliefs would enter this bundle's shared table
            raise UniverseMismatch("the problem's beliefs are not over its universe")
        self.problem = problem
        self.obs = obs_model
        self.mode = mode
        self.robot = problem.robot
        self.human = problem.human
        self.human_ops = tuple(problem.domain_of(self.human).ground_ops.values())
        self.nodes_expanded = 0
        cache = problem.search_cache
        least = cache.depth if cache is not None and cache.certifies(problem, obs_model) else None
        self.depth_bound = config.depth_bound
        if self.depth_bound is None:
            self.depth_bound = RECURSIVE_DEPTH if least is None else least
        self.certified = least is not None and self.depth_bound >= least
        if not self.certified:
            cache = SearchCache(problem.domains, obs_model, problem.network)  # this plan's own
        # State key -> its solved node, or None for a failure that holds in
        # every context.
        self.states = cache.tables[mode]
        self.path: set[tuple] = set()  # the keys of the states on the current path
        self.intern = cache.intern
        self.depth_pruned = False

    def _choices(
        self, belief: BeliefState, network: TaskNetwork, agent: str
    ) -> list[_Candidate]:
        """:func:`choices` for this search's domains.  The benchmark's tracer
        patches this method to count and time choice enumeration; it goes
        when the tracer reads another layer (ROADMAP item 1)."""
        return choices(self.problem.domains, belief, network, agent)

    # -- search -------------------------------------------------------------

    def run(self) -> PolicyTree:
        world = self.problem.world
        human_belief = _root_human(self.mode, self.obs, world, self.problem.human_belief)
        node, _ = self._solve(
            world, human_belief, self.problem.network, self.problem.start_agent, 0, 0
        )
        if node is None:
            if self.depth_pruned:
                raise DepthExceeded(f"no policy within depth bound {self.depth_bound}")
            raise Unsolvable("no robot strategy covers every emulated human choice")
        return PolicyTree(
            self.mode, self.robot, self.human, self.problem.world, self.problem.human_belief,
            node, self.nodes_expanded,
        )

    def _state_key(
        self, world: BeliefState, hb: BeliefState, network: TaskNetwork, turn: str, stall: int
    ) -> tuple:
        return (turn, world.values, hb.values, _canonical(network), stall)

    def _solve(
        self,
        world: BeliefState,
        human_belief: BeliefState,
        network: TaskNetwork,
        turn: str,
        depth: int,
        stall: int,
    ) -> tuple[Optional[PolicyNode], bool]:
        """Expand one state; returns (policy node or None, tainted).

        ``tainted`` is true when the failure may be due to a depth or cycle
        prune on the current path rather than to the state itself, so the
        state is not recorded as failed.  A state is on :attr:`path` while
        it is expanded, and reaching it again is a cycle.  The tell rule,
        :func:`_tell_rule`, first fixes the tells for every outgoing edge.
        Then one loop tries the agent's moves, by the rule of :func:`moves`,
        in order: a robot (OR) node keeps the first
        move whose child is solved, a human (AND) node needs every move
        solved.  A WAIT/IDLE move leaves the network as it is;
        :func:`_stall_run` extends or resets the stall run.
        """
        self.nodes_expanded += 1
        if self.nodes_expanded > MAX_NODES and not self.certified:
            raise DepthExceeded(f"search exceeded {MAX_NODES} nodes")
        world = self.intern(world)
        human_belief = self.intern(human_belief)

        if network.is_empty:
            return self._terminal(world, human_belief, turn), False

        if stall >= STALL_THRESHOLD:
            if self.mode == MODE_LEGACY:
                return PolicyNode(world, human_belief, False, turn, NodeKind.DEADLOCK), False
            return None, False  # a stalled new-mode branch is a dead end

        if depth >= self.depth_bound:
            self.depth_pruned = True
            return None, True

        key = self._state_key(world, human_belief, network, turn, stall)
        if key in self.path:
            return None, True  # cycle: fail along this path only
        if key in self.states:
            return self.states[key], False  # a solved node, or None for a known failure
        self.path.add(key)

        comms = _tell_rule(self.mode, world, human_belief, self.human_ops)
        post_comm_belief = apply_comm_plan(comms, human_belief)

        is_human = turn == self.human
        other = self.robot if is_human else self.human
        # the rule of :func:`moves`, split so the choices pass the traced method
        options = self._choices(post_comm_belief if is_human else world, network, turn)
        options = options or _no_choice(self.problem.domains, network, turn)
        tainted = False
        edges: list[PolicyEdge] = []
        for move in options:
            w2, hb2 = _step(
                self.mode, self.obs, self.robot, self.human, world, post_comm_belief,
                move.op, turn,
            )
            child, t = self._solve(
                w2, hb2, move.network, other, depth + 1,
                _stall_run(stall, move.op.is_pseudo),
            )
            if child is None:
                tainted = tainted or t
                if is_human:
                    break  # one uncovered human choice fails the AND node
                continue
            edges.append(PolicyEdge(move.op, comms, child))
            if not is_human:
                break  # the OR node commits to its first solved move

        self.path.remove(key)
        if len(edges) == (len(options) if is_human else 1):
            node = PolicyNode(world, human_belief, False, turn, NodeKind.DECISION, tuple(edges))
            self.states[key] = node
            return node, False
        if not tainted:
            self.states[key] = None
        return None, tainted

    def _terminal(self, world: BeliefState, human_belief: BeliefState, turn: str) -> PolicyNode:
        """All work done: each agent idles once, then the success leaf."""
        other = self.human if turn == self.robot else self.robot
        leaf = PolicyNode(world, human_belief, True, turn, NodeKind.SUCCESS)
        second = PolicyNode(
            world, human_belief, True, other, NodeKind.DECISION,
            (PolicyEdge(idle_op(other), (), leaf),),
        )
        return PolicyNode(
            world, human_belief, True, turn, NodeKind.DECISION,
            (PolicyEdge(idle_op(turn), (), second),),
        )


def plan(
    problem: HtnProblem,
    obs_model: ObservabilityModel,
    mode: str = MODE_NEW,
    config: PlannerConfig = PlannerConfig(),
) -> PolicyTree:
    """Solve the joint problem under the requested solver mode.  Beliefs
    not over ``problem.universe`` raise :class:`UniverseMismatch` first."""
    return _Search(problem, obs_model, mode, config).run()


# ---------------------------------------------------------------------------
# Simulation


@dataclass
class TraceResult:
    actions: tuple[GroundedOperator, ...]
    comms: tuple = ()
    outcome: str = "success"  # "success" | "na" | "idl"
    detail: str = ""


@dataclass(frozen=True)
class ExecutionReport:
    """Aggregated outcome of replaying every branch of a policy.

    ``outcome`` and ``detail`` are the first failure's in walk order, or
    "success" and "".  The counts and sums run over every branch; the means
    derive from the sums.
    """

    outcome: str  # "success" | "na" | "idl"
    detail: str
    n_traces: int
    n_success: int
    n_na: int
    n_idl: int
    sum_primitive_len: int
    sum_comms: int

    @property
    def mean_primitive_length(self) -> float:
        return self.sum_primitive_len / max(self.n_traces, 1)

    @property
    def mean_comm_count(self) -> float:
        return self.sum_comms / max(self.n_traces, 1)


_EMBEDDED_DEADLOCK = "plan-embedded inactivity deadlock"

# The replay walk sums plain tuples of the ExecutionReport fields, in field
# order; :func:`simulate` builds the one report from the root's tuple.
_Totals = tuple[str, str, int, int, int, int, int, int]
_SUCCESS_END: _Totals = ("success", "", 1, 1, 0, 0, 0, 0)
_DEADLOCK_END: _Totals = ("idl", _EMBEDDED_DEADLOCK, 1, 0, 0, 1, 0, 0)


def _branch_end(verdict: str, detail: str) -> _Totals:
    """The totals of one branch that fails here with ``verdict`` (na/idl)."""
    return (verdict, detail, 1, 0, int(verdict == "na"), int(verdict == "idl"), 0, 0)


def _replay_start(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState],
    human0: Optional[BeliefState],
) -> tuple[BeliefState, BeliefState]:
    """True initial beliefs of a replay; the human assesses before acting."""
    world = world0 if world0 is not None else policy.init_world
    human = human0 if human0 is not None else policy.init_human
    return world, _root_human(MODE_NEW, obs_model, world, human)


def _classify_edge(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
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
    h = apply_comm_plan(edge.comms, h)
    op = edge.action
    new_run = _stall_run(run, op.is_pseudo)
    if op.is_pseudo and not node.done and new_run >= STALL_THRESHOLD:
        return "idl", f"{STALL_THRESHOLD} consecutive WAIT/IDLE turns", None, new_run
    try:
        nxt = step_belief_protocol(w, h, op, node.turn, policy.robot, policy.human, obs_model)
    except NotApplicable as exc:
        return "na", str(exc), None, new_run
    return "", "", nxt, new_run


def simulate(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState] = None,
    human0: Optional[BeliefState] = None,
) -> ExecutionReport:
    """Replay every branch of a policy against the true belief protocol.

    Each prescribed action is checked against the ground truth and against
    its actor's true (protocol-evolved) belief; the first violation makes
    the trace NA.  A run of :data:`STALL_THRESHOLD` consecutive WAIT/IDLE
    actions before the agenda is done makes it IDL.  Each edge's tells are
    written by the one tell rule, ``apply_comm_plan``, and its action's belief
    pair by the one step rule, ``step_belief_protocol``, is the child's.

    Shared policy subtrees are aggregated through a memo, so the walk is
    exhaustive over branches without materializing any action sequence;
    :func:`enumerate_traces` lists the branches themselves.
    """
    world, human = _replay_start(policy, obs_model, world0, human0)
    return ExecutionReport(*_replay(policy, obs_model, {}, policy.root, world, human, 0))


def _replay(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    memo: dict[tuple, _Totals],
    node: PolicyNode,
    w: BeliefState,
    h: BeliefState,
    run: int,
) -> _Totals:
    """The :func:`simulate` walk from ``node``, as report totals; a module
    function, not a closure, so the memo is freed as soon as the walk
    returns."""
    key = (id(node), w.values, h.values, run if run < STALL_THRESHOLD else STALL_THRESHOLD)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if node.kind is NodeKind.SUCCESS:
        totals = _SUCCESS_END
    elif node.kind is NodeKind.DEADLOCK or not node.edges:
        totals = _DEADLOCK_END
    else:
        n = s = na = idl = plen = comms = 0
        first, detail = "success", ""
        for edge in node.edges:
            verdict, vdetail, nxt, new_run = _classify_edge(
                policy, obs_model, node, edge, w, h, run
            )
            if verdict:
                sub = _branch_end(verdict, vdetail)
            else:
                assert nxt is not None
                sub = _replay(policy, obs_model, memo, edge.child, nxt[0], nxt[1], new_run)
            sub_first, sub_detail, sub_n, sub_s, sub_na, sub_idl, sub_plen, sub_comms = sub
            n += sub_n
            s += sub_s
            na += sub_na
            idl += sub_idl
            plen += sub_plen if edge.action.is_pseudo else sub_plen + sub_n
            comms += sub_comms + len(edge.comms) * sub_n
            if first == "success":
                first, detail = sub_first, sub_detail
        totals = (first, detail, n, s, na, idl, plen, comms)
    memo[key] = totals
    return totals


def enumerate_traces(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    world0: Optional[BeliefState] = None,
    human0: Optional[BeliefState] = None,
) -> list[TraceResult]:
    """Every branch of the policy as an explicit trace, in walk order.

    Applies the same edge rules as :func:`simulate` but without a memo, so
    the cost grows with the number of branches; intended for small policies.
    """
    world, human = _replay_start(policy, obs_model, world0, human0)
    out: list[TraceResult] = []
    _traces(policy, obs_model, out, policy.root, world, human, (), (), 0)
    return out


def _traces(
    policy: PolicyTree,
    obs_model: ObservabilityModel,
    out: list[TraceResult],
    node: PolicyNode,
    w: BeliefState,
    h: BeliefState,
    actions: tuple[GroundedOperator, ...],
    comms: tuple,
    run: int,
) -> None:
    """The :func:`enumerate_traces` walk from ``node``, appending to ``out``."""
    if node.kind is NodeKind.SUCCESS:
        out.append(TraceResult(actions, comms))
        return
    if node.kind is NodeKind.DEADLOCK or not node.edges:
        out.append(TraceResult(actions, comms, "idl", _EMBEDDED_DEADLOCK))
        return
    for edge in node.edges:
        verdict, detail, nxt, new_run = _classify_edge(policy, obs_model, node, edge, w, h, run)
        edge_actions = actions + (edge.action,)
        edge_comms = comms + tuple(edge.comms)
        if verdict:
            out.append(TraceResult(edge_actions, edge_comms, verdict, detail))
        else:
            assert nxt is not None
            _traces(
                policy, obs_model, out, edge.child, nxt[0], nxt[1], edge_actions, edge_comms,
                new_run,
            )


def policy_comm_edges(policy: PolicyTree) -> list[tuple[PolicyNode, PolicyEdge]]:
    """Every edge of the policy carrying at least one communication action."""
    out: list[tuple[PolicyNode, PolicyEdge]] = []

    def keep(node: PolicyNode, edge: PolicyEdge) -> None:
        if edge.comms:
            out.append((node, edge))

    _policy_walk(policy.root, keep, set())
    return out


def _policy_walk(
    node: PolicyNode, visit: Callable[[PolicyNode, PolicyEdge], None], seen: set[PolicyNode]
) -> None:
    """``visit`` each (node, edge) below ``node`` once, depth first: each
    edge, then its child's subtree on the child's first visit.  ``seen``
    holds the nodes visited; nodes hash by identity."""
    seen.add(node)
    for edge in node.edges:
        visit(node, edge)
        if edge.child not in seen:
            _policy_walk(edge.child, visit, seen)
