"""Operators, methods, task networks and decomposition.

Operators carry conjunctions of equality preconditions and unconditional
effects.  Effects on bounded-integer attributes may also be increments or
decrements; these saturate at the domain bounds so that observers applying
an action's effects to an already-diverged belief stay inside the domain.
The lifted :class:`OperatorSchema` and :class:`MethodSchema` are what the
domain-file parser builds.  Each domain is grounded once, when its bundle
is built, into the tables of :class:`AgentDomain`; grounding raises for
every bad value and argument, and stores each precondition and effect by
its dense ``Universe`` index.

Task networks are immutable, a node is its position, and each node holds
one predecessor bitmask: decomposition returns a new network with the
subtasks appended in place of the expanded node, re-targeting every
precedence constraint that touched it onto all of the method's subtasks
(or contracting it through the node for an empty expansion) in one pass
over the masks.

:func:`analyse_hierarchy` bounds, once per bundle at build, the primitives
any run from the root network can execute; it returns None for a recursive
method hierarchy, which :func:`growing_loop` then checks for a loop that
choice enumeration would follow forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Optional

from .errors import BadArgument, CycleIntroduced, NotRelevant
from .state import AttrRef, BeliefState, GroundedAttribute, Universe, Value, call_text

if TYPE_CHECKING:
    from .planner import SearchCache


class OpKind(Enum):
    REGULAR = "regular"
    IDLE = "idle"
    WAIT = "wait"


def _substitute(token: str, binding: Mapping[str, str]) -> str:
    if token.startswith("?"):
        if token not in binding:
            raise BadArgument(f"unbound variable {token}")
        return binding[token]
    return token


def _ground_ref(
    universe: Universe, ref: AttrRef, binding: Mapping[str, str]
) -> GroundedAttribute:
    return universe.attr(ref.symbol, *(_substitute(a, binding) for a in ref.args))


class EffectOp(Enum):
    """An effect's assignment; the values are the domain-file tokens."""

    SET = "="
    INC = "+="
    DEC = "-="


@dataclass(frozen=True)
class OperatorSchema:
    """Lifted operator, owned by an agent id or ``both``.

    ``pre`` holds (attribute, value token) equalities; ``eff`` holds
    (attribute, op, value) triples, whose value is a token for SET and an
    int delta for INC/DEC.  Construction rejects a variable bound twice and
    a second ``pre`` on one lifted attribute.
    """

    name: str
    owner: str
    params: tuple[tuple[str, str], ...] = ()  # (?var, group)
    pre: tuple[tuple[AttrRef, str], ...] = ()
    eff: tuple[tuple[AttrRef, EffectOp, str | int], ...] = ()

    def __post_init__(self) -> None:
        _check_bound_once(f"operator {self.name}", self.params)
        refs = [ref for ref, _ in self.pre]
        for k, ref in enumerate(refs):
            if ref in refs[:k]:
                raise BadArgument(f"operator {self.name}: second 'pre' line for {ref}")


def _check_bound_once(what: str, params: tuple[tuple[str, str], ...]) -> None:
    """Reject a schema whose (?var, group) bindings repeat a variable."""
    names = [var for var, _ in params]
    for k, var in enumerate(names):
        if var in names[:k]:
            raise BadArgument(f"{what}: variable {var} bound twice")


@dataclass(frozen=True)
class GroundedOperator:
    """Fully instantiated operator; pre/eff hold interned attribute indices."""

    name: str
    agent: str
    args: tuple[str, ...]
    kind: OpKind
    pre: tuple[tuple[int, Value], ...]
    eff: tuple[tuple[int, EffectOp, Value | int], ...]
    # True for WAIT and IDLE; derived from ``kind`` once, at construction.
    is_pseudo: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_pseudo", self.kind in (OpKind.IDLE, OpKind.WAIT))

    def __str__(self) -> str:
        return call_text(self.name, self.args)


def idle_op(agent: str) -> GroundedOperator:
    return GroundedOperator("IDLE", agent, (), OpKind.IDLE, (), ())


def wait_op(agent: str) -> GroundedOperator:
    return GroundedOperator("WAIT", agent, (), OpKind.WAIT, (), ())


def ground_operator(
    universe: Universe, schema: OperatorSchema, binding: Mapping[str, str]
) -> GroundedOperator:
    args = tuple(binding[var] for var, _ in schema.params)
    pre: list[tuple[int, Value]] = []
    for ref, token in schema.pre:
        attr = _ground_ref(universe, ref, binding)
        pre.append(
            (universe.index_of(attr), universe.parse_value(attr, _substitute(token, binding)))
        )
    eff: list[tuple[int, EffectOp, Value | int]] = []
    for ref, eop, value in schema.eff:
        attr = _ground_ref(universe, ref, binding)
        index = universe.index_of(attr)
        if any(index == seen for seen, _, _ in eff):
            raise BadArgument(f"operator {schema.name} assigns {attr} twice")
        if eop is EffectOp.SET:
            assert isinstance(value, str)
            eff.append((index, eop, universe.parse_value(attr, _substitute(value, binding))))
        else:
            if not universe.decls[attr.symbol].is_integer:
                raise BadArgument(
                    f"increment effect on non-integer attribute {attr}"
                )
            assert isinstance(value, int)
            eff.append((index, eop, value))
    return GroundedOperator(
        schema.name, schema.owner, args, OpKind.REGULAR, tuple(pre), tuple(eff)
    )


def ground_all_operators(
    universe: Universe, schemas: Iterable[OperatorSchema]
) -> tuple[GroundedOperator, ...]:
    """Every grounding of every schema, in deterministic lexical order."""
    grounded: list[GroundedOperator] = []
    for schema in schemas:
        member_lists = [universe.groups[g].members for _, g in schema.params]
        for combo in itertools.product(*member_lists):
            binding = {var: const for (var, _), const in zip(schema.params, combo)}
            grounded.append(ground_operator(universe, schema, binding))
    grounded.sort(key=lambda op: (op.name, op.args))
    return tuple(grounded)


def applicable(op: GroundedOperator, belief: BeliefState) -> bool:
    """True iff every precondition equality holds in the belief."""
    values = belief.values
    for index, value in op.pre:
        if values[index] != value:
            return False
    return True


def apply_effects(op: GroundedOperator, state: BeliefState) -> BeliefState:
    """Rewrite exactly the effect-touched attributes (no precondition check).

    Used by observation channels, where an observer integrates an action's
    effects into a belief the action was not checked against.  Returns the
    state itself when no value changes, an op with no effects included.
    """
    if not op.eff:
        return state
    values = state.values
    domains = state.universe.value_domains
    updates: list[tuple[int, Value]] = []
    for index, eop, value in op.eff:
        if eop is not EffectOp.SET:
            domain = domains[index]
            delta = value if eop is EffectOp.INC else -value
            value = min(domain[-1], max(domain[0], values[index] + delta))
        updates.append((index, value))
    return state.with_values_at(updates)


# ---------------------------------------------------------------------------
# Tasks, methods, networks


@dataclass(frozen=True)
class TaskInstance:
    symbol: str
    args: tuple[str, ...] = ()
    # hash((symbol, args)), computed once, at construction.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.symbol, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor: a string's hash depends on the
        # process's hash seed, so a pickled ``_hash`` would be stale.
        return (TaskInstance, (self.symbol, self.args))

    def __str__(self) -> str:
        return call_text(self.symbol, self.args)


@dataclass(frozen=True)
class MethodSchema:
    """Decomposition rule: a non-primitive task expands into a sub-network.

    Subtasks carry labels and ``order`` pairs labels; construction resolves
    them to ``order_index`` pairs and rejects a variable bound twice (over
    the task head and the free variables), a duplicate label, an unknown
    label and a cyclic order.
    """

    name: str
    owner: str  # agent id or "both"
    task_symbol: str
    task_params: tuple[tuple[str, str], ...] = ()  # typed vars of the task head
    free_params: tuple[tuple[str, str], ...] = ()  # extra method variables
    subtasks: tuple[tuple[str, AttrRef], ...] = ()  # (label, task)
    order: tuple[tuple[str, str], ...] = ()  # (before, after) labels
    order_index: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_bound_once(f"method {self.name}", self.task_params + self.free_params)
        slot = {label: i for i, (label, _) in enumerate(self.subtasks)}
        if len(slot) != len(self.subtasks):
            raise BadArgument(f"method {self.name}: duplicate subtask label")
        for a, b in self.order:
            if a not in slot or b not in slot:
                raise BadArgument(f"method {self.name}: ordering references unknown label")
        order_index = tuple((slot[a], slot[b]) for a, b in self.order)
        _check_order(self.name, len(self.subtasks), order_index)
        object.__setattr__(self, "order_index", order_index)


@dataclass(frozen=True)
class GroundedMethod:
    """One grounding of a method; its ``order`` is checked acyclic here,
    which is what keeps every decomposed network acyclic."""

    name: str
    task: TaskInstance
    subtasks: tuple[TaskInstance, ...]
    order: tuple[tuple[int, int], ...]
    # Bit j of order_masks[i] is set iff subtask j must precede subtask i.
    order_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_order(self.name, len(self.subtasks), self.order)
        masks = [0] * len(self.subtasks)
        for i, j in self.order:
            masks[j] |= 1 << i
        object.__setattr__(self, "order_masks", tuple(masks))

    def __str__(self) -> str:
        return f"{self.name}<{self.task}>"


def _check_order(name: str, n: int, order: tuple[tuple[int, int], ...]) -> None:
    for i, j in order:
        if not (0 <= i < n and 0 <= j < n):
            raise BadArgument(f"method {name}: ordering index out of range")
    if _has_cycle_pairs(range(n), order):
        raise CycleIntroduced(f"method {name}: subtask ordering is cyclic")


def _topological(succs: Mapping[Hashable, list]) -> Optional[list]:
    """Kahn's topological order of the graph ``succs`` (each node to its
    successors, each of them a node too), or None when the graph has a
    cycle (Kahn, 1962).  Every edge points forward in the order."""
    indeg = dict.fromkeys(succs, 0)
    for targets in succs.values():
        for m in targets:
            indeg[m] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    order = []
    while queue:
        n = queue.pop()
        order.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return order if len(order) == len(indeg) else None


def _has_cycle_pairs(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> bool:
    succs: dict[int, list[int]] = {n: [] for n in nodes}
    for i, j in pairs:
        succs[i].append(j)
    return _topological(succs) is None


def ground_method(
    universe: Universe, method: MethodSchema, task: TaskInstance
) -> tuple[GroundedMethod, ...]:
    """All groundings of a method relevant for a task, in lexical order."""
    if method.task_symbol != task.symbol or len(method.task_params) != len(task.args):
        return ()
    # Validate head-parameter types.
    for (var, group), arg in zip(method.task_params, task.args):
        if arg not in universe.groups[group]:
            return ()
    # A MethodSchema binds each head variable once.
    base = {var: arg for (var, _), arg in zip(method.task_params, task.args)}
    out: list[GroundedMethod] = []
    free = [(v, g) for v, g in method.free_params if v not in base]
    member_lists = [universe.groups[g].members for _, g in free]
    for combo in itertools.product(*member_lists):
        binding = dict(base)
        binding.update({var: const for (var, _), const in zip(free, combo)})
        subtasks = tuple(
            TaskInstance(ref.symbol, tuple(_substitute(a, binding) for a in ref.args))
            for _, ref in method.subtasks
        )
        out.append(GroundedMethod(method.name, task, subtasks, method.order_index))
    return tuple(out)


def ground_all_methods(
    universe: Universe, schemas: Iterable[MethodSchema]
) -> dict[TaskInstance, tuple[GroundedMethod, ...]]:
    """Every grounding of every schema, keyed by the task it decomposes;
    per task in declaration order, then lexical order."""
    grounded: dict[TaskInstance, tuple[GroundedMethod, ...]] = {}
    for schema in schemas:
        member_lists = [universe.groups[g].members for _, g in schema.task_params]
        for combo in itertools.product(*member_lists):
            task = TaskInstance(schema.task_symbol, combo)
            grounded[task] = grounded.get(task, ()) + ground_method(universe, schema, task)
    return grounded


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# One object per distinct canonical key and key label (see
# TaskNetwork.canonical_key).
_LABELS: dict[tuple, tuple] = {}


class TaskNetwork:
    """Partially ordered multiset of task nodes; immutable.

    A node is its position.  Two parallel tuples: the ``tasks`` and one
    predecessor bitmask per node in ``preds``, where bit j of ``preds[k]``
    is set iff node j must run before node k.  So the available nodes are
    those whose mask is 0.  Removing node k drops slot k and bit k of every
    mask, and the bits above k move down by one; decomposition appends the
    subtasks at the end.  No method rebinds a field after construction.

    Equality is by value -- the same tasks in the same order and the same
    precedence pairs -- and the hash, computed once, agrees with it.
    ``nodes`` and ``constraints`` give the (position, task) pairs and the
    (before, after) pairs.
    """

    __slots__ = ("tasks", "preds", "_hash")

    def __init__(self, tasks: tuple[TaskInstance, ...], preds: tuple[int, ...]):
        self.tasks = tasks
        self.preds = preds
        self._hash = hash((tasks, preds))

    @staticmethod
    def build(tasks: Iterable[TaskInstance], order: Iterable[tuple[int, int]] = ()) -> "TaskNetwork":
        tasks = tuple(tasks)
        nodes = range(len(tasks))
        constraints = frozenset((a, b) for a, b in order)
        for a, b in constraints:
            if a not in nodes or b not in nodes:
                raise BadArgument("ordering references unknown task node")
        if _has_cycle_pairs(nodes, constraints):
            raise CycleIntroduced("initial task network ordering is cyclic")
        preds = [0] * len(tasks)
        for a, b in constraints:
            preds[b] |= 1 << a
        return TaskNetwork(tasks, tuple(preds))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TaskNetwork):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.preds == other.preds
            and self.tasks == other.tasks
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor, which recomputes the hash for the
        # loading process's hash seed.
        return (TaskNetwork, (self.tasks, self.preds))

    def __repr__(self) -> str:
        return f"TaskNetwork(nodes={self.nodes!r}, constraints={sorted(self.constraints)!r})"

    @property
    def nodes(self) -> tuple[tuple[int, TaskInstance], ...]:
        """(position, task) pairs in order."""
        return tuple(enumerate(self.tasks))

    @property
    def constraints(self) -> frozenset[tuple[int, int]]:
        """(before, after) node pairs."""
        return frozenset((j, k) for k, mask in enumerate(self.preds) for j in _bits(mask))

    @property
    def is_empty(self) -> bool:
        return not self.tasks

    def _check_node(self, k: int) -> None:
        if not 0 <= k < len(self.tasks):
            raise BadArgument(f"no task node {k}")

    def without_node(self, k: int) -> "TaskNetwork":
        """Remove an executed node; its ordering edges dissolve."""
        self._check_node(k)
        low = (1 << k) - 1
        preds = [(mask & low) | ((mask >> 1) & ~low) for mask in self.preds]
        del preds[k]
        return TaskNetwork(self.tasks[:k] + self.tasks[k + 1 :], tuple(preds))

    def canonical_key(self) -> tuple:
        """Position-free structural key; isomorphic networks share keys.

        Two refinement rounds over (task, predecessor/successor label
        multisets) distinguish every network shape arising from acyclic
        decomposition hierarchies of practical size.  Every label, and the
        key itself, is hash-consed through one table that is never emptied,
        so equal labels of different keys are one object and equal keys are
        one object: two keys are equal iff they are identical, and the id of
        a key is never reused in the process's life.
        """
        preds = [list(_bits(mask)) for mask in self.preds]
        succs: list[list[int]] = [[] for _ in preds]
        for k, before in enumerate(preds):
            for p in before:
                succs[p].append(k)
        intern = _LABELS.setdefault
        labels: list[tuple] = [intern(label, label) for label in [(str(t),) for t in self.tasks]]
        for _ in range(2):
            labels = [
                (
                    labels[k],
                    tuple(sorted(labels[p] for p in preds[k])),
                    tuple(sorted(labels[s] for s in succs[k])),
                )
                for k in range(len(labels))
            ]
            labels = [intern(label, label) for label in labels]
        key = tuple(sorted(labels))
        return intern(key, key)


def decompose(w: TaskNetwork, k: int, m: GroundedMethod) -> TaskNetwork:
    """Replace task node k with a grounded method's sub-network.

    Slot k goes, as in :meth:`TaskNetwork.without_node`, and the subtasks
    take the positions from ``n - 1`` on, for the ``n`` nodes of ``w``.
    Each subtask inherits the node's predecessors plus its own method-order
    predecessors, and every successor of the node waits for all of the
    subtasks instead; with zero subtasks a successor inherits the node's
    predecessors (the constraint is contracted through the node).  One pass
    over the masks does both.

    The result cannot hold a cycle when ``w`` holds none: a node of an
    acyclic graph is replaced by an acyclic sub-network (every
    :class:`GroundedMethod` order is checked at construction) that sits
    after all of the node's predecessors and before all of its successors,
    and a contraction p -> s only adds an edge where the path
    p -> node -> s already existed.  Renumbering the nodes by position
    renames them without adding or dropping an edge.  So no cycle check
    runs here.
    """
    w._check_node(k)
    task = w.tasks[k]
    if m.task is not task and m.task != task:
        raise NotRelevant(f"method {m.name} does not decompose {task}")
    base = len(w.tasks) - 1
    n = len(m.subtasks)
    bit = 1 << k
    low, high = bit - 1, ~(bit - 1)
    own = (w.preds[k] & low) | ((w.preds[k] >> 1) & high)  # no bit k: w is acyclic
    replacement = (((1 << n) - 1) << base) if n else own
    preds = [
        (mask & low) | ((mask >> 1) & high) | (replacement if mask & bit else 0)
        for mask in w.preds
    ]
    del preds[k]
    preds.extend(own | (order << base) for order in m.order_masks)
    return TaskNetwork(w.tasks[:k] + w.tasks[k + 1 :] + m.subtasks, tuple(preds))


@dataclass(frozen=True)
class AgentDomain:
    """One agent's grounded operators and methods; the lifted schemas stay
    in the bundle's domain file.

    ``op_names`` are the agent's primitive task symbols; ``yields`` are the
    task symbols that can lead to one of them through the agent's methods.
    """

    ground_ops: Mapping[tuple[str, tuple[str, ...]], GroundedOperator]  # lexical
    ground_methods: Mapping[TaskInstance, tuple[GroundedMethod, ...]]
    op_names: frozenset[str]
    yields: frozenset[str]


def analyse_hierarchy(domains: Iterable[AgentDomain], network: TaskNetwork) -> Optional[int]:
    """The most primitives any run from ``network`` can execute, or None
    when the grounded method hierarchy of ``domains`` is recursive.

    The hierarchy is the task-to-subtask graph over both agents' grounded
    methods; it is recursive when a task can decompose, through some chain
    of methods, into itself (Erol, Hendler & Nau, 1996).  In an acyclic one
    a primitive of either agent yields 1, a task no method decomposes 0, and
    any other task the most over its methods of the sum over their subtasks.
    Decomposing never raises the sum over a network, and executing a
    primitive lowers it by one.  The table fills in reverse topological
    order over the decomposable tasks, so each task's subtasks come first.
    """
    domains = tuple(domains)
    op_names = frozenset().union(*(d.op_names for d in domains))
    expansions: dict[TaskInstance, list[tuple[TaskInstance, ...]]] = {}
    for dom in domains:
        for task, methods in dom.ground_methods.items():
            if task.symbol not in op_names:  # a primitive is never decomposed
                expansions.setdefault(task, []).extend(gm.subtasks for gm in methods)
    order = _topological({
        task: [sub for subs in expansions[task] for sub in subs if sub in expansions]
        for task in expansions
    })
    if order is None:
        return None
    most: dict[TaskInstance, int] = {}

    def yield_of(task: TaskInstance) -> int:
        return 1 if task.symbol in op_names else most.get(task, 0)

    for task in reversed(order):
        most[task] = max((sum(map(yield_of, subs)) for subs in expansions[task]), default=0)
    return sum(map(yield_of, network.tasks))


def growing_loop(domains: Iterable[AgentDomain]) -> Optional[GroundedMethod]:
    """A method on a cycle of decompositions that adds a task on each turn
    before any primitive runs, or None.  Only such a cycle keeps the choice
    walk (:func:`beliefhtn.planner.choices`) from ending.

    Per agent, over its ground methods: decomposing a task T by a method
    makes a subtask S available at once when every subtask ordered before S,
    directly or not, can decompose to nothing, an edge T -> S.  The walk can
    follow a cycle of such edges without a primitive running.  Those
    subtasks must be gone before S is available, so the edge adds a task
    only when the method has yet another subtask; and when some edge of a
    cycle adds one, the walk never meets a network twice.  ``Loop -> tick,
    Loop`` with no order is such a cycle; ``Loop -> Loop`` alone, and
    ``tick`` ordered before ``Loop``, are not.  No primitive is decomposed.
    """
    domains = tuple(domains)
    op_names = frozenset().union(*(d.op_names for d in domains))
    for dom in domains:
        methods = {t: gms for t, gms in dom.ground_methods.items() if t.symbol not in op_names}
        empty: set[TaskInstance] = set()  # the tasks that can decompose to nothing
        while True:
            more = {
                t for t, gms in methods.items() if any(empty.issuperset(gm.subtasks) for gm in gms)
            }
            if more <= empty:
                break
            empty |= more
        # task -> (subtask it makes available, whether that adds a task, method)
        edges: dict[TaskInstance, list[tuple[TaskInstance, bool, GroundedMethod]]] = {}
        for task, gms in methods.items():
            edges[task] = []
            for gm in gms:
                full = (1 << len(gm.subtasks)) - 1
                for k, (sub, before) in enumerate(zip(gm.subtasks, _preceding(gm.order_masks))):
                    if sub in methods and all(gm.subtasks[j] in empty for j in _bits(before)):
                        edges[task].append((sub, before | 1 << k != full, gm))
        for task, out in edges.items():
            for sub, grows, gm in out:
                if grows and task in _reachable(edges, sub):
                    return gm
    return None


def _preceding(masks: tuple[int, ...]) -> list[int]:
    """Per subtask, the mask of the subtasks ordered before it, directly or
    not, from its direct predecessors' ``masks``."""
    closed = list(masks)
    for _ in masks:  # each round closes one more link of every chain
        for i, mask in enumerate(closed):
            for j in _bits(mask):
                closed[i] |= closed[j]
    return closed


def _reachable(edges: Mapping[Hashable, list], start: Hashable) -> set:
    """The nodes that ``edges`` (node to (node, ...) tuples) lead to from
    ``start``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for target, *_ in edges[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


@dataclass(frozen=True)
class HtnProblem:
    """Initial beliefs, shared initial network, and per-agent domains.

    ``search_cache`` is the state table the bundle's plans share (see
    :class:`beliefhtn.planner.SearchCache`); ``dataclasses.replace`` carries
    it to every instance made from the bundle's problem, and it takes no
    part in equality.
    """

    universe: Universe
    world: BeliefState  # ground truth == robot belief
    human_belief: BeliefState
    network: TaskNetwork
    domains: Mapping[str, AgentDomain]
    robot: str
    human: str
    start_agent: str
    search_cache: Optional["SearchCache"] = field(default=None, compare=False, repr=False)
