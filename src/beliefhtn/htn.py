"""Operators, methods, task networks and decomposition.

Operators carry conjunctions of equality preconditions and unconditional
effects.  Effects on bounded-integer attributes may also be increments or
decrements; these saturate at the domain bounds so that observers applying
an action's effects to an already-diverged belief stay inside the domain.
Each domain is grounded once, when its bundle is built, into the tables of
:class:`AgentDomain`; grounding raises for every bad value and argument, and
stores each precondition and effect by its dense ``Universe`` index.

Task networks are immutable and hold one predecessor bitmask per node:
decomposition returns a new network with fresh node ids, re-targeting every
precedence constraint that touched the expanded node onto all of the
method's subtasks (or contracting it through the node for an empty
expansion) in one pass over the masks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional

from .errors import (
    BadArgument,
    CycleIntroduced,
    NotApplicable,
    NotRelevant,
)
from .state import BeliefState, Universe, Value


class OpKind(Enum):
    REGULAR = "regular"
    IDLE = "idle"
    WAIT = "wait"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class Term:
    """Either a variable (``?x``) or a constant symbol in a schema."""

    name: str

    @property
    def is_var(self) -> bool:
        return self.name.startswith("?")

    def __str__(self) -> str:
        return self.name


def _substitute(term: Term, binding: Mapping[str, str]) -> str:
    if term.is_var:
        if term.name not in binding:
            raise BadArgument(f"unbound variable {term.name}")
        return binding[term.name]
    return term.name


@dataclass(frozen=True)
class Test:
    """Precondition: grounded attribute equals a value."""

    symbol: str
    args: tuple[Term, ...]
    value: Term


class EffectOp(Enum):
    SET = "set"
    INC = "inc"
    DEC = "dec"


@dataclass(frozen=True)
class Effect:
    symbol: str
    args: tuple[Term, ...]
    op: EffectOp
    value: Term | int  # Term for SET, int delta for INC/DEC


@dataclass(frozen=True)
class OperatorSchema:
    """Lifted operator, owned by one agent."""

    name: str
    agent: str
    params: tuple[tuple[str, str], ...] = ()  # (?var, group)
    pre: tuple[Test, ...] = ()
    eff: tuple[Effect, ...] = ()
    kind: OpKind = OpKind.REGULAR

    def __post_init__(self) -> None:
        if self.kind in (OpKind.IDLE, OpKind.WAIT) and (self.pre or self.eff):
            raise BadArgument(f"{self.kind.value} operators must have empty pre/eff")


@dataclass(frozen=True)
class GroundedOperator:
    """Fully instantiated operator; pre/eff hold interned attribute indices."""

    name: str
    agent: str
    args: tuple[str, ...]
    kind: OpKind
    pre: tuple[tuple[int, Value], ...]
    eff: tuple[tuple[int, EffectOp, Value | int], ...]

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(self.args)})"

    @property
    def is_pseudo(self) -> bool:
        return self.kind in (OpKind.IDLE, OpKind.WAIT)


def idle_op(agent: str) -> GroundedOperator:
    return GroundedOperator("IDLE", agent, (), OpKind.IDLE, (), ())


def wait_op(agent: str) -> GroundedOperator:
    return GroundedOperator("WAIT", agent, (), OpKind.WAIT, (), ())


def ground_operator(
    universe: Universe, schema: OperatorSchema, binding: Mapping[str, str]
) -> GroundedOperator:
    args = tuple(binding[var] for var, _ in schema.params)
    pre: list[tuple[int, Value]] = []
    for test in schema.pre:
        attr = universe.attr(
            test.symbol, *(_substitute(t, binding) for t in test.args)
        )
        value_token = _substitute(test.value, binding)
        pre.append((universe.index_of(attr), universe.parse_value(attr, value_token)))
    eff: list[tuple[int, EffectOp, Value | int]] = []
    for effect in schema.eff:
        attr = universe.attr(
            effect.symbol, *(_substitute(t, binding) for t in effect.args)
        )
        index = universe.index_of(attr)
        if any(index == seen for seen, _, _ in eff):
            raise BadArgument(f"operator {schema.name} assigns {attr} twice")
        if effect.op is EffectOp.SET:
            assert isinstance(effect.value, Term)
            value_token = _substitute(effect.value, binding)
            eff.append((index, EffectOp.SET, universe.parse_value(attr, value_token)))
        else:
            if not universe.decls[attr.symbol].is_integer:
                raise BadArgument(
                    f"increment effect on non-integer attribute {attr}"
                )
            assert isinstance(effect.value, int)
            eff.append((index, effect.op, effect.value))
    return GroundedOperator(schema.name, schema.agent, args, schema.kind, tuple(pre), tuple(eff))


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


def apply(op: GroundedOperator, state: BeliefState) -> BeliefState:
    """Apply the operator's effects; the input state is unchanged."""
    if not applicable(op, state):
        raise NotApplicable(f"{op} is not applicable in {state.owner}'s belief")
    return apply_effects(op, state)


def apply_effects(op: GroundedOperator, state: BeliefState) -> BeliefState:
    """Rewrite exactly the effect-touched attributes (no precondition check).

    Used by observation channels, where an observer integrates an action's
    effects into a belief the action was not checked against.
    """
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

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True)
class MethodSchema:
    """Decomposition rule: a non-primitive task expands into a sub-network."""

    name: str
    task_symbol: str
    task_params: tuple[tuple[str, str], ...] = ()  # typed vars of the task head
    free_params: tuple[tuple[str, str], ...] = ()  # extra method variables
    subtasks: tuple[tuple[str, tuple[Term, ...]], ...] = ()
    order: tuple[tuple[int, int], ...] = ()  # indices into subtasks

    def __post_init__(self) -> None:
        _check_order(self.name, len(self.subtasks), self.order)


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


def _has_cycle_pairs(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> bool:
    succs: dict[int, list[int]] = {n: [] for n in nodes}
    indeg: dict[int, int] = {n: 0 for n in succs}
    for i, j in pairs:
        succs[i].append(j)
        indeg[j] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return seen != len(indeg)


def unify_task(method: MethodSchema, task: TaskInstance) -> Optional[dict[str, str]]:
    """Bind the method's task-head parameters against a task instance."""
    if method.task_symbol != task.symbol:
        return None
    if len(method.task_params) != len(task.args):
        return None
    binding: dict[str, str] = {}
    for (var, group), arg in zip(method.task_params, task.args):
        if var in binding and binding[var] != arg:
            return None
        binding[var] = arg
    return binding


def ground_method(
    universe: Universe, method: MethodSchema, task: TaskInstance
) -> tuple[GroundedMethod, ...]:
    """All groundings of a method relevant for a task, in lexical order."""
    base = unify_task(method, task)
    if base is None:
        return ()
    # Validate head-parameter types.
    for (var, group), arg in zip(method.task_params, task.args):
        if arg not in universe.groups[group]:
            return ()
    out: list[GroundedMethod] = []
    free = [(v, g) for v, g in method.free_params if v not in base]
    member_lists = [universe.groups[g].members for _, g in free]
    for combo in itertools.product(*member_lists):
        binding = dict(base)
        binding.update({var: const for (var, _), const in zip(free, combo)})
        subtasks = tuple(
            TaskInstance(sym, tuple(_substitute(t, binding) for t in args))
            for sym, args in method.subtasks
        )
        out.append(GroundedMethod(method.name, task, subtasks, method.order))
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


class TaskNetwork:
    """Partially ordered multiset of task nodes; immutable.

    Three parallel tuples sorted by node id: ``ids``, their ``tasks``, and
    one predecessor bitmask per node in ``preds``, where bit j of
    ``preds[k]`` is set iff node j must run before node ``ids[k]``.  So the
    available nodes are those whose mask is 0, and removing node j clears
    bit j.  Ids are never reused: decomposition numbers new nodes from
    ``next_id`` on, which keeps the tuples sorted.  No method rebinds a
    field after construction.

    Equality is by value -- the same ids, tasks, precedence pairs and
    ``next_id`` -- and the hash, computed once, agrees with it.  ``nodes``
    and ``constraints`` give the (id, task) pairs and the (before, after)
    pairs.
    """

    __slots__ = ("ids", "tasks", "preds", "next_id", "_hash")

    def __init__(
        self,
        ids: tuple[int, ...],
        tasks: tuple[TaskInstance, ...],
        preds: tuple[int, ...],
        next_id: int,
    ):
        self.ids = ids
        self.tasks = tasks
        self.preds = preds
        self.next_id = next_id
        self._hash = hash((ids, tasks, preds, next_id))

    @staticmethod
    def build(tasks: Iterable[TaskInstance], order: Iterable[tuple[int, int]] = ()) -> "TaskNetwork":
        tasks = tuple(tasks)
        ids = range(len(tasks))
        constraints = frozenset((a, b) for a, b in order)
        for a, b in constraints:
            if a not in ids or b not in ids:
                raise BadArgument("ordering references unknown task node")
        if _has_cycle_pairs(ids, constraints):
            raise CycleIntroduced("initial task network ordering is cyclic")
        preds = [0] * len(tasks)
        for a, b in constraints:
            preds[b] |= 1 << a
        return TaskNetwork(tuple(ids), tasks, tuple(preds), len(tasks))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TaskNetwork):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.next_id == other.next_id
            and self.ids == other.ids
            and self.preds == other.preds
            and self.tasks == other.tasks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TaskNetwork(nodes={self.nodes!r}, "
            f"constraints={sorted(self.constraints)!r}, next_id={self.next_id!r})"
        )

    @property
    def nodes(self) -> tuple[tuple[int, TaskInstance], ...]:
        """(id, task) pairs in id order."""
        return tuple(zip(self.ids, self.tasks))

    @property
    def constraints(self) -> frozenset[tuple[int, int]]:
        """(before, after) node-id pairs."""
        return frozenset(
            (j, i) for i, mask in zip(self.ids, self.preds) for j in _bits(mask)
        )

    @property
    def is_empty(self) -> bool:
        return not self.ids

    def _slot(self, node_id: int) -> int:
        k = bisect_left(self.ids, node_id)
        if k == len(self.ids) or self.ids[k] != node_id:
            raise BadArgument(f"no task node {node_id}")
        return k

    def task_of(self, node_id: int) -> TaskInstance:
        return self.tasks[self._slot(node_id)]

    def available(self) -> tuple[int, ...]:
        """Nodes with no pending predecessor, in id order."""
        return tuple([i for i, mask in zip(self.ids, self.preds) if not mask])

    def without_node(self, node_id: int) -> "TaskNetwork":
        """Remove an executed node; its ordering edges dissolve."""
        k = self._slot(node_id)
        keep = ~(1 << node_id)
        preds = [mask & keep for mask in self.preds]
        del preds[k]
        return TaskNetwork(
            self.ids[:k] + self.ids[k + 1 :],
            self.tasks[:k] + self.tasks[k + 1 :],
            tuple(preds),
            self.next_id,
        )

    def canonical_key(self) -> tuple:
        """Id-free structural key; isomorphic networks share keys.

        Two refinement rounds over (task, predecessor/successor label
        multisets) distinguish every network shape arising from acyclic
        decomposition hierarchies of practical size.
        """
        slot = {i: k for k, i in enumerate(self.ids)}
        preds = [[slot[j] for j in _bits(mask)] for mask in self.preds]
        succs: list[list[int]] = [[] for _ in self.ids]
        for k, before in enumerate(preds):
            for p in before:
                succs[p].append(k)
        labels: list[tuple] = [(str(t),) for t in self.tasks]
        for _ in range(2):
            labels = [
                (
                    labels[k],
                    tuple(sorted(labels[p] for p in preds[k])),
                    tuple(sorted(labels[s] for s in succs[k])),
                )
                for k in range(len(labels))
            ]
        return tuple(sorted(labels))


def decompose(w: TaskNetwork, node_id: int, m: GroundedMethod) -> TaskNetwork:
    """Replace a task node with a grounded method's sub-network.

    The subtasks take new ids from ``w.next_id`` on.  Each subtask inherits
    the node's predecessors plus its own method-order predecessors, and
    every successor of the node waits for all of the subtasks instead; with
    zero subtasks a successor inherits the node's predecessors (the
    constraint is contracted through the node).  One pass over the masks
    does both.

    The result cannot hold a cycle when ``w`` holds none: a node of an
    acyclic graph is replaced by an acyclic sub-network (every
    :class:`GroundedMethod` order is checked at construction) that sits
    after all of the node's predecessors and before all of its successors,
    and a contraction p -> s only adds an edge where the path
    p -> node -> s already existed.  So no cycle check runs here.
    """
    k = w._slot(node_id)
    task = w.tasks[k]
    if m.task is not task and m.task != task:
        raise NotRelevant(f"method {m.name} does not decompose {task}")
    base = w.next_id
    n = len(m.subtasks)
    own = w.preds[k]
    bit = 1 << node_id
    clear = ~bit
    replacement = (((1 << n) - 1) << base) if n else own
    preds = [((mask & clear) | replacement) if mask & bit else mask for mask in w.preds]
    del preds[k]
    preds.extend(own | (order << base) for order in m.order_masks)
    return TaskNetwork(
        w.ids[:k] + w.ids[k + 1 :] + tuple(range(base, base + n)),
        w.tasks[:k] + w.tasks[k + 1 :] + m.subtasks,
        tuple(preds),
        base + n,
    )


@dataclass(frozen=True)
class AgentDomain:
    """One agent's operators and methods, lifted and grounded.

    ``op_names`` are the agent's primitive task symbols; ``yields`` are the
    task symbols that can lead to one of them through the agent's methods.
    """

    agent: str
    operators: tuple[OperatorSchema, ...]
    methods: tuple[MethodSchema, ...]
    ground_ops: Mapping[tuple[str, tuple[str, ...]], GroundedOperator]  # lexical
    ground_methods: Mapping[TaskInstance, tuple[GroundedMethod, ...]]
    op_names: frozenset[str]
    yields: frozenset[str]


@dataclass(frozen=True)
class HtnProblem:
    """Initial beliefs, shared initial network, and per-agent domains."""

    universe: Universe
    world: BeliefState  # ground truth == robot belief
    human_belief: BeliefState
    network: TaskNetwork
    domains: Mapping[str, AgentDomain]
    robot: str
    human: str
    start_agent: str

    def domain_of(self, agent: str) -> AgentDomain:
        return self.domains[agent]
