"""Differential test: positional bitmask task networks against the
id-based pair-set networks.

``TaskNetwork`` holds two tuples indexed by node position (tasks, one
predecessor bitmask per node) and ``decompose`` rewrites the masks in one
pass without a cycle check.  The reference below keeps the earlier
representation: a frozen dataclass of ``(id, TaskInstance)`` pairs sorted
by node ids that are never reused, a frozenset of ``(before, after)``
pairs and a ``next_id``, with ``decompose`` rescanning every constraint
and running a Kahn cycle check.  Since the reference appends new ids at
the end, a node's position is its rank among the reference's ids: every
observable must agree with the reference renumbered by rank.  Seeded
random walks of decompositions (through both agents' grounded methods)
and node removals run on both representations side by side and compare
after every step.  Since ``decompose`` does not check for cycles, the
walks also assert that the precedence relation stays acyclic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import pytest

from beliefhtn import parse_bundle
from beliefhtn.builtins import BOX_DOM, COOKING_DOM, box_dom
from beliefhtn.errors import BadArgument, CycleIntroduced, NotRelevant
from beliefhtn.htn import GroundedMethod, TaskInstance, TaskNetwork, decompose

from oracles import available, task_of

WALKS = 6
STEPS = 60


# -- reference: pair-set networks --------------------------------------------


def ref_has_cycle(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> bool:
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


@dataclass(frozen=True)
class RefNetwork:
    nodes: tuple[tuple[int, TaskInstance], ...]  # sorted by node id
    constraints: frozenset[tuple[int, int]]  # (before, after) node ids
    next_id: int = 0

    @staticmethod
    def build(tasks, order=()) -> "RefNetwork":
        nodes = tuple(enumerate(tasks))
        constraints = frozenset((a, b) for a, b in order)
        return RefNetwork(nodes, constraints, len(nodes))

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def task_of(self, node_id: int) -> TaskInstance:
        for i, t in self.nodes:
            if i == node_id:
                return t
        raise BadArgument(f"no task node {node_id}")

    def available(self) -> tuple[int, ...]:
        blocked = {b for _, b in self.constraints}
        return tuple(i for i, _ in self.nodes if i not in blocked)

    def renumbered(self) -> "RefNetwork":
        """The same network with each node id replaced by its rank."""
        rank = {i: k for k, (i, _) in enumerate(self.nodes)}
        return RefNetwork(
            tuple((rank[i], t) for i, t in self.nodes),
            frozenset((rank[a], rank[b]) for a, b in self.constraints),
            len(self.nodes),
        )

    def without_node(self, node_id: int) -> "RefNetwork":
        nodes = tuple((i, t) for i, t in self.nodes if i != node_id)
        constraints = frozenset(
            (a, b) for a, b in self.constraints if a != node_id and b != node_id
        )
        return RefNetwork(nodes, constraints, self.next_id)

    def canonical_key(self) -> tuple:
        labels: dict[int, tuple] = {i: (str(t),) for i, t in self.nodes}
        preds: dict[int, list[int]] = {i: [] for i, _ in self.nodes}
        succs: dict[int, list[int]] = {i: [] for i, _ in self.nodes}
        for a, b in self.constraints:
            preds[b].append(a)
            succs[a].append(b)
        for _ in range(2):
            labels = {
                i: (
                    labels[i],
                    tuple(sorted(labels[p] for p in preds[i])),
                    tuple(sorted(labels[s] for s in succs[i])),
                )
                for i, _ in self.nodes
            }
        return tuple(sorted(labels.values()))


def ref_decompose(w: RefNetwork, node_id: int, m: GroundedMethod) -> RefNetwork:
    task = w.task_of(node_id)
    if m.task != task:
        raise NotRelevant(f"method {m.name} does not decompose {task}")
    new_ids = tuple(range(w.next_id, w.next_id + len(m.subtasks)))
    nodes = tuple((i, t) for i, t in w.nodes if i != node_id) + tuple(
        zip(new_ids, m.subtasks)
    )
    constraints: set[tuple[int, int]] = set()
    preds = [a for a, b in w.constraints if b == node_id]
    succs = [b for a, b in w.constraints if a == node_id]
    for a, b in w.constraints:
        if node_id in (a, b):
            continue
        constraints.add((a, b))
    if m.subtasks:
        for p in preds:
            constraints.update((p, n) for n in new_ids)
        for s in succs:
            constraints.update((n, s) for n in new_ids)
    else:
        constraints.update((p, s) for p in preds for s in succs)
    constraints.update((new_ids[i], new_ids[j]) for i, j in m.order)
    if ref_has_cycle([i for i, _ in nodes], constraints):
        raise CycleIntroduced(f"decomposing {task} by {m.name} created a cycle")
    return RefNetwork(tuple(sorted(nodes)), frozenset(constraints), w.next_id + len(m.subtasks))


# -- walks --------------------------------------------------------------------


def assert_same(new: TaskNetwork, ref: RefNetwork) -> None:
    pos = ref.renumbered()
    assert new.nodes == pos.nodes
    assert new.constraints == pos.constraints
    assert new.is_empty == ref.is_empty
    assert available(new) == pos.available()
    for i, _ in pos.nodes:
        assert task_of(new, i) == pos.task_of(i)
    assert new.canonical_key() == ref.canonical_key()


def walk(bundle, seed: int) -> list[tuple[TaskNetwork, RefNetwork]]:
    """One seeded walk; every visited network in both representations.

    A step either decomposes a random node that has methods (available or
    not) by each of them, keeping every result and going on from a random
    one, or removes a random available node that has none; one step in ten
    removes any node at all.  The methods are both agents' grounded methods
    plus an empty one per task, so that every walk also contracts
    constraints through nodes (box has no empty method).  Decomposing by
    every method makes equal-shaped networks over different tasks meet in
    the equality check.  A node is drawn by position and names the
    reference node of the same rank.
    """
    rng = random.Random(seed)
    methods: dict[TaskInstance, list[GroundedMethod]] = {}
    for dom in bundle.problem.domains.values():
        for task, gms in dom.ground_methods.items():
            methods.setdefault(task, []).extend(gms)
    for task, gms in methods.items():
        gms.append(GroundedMethod("skip", task, (), ()))
    root = bundle.problem.network
    new = root
    ref = RefNetwork.build([t for _, t in root.nodes], sorted(root.constraints))
    steps = [(new, ref)]
    for _ in range(STEPS):
        if new.is_empty:
            break
        expandable = [i for i, t in new.nodes if methods.get(t)]
        executable = [i for i in available(new) if not methods.get(task_of(new, i))]
        r = rng.random()
        if r < 0.1 or not (expandable or executable):
            k = rng.choice(range(len(new.tasks)) if r < 0.1 else available(new))
            options = [(new.without_node(k), ref.without_node(ref.nodes[k][0]))]
        elif expandable and (r < 0.6 or not executable):
            k = rng.choice(expandable)
            options = [
                (decompose(new, k, gm), ref_decompose(ref, ref.nodes[k][0], gm))
                for gm in methods[task_of(new, k)]
            ]
            for option, _ in options:
                assert not ref_has_cycle(range(len(option.tasks)), option.constraints)
        else:
            k = rng.choice(executable)
            options = [(new.without_node(k), ref.without_node(ref.nodes[k][0]))]
        steps += options
        new, ref = rng.choice(options)
    for new, ref in steps:
        assert_same(new, ref)
    return steps


BUNDLES = {
    "cooking": lambda: parse_bundle(COOKING_DOM),
    "box": lambda: parse_bundle(BOX_DOM),
    **{f"box_dom-{n}": (lambda n=n: parse_bundle(box_dom(boxes=n))) for n in range(2, 6)},
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_walks_match_reference(name):
    bundle = BUNDLES[name]()
    visited: list[tuple[TaskNetwork, RefNetwork]] = []
    for seed in range(WALKS):
        visited += walk(bundle, seed)
        # A second run of the same walk builds equal networks as new objects.
        visited += walk(bundle, seed)[::5]
    assert sum(len(ref.constraints) > 2 for _, ref in visited) > len(visited) // 4
    positional = [(new, ref.renumbered()) for new, ref in visited]
    for a_new, a_ref in positional:
        for b_new, b_ref in positional:
            assert (a_new == b_new) == (a_ref == b_ref)
            if a_new == b_new:
                assert hash(a_new) == hash(b_new)


def test_unknown_node_is_rejected(cooking):
    w = cooking.problem.network
    # -1 would index the last node if a position were not checked
    for k in (len(w.tasks), -1):
        with pytest.raises(BadArgument):
            decompose(w, k, GroundedMethod("skip", w.tasks[k % len(w.tasks)], (), ()))
        with pytest.raises(BadArgument):
            w.without_node(k)
