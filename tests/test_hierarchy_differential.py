"""Differential test: the hierarchy bound over Kahn's order against a DFS.

``htn.analyse_hierarchy`` finds a recursive hierarchy with
``htn._topological``, Kahn's order over the decomposable tasks, and fills
its table in reverse order.  The reference below is the earlier pass: one
depth-first walk that keeps the tasks on its path, returns None on reaching
one of them again, and fills each task's entry when the walk leaves it.
Both run on every bundle the other tests build and on generated
hierarchies; a derandomised property checks ``_topological`` against the
Kahn loop of the network reference.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import builtin_bundle, parse_bundle
from beliefhtn.builtins import box_dom
from beliefhtn.htn import TaskInstance, TaskNetwork, _topological, analyse_hierarchy

from test_choice_differential import CHOICE_DOM, CRAFTED
from test_cli import MARKS_DOM
from test_network_differential import ref_has_cycle
from test_search_cache import RECURSIVE_DOM


def ref_analyse_hierarchy(domains, network):
    domains = tuple(domains)
    op_names = frozenset().union(*(d.op_names for d in domains))
    expansions = {}
    for dom in domains:
        for task, methods in dom.ground_methods.items():
            if task.symbol not in op_names:
                expansions.setdefault(task, []).extend(gm.subtasks for gm in methods)
    most = {}

    def yield_of(task):
        return 1 if task.symbol in op_names else most.get(task, 0)

    on_path = set()
    for start in expansions:
        if start in most:
            continue
        on_path.add(start)
        stack = [(start, itertools.chain.from_iterable(expansions[start]))]
        while stack:
            task, subtasks = stack[-1]
            for sub in subtasks:
                if sub in on_path:
                    return None
                if sub in expansions and sub not in most:
                    on_path.add(sub)
                    stack.append((sub, itertools.chain.from_iterable(expansions[sub])))
                    break
            else:
                stack.pop()
                on_path.discard(task)
                most[task] = max(
                    (sum(map(yield_of, subs)) for subs in expansions[task]), default=0
                )
    return sum(map(yield_of, network.tasks))


def _cases():
    """(id, bundle, network): each bundle's root network, and the crafted
    root networks of ``CHOICE_DOM``."""
    for name in ("cooking", "box"):
        bundle = builtin_bundle(name)
        yield name, bundle, bundle.problem.network
    for boxes in range(1, 7):
        bundle = parse_bundle(box_dom(boxes=boxes))
        yield f"box{boxes}", bundle, bundle.problem.network
    for root, start in (("Mark", "person"), ("Pick", "bot")):
        bundle = parse_bundle(MARKS_DOM.format(root=root, start=start))
        yield f"marks-{root}", bundle, bundle.problem.network
    choose = parse_bundle(CHOICE_DOM)
    yield "choose", choose, choose.problem.network
    for roots, _, _ in CRAFTED:
        network = TaskNetwork.build([TaskInstance(symbol) for symbol in roots])
        yield "choose-" + "-".join(roots), choose, network
    recursive = parse_bundle(RECURSIVE_DOM)
    yield "recursive", recursive, recursive.problem.network


CASES = list(_cases())


@pytest.mark.parametrize("bundle, network", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_the_bound_equals_the_depth_first_bound(bundle, network):
    domains = bundle.problem.domains.values()
    most = analyse_hierarchy(domains, network)
    assert most == ref_analyse_hierarchy(domains, network)
    if network is bundle.problem.network:
        assert bundle.problem.search_cache.primitives == most


@st.composite
def hierarchies(draw):
    """(domains, network): one agent whose tasks T0..T5 each have up to two
    methods over the tasks and the primitives p and q, and a root network."""
    symbols = [f"T{k}" for k in range(6)] + ["p", "q"]
    task = st.sampled_from(symbols).map(TaskInstance)
    method = st.lists(task, max_size=3).map(lambda subs: SimpleNamespace(subtasks=tuple(subs)))
    ground_methods = {
        TaskInstance(symbol): tuple(draw(st.lists(method, max_size=2)))
        for symbol in symbols[:6]
    }
    domain = SimpleNamespace(op_names=frozenset({"p", "q"}), ground_methods=ground_methods)
    return (domain,), TaskNetwork.build(draw(st.lists(task, min_size=1, max_size=3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hierarchies())
def test_the_bound_equals_the_depth_first_bound_on_generated_hierarchies(hierarchy):
    domains, network = hierarchy
    assert analyse_hierarchy(domains, network) == ref_analyse_hierarchy(domains, network)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return 0, []
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(edge, max_size=3 * n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs())
def test_kahn_order_finds_exactly_the_cycles(graph):
    n, edges = graph
    succs = {node: [] for node in range(n)}
    for i, j in edges:
        succs[i].append(j)
    order = _topological(succs)
    assert (order is None) == ref_has_cycle(range(n), edges)
    if order is not None:
        assert sorted(order) == list(range(n))
        position = {node: k for k, node in enumerate(order)}
        assert all(position[i] < position[j] for i, j in edges)
