"""Differential test: choice enumeration against the value-keyed enumerator.

``planner.choices`` tracks visited networks and deduplicates candidates by
the identity of each network's interned canonical key, and keeps the
minimal candidates of an action group by testing them in order of commit
count against the minimal ones kept so far.  The reference below keeps the
enumerator it replaces: visited and result sets over key *values*, every
available node found through the test-side ``available`` and ``task_of``,
and the quadratic filter that tests each candidate against every other one
of its group with ``ref_multiset_lt``.  Every ``_Search._choices`` call
(``choices`` over the search's domains) the search makes on both builtins
(both start agents, both modes), on the stride-17 study sample and on
``box_dom(2..4)`` must return the reference's candidates in the reference's
order, with equal operators, commits and networks.  A small domain adds
the groups those never build: two minimal candidates with equal commits, a
minimal candidate above only the second of two kept ones, and two paths to
one resulting network.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, builtin_bundle, parse_bundle, plan
from beliefhtn.builtins import box_dom
from beliefhtn.htn import TaskInstance, TaskNetwork, applicable, decompose
from beliefhtn.planner import _Candidate, _Search, choices

from oracles import available, task_of
from test_search_cache import STRIDE, study_problems

MODES = (MODE_LEGACY, MODE_NEW)


# -- reference: the value-keyed enumerator ------------------------------------


def ref_multiset_lt(a: tuple, b: tuple) -> bool:
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


def ref_choices(domains, belief, network: TaskNetwork, agent: str):
    """(sorted minimal candidates, groups of two or more, candidates dropped)."""
    dom = domains[agent]
    own_ops = dom.op_names
    other_ops = frozenset().union(*(d.op_names for a, d in domains.items() if a != agent))
    results: dict[tuple, _Candidate] = {}
    visited: set[tuple] = set()
    stack: list[tuple[TaskNetwork, tuple]] = [(network, ())]
    while stack:
        w, commits = stack.pop()
        key = w.canonical_key()
        if key in visited:
            continue
        visited.add(key)
        for node_id in available(w):
            task = task_of(w, node_id)
            if task.symbol in own_ops:
                op = dom.ground_ops.get((task.symbol, task.args))
                if op is not None and applicable(op, belief):
                    after = w.without_node(node_id)
                    dkey = (op.name, op.args, after.canonical_key())
                    if dkey not in results:
                        results[dkey] = _Candidate(op, after, commits)
            elif task.symbol not in other_ops:
                for gm in dom.ground_methods.get(task, ()):
                    stack.append((decompose(w, node_id, gm), commits + ((task, gm.name),)))
    by_action: dict[tuple, list[_Candidate]] = {}
    for cand in results.values():
        by_action.setdefault((cand.op.name, cand.op.args), []).append(cand)
    minimal: list[_Candidate] = []
    for group in by_action.values():
        for cand in group:
            if not any(ref_multiset_lt(other.commits, cand.commits) for other in group):
                minimal.append(cand)
    multi = sum(len(group) > 1 for group in by_action.values())
    ordered = sorted(minimal, key=lambda c: (c.op.name, c.op.args, c.network.canonical_key()))
    return ordered, multi, len(results) - len(minimal)


def summary(cands):
    return [
        (c.op, c.commits, c.network.ids, c.network.tasks, c.network.preds, c.network.next_id)
        for c in cands
    ]


@pytest.fixture
def checked(monkeypatch):
    """Every ``_choices`` call checked against the reference; returns the
    tally (calls, candidates, groups of two or more, candidates dropped)."""
    tally = {"calls": 0, "candidates": 0, "multi": 0, "dropped": 0}
    original = _Search._choices

    def both(self, belief, network, agent):
        got = original(self, belief, network, agent)
        want, multi, dropped = ref_choices(self.problem.domains, belief, network, agent)
        assert summary(got) == summary(want)
        tally["calls"] += 1
        tally["candidates"] += len(got)
        tally["multi"] += multi
        tally["dropped"] += dropped
        return got

    monkeypatch.setattr(_Search, "_choices", both)
    return tally


def exercised(tally):
    """The filter ran on groups of several candidates and dropped some."""
    return tally["calls"] > 0 and tally["multi"] > 0 and tally["dropped"] > 0


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_builtin_plans_enumerate_as_the_reference(checked, domain):
    for start in ("robot", "human"):
        bundle = builtin_bundle(domain).with_start(start)  # a cold table
        for mode in MODES:
            plan(bundle.problem, bundle.obs_model, mode)
    assert exercised(checked), checked


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_study_sample_enumerates_as_the_reference(checked, domain):
    bundle = builtin_bundle(domain)
    for mode in MODES:
        for _, problem in study_problems(bundle, domain, STRIDE):
            plan(problem, bundle.obs_model, mode)
    assert exercised(checked), checked


@pytest.mark.parametrize("boxes", [2, 3, 4])
def test_box_dom_enumerates_as_the_reference(checked, boxes):
    bundle = parse_bundle(box_dom(boxes))
    for mode in MODES:
        plan(bundle.problem, bundle.obs_model, mode)
        plan(replace(bundle.problem, start_agent=bundle.problem.human), bundle.obs_model, mode)
    assert exercised(checked), checked


# -- crafted action groups ----------------------------------------------------

# Every operator is the robot's and has no precondition.  `Free` exposes `p`
# through one method and either mark: two minimal `p` candidates with equal
# commits.  `Pair` exposes `q` with or without an order on the human's `h`:
# two paths to one resulting network.  `One` and `Two` each expose an `s`,
# and each `Up(?m)` below them can be committed as well: a minimal candidate
# sits below each of those, whichever of the two minimal ones comes first.
CHOICE_DOM = """\
beliefhtn-domain 1
domain choose
group Places Here
group Agents bot person
group Marks a b
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
operator p for bot
end
operator q for bot
end
operator r for bot
  param ?m Marks
end
operator s for bot
end
operator h for person
end
operator z for person
  param ?m Marks
end
method m-free for bot
  task Free
  var ?m Marks
  sub x p
  sub y r(?m)
end
method m-loose for bot
  task Pair
  sub x q
  sub y h
end
method m-tight for bot
  task Pair
  sub x q
  sub y h
  order x < y
end
method m-one for bot
  task One
  sub x s
  sub y Up(a)
end
method m-two for bot
  task Two
  sub x s
  sub y Up(b)
end
method m-up for bot
  task Up (?m Marks)
  sub x z(?m)
end
root f Free
init AgtAt(bot) = Here
init AgtAt(person) = Here
start bot
"""

# Root tasks, the candidates' (action, commit count) in the result's order,
# and how many candidates the filter drops.
CRAFTED = [
    (("Free",), [("p", 1), ("p", 1), ("r(a)", 1), ("r(b)", 1)], 0),
    (("Pair",), [("q", 1)], 0),
    (("One", "Two"), [("s", 1), ("s", 1)], 6),
]


@pytest.mark.parametrize(
    "roots, expected, drops", CRAFTED, ids=["equal", "paths", "two-minimal"]
)
def test_crafted_groups_keep_the_minimal_candidates(roots, expected, drops):
    bundle = parse_bundle(CHOICE_DOM)
    domains = bundle.problem.domains
    network = TaskNetwork.build([TaskInstance(symbol) for symbol in roots])
    world = bundle.problem.world
    got = choices(domains, world, network, "bot")
    want, _, dropped = ref_choices(domains, world, network, "bot")
    assert summary(got) == summary(want)
    assert [(str(c.op), len(c.commits)) for c in got] == expected
    assert dropped == drops


# -- interned canonical keys ---------------------------------------------------


def test_isomorphic_networks_share_one_key_object():
    # The same shape built twice from fresh task objects, with the nodes
    # numbered in the opposite order.
    first = TaskNetwork.build(
        [TaskInstance("a", ("x",)), TaskInstance("b"), TaskInstance("c")], [(0, 1), (0, 2)]
    )
    second = TaskNetwork.build(
        [TaskInstance("c"), TaskInstance("b"), TaskInstance("a", ("x",))], [(2, 1), (2, 0)]
    )
    assert first != second
    assert first.canonical_key() is second.canonical_key()
    other = TaskNetwork.build([TaskInstance("a", ("x",)), TaskInstance("b"), TaskInstance("c")])
    assert other.canonical_key() is not first.canonical_key()
    assert other.canonical_key() != first.canonical_key()
