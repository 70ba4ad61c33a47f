"""Differential test: the per-agent tables built with the bundle.

``AgentDomain.op_names`` and ``AgentDomain.yields`` are filled once, when
the bundle is built.  The reference functions below keep the per-search
code they replace: the operator names read off the lifted schemas, and the
yield closure grown over the agent's methods until nothing changes.  They
take each agent's schemas from the bundle's domain file
(``oracles.agent_schemas``), not from the tables under test.
"""

from __future__ import annotations

import pytest

from beliefhtn import COOKING_DOM, builtin_bundle, parse_bundle
from beliefhtn.builtins import box_dom

from oracles import agent_schemas

# Every builtin method is declared for both agents, so the builtins alone
# cannot tell one agent's methods from the other's.  This variant gives the
# seasoning and heating methods to the robot and the pasta methods to the
# human.
SPLIT_OWNERS = {
    "m-season": "robot",
    "m-heat": "robot",
    "m-get-pasta": "human",
    "m-grab-here": "human",
    "m-fetch": "human",
    "m-walk-back": "human",
    "m-pour": "human",
}
COOKING_SPLIT = COOKING_DOM
for _method, _owner in SPLIT_OWNERS.items():
    COOKING_SPLIT = COOKING_SPLIT.replace(
        f"method {_method} for both\n", f"method {_method} for {_owner}\n"
    )


def ref_operator_names(bundle, agent) -> frozenset[str]:
    return frozenset(o.name for o in agent_schemas(bundle, agent)[0])


def ref_yield_closure(bundle, agent) -> frozenset[str]:
    """Task symbols that can lead to a primitive owned by the agent."""
    yields: set[str] = set(ref_operator_names(bundle, agent))
    changed = True
    while changed:
        changed = False
        for m in agent_schemas(bundle, agent)[1]:
            if m.task_symbol in yields:
                continue
            if any(ref.symbol in yields for _, ref in m.subtasks):
                yields.add(m.task_symbol)
                changed = True
    return frozenset(yields)


BUNDLES = {
    "cooking": lambda: builtin_bundle("cooking"),
    "box": lambda: builtin_bundle("box"),
    "cooking-split": lambda: parse_bundle(COOKING_SPLIT),
    **{f"box_dom-{n}": (lambda n=n: parse_bundle(box_dom(boxes=n))) for n in (2, 3, 4, 5)},
}


def test_split_variant_gives_the_agents_different_methods():
    bundle = parse_bundle(COOKING_SPLIT)
    robot, human = (agent_schemas(bundle, a)[1] for a in ("robot", "human"))
    assert {m.name for m in robot} ^ {m.name for m in human} == set(SPLIT_OWNERS)


@pytest.mark.parametrize("name", list(BUNDLES))
def test_agent_tables_match_reference(name):
    bundle = BUNDLES[name]()
    problem = bundle.problem
    for agent in (problem.robot, problem.human):
        dom = problem.domains[agent]
        assert dom.op_names == ref_operator_names(bundle, agent)
        assert dom.yields == ref_yield_closure(bundle, agent)
        assert dom.op_names <= dom.yields
