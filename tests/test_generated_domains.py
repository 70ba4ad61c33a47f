"""Generated domains: the reader, the search, replay and the policy loader
agree on small acyclic domains that no hand-written test names.

Each example is a :class:`~beliefhtn.domfile.DomainFile` built in code on a
fixed skeleton: the ``Places`` and ``Agents`` groups, and ``AgtAt`` with its
place rule.  On top of it come at most 2 places, 3 more attributes of either
observability class, 3 operators per agent, 2 methods and a method
hierarchy 2 deep, and the human may start off believing otherwise.  Every
example is read back through ``serialize`` and ``parse_bundle`` and checked
for:

(a) ``parse(serialize(d)) == d``;
(b) a new-mode plan raises :class:`Unsolvable` or :class:`DepthExceeded`,
    or its policy replays to success on every branch;
(c) ``simulate``'s totals equal those of ``enumerate_traces``, in both modes;
(d) each edge of a new-mode node that is not done carries as many tells as
    the fewest that an exhaustive subset search finds, 0 included;
(e) ``plan`` finds a policy, in either mode, exactly when the memo-free
    reference search ``oracles.solvable`` does;
(f) a new-mode plan through the bundle's shared state table, after a plan
    from the other start agent filled it, equals a plan on a freshly
    parsed bundle;
(g) no state that a certified plan expands lies at its bundle's
    certifying depth (``SearchCache.depth``) or deeper, read through a
    wrapper of ``_Search._solve``; the builtins are checked too;
(h) each saved policy loads through ``load_json`` and saves back the same,
    and new-mode replay reaches each node with the beliefs stored there.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import MODE_LEGACY, MODE_NEW, parse, parse_bundle, plan, serialize, simulate
from beliefhtn.builtins import builtin_bundle
from beliefhtn.domfile import DomainFile
from beliefhtn.errors import DepthExceeded, Unsolvable
from beliefhtn.htn import EffectOp, MethodSchema, OperatorSchema
from beliefhtn.observability import PlacementRule
from beliefhtn.planner import _Search, enumerate_traces
from beliefhtn.policyio import _collect, load_json, to_json, to_text
from beliefhtn.state import AttrRef, Group, ObsClass, StateVariableDecl

from oracles import (
    _subset_minimum,
    replay_reaches_stored_beliefs,
    report_totals,
    solvable,
    trace_totals,
)
from test_search_cache import STRIDE, study_problems

AGENTS = ("bot", "person")
OP_NAMES = {"bot": ("r0", "r1", "r2"), "person": ("h0", "h1", "h2")}
BOOLS = ("false", "true")
AGT_AT = StateVariableDecl("AgtAt", (("?a", "Agents"),), "Places", ObsClass.OBS)
AGT_AT_RULE = PlacementRule(AttrRef("AgtAt", ("?a",)), reference=AttrRef("AgtAt", ("?a",)))


@st.composite
def domain_files(draw) -> DomainFile:
    places = ("P1", "P2")[: draw(st.integers(1, 2))]
    facts = [f"F{i}" for i in range(draw(st.integers(0, 3)))]
    svars = [AGT_AT] + [
        StateVariableDecl(fact, (), "bool", draw(st.sampled_from(ObsClass))) for fact in facts
    ]
    rules = [AGT_AT_RULE] + [
        PlacementRule(AttrRef(fact), place=draw(st.sampled_from(places))) for fact in facts
    ]
    where = [(AttrRef("AgtAt", (agent,)), places) for agent in AGENTS]
    what = [(AttrRef(fact), BOOLS) for fact in facts]

    def assignment(pairs):
        return st.sampled_from(pairs).flatmap(
            lambda pair: st.tuples(st.just(pair[0]), st.sampled_from(pair[1]))
        )

    operators = []
    for agent in AGENTS:
        writes = [(AttrRef("AgtAt", (agent,)), places)] + what
        for name in OP_NAMES[agent][: draw(st.integers(1, 3))]:
            pre = draw(st.lists(assignment(where + what), max_size=2, unique_by=lambda p: p[0]))
            eff = draw(st.lists(assignment(writes), max_size=2, unique_by=lambda p: p[0]))
            operators.append(OperatorSchema(
                name, agent, pre=tuple(pre),
                eff=tuple((ref, EffectOp.SET, value) for ref, value in eff),
            ))

    # T0's methods have only primitive subtasks; a method for T1 may also
    # call T0, so the hierarchy is acyclic and at most 2 deep.
    tasks = [op.name for op in operators]
    methods = []
    for k in range(draw(st.integers(0, 2))):
        symbol = draw(st.sampled_from(("T0", "T1"))) if methods else "T0"
        pool = tasks + (["T0"] if symbol == "T1" else [])
        subs = draw(st.lists(st.sampled_from(pool), max_size=2))
        subtasks = tuple((f"s{i}", AttrRef(task)) for i, task in enumerate(subs))
        order = (("s0", "s1"),) if len(subs) == 2 and draw(st.booleans()) else ()
        owner = draw(st.sampled_from(("both",) + AGENTS))
        methods.append(MethodSchema(f"m{k}", owner, symbol, subtasks=subtasks, order=order))
    compound = sorted({m.task_symbol for m in methods})

    roots = draw(st.lists(st.sampled_from(tasks + compound), min_size=1, max_size=2))
    root_order = [("t0", "t1")] if len(roots) == 2 and draw(st.booleans()) else []
    init = [(ref, draw(st.sampled_from(values))) for ref, values in where + what]
    beliefs = [
        ("person", ref, next(v for v in values if v != value))
        for (ref, value), (_, values) in zip(init, where + what)
        if len(values) > 1 and draw(st.booleans())
    ]
    return DomainFile(
        name="generated",
        groups=[Group("Places", places), Group("Agents", AGENTS)],
        robot="bot",
        human="person",
        svars=svars,
        places=rules,
        operators=operators,
        methods=methods,
        roots=[(f"t{i}", AttrRef(task)) for i, task in enumerate(roots)],
        root_order=root_order,
        init=init,
        beliefs=beliefs,
        start=draw(st.sampled_from(AGENTS)),
    )


@contextmanager
def certified_depths():
    """Collect (depth, certifying depth) for each state that a certified
    search expands, through a wrapper of ``_Search._solve``."""
    found: list[tuple[int, int]] = []
    solve = _Search._solve

    def recording(self, world, human_belief, network, turn, depth, stall):
        if self.certified:
            found.append((depth, self.problem.search_cache.depth))
        return solve(self, world, human_belief, network, turn, depth, stall)

    _Search._solve = recording
    try:
        yield found
    finally:
        _Search._solve = solve


def _plan_text(bundle, mode):
    """The text of the bundle's plan, or the name of the failure it raises."""
    try:
        return to_text(plan(bundle.problem, bundle.obs_model, mode))
    except (Unsolvable, DepthExceeded) as exc:
        return type(exc).__name__


def _policy(bundle, mode):
    """The bundle's plan, or None when it raises a declared failure."""
    try:
        return plan(bundle.problem, bundle.obs_model, mode)
    except (Unsolvable, DepthExceeded):
        return None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(domain_files())
def test_generated_domains(dom):
    text = serialize(dom)
    parsed = parse(text)
    assert parsed == dom  # (a): the same text, and field by field
    assert vars(parsed) == vars(dom)
    bundle = parse_bundle(text)
    other = next(agent for agent in AGENTS if agent != dom.start)
    with certified_depths() as depths:
        _plan_text(bundle.with_start(other), MODE_NEW)  # fills the table the bundle shares
        assert _plan_text(bundle, MODE_NEW) == _plan_text(parse_bundle(text), MODE_NEW)  # (f)
        policies = {mode: _policy(bundle, mode) for mode in (MODE_NEW, MODE_LEGACY)}
    assert depths and all(depth < bound for depth, bound in depths)  # (g)
    human_ops = tuple(bundle.problem.domain_of("person").ground_ops.values())
    for mode, policy in policies.items():
        assert solvable(bundle, mode) == (policy is not None)  # (e)
        if policy is None:
            continue
        report = simulate(policy, bundle.obs_model)
        if mode == MODE_NEW:  # (b), and replay meets the search's beliefs
            assert (report.outcome, report.n_success) == ("success", report.n_traces)
            replay_reaches_stored_beliefs(policy, bundle.obs_model)
            for node in _collect(policy)[1]:  # (d)
                if node.edges and not node.done:
                    fewest = _subset_minimum(node.world, node.human_belief, human_ops)
                    assert all(len(edge.comms) == fewest for edge in node.edges)
        traces = enumerate_traces(policy, bundle.obs_model)
        assert report_totals(report) == trace_totals(traces)  # (c)
        saved = to_json(policy, bundle)
        loaded_bundle, loaded = load_json(saved)  # (h)
        assert to_json(loaded, loaded_bundle) == saved
        assert simulate(loaded, loaded_bundle.obs_model) == report


@pytest.mark.parametrize("domain", ["cooking", "box"])
def test_builtin_certified_searches_stop_short_of_the_certifying_depth(domain):
    # (g) on a fresh bundle, so the table starts cold: the default problem
    # and the stride-17 study sample, in both modes.
    bundle = builtin_bundle(domain)
    problems = [bundle.problem] + [problem for _, problem in study_problems(bundle, domain, STRIDE)]
    with certified_depths() as depths:
        for mode in (MODE_NEW, MODE_LEGACY):
            for problem in problems:
                plan(problem, bundle.obs_model, mode)
    assert depths and all(depth < bound for depth, bound in depths)
