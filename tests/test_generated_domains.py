"""Generated domains: the reader, the search, replay and the policy loader
agree on small domains that no hand-written test names.

Each example is a :class:`~beliefhtn.domfile.DomainFile` built in code on a
fixed skeleton: the ``Places`` and ``Agents`` groups, and ``AgtAt`` with its
place rule.  On top of it come at most 2 places, 3 more attributes of either
observability class, each placed at a fixed place or ``value-of`` an
agent's location, 3 operators per agent, and methods: at most 2 in a
hierarchy 2 deep, or, in the recursive examples, a loop that calls itself
and up to 3 more.  Some acyclic examples (8 of the 30) are forks, whose
roots are two of the human's operators with no precondition, in no order,
so a saved policy has a human node with two edges.  The human may start
off believing otherwise.  Every acyclic example is read back through
``serialize`` and ``parse_bundle`` and checked for:

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
(g) no certified plan prunes at its depth bound, and no state that it
    expands lies at its bundle's certifying depth (``SearchCache.depth``)
    or deeper, read through a wrapper of ``_Search._solve``; the one
    exception, a state that completes a stall run at that depth, is an
    open ROADMAP item, and the builtins are checked with no exception;
(h) each saved policy loads through ``load_json`` and saves back the same,
    and new-mode replay reaches each node with the beliefs stored there;
    with one edge dropped from a human node that has two or more, with a
    human node's first edge doubled, or with ``done`` flipped on a success
    leaf, it does not load.

A recursive example certifies no plan, so each plan searches with a table
of its own, to a small drawn depth bound; it is checked for (a), (b), (c),
(e) at that bound, and (h).  Its methods never put a recursive compound
subtask beside a subtask it may precede: the bundle build rejects that
shape, on which ``choices`` would not return
(:func:`test_choices_returns_on_an_unordered_loop`).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import MODE_LEGACY, MODE_NEW, parse, parse_bundle, plan, serialize, simulate
from beliefhtn.builtins import builtin_bundle
from beliefhtn.cli import main
from beliefhtn.domfile import DomainFile
from beliefhtn.errors import DepthExceeded, DomainSyntaxError, Unsolvable
from beliefhtn.htn import EffectOp, MethodSchema, OperatorSchema
from beliefhtn.observability import PlacementRule
from beliefhtn.planner import (
    RECURSIVE_DEPTH,
    STALL_THRESHOLD,
    PlannerConfig,
    _Search,
    choices,
    enumerate_traces,
)
from beliefhtn.policyio import _collect, load_json, to_json, to_text
from beliefhtn.state import AttrRef, Group, ObsClass, StateVariableDecl

from oracles import (
    STUCK_DOM,
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


def _rules(draw, facts, places):
    """Each fact's place rule: a fixed place, or ``value-of`` an agent's
    location, so the fact is assessable where that agent is."""
    rules = [AGT_AT_RULE]
    for fact in facts:
        where = draw(st.sampled_from(places + AGENTS))
        if where in AGENTS:
            rules.append(PlacementRule(AttrRef(fact), reference=AttrRef("AgtAt", (where,))))
        else:
            rules.append(PlacementRule(AttrRef(fact), place=where))
    return rules


def _acyclic_methods(draw, tasks):
    """T0's methods have only primitive subtasks; a method for T1 may also
    call T0, so the hierarchy is acyclic and at most 2 deep."""
    methods = []
    for k in range(draw(st.integers(0, 2))):
        symbol = draw(st.sampled_from(("T0", "T1"))) if methods else "T0"
        pool = tasks + (["T0"] if symbol == "T1" else [])
        subs = draw(st.lists(st.sampled_from(pool), max_size=2))
        subtasks = tuple((f"s{i}", AttrRef(task)) for i, task in enumerate(subs))
        order = (("s0", "s1"),) if len(subs) == 2 and draw(st.booleans()) else ()
        owner = draw(st.sampled_from(("both",) + AGENTS))
        methods.append(MethodSchema(f"m{k}", owner, symbol, subtasks=subtasks, order=order))
    return methods


def _recursive_methods(draw, tasks):
    """T0 first calls a primitive and then itself, as a loop; each further
    method, for T0 or T1, is a primitive, a compound task, both in that
    order, or nothing.  A compound subtask thus never stands beside another
    subtask it could run before, a shape the bundle build rejects
    (:func:`test_choices_returns_on_an_unordered_loop`)."""
    symbols = ["T0"] + [draw(st.sampled_from(("T0", "T1"))) for _ in range(draw(st.integers(1, 3)))]
    compound = sorted(set(symbols))
    methods = []
    for k, symbol in enumerate(symbols):
        if k == 0:
            head, tail = draw(st.sampled_from(tasks)), "T0"
        else:
            head = draw(st.none() | st.sampled_from(tasks))
            tail = draw(st.none() | st.sampled_from(compound))
        subs = [task for task in (head, tail) if task is not None]
        subtasks = tuple((f"s{i}", AttrRef(task)) for i, task in enumerate(subs))
        order = (("s0", "s1"),) if len(subs) == 2 else ()
        owner = draw(st.sampled_from(("both",) + AGENTS))
        methods.append(MethodSchema(f"m{k}", owner, symbol, subtasks=subtasks, order=order))
    return methods


@st.composite
def domain_files(draw, recursive=False) -> DomainFile:
    places = ("P1", "P2")[: draw(st.integers(1, 2))]
    facts = [f"F{i}" for i in range(draw(st.integers(0, 3)))]
    svars = [AGT_AT] + [
        StateVariableDecl(fact, (), "bool", draw(st.sampled_from(ObsClass))) for fact in facts
    ]
    rules = _rules(draw, facts, places)
    where = [(AttrRef("AgtAt", (agent,)), places) for agent in AGENTS]
    what = [(AttrRef(fact), BOOLS) for fact in facts]

    def assignment(pairs):
        return st.sampled_from(pairs).flatmap(
            lambda pair: st.tuples(st.just(pair[0]), st.sampled_from(pair[1]))
        )

    # An acyclic fork: the roots are the human's first two operators, in no
    # order and with no precondition, so the human has two moves that both
    # succeed.  A recursive example keeps its loop at the root.
    fork = not recursive and draw(st.sampled_from((False, False, True)))
    operators = []
    for agent in AGENTS:
        writes = [(AttrRef("AgtAt", (agent,)), places)] + what
        forked = 2 if fork and agent == "person" else 0
        for k, name in enumerate(OP_NAMES[agent][: draw(st.integers(max(forked, 1), 3))]):
            pre = [] if k < forked else draw(
                st.lists(assignment(where + what), max_size=2, unique_by=lambda p: p[0])
            )
            eff = draw(st.lists(assignment(writes), max_size=2, unique_by=lambda p: p[0]))
            operators.append(OperatorSchema(
                name, agent, pre=tuple(pre),
                eff=tuple((ref, EffectOp.SET, value) for ref, value in eff),
            ))

    tasks = [op.name for op in operators]
    methods = (_recursive_methods if recursive else _acyclic_methods)(draw, tasks)
    compound = sorted({m.task_symbol for m in methods})

    if fork:
        roots, root_order = list(OP_NAMES["person"][:2]), []
    else:
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
    """Collect (depth, certifying depth, stall run, pruned so far) for each
    state that a certified search expands, through a wrapper of
    ``_Search._solve``."""
    found: list[tuple[int, int, int, bool]] = []
    solve = _Search._solve

    def recording(self, world, human_belief, network, turn, depth, stall):
        result = solve(self, world, human_belief, network, turn, depth, stall)
        if self.certified:
            found.append((depth, self.problem.search_cache.depth, stall, self.depth_pruned))
        return result

    _Search._solve = recording
    try:
        yield found
    finally:
        _Search._solve = solve


def above_bound(found, stall_at_bound=False) -> bool:
    """(g) over :func:`certified_depths`' records: no search pruned, and
    each state lies above its certifying depth.  ``stall_at_bound`` admits
    a state at that depth whose turn completes a stall run, which the stall
    rule ends before the depth bound is read (open on the ROADMAP)."""
    return bool(found) and all(
        not pruned
        and (depth < bound or stall_at_bound and (depth, stall) == (bound, STALL_THRESHOLD))
        for depth, bound, stall, pruned in found
    )


def _plan_text(bundle, mode):
    """The text of the bundle's plan, or the name of the failure it raises."""
    try:
        return to_text(plan(bundle.problem, bundle.obs_model, mode))
    except (Unsolvable, DepthExceeded) as exc:
        return type(exc).__name__


def _policy(bundle, mode, config=PlannerConfig()):
    """The bundle's plan, or None when it raises a declared failure."""
    try:
        return plan(bundle.problem, bundle.obs_model, mode, config)
    except (Unsolvable, DepthExceeded):
        return None


def _check_policy(bundle, mode, policy):
    """(b) for a new-mode policy, (c) and (h); returns the edits of (h) that
    applied to the saved policy."""
    report = simulate(policy, bundle.obs_model)
    if mode == MODE_NEW:  # (b), and replay meets the search's beliefs
        assert (report.outcome, report.n_success) == ("success", report.n_traces)
        replay_reaches_stored_beliefs(policy, bundle.obs_model)
    traces = enumerate_traces(policy, bundle.obs_model)
    assert report_totals(report) == trace_totals(traces)  # (c)
    saved = to_json(policy, bundle)
    loaded_bundle, loaded = load_json(saved)  # (h)
    assert to_json(loaded, loaded_bundle) == saved
    assert simulate(loaded, loaded_bundle.obs_model) == report
    applied = []
    for edit, message in EDITS:
        obj = json.loads(saved)
        if edit(obj):
            applied.append(edit)
            with pytest.raises(DomainSyntaxError, match=message):
                load_json(json.dumps(obj))
    return applied


def _drop_human_edge(obj) -> bool:
    """Drop the last edge of the first human node with two or more; False
    when there is none."""
    for node in obj["nodes"]:
        if node["turn"] == obj["human"] and len(node["edges"]) >= 2:
            node["edges"].pop()
            return True
    return False


def _double_human_edge(obj) -> bool:
    """Double the first edge of the first human node with edges: an AND
    rule check on every policy where the human moves, forked or not."""
    for node in obj["nodes"]:
        if node["turn"] == obj["human"] and node["edges"]:
            node["edges"].append(dict(node["edges"][0]))
            return True
    return False


def _flip_done(obj) -> bool:
    """Mark the first success leaf not done."""
    for node in obj["nodes"]:
        if node["kind"] == "success":
            node["done"] = False
            return True
    return False


# (h)'s edits, each with the rule of the loader's walk that rejects it.
EDITS = (
    (_drop_human_edge, r"node \d+: the edges are not the human's moves"),
    (_double_human_edge, r"node \d+: the edges are not the human's moves"),
    (_flip_done, r"node \d+: not done, but no work is left"),
)


def test_generated_domains():
    dropped = []  # per saved policy: whether (h)'s drop edit applied

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(domain_files())
    def check(dom):
        dropped.extend(_check_domain(dom))

    check()
    assert any(dropped)  # some draw is a fork: the human node has two edges


def _check_domain(dom):
    """(a)-(h) on an acyclic example; yields, per saved policy, whether
    (h)'s drop edit applied."""
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
    assert above_bound(depths, stall_at_bound=True)  # (g)
    human_ops = tuple(bundle.problem.domains["person"].ground_ops.values())
    for mode, policy in policies.items():
        assert solvable(bundle, mode) == (policy is not None)  # (e)
        if policy is None:
            continue
        yield _drop_human_edge in _check_policy(bundle, mode, policy)
        for node in _collect(policy)[1] if mode == MODE_NEW else ():  # (d)
            if node.edges and not node.done:
                assert len(node.comms) == _subset_minimum(node.world, node.human_belief, human_ops)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(domain_files(recursive=True), st.integers(3, 8))
def test_generated_recursive_domains(dom, bound):
    # An uncertified plan: its default depth is RECURSIVE_DEPTH, and it
    # searches with a table of its own, never the bundle's.  The examples
    # plan with a small depth ``bound``, so the reference search stays
    # cheap and some plans raise DepthExceeded.
    text = serialize(dom)
    parsed = parse(text)
    assert parsed == dom  # (a)
    assert vars(parsed) == vars(dom)
    bundle = parse_bundle(text)
    search = _Search(bundle.problem, bundle.obs_model, MODE_NEW, PlannerConfig())
    assert (search.certified, search.depth_bound) == (False, RECURSIVE_DEPTH)
    config = PlannerConfig(depth_bound=bound)
    for mode in (MODE_NEW, MODE_LEGACY):
        policy = _policy(bundle, mode, config)
        assert solvable(bundle, mode, bound) == (policy is not None)  # (e)
        if policy is not None:
            _check_policy(bundle, mode, policy)
    assert bundle.problem.search_cache.tables == {MODE_NEW: {}, MODE_LEGACY: {}}


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
    assert above_bound(depths)


def test_only_a_stalling_turn_reaches_the_certifying_depth():
    # (g)'s one exception, open on the ROADMAP: the turn that completes a
    # stall run lies at the certifying depth, and the stall rule ends it
    # before the depth bound is read, so the legacy plan ends in a deadlock
    # leaf, not DepthExceeded, and no search prunes.
    bundle = parse_bundle(STUCK_DOM)
    assert bundle.problem.search_cache.depth == STALL_THRESHOLD
    with certified_depths() as depths:
        with pytest.raises(Unsolvable):
            plan(bundle.problem, bundle.obs_model, MODE_NEW)
        policy = plan(bundle.problem, bundle.obs_model, MODE_LEGACY)
    assert (STALL_THRESHOLD,) * 3 + (False,) in depths
    assert above_bound(depths, stall_at_bound=True) and not above_bound(depths)
    assert simulate(policy, bundle.obs_model).outcome == "idl"



# A recursive compound subtask beside a subtask it may precede: `T0` could
# decompose again before `r0` runs, each network one task larger.
UNORDERED_LOOP_DOM = STUCK_DOM.replace("domain stuck", "domain unordered").replace(
    "method m0 for both\n  task T0\nend",
    "method m0 for both\n  task T0\n  sub s0 r0\n  sub s1 T0\nend",
)


def test_choices_returns_on_an_unordered_loop(tmp_path, capsys):
    # The choice walk would never return on this loop, so the bundle is not
    # built and no plan meets it; validate-domain reports the method.
    with pytest.raises(DomainSyntaxError, match=r"^method m0: T0 can decompose again"):
        parse_bundle(UNORDERED_LOOP_DOM)
    path = tmp_path / "unordered.dom"
    path.write_text(UNORDERED_LOOP_DOM)
    assert main(["validate-domain", str(path)]) == 1
    assert capsys.readouterr().out.startswith("INVALID: method m0: T0 can decompose again")
    # The loop alone meets its network again; ordered after `r0` it waits
    # for a primitive, also behind an `E` that decomposes to nothing; and
    # ordered after that `E` alone it finds `E` gone, no task more.  All
    # build, and choices returns.
    empty = "method mE for both\n  task E\nend\nroot"
    after = UNORDERED_LOOP_DOM.replace("  sub s1 T0\n", "  sub s1 T0\n  order s0 < s1\n")
    shapes = {
        "alone": (UNORDERED_LOOP_DOM.replace("  sub s0 r0\n", ""), []),
        "ordered": (after, ["r0"]),
        "behind E": (
            after.replace("  sub s0 r0\n", "  sub s0 r0\n  sub s2 E\n  order s0 < s2\n")
            .replace("order s0 < s1", "order s2 < s1").replace("root", empty),
            ["r0"],
        ),
        "after E": (after.replace("  sub s0 r0\n", "  sub s0 E\n").replace("root", empty), []),
    }
    for name, (text, found) in shapes.items():
        p = parse_bundle(text).problem
        assert p.search_cache.depth is None, name  # recursive
        assert [c.op.name for c in choices(p.domains, p.world, p.network, p.robot)] == found, name
