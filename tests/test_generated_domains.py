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
(h) each saved policy loads through ``load_json`` and saves back the same,
    and new-mode replay reaches each node with the beliefs stored there.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from beliefhtn import MODE_LEGACY, MODE_NEW, parse, parse_bundle, plan, serialize, simulate
from beliefhtn.domfile import DomainFile
from beliefhtn.errors import DepthExceeded, Unsolvable
from beliefhtn.htn import EffectOp, MethodSchema, OperatorSchema
from beliefhtn.observability import PlacementRule
from beliefhtn.planner import enumerate_traces
from beliefhtn.policyio import load_json, to_json
from beliefhtn.state import AttrRef, Group, ObsClass, StateVariableDecl

from oracles import replay_reaches_stored_beliefs, report_totals, trace_totals

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


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(domain_files())
def test_generated_domains(dom):
    text = serialize(dom)
    parsed = parse(text)
    assert parsed == dom  # (a): the same text, and field by field
    assert vars(parsed) == vars(dom)
    bundle = parse_bundle(text)
    for mode in (MODE_NEW, MODE_LEGACY):
        try:
            policy = plan(bundle.problem, bundle.obs_model, mode)
        except (Unsolvable, DepthExceeded):
            continue
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

