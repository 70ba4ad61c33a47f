"""Line-oriented domain definition format: parser, serializer, builder.

A ``.dom`` file declares the constant groups, state-variable functions with
their observability class, placement rules, the two agents, per-agent
operators and methods, the shared initial task network, the (total) initial
world belief, optional human-belief overrides, and the starting agent.

The format is deliberately flat: a header with the one version,
:data:`FORMAT_VERSION`, section keywords at column zero,
``operator``/``method`` blocks closed by ``end``, one fact per line, and no
expression language beyond ``+=``/``-=`` on bounded-integer attributes.
Each line or block is read straight into the one form the rest of the
package reads: ``svar`` lines into :class:`~beliefhtn.state.StateVariableDecl`,
``place`` lines into lifted :class:`~beliefhtn.observability.PlacementRule`s,
and operator and method blocks into :class:`~beliefhtn.htn.OperatorSchema`
and :class:`~beliefhtn.htn.MethodSchema`.  A method's label and order
defects carry the line of its ``method`` line, and a directive that may
appear once (``domain``, ``agents``, ``start``, a method's ``task``, a root
label, an ``init`` or ``belief`` attribute) names its repeated line;
``build`` rejects a repeated root label, ``init`` or ``belief`` attribute
too, so a document made in code obeys the rules a read one does.  The
schema constructors own the per-schema rules (a variable bound twice, a
second ``pre`` on one attribute), and ``build`` owns the rule that one agent
has one operator and one method of a name; the reader runs both as it goes,
so each names the line that broke it.
Parsing also builds and grounds the bundle, so a bad value, group,
variable or placement raises :class:`DomainSyntaxError` too, without a
line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .errors import BadValue, BeliefHtnError, DomainSyntaxError
from .htn import (
    AgentDomain,
    EffectOp,
    HtnProblem,
    MethodSchema,
    OperatorSchema,
    TaskInstance,
    TaskNetwork,
    analyse_hierarchy,
    ground_all_methods,
    ground_all_operators,
)
from .observability import ObservabilityModel, PlacementRule
from .planner import SearchCache
from .state import (
    AttrRef,
    BeliefState,
    Group,
    GroundedAttribute,
    ObsClass,
    StateVariableDecl,
    Universe,
    Value,
    ValueRange,
    follow_world,
)

FORMAT_HEADER = "beliefhtn-domain"
FORMAT_VERSION = 1

_ATTR_RE = re.compile(r"^([A-Za-z][\w-]*)(?:\(([^()]*)\))?$")


@dataclass
class DomainFile:
    """Parsed, serializable representation of one ``.dom`` document."""

    name: str = ""
    groups: list[Group] = field(default_factory=list)
    robot: str = ""
    human: str = ""
    svars: list[StateVariableDecl] = field(default_factory=list)
    places: list[PlacementRule] = field(default_factory=list)
    operators: list[OperatorSchema] = field(default_factory=list)
    methods: list[MethodSchema] = field(default_factory=list)
    roots: list[tuple[str, AttrRef]] = field(default_factory=list)
    root_order: list[tuple[str, str]] = field(default_factory=list)
    init: list[tuple[AttrRef, str]] = field(default_factory=list)
    beliefs: list[tuple[str, AttrRef, str]] = field(default_factory=list)
    start: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainFile):
            return NotImplemented
        return serialize(self) == serialize(other)

    def build(self) -> "ProblemBundle":
        """Ground the domain; every defect raises :class:`DomainSyntaxError`."""
        try:
            return _build_bundle(self)
        except DomainSyntaxError:
            raise
        except BeliefHtnError as exc:
            raise DomainSyntaxError(str(exc)) from exc


def _tokens(line: str) -> list[str]:
    """Whitespace split, re-joining pieces whose parentheses are unbalanced.

    Keeps references like ``move(?from, ?to)`` a single token while typed
    parameter lists like ``(?b Boxes)`` still split (they are re-assembled
    by :func:`_parse_typed_params`).
    """
    raw = line.split()
    out: list[str] = []
    for piece in raw:
        if out and out[-1].count("(") > out[-1].count(")") and not out[-1].startswith("("):
            out[-1] += piece
        else:
            out.append(piece)
    return out


def _parse_attr_ref(token: str, line: Optional[int] = None) -> AttrRef:
    m = _ATTR_RE.match(token)
    if not m:
        raise DomainSyntaxError(f"malformed attribute reference {token!r}", line)
    symbol, argstr = m.group(1), m.group(2)
    if argstr is None or argstr.strip() == "":
        return AttrRef(symbol, ())
    args = tuple(a.strip() for a in re.split(r"[,\s]+", argstr.strip()) if a.strip())
    return AttrRef(symbol, args)


def _parse_typed_params(tokens: list[str], line: int) -> tuple[tuple[str, str], ...]:
    """Parse ``(?x Group) (?y Group)`` pairs from already-split tokens."""
    text = " ".join(tokens)
    out: list[tuple[str, str]] = []
    for m in re.finditer(r"\(\s*(\?[\w-]+)\s+([\w-]+)\s*\)", text):
        out.append((m.group(1), m.group(2)))
    stripped = re.sub(r"\(\s*\?[\w-]+\s+[\w-]+\s*\)", "", text).strip()
    if stripped:
        raise DomainSyntaxError(f"malformed typed parameter list near {stripped!r}", line)
    return tuple(out)


def parse(text: str) -> DomainFile:
    """Parse a domain document; raises :class:`DomainSyntaxError` on defects.

    Validation grounds the domain and discards the result; a caller that
    plans on the document uses :func:`parse_bundle`, which grounds it once.
    """
    return parse_bundle(text).domfile


def parse_bundle(text: str) -> ProblemBundle:
    """Parse and build a domain document, grounding it once.

    :func:`parse` is this function's ``domfile``, so both reject the same
    documents with the same errors.
    """
    return _read(text).build()


def _read(text: str) -> DomainFile:
    """Parse a document and check its mandatory sections; no grounding."""
    dom = DomainFile()
    lines = text.splitlines()
    block: Optional[dict] = None
    header_seen = False
    seen: set[str] = set()  # directives that may appear once
    claims: dict[tuple[str, str], set[str]] = {}  # (kind, name) -> owners

    def fail(msg: str, ln: int) -> None:
        raise DomainSyntaxError(msg, ln)

    def once(what: str, ln: int) -> None:
        if what in seen:
            fail(f"repeated {what}", ln)
        seen.add(what)

    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokens(line)
        head = tokens[0]

        if not header_seen:
            if head != FORMAT_HEADER:
                fail(f"first directive must be '{FORMAT_HEADER} <version>'", ln)
            if len(tokens) != 2 or not tokens[1].isdigit():
                fail("version header needs a single integer version", ln)
            if int(tokens[1]) != FORMAT_VERSION:
                fail(f"unsupported format version {tokens[1]}", ln)
            header_seen = True
            continue

        if block is not None:
            if head == "end":
                _close_block(dom, block)
                block = None
            else:
                read = _operator_line if block["type"] == "operator" else _method_line
                read(block, head, tokens, ln)
                _schema(block, ln)
            continue

        if head == "domain":
            if len(tokens) != 2:
                fail("usage: domain <name>", ln)
            once("'domain' line", ln)
            dom.name = tokens[1]
        elif head == "group":
            if len(tokens) < 3:
                fail("usage: group <name> <member>...", ln)
            dom.groups.append(Group(tokens[1], tuple(tokens[2:])))
        elif head == "agents":
            if len(tokens) != 3:
                fail("usage: agents <robot-id> <human-id>", ln)
            once("'agents' line", ln)
            dom.robot, dom.human = tokens[1], tokens[2]
        elif head == "svar":
            dom.svars.append(_parse_svar(tokens, ln))
        elif head == "place":
            dom.places.append(_parse_place(tokens, ln))
        elif head in ("operator", "method"):
            if len(tokens) != 4 or tokens[2] != "for":
                fail(f"usage: {head} <name> for <agent|both>", ln)
            try:
                _claim(claims, head, tokens[1], tokens[3])
            except DomainSyntaxError as exc:
                fail(str(exc), ln)
            # The block holds its schema's fields as read so far.
            block = {"type": head, "line": ln, "name": tokens[1], "owner": tokens[3]}
            if head == "operator":
                block.update(params=(), pre=(), eff=())
            else:
                block.update(
                    task_symbol=None, task_params=(), free_params=(), subtasks=(), order=()
                )
        elif head == "root":
            if len(tokens) != 3:
                fail("usage: root <label> <task>", ln)
            once(f"root label {tokens[1]!r}", ln)
            dom.roots.append((tokens[1], _parse_attr_ref(tokens[2], ln)))
        elif head == "rootorder":
            if len(tokens) != 4 or tokens[2] != "<":
                fail("usage: rootorder <label> < <label>", ln)
            dom.root_order.append((tokens[1], tokens[3]))
        elif head == "init":
            if len(tokens) != 4 or tokens[2] != "=":
                fail("usage: init <attribute> = <value>", ln)
            ref = _parse_attr_ref(tokens[1], ln)
            once(f"'init' line for {ref}", ln)
            dom.init.append((ref, tokens[3]))
        elif head == "belief":
            if len(tokens) != 5 or tokens[3] != "=":
                fail("usage: belief <agent> <attribute> = <value>", ln)
            ref = _parse_attr_ref(tokens[2], ln)
            once(f"'belief' line for {tokens[1]} {ref}", ln)
            dom.beliefs.append((tokens[1], ref, tokens[4]))
        elif head == "start":
            if len(tokens) != 2:
                fail("usage: start <agent>", ln)
            once("'start' line", ln)
            dom.start = tokens[1]
        else:
            fail(f"unknown directive {head!r}", ln)

    if block is not None:
        fail(f"unterminated {block['type']} block opened here", block["line"])

    _require_sections(dom)
    return dom


def _parse_svar(tokens: list[str], ln: int) -> StateVariableDecl:
    # svar Name [(?v Group) ...] -> <range> : obs|inf
    try:
        arrow = tokens.index("->")
        colon = tokens.index(":")
    except ValueError:
        raise DomainSyntaxError("svar needs '-> <range> : obs|inf'", ln)
    params = _parse_typed_params(tokens[2:arrow], ln)
    range_tokens = tokens[arrow + 1 : colon]
    obs_token = tokens[colon + 1 :]
    if len(obs_token) != 1 or obs_token[0] not in ("obs", "inf"):
        raise DomainSyntaxError("svar class must be 'obs' or 'inf'", ln)
    if not range_tokens:
        raise DomainSyntaxError("svar is missing its value range", ln)
    value_range: ValueRange = range_tokens[0]
    if range_tokens[0] == "int":
        if len(range_tokens) != 3:
            raise DomainSyntaxError("usage: -> int <lo> <hi>", ln)
        try:
            value_range = (int(range_tokens[1]), int(range_tokens[2]))
        except ValueError:
            raise DomainSyntaxError("integer range bounds must be integers", ln)
    elif len(range_tokens) != 1:
        raise DomainSyntaxError("range must be 'bool', 'int lo hi' or a group name", ln)
    try:
        return StateVariableDecl(tokens[1], params, value_range, ObsClass(obs_token[0]))
    except BeliefHtnError as exc:
        raise DomainSyntaxError(str(exc), ln) from exc


def _parse_place(tokens: list[str], ln: int) -> PlacementRule:
    # place <template> at <Place>   |   place <template> value-of <attr>
    if len(tokens) != 4 or tokens[2] not in ("at", "value-of"):
        raise DomainSyntaxError(
            "usage: place <attribute> at <place> | place <attribute> value-of <attribute>",
            ln,
        )
    template = _parse_attr_ref(tokens[1], ln)
    try:
        if tokens[2] == "at":
            return PlacementRule(template, place=tokens[3])
        return PlacementRule(template, reference=_parse_attr_ref(tokens[3], ln))
    except BeliefHtnError as exc:
        raise DomainSyntaxError(str(exc), ln) from exc


def _operator_line(block: dict, head: str, tokens: list[str], ln: int) -> None:
    if head == "param":
        if len(tokens) != 3 or not tokens[1].startswith("?"):
            raise DomainSyntaxError("usage: param ?var <Group>", ln)
        block["params"] += ((tokens[1], tokens[2]),)
    elif head == "pre":
        if len(tokens) != 4 or tokens[2] != "=":
            raise DomainSyntaxError("usage: pre <attribute> = <value>", ln)
        block["pre"] += ((_parse_attr_ref(tokens[1], ln), tokens[3]),)
    elif head == "eff":
        if len(tokens) != 4 or tokens[2] not in ("=", "+=", "-="):
            raise DomainSyntaxError("usage: eff <attribute> =|+=|-= <value>", ln)
        eop, value = EffectOp(tokens[2]), tokens[3]
        if eop is not EffectOp.SET:
            try:
                value = int(value)
            except ValueError:
                raise DomainSyntaxError(f"increment effects need an integer, got {value!r}", ln)
        block["eff"] += ((_parse_attr_ref(tokens[1], ln), eop, value),)
    else:
        raise DomainSyntaxError(f"unknown operator directive {head!r}", ln)


def _method_line(block: dict, head: str, tokens: list[str], ln: int) -> None:
    if head == "task":
        # task Name   |   task Name (?b Boxes) ...
        if len(tokens) < 2:
            raise DomainSyntaxError("usage: task <name> [(?var Group) ...]", ln)
        if block["task_symbol"] is not None:
            raise DomainSyntaxError(f"method {block['name']}: repeated 'task' line", ln)
        head_ref = _parse_attr_ref(tokens[1], ln)
        if head_ref.args:
            raise DomainSyntaxError(
                f"method {block['name']}: task parameters must be typed '(?v Group)'", ln
            )
        block["task_symbol"] = head_ref.symbol
        block["task_params"] = _parse_typed_params(tokens[2:], ln)
    elif head == "var":
        if len(tokens) != 3 or not tokens[1].startswith("?"):
            raise DomainSyntaxError("usage: var ?name <Group>", ln)
        block["free_params"] += ((tokens[1], tokens[2]),)
    elif head == "sub":
        if len(tokens) != 3:
            raise DomainSyntaxError("usage: sub <label> <task>", ln)
        block["subtasks"] += ((tokens[1], _parse_attr_ref(tokens[2], ln)),)
    elif head == "order":
        if len(tokens) == 4 and tokens[2] == "<":
            block["order"] += ((tokens[1], tokens[3]),)
        elif len(tokens) >= 3 and tokens[2] in ("before", "after", "between"):
            raise DomainSyntaxError(
                f"'{tokens[2]}' constraints are not supported; only precedence "
                "(order a < b) is available",
                ln,
            )
        else:
            raise DomainSyntaxError("usage: order <label> < <label>", ln)
    else:
        raise DomainSyntaxError(f"unknown method directive {head!r}", ln)


def _schema(block: dict, ln: int, body: bool = False) -> OperatorSchema | MethodSchema:
    """Construct a block's schema from the fields read so far; a rule it
    breaks raises with line ``ln``.  The reader calls this after every line
    of a block, so a per-schema rule names the line that broke it; a
    method's subtasks and order join only at its ``end`` (``body``)."""
    fields = {key: value for key, value in block.items() if key not in ("type", "line")}
    try:
        if block["type"] == "operator":
            return OperatorSchema(**fields)
        if not body:
            fields.update(subtasks=(), order=())
        return MethodSchema(**fields)
    except BeliefHtnError as exc:
        raise DomainSyntaxError(str(exc), ln) from exc


def _close_block(dom: DomainFile, block: dict) -> None:
    """Append the block's schema; a method-body defect names the block's
    first line."""
    if block["type"] == "operator":
        dom.operators.append(_schema(block, block["line"]))
        return
    if block["task_symbol"] is None:
        raise DomainSyntaxError(
            f"method {block['name']} has no 'task' line", block["line"]
        )
    dom.methods.append(_schema(block, block["line"], body=True))


def _require_sections(dom: DomainFile) -> None:
    missing = []
    if not dom.name:
        missing.append("domain")
    if not dom.groups:
        missing.append("group")
    if not (dom.robot and dom.human):
        missing.append("agents")
    if not dom.svars:
        missing.append("svar")
    if not dom.operators:
        missing.append("operator")
    if not dom.roots:
        missing.append("root")
    if not dom.init:
        missing.append("init")
    if not dom.start:
        missing.append("start")
    if missing:
        raise DomainSyntaxError(
            "missing mandatory section(s): " + ", ".join(missing)
        )


def serialize(dom: DomainFile) -> str:
    """Canonical text form; parse(serialize(d)) == d."""
    out: list[str] = [f"{FORMAT_HEADER} {FORMAT_VERSION}", f"domain {dom.name}", ""]
    for g in dom.groups:
        out.append(f"group {g.name} {' '.join(g.members)}")
    out.append(f"agents {dom.robot} {dom.human}")
    out.append("")
    for sv in dom.svars:
        params = "".join(f" ({v} {g})" for v, g in sv.params)
        rng = sv.value_range
        if isinstance(rng, tuple):
            rng = f"int {rng[0]} {rng[1]}"
        out.append(f"svar {sv.symbol}{params} -> {rng} : {sv.obs.value}")
    out.extend(str(p) for p in dom.places)
    out.append("")
    for op in dom.operators:
        out.append(f"operator {op.name} for {op.owner}")
        for v, g in op.params:
            out.append(f"  param {v} {g}")
        for ref, val in op.pre:
            out.append(f"  pre {ref} = {val}")
        for ref, eop, val in op.eff:
            out.append(f"  eff {ref} {eop.value} {val}")
        out.append("end")
    out.append("")
    for m in dom.methods:
        out.append(f"method {m.name} for {m.owner}")
        params = " ".join(f"({v} {g})" for v, g in m.task_params)
        out.append(f"  task {m.task_symbol}{' ' + params if params else ''}")
        for v, g in m.free_params:
            out.append(f"  var {v} {g}")
        for label, ref in m.subtasks:
            out.append(f"  sub {label} {ref}")
        for a, b in m.order:
            out.append(f"  order {a} < {b}")
        out.append("end")
    out.append("")
    for label, ref in dom.roots:
        out.append(f"root {label} {ref}")
    for a, b in dom.root_order:
        out.append(f"rootorder {a} < {b}")
    for ref, val in dom.init:
        out.append(f"init {ref} = {val}")
    for agent, ref, val in dom.beliefs:
        out.append(f"belief {agent} {ref} = {val}")
    out.append(f"start {dom.start}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Building runtime structures


@dataclass
class ProblemBundle:
    """Everything needed to plan: universe, problem, and observability model.

    Building a bundle also bounds its method hierarchy and gives its problem
    the :class:`~beliefhtn.planner.SearchCache` its plans share.
    """

    domfile: DomainFile
    universe: Universe
    problem: HtnProblem
    obs_model: ObservabilityModel

    def attr(self, text: str) -> GroundedAttribute:
        ref = _parse_attr_ref(text)
        return self.universe.attr(ref.symbol, *ref.args)

    def resolve(self, text: str, value: Value | str) -> tuple[int, Value]:
        """The index of the attribute ``text`` names, and ``value`` read as
        one of its values by :meth:`Universe.parse_value`; a value outside
        the domain raises :class:`DomainSyntaxError`."""
        attr = self.attr(text)
        try:
            parsed = self.universe.parse_value(attr, str(value))
        except BadValue as exc:
            raise DomainSyntaxError(str(exc)) from exc
        return self.universe.index_of(attr), parsed

    def with_world(self, overrides: Mapping[str, Value | str]) -> "ProblemBundle":
        """New bundle with world-belief attributes overridden in order by
        :func:`~beliefhtn.state.follow_world`: the human follows each write
        where it held the world's value just before it (override the human
        afterwards via :meth:`with_human_belief`)."""
        world, human = follow_world(
            self.problem.world, self.problem.human_belief,
            [self.resolve(text, val) for text, val in overrides.items()],
        )
        problem = replace(self.problem, world=world, human_belief=human)
        return replace(self, problem=problem)

    def with_human_belief(self, overrides: Mapping[str, Value | str]) -> "ProblemBundle":
        human = self.problem.human_belief.with_values_at(
            [self.resolve(text, val) for text, val in overrides.items()]
        )
        problem = replace(self.problem, human_belief=human)
        return replace(self, problem=problem)

    def with_start(self, agent: str) -> "ProblemBundle":
        if agent not in (self.problem.robot, self.problem.human):
            raise DomainSyntaxError(f"unknown starting agent {agent!r}")
        problem = replace(self.problem, start_agent=agent)
        return replace(self, problem=problem)


def _build_bundle(dom: DomainFile) -> ProblemBundle:
    universe = Universe(dom.groups, dom.svars)

    for agent in (dom.robot, dom.human):
        if agent not in universe.group_of_constant:
            raise DomainSyntaxError(f"agent {agent!r} is not a declared constant")
    if dom.start not in (dom.robot, dom.human):
        raise DomainSyntaxError(f"starting agent {dom.start!r} is not an agent")
    obs_model = ObservabilityModel(universe, dom.places)

    ops_by_agent: dict[str, list[OperatorSchema]] = {dom.robot: [], dom.human: []}
    claims: dict[tuple[str, str], set[str]] = {}
    for op in dom.operators:
        _check_groups(f"operator {op.name}", op.params, universe.groups)
        owners = _owners(dom, f"operator {op.name}", op.owner)
        _claim(claims, "operator", op.name, op.owner)
        for owner in owners:
            ops_by_agent[owner].append(replace(op, owner=owner))

    methods_by_agent: dict[str, list[MethodSchema]] = {dom.robot: [], dom.human: []}
    for m in dom.methods:
        _check_groups(f"method {m.name}", m.task_params + m.free_params, universe.groups)
        owners = _owners(dom, f"method {m.name}", m.owner)
        _claim(claims, "method", m.name, m.owner)
        for owner in owners:
            methods_by_agent[owner].append(m)

    domains = {}
    for agent, ops in ops_by_agent.items():
        methods = methods_by_agent[agent]
        op_names = frozenset(o.name for o in ops)
        domains[agent] = AgentDomain(
            agent,
            tuple(ops),
            tuple(methods),
            {(g.name, g.args): g for g in ground_all_operators(universe, ops)},
            ground_all_methods(universe, methods),
            op_names,
            _yield_closure(op_names, methods),
        )

    # Initial network; every root task must be resolvable.
    known_symbols = {o.name for o in dom.operators} | {m.task_symbol for m in dom.methods}
    tasks = []
    label_ids = {}
    for label, ref in dom.roots:
        if label in label_ids:
            raise DomainSyntaxError(f"repeated root label {label!r}")
        if ref.symbol not in known_symbols:
            raise DomainSyntaxError(
                f"root task {ref.symbol!r} matches no operator or method"
            )
        label_ids[label] = len(tasks)
        tasks.append(TaskInstance(ref.symbol, ref.args))
    order_pairs = []
    for a, b in dom.root_order:
        if a not in label_ids or b not in label_ids:
            raise DomainSyntaxError("rootorder references unknown root label")
        order_pairs.append((label_ids[a], label_ids[b]))
    network = TaskNetwork.build(tasks, order_pairs)

    # Total initial world belief; human = world overlaid with explicit deltas.
    assignment: dict[GroundedAttribute, Value] = {}
    for ref, val in dom.init:
        attr = universe.attr(ref.symbol, *ref.args)
        if attr in assignment:
            raise DomainSyntaxError(f"repeated 'init' line for {ref}")
        assignment[attr] = universe.parse_value(attr, val)
    world = BeliefState.from_mapping(dom.robot, universe, assignment)
    human = world.with_owner(dom.human)
    believed: set[GroundedAttribute] = set()
    for agent, ref, val in dom.beliefs:
        if agent != dom.human:
            raise DomainSyntaxError(
                f"belief overrides are only supported for the human agent, got {agent!r}"
            )
        attr = universe.attr(ref.symbol, *ref.args)
        if attr in believed:
            raise DomainSyntaxError(f"repeated 'belief' line for {agent} {ref}")
        believed.add(attr)
        human = human.with_value(attr, universe.parse_value(attr, val))

    cache = SearchCache(domains, obs_model, network, analyse_hierarchy(domains.values(), network))
    problem = HtnProblem(
        universe, world, human, network, domains, dom.robot, dom.human, dom.start, cache
    )
    return ProblemBundle(dom, universe, problem, obs_model)


def _yield_closure(op_names: frozenset[str], methods: list[MethodSchema]) -> frozenset[str]:
    """Task symbols that can lead to one of ``op_names`` through ``methods``."""
    yields = set(op_names)
    changed = True
    while changed:
        changed = False
        for m in methods:
            if m.task_symbol not in yields and any(
                ref.symbol in yields for _, ref in m.subtasks
            ):
                yields.add(m.task_symbol)
                changed = True
    return frozenset(yields)


def _claim(claims: dict[tuple[str, str], set[str]], what: str, name: str, owner: str) -> None:
    """Record ``what name`` for ``owner`` (an agent id or ``both``); a second
    operator or method of one name for one agent raises."""
    owners = claims.setdefault((what, name), set())
    if owners and (owner == "both" or owners & {owner, "both"}):
        raise DomainSyntaxError(f"{what} {name} declared twice for {owner}")
    owners.add(owner)


def _owners(dom: DomainFile, what: str, owner: str) -> tuple[str, ...]:
    if owner == "both":
        return (dom.robot, dom.human)
    if owner not in (dom.robot, dom.human):
        raise DomainSyntaxError(f"{what}: unknown owner {owner!r}")
    return (owner,)


def _check_groups(owner: str, params: tuple[tuple[str, str], ...], groups: Mapping) -> None:
    for var, group in params:
        if group not in groups:
            raise DomainSyntaxError(f"{owner}: {var} has unknown group {group!r}")
