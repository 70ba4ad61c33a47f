"""Line-oriented domain definition format: parser, serializer, builder.

A ``.dom`` file declares the constant groups, state-variable functions with
their observability class, placement rules, the two agents, per-agent
operators and methods, the shared initial task network, the (total) initial
world belief, optional human-belief overrides, and the starting agent.

The format is deliberately flat: section keywords at column zero,
``operator``/``method`` blocks closed by ``end``, one fact per line, and no
expression language beyond ``+=``/``-=`` on bounded-integer attributes.
Parsing also builds and grounds the bundle, so a bad value, group or variable
raises :class:`DomainSyntaxError` too, without a line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .errors import BadValue, BeliefHtnError, DomainSyntaxError
from .htn import (
    AgentDomain,
    Effect,
    EffectOp,
    HtnProblem,
    MethodSchema,
    OperatorSchema,
    OpKind,
    TaskInstance,
    TaskNetwork,
    Term,
    Test,
    ground_all_methods,
    ground_all_operators,
)
from .observability import ObsClass, ObservabilityModel, PlacementRule
from .state import (
    BOOL_DOMAIN,
    BeliefState,
    Group,
    GroundedAttribute,
    StateVariableDecl,
    Universe,
    Value,
)

FORMAT_HEADER = "beliefhtn-domain"
FORMAT_VERSION = 1

_ATTR_RE = re.compile(r"^([A-Za-z][\w-]*)(?:\(([^()]*)\))?$")


@dataclass(frozen=True)
class SvarEntry:
    symbol: str
    param_vars: tuple[str, ...]
    param_groups: tuple[str, ...]
    range_kind: str  # "group" | "bool" | "int"
    range_group: Optional[str] = None
    int_lo: int = 0
    int_hi: int = 0
    obs: ObsClass = ObsClass.OBS

    def value_domain(self, groups: Mapping[str, Group]) -> tuple[Value, ...]:
        if self.range_kind == "bool":
            return BOOL_DOMAIN
        if self.range_kind == "int":
            return tuple(range(self.int_lo, self.int_hi + 1))
        assert self.range_group is not None
        return tuple(groups[self.range_group].members)


@dataclass(frozen=True)
class PlaceEntry:
    symbol: str
    kind: str  # "at" | "value-of"
    place: Optional[str] = None
    ref_symbol: Optional[str] = None
    ref_args: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttrRef:
    symbol: str
    args: tuple[str, ...]  # constants or ?vars

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True)
class OpEntry:
    name: str
    owner: str  # robot-id, human-id, or "both"
    params: tuple[tuple[str, str], ...] = ()
    pre: tuple[tuple[AttrRef, str], ...] = ()
    eff: tuple[tuple[AttrRef, str, str], ...] = ()  # (attr, "="|"+="|"-=", value)


@dataclass(frozen=True)
class MethodEntry:
    name: str
    owner: str
    task_symbol: str
    task_params: tuple[tuple[str, str], ...] = ()
    free_vars: tuple[tuple[str, str], ...] = ()
    subtasks: tuple[tuple[str, AttrRef], ...] = ()  # (label, task ref)
    order: tuple[tuple[str, str], ...] = ()  # label pairs


@dataclass
class DomainFile:
    """Parsed, serializable representation of one ``.dom`` document."""

    name: str = ""
    version: int = FORMAT_VERSION
    groups: list[Group] = field(default_factory=list)
    robot: str = ""
    human: str = ""
    svars: list[SvarEntry] = field(default_factory=list)
    places: list[PlaceEntry] = field(default_factory=list)
    operators: list[OpEntry] = field(default_factory=list)
    methods: list[MethodEntry] = field(default_factory=list)
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
    dom = _read(text)
    dom.build()  # full cross-reference validation
    return dom


def parse_bundle(text: str) -> ProblemBundle:
    """Parse and build a domain document, grounding it once.

    Rejects exactly the documents :func:`parse` rejects, with the same
    errors; the parsed file is the bundle's ``domfile``.
    """
    return _read(text).build()


def _read(text: str) -> DomainFile:
    """Parse a document and check its mandatory sections; no grounding."""
    dom = DomainFile()
    lines = text.splitlines()
    block: Optional[dict] = None
    header_seen = False

    def fail(msg: str, ln: int) -> None:
        raise DomainSyntaxError(msg, ln)

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
            elif block["type"] == "operator":
                _operator_line(block, head, tokens, ln)
            else:
                _method_line(block, head, tokens, ln)
            continue

        if head == "domain":
            if len(tokens) != 2:
                fail("usage: domain <name>", ln)
            dom.name = tokens[1]
        elif head == "group":
            if len(tokens) < 3:
                fail("usage: group <name> <member>...", ln)
            dom.groups.append(Group(tokens[1], tuple(tokens[2:])))
        elif head == "agents":
            if len(tokens) != 3:
                fail("usage: agents <robot-id> <human-id>", ln)
            dom.robot, dom.human = tokens[1], tokens[2]
        elif head == "svar":
            dom.svars.append(_parse_svar(tokens, ln))
        elif head == "place":
            dom.places.append(_parse_place(tokens, ln))
        elif head == "operator":
            if len(tokens) != 4 or tokens[2] != "for":
                fail("usage: operator <name> for <agent|both>", ln)
            block = {"type": "operator", "name": tokens[1], "owner": tokens[3],
                     "params": [], "pre": [], "eff": [], "line": ln}
        elif head == "method":
            if len(tokens) != 4 or tokens[2] != "for":
                fail("usage: method <name> for <agent|both>", ln)
            block = {"type": "method", "name": tokens[1], "owner": tokens[3],
                     "task": None, "task_params": (), "vars": [], "subs": [],
                     "order": [], "line": ln}
        elif head == "root":
            if len(tokens) != 3:
                fail("usage: root <label> <task>", ln)
            dom.roots.append((tokens[1], _parse_attr_ref(tokens[2], ln)))
        elif head == "rootorder":
            if len(tokens) != 4 or tokens[2] != "<":
                fail("usage: rootorder <label> < <label>", ln)
            dom.root_order.append((tokens[1], tokens[3]))
        elif head == "init":
            if len(tokens) != 4 or tokens[2] != "=":
                fail("usage: init <attribute> = <value>", ln)
            dom.init.append((_parse_attr_ref(tokens[1], ln), tokens[3]))
        elif head == "belief":
            if len(tokens) != 5 or tokens[3] != "=":
                fail("usage: belief <agent> <attribute> = <value>", ln)
            dom.beliefs.append((tokens[1], _parse_attr_ref(tokens[2], ln), tokens[4]))
        elif head == "start":
            if len(tokens) != 2:
                fail("usage: start <agent>", ln)
            dom.start = tokens[1]
        else:
            fail(f"unknown directive {head!r}", ln)

    if block is not None:
        fail(f"unterminated {block['type']} block opened here", block["line"])

    _require_sections(dom)
    return dom


def _parse_svar(tokens: list[str], ln: int) -> SvarEntry:
    # svar Name [(?v Group) ...] -> <range> : obs|inf
    try:
        arrow = tokens.index("->")
        colon = tokens.index(":")
    except ValueError:
        raise DomainSyntaxError("svar needs '-> <range> : obs|inf'", ln)
    symbol = tokens[1]
    params = _parse_typed_params(tokens[2:arrow], ln)
    range_tokens = tokens[arrow + 1 : colon]
    obs_token = tokens[colon + 1 :]
    if len(obs_token) != 1 or obs_token[0] not in ("obs", "inf"):
        raise DomainSyntaxError("svar class must be 'obs' or 'inf'", ln)
    obs = ObsClass.OBS if obs_token[0] == "obs" else ObsClass.INF
    pvars = tuple(v for v, _ in params)
    pgroups = tuple(g for _, g in params)
    if not range_tokens:
        raise DomainSyntaxError("svar is missing its value range", ln)
    if range_tokens[0] == "bool":
        if len(range_tokens) != 1:
            raise DomainSyntaxError("bool range takes no arguments", ln)
        return SvarEntry(symbol, pvars, pgroups, "bool", obs=obs)
    if range_tokens[0] == "int":
        if len(range_tokens) != 3:
            raise DomainSyntaxError("usage: -> int <lo> <hi>", ln)
        try:
            lo, hi = int(range_tokens[1]), int(range_tokens[2])
        except ValueError:
            raise DomainSyntaxError("integer range bounds must be integers", ln)
        if lo > hi:
            raise DomainSyntaxError("empty integer range", ln)
        return SvarEntry(symbol, pvars, pgroups, "int", int_lo=lo, int_hi=hi, obs=obs)
    if len(range_tokens) != 1:
        raise DomainSyntaxError("range must be 'bool', 'int lo hi' or a group name", ln)
    return SvarEntry(symbol, pvars, pgroups, "group", range_group=range_tokens[0], obs=obs)


def _parse_place(tokens: list[str], ln: int) -> PlaceEntry:
    # place <template> at <Place>   |   place <template> value-of <attr>
    if len(tokens) != 4 or tokens[2] not in ("at", "value-of"):
        raise DomainSyntaxError(
            "usage: place <attribute> at <place> | place <attribute> value-of <attribute>",
            ln,
        )
    template = _parse_attr_ref(tokens[1], ln)
    if tokens[2] == "at":
        return PlaceEntry(template.symbol, "at", place=tokens[3])
    ref = _parse_attr_ref(tokens[3], ln)
    return PlaceEntry(
        template.symbol, "value-of", ref_symbol=ref.symbol, ref_args=ref.args
    )


def _operator_line(block: dict, head: str, tokens: list[str], ln: int) -> None:
    if head == "param":
        if len(tokens) != 3 or not tokens[1].startswith("?"):
            raise DomainSyntaxError("usage: param ?var <Group>", ln)
        block["params"].append((tokens[1], tokens[2]))
    elif head == "pre":
        if len(tokens) != 4 or tokens[2] != "=":
            raise DomainSyntaxError("usage: pre <attribute> = <value>", ln)
        block["pre"].append((_parse_attr_ref(tokens[1], ln), tokens[3]))
    elif head == "eff":
        if len(tokens) != 4 or tokens[2] not in ("=", "+=", "-="):
            raise DomainSyntaxError("usage: eff <attribute> =|+=|-= <value>", ln)
        block["eff"].append((_parse_attr_ref(tokens[1], ln), tokens[2], tokens[3]))
    else:
        raise DomainSyntaxError(f"unknown operator directive {head!r}", ln)


def _method_line(block: dict, head: str, tokens: list[str], ln: int) -> None:
    if head == "task":
        # task Name   |   task Name (?b Boxes) ...
        if len(tokens) < 2:
            raise DomainSyntaxError("usage: task <name> [(?var Group) ...]", ln)
        block["task"] = _parse_attr_ref(tokens[1], ln)
        if len(tokens) > 2:
            block["task_params"] = _parse_typed_params(tokens[2:], ln)
    elif head == "var":
        if len(tokens) != 3 or not tokens[1].startswith("?"):
            raise DomainSyntaxError("usage: var ?name <Group>", ln)
        block["vars"].append((tokens[1], tokens[2]))
    elif head == "sub":
        if len(tokens) != 3:
            raise DomainSyntaxError("usage: sub <label> <task>", ln)
        block["subs"].append((tokens[1], _parse_attr_ref(tokens[2], ln)))
    elif head == "order":
        if len(tokens) == 4 and tokens[2] == "<":
            block["order"].append((tokens[1], tokens[3]))
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


def _close_block(dom: DomainFile, block: dict) -> None:
    if block["type"] == "operator":
        dom.operators.append(
            OpEntry(
                block["name"],
                block["owner"],
                tuple(block["params"]),
                tuple(block["pre"]),
                tuple(block["eff"]),
            )
        )
        return
    if block["task"] is None:
        raise DomainSyntaxError(
            f"method {block['name']} has no 'task' line", block["line"]
        )
    dom.methods.append(
        MethodEntry(
            block["name"],
            block["owner"],
            block["task"].symbol,
            tuple(
                block["task_params"]
                if block["task_params"]
                else tuple((a, "") for a in block["task"].args)
            ),
            tuple(block["vars"]),
            tuple(block["subs"]),
            tuple(block["order"]),
        )
    )


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
    out: list[str] = [f"{FORMAT_HEADER} {dom.version}", f"domain {dom.name}", ""]
    for g in dom.groups:
        out.append(f"group {g.name} {' '.join(g.members)}")
    out.append(f"agents {dom.robot} {dom.human}")
    out.append("")
    for sv in dom.svars:
        params = " ".join(
            f"({v} {g})" for v, g in zip(sv.param_vars, sv.param_groups)
        )
        if sv.range_kind == "bool":
            rng = "bool"
        elif sv.range_kind == "int":
            rng = f"int {sv.int_lo} {sv.int_hi}"
        else:
            rng = sv.range_group
        cls = "obs" if sv.obs is ObsClass.OBS else "inf"
        mid = f" {params}" if params else ""
        out.append(f"svar {sv.symbol}{mid} -> {rng} : {cls}")
    for p in dom.places:
        sv = next(s for s in dom.svars if s.symbol == p.symbol)
        tmpl = p.symbol
        if sv.param_vars:
            tmpl += "(" + ", ".join(sv.param_vars) + ")"
        if p.kind == "at":
            out.append(f"place {tmpl} at {p.place}")
        else:
            ref = p.ref_symbol + (
                "(" + ", ".join(p.ref_args) + ")" if p.ref_args else ""
            )
            out.append(f"place {tmpl} value-of {ref}")
    out.append("")
    for op in dom.operators:
        out.append(f"operator {op.name} for {op.owner}")
        for v, g in op.params:
            out.append(f"  param {v} {g}")
        for ref, val in op.pre:
            out.append(f"  pre {ref} = {val}")
        for ref, eop, val in op.eff:
            out.append(f"  eff {ref} {eop} {val}")
        out.append("end")
    out.append("")
    for m in dom.methods:
        out.append(f"method {m.name} for {m.owner}")
        params = " ".join(f"({v} {g})" for v, g in m.task_params)
        out.append(f"  task {m.task_symbol}{' ' + params if params else ''}")
        for v, g in m.free_vars:
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
    """Everything needed to plan: universe, problem, and observability model."""

    domfile: DomainFile
    universe: Universe
    problem: HtnProblem
    obs_model: ObservabilityModel

    def attr(self, text: str) -> GroundedAttribute:
        ref = _parse_attr_ref(text)
        return self.universe.attr(ref.symbol, *ref.args)

    def with_world(self, overrides: Mapping[str, Value | str]) -> "ProblemBundle":
        """New bundle with world-belief attributes overridden (human follows
        unless itself overridden later via :meth:`with_human_belief`)."""
        world = self.problem.world
        human = self.problem.human_belief
        for text, val in overrides.items():
            attr = self.attr(text)
            value = _coerce_value(self.universe, attr, str(val))
            aligned = human.get(attr) == world.get(attr)
            world = world.with_value(attr, value)
            if aligned:
                human = human.with_value(attr, value)
        problem = replace(self.problem, world=world, human_belief=human)
        return ProblemBundle(self.domfile, self.universe, problem, self.obs_model)

    def with_human_belief(self, overrides: Mapping[str, Value | str]) -> "ProblemBundle":
        human = self.problem.human_belief
        for text, val in overrides.items():
            attr = self.attr(text)
            human = human.with_value(attr, _coerce_value(self.universe, attr, str(val)))
        problem = replace(self.problem, human_belief=human)
        return ProblemBundle(self.domfile, self.universe, problem, self.obs_model)

    def with_start(self, agent: str) -> "ProblemBundle":
        if agent not in (self.problem.robot, self.problem.human):
            raise DomainSyntaxError(f"unknown starting agent {agent!r}")
        problem = replace(self.problem, start_agent=agent)
        return ProblemBundle(self.domfile, self.universe, problem, self.obs_model)


def _build_bundle(dom: DomainFile) -> ProblemBundle:
    groups = {g.name: g for g in dom.groups}
    decls = []
    svar_by_name: dict[str, SvarEntry] = {}
    for sv in dom.svars:
        if sv.range_kind == "group" and sv.range_group not in groups:
            raise DomainSyntaxError(
                f"svar {sv.symbol}: unknown value group {sv.range_group!r}"
            )
        decls.append(
            StateVariableDecl(sv.symbol, sv.param_groups, sv.value_domain(groups))
        )
        svar_by_name[sv.symbol] = sv
    universe = Universe(dom.groups, decls)

    for agent in (dom.robot, dom.human):
        if agent not in universe.group_of_constant:
            raise DomainSyntaxError(f"agent {agent!r} is not a declared constant")
    if dom.start not in (dom.robot, dom.human):
        raise DomainSyntaxError(f"starting agent {dom.start!r} is not an agent")

    classes = {sv.symbol: sv.obs for sv in dom.svars}
    rules: dict[GroundedAttribute, PlacementRule] = {}
    for p in dom.places:
        sv = svar_by_name.get(p.symbol)
        if sv is None:
            raise DomainSyntaxError(f"place rule for undeclared attribute {p.symbol!r}")
        for attr in universe.attributes:
            if attr.symbol != p.symbol:
                continue
            binding = dict(zip(sv.param_vars, attr.args))
            if p.kind == "at":
                rules[attr] = PlacementRule(fixed_place=p.place)
            else:
                ref_args = tuple(binding.get(a, a) for a in p.ref_args)
                ref = universe.attr(p.ref_symbol, *ref_args)
                rules[attr] = PlacementRule(reference=ref)

    op_entries_by_agent: dict[str, list[OperatorSchema]] = {dom.robot: [], dom.human: []}
    seen_ops: set[tuple[str, str]] = set()
    for op in dom.operators:
        _check_groups(f"operator {op.name}", op.params, groups)
        owners = (
            [dom.robot, dom.human] if op.owner == "both" else [op.owner]
        )
        for owner in owners:
            if owner not in (dom.robot, dom.human):
                raise DomainSyntaxError(
                    f"operator {op.name}: unknown owner {op.owner!r}"
                )
            if (owner, op.name) in seen_ops:
                raise DomainSyntaxError(
                    f"operator {op.name} declared twice for {owner}"
                )
            seen_ops.add((owner, op.name))
            schema = OperatorSchema(
                op.name,
                owner,
                op.params,
                tuple(
                    Test(ref.symbol, tuple(map(Term, ref.args)), Term(val))
                    for ref, val in op.pre
                ),
                tuple(_build_effect(ref, eop, val) for ref, eop, val in op.eff),
            )
            op_entries_by_agent[owner].append(schema)

    method_by_agent: dict[str, list[MethodSchema]] = {dom.robot: [], dom.human: []}
    for m in dom.methods:
        owners = [dom.robot, dom.human] if m.owner == "both" else [m.owner]
        task_params = tuple(
            (v, g) for v, g in m.task_params if v.startswith("?")
        )
        if any(not g for _, g in task_params):
            raise DomainSyntaxError(
                f"method {m.name}: task parameters must be typed '(?v Group)'"
            )
        _check_groups(f"method {m.name}", task_params + m.free_vars, groups)
        label_index = {label: i for i, (label, _) in enumerate(m.subtasks)}
        if len(label_index) != len(m.subtasks):
            raise DomainSyntaxError(f"method {m.name}: duplicate subtask label")
        order = []
        for a, b in m.order:
            if a not in label_index or b not in label_index:
                raise DomainSyntaxError(
                    f"method {m.name}: ordering references unknown label"
                )
            order.append((label_index[a], label_index[b]))
        schema = MethodSchema(
            m.name,
            m.task_symbol,
            task_params,
            m.free_vars,
            tuple(
                (ref.symbol, tuple(map(Term, ref.args))) for _, ref in m.subtasks
            ),
            tuple(order),
        )
        for owner in owners:
            if owner not in (dom.robot, dom.human):
                raise DomainSyntaxError(f"method {m.name}: unknown owner {m.owner!r}")
            method_by_agent[owner].append(schema)

    domains = {}
    for agent, ops in op_entries_by_agent.items():
        methods = method_by_agent[agent]
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
        assignment[attr] = universe.parse_value(attr, val)
    world = BeliefState.from_mapping(dom.robot, universe, assignment)
    human = world.with_owner(dom.human)
    for agent, ref, val in dom.beliefs:
        if agent != dom.human:
            raise DomainSyntaxError(
                f"belief overrides are only supported for the human agent, got {agent!r}"
            )
        attr = universe.attr(ref.symbol, *ref.args)
        human = human.with_value(attr, universe.parse_value(attr, val))

    obs_model = ObservabilityModel(universe, classes, rules)
    problem = HtnProblem(
        universe, world, human, network, domains, dom.robot, dom.human, dom.start
    )
    return ProblemBundle(dom, universe, problem, obs_model)


def _yield_closure(op_names: frozenset[str], methods: list[MethodSchema]) -> frozenset[str]:
    """Task symbols that can lead to one of ``op_names`` through ``methods``."""
    yields = set(op_names)
    changed = True
    while changed:
        changed = False
        for m in methods:
            if m.task_symbol not in yields and any(sym in yields for sym, _ in m.subtasks):
                yields.add(m.task_symbol)
                changed = True
    return frozenset(yields)


def _coerce_value(universe: Universe, attr: GroundedAttribute, token: str) -> Value:
    try:
        return universe.parse_value(attr, token)
    except BadValue as exc:
        raise DomainSyntaxError(str(exc)) from exc


def _check_groups(owner: str, params: tuple[tuple[str, str], ...], groups: Mapping) -> None:
    for var, group in params:
        if group not in groups:
            raise DomainSyntaxError(f"{owner}: {var} has unknown group {group!r}")


def _build_effect(ref: AttrRef, eop: str, val: str) -> Effect:
    if eop == "=":
        return Effect(ref.symbol, tuple(map(Term, ref.args)), EffectOp.SET, Term(val))
    try:
        delta = int(val)
    except ValueError:
        raise DomainSyntaxError(f"increment effects need an integer, got {val!r}")
    op = EffectOp.INC if eop == "+=" else EffectOp.DEC
    return Effect(ref.symbol, tuple(map(Term, ref.args)), op, delta)

