from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from beliefhtn import BOX_DOM, COOKING_DOM, builtin_bundle, parse, parse_bundle, plan, serialize
from beliefhtn.domfile import FORMAT_VERSION
from beliefhtn.errors import BadArgument, DomainSyntaxError
from beliefhtn.policyio import load_json, to_json, to_text

MINI = """\
beliefhtn-domain 1
domain mini
group Places Here There
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
svar Flag -> bool : inf
place AgtAt(?a) value-of AgtAt(?a)
operator toggle for bot
  pre Flag = false
  eff Flag = true
end
operator observe for person
end
method m-root for both
  task Root
  sub a toggle
  sub b observe
  order a < b
end
root t0 Root
init AgtAt(bot) = Here
init AgtAt(person) = Here
init Flag = false
start bot
"""
# MINI with one id named twice on its `agents` line.
ONE_AGENT = MINI.replace("agents bot person", "agents bot bot").replace(
    "operator observe for person", "operator observe for bot"
)


def test_minimal_domain_parses():
    dom = parse(MINI)
    bundle = dom.build()
    assert bundle.problem.robot == "bot"
    assert bundle.problem.human == "person"
    assert len(bundle.universe) == 3


def test_the_robot_and_the_human_are_two_agents():
    # One agent on both turns would leave the move rule no other agent.
    with pytest.raises(DomainSyntaxError, match="agents: the robot and the human are both 'bot'"):
        parse_bundle(ONE_AGENT)


def test_round_trip_minimal():
    dom = parse(MINI)
    assert parse(serialize(dom)) == dom
    # Serialization is a fixpoint.
    assert serialize(parse(serialize(dom))) == serialize(dom)


def test_round_trip_builtins():
    for text in (COOKING_DOM, BOX_DOM):
        dom = parse(text)
        assert parse(serialize(dom)) == dom


def test_empty_file_lists_missing_sections():
    with pytest.raises(DomainSyntaxError) as err:
        parse("beliefhtn-domain 1\n")
    message = str(err.value)
    for section in ("domain", "group", "agents", "svar", "operator", "root", "init", "start"):
        assert section in message


def test_missing_header_rejected():
    with pytest.raises(DomainSyntaxError) as err:
        parse("domain nope\n")
    assert "beliefhtn-domain" in str(err.value)


def test_unknown_symbol_in_operator():
    bad = MINI.replace("pre Flag = false", "pre Missing = false")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "Missing" in str(err.value)


def test_arity_error_diagnosed():
    bad = MINI.replace("pre Flag = false", "pre Flag(Here) = false")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "argument" in str(err.value)


def test_non_total_init_diagnosed():
    bad = MINI.replace("init Flag = false\n", "")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "not total" in str(err.value)
    assert "Flag" in str(err.value)


def test_unsupported_constraint_kinds_rejected():
    for kind in ("before", "after", "between"):
        bad = MINI.replace("order a < b", f"order a {kind} b")
        with pytest.raises(DomainSyntaxError) as err:
            parse(bad)
        assert "precedence" in str(err.value)
        assert str(err.value).startswith("line ")


def test_unknown_root_task_rejected():
    bad = MINI.replace("root t0 Root", "root t0 Phantom")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "Phantom" in str(err.value)


def test_diagnostics_carry_line_numbers():
    bad = MINI.replace("group Places Here There", "group Places")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "line 3" in str(err.value)


def test_round_trip_keeps_the_root_order():
    text = MINI.replace("root t0 Root\n", "root t0 Root\nroot t1 Root\nrootorder t0 < t1\n")
    dom = parse(text)
    assert "rootorder t0 < t1\n" in serialize(dom)
    assert parse(serialize(dom)) == dom
    assert dom != serialize(dom)  # a domain file equals only a domain file


def test_rootorder_names_declared_root_labels():
    bad = MINI.replace("root t0 Root\n", "root t0 Root\nrootorder t0 < t9\n")
    with pytest.raises(DomainSyntaxError, match="rootorder references unknown root label"):
        parse(bad)


def test_bundle_start_override_names_an_agent():
    bundle = parse(MINI).build()
    assert bundle.with_start("person").problem.start_agent == "person"
    with pytest.raises(DomainSyntaxError, match="unknown starting agent 'nobody'"):
        bundle.with_start("nobody")


def test_bundle_world_override_keeps_alignment():
    bundle = parse(MINI).build()
    u = bundle.universe
    b2 = bundle.with_world({"Flag": "true"})
    assert b2.problem.world.get(u.attr("Flag")) == "true"
    assert b2.problem.human_belief.get(u.attr("Flag")) == "true"


def test_bundle_belief_override_creates_divergence():
    bundle = parse(MINI).build()
    u = bundle.universe
    b2 = bundle.with_world({"Flag": "true"}).with_human_belief({"Flag": "false"})
    assert b2.problem.world.get(u.attr("Flag")) == "true"
    assert b2.problem.human_belief.get(u.attr("Flag")) == "false"


def test_bundle_rejects_bad_value():
    bundle = parse(MINI).build()
    with pytest.raises(DomainSyntaxError):
        bundle.with_world({"Flag": "maybe"})


def test_belief_override_for_robot_rejected():
    bad = MINI.replace("start bot", "belief bot Flag = true\nstart bot")
    with pytest.raises(DomainSyntaxError) as err:
        parse(bad)
    assert "human" in str(err.value)


PLACE_AGT = "place AgtAt(?a) value-of AgtAt(?a)"

MALFORMED = [
    ("pre Flag = false", "pre Flag = maybe"),
    ("eff Flag = true", "eff Flag += 1"),
    ("eff Flag = true", "eff Flag = 7"),
    ("operator toggle for bot\n", "operator toggle for bot\n  param ?x Nowhere\n"),
    ("  task Root\n", "  task Root\n  var ?p Nowhere\n"),
    ("sub a toggle\n", "sub a toggle(?q)\n"),
    ("  task Root\n", "  task\n"),
    ("  task Root\n", "  task Root(Here)\n"),
    # Placement rules: a template argument that is a constant, a wrong
    # arity, a reference variable the template does not bind, a symbol
    # placed twice and a fixed place outside Places.
    (PLACE_AGT, "place AgtAt(bot) at Here"),
    (PLACE_AGT, "place AgtAt at Here"),
    (PLACE_AGT, "place AgtAt(?q) value-of AgtAt(?a)"),
    (PLACE_AGT, f"{PLACE_AGT}\nplace Flag at Here\nplace Flag at There"),
    (PLACE_AGT, f"{PLACE_AGT}\nplace Flag at Attic"),
]


@pytest.mark.parametrize(
    "old,new", MALFORMED, ids=[new.strip().splitlines()[-1].strip() for _, new in MALFORMED]
)
def test_grounding_defects_rejected_at_parse(old, new):
    assert old in MINI
    with pytest.raises(DomainSyntaxError):
        parse(MINI.replace(old, new))


# (old, new, line the message names, message fragment); a defect found when
# a method block closes names the block's 'method' line.
LINE_DEFECTS = [
    ("sub b observe", "sub a observe", 15, "duplicate subtask label"),
    ("order a < b", "order a < c", 15, "unknown label"),
    ("order a < b", "order a < b\n  order b < a", 15, "cyclic"),
    ("  task Root\n", "  task Root(?x)\n", 16, "must be typed"),
    ("  task Root\n", "  task Root(Here)\n", 16, "must be typed"),
    ("eff Flag = true", "eff Flag += a", 11, "need an integer"),
    # A directive that may appear once names its second line.
    ("domain mini\n", "domain mini\ndomain other\n", 3, "repeated 'domain' line"),
    ("agents bot person\n", "agents bot person\nagents person bot\n", 6, "repeated 'agents'"),
    ("start bot\n", "start bot\nstart person\n", 26, "repeated 'start' line"),
    ("  task Root\n", "  task Root\n  task Gone\n", 17, "repeated 'task' line"),
    ("init Flag = false\n", "init Flag = false\ninit Flag = true\n", 25, "'init' line for Flag"),
    (
        "start bot\n",
        "belief person Flag = true\nbelief person Flag = false\nstart bot\n",
        26,
        "repeated 'belief' line for person Flag",
    ),
    ("root t0 Root\n", "root t0 Root\nroot t0 Root\n", 22, "repeated root label 't0'"),
    # A second operator or method of one name for an owner names its own line.
    (
        "root t0 Root\n",
        "method m-root for bot\n  task Root\nend\nroot t0 Root\n",
        21,
        "method m-root declared twice for bot",
    ),
    (
        "root t0 Root\n",
        "method m-root for both\n  task Root\nend\nroot t0 Root\n",
        21,
        "method m-root declared twice for both",
    ),
    (
        "operator observe for person\n",
        "operator observe for person\nend\noperator observe for person\n",
        15,
        "operator observe declared twice for person",
    ),
    # A variable bound twice in one schema names the repeating line.
    (
        "operator toggle for bot\n",
        "operator toggle for bot\n  param ?p Places\n  param ?p Places\n",
        11,
        "operator toggle: variable ?p bound twice",
    ),
    ("  task Root\n", "  task Root\n  var ?x Places\n  var ?x Places\n", 18, "variable ?x bound twice"),
    ("  task Root\n", "  task Root (?x Places)\n  var ?x Agents\n", 17, "variable ?x bound twice"),
    ("  task Root\n", "  var ?x Agents\n  task Root (?x Places)\n", 17, "variable ?x bound twice"),
    # Two 'pre' lines on one lifted attribute name the second.
    ("pre Flag = false\n", "pre Flag = false\n  pre Flag = true\n", 11, "second 'pre' line for Flag"),
    # Directives of the wrong shape name their own line.
    ("beliefhtn-domain 1\n", "beliefhtn-domain 2\n", 1, "unsupported format version 2"),
    ("agents bot person\n", "agents bot\n", 5, "usage: agents <robot-id> <human-id>"),
    ("root t0 Root\n", "root t0 Root\nrootorder t0 t0\n", 22, "usage: rootorder <label> < <label>"),
    ("start bot\n", "belief person Flag true\nstart bot\n", 25, "usage: belief <agent> <attribute>"),
    # A block still open at the end of the file names its opening line.
    ("start bot\n", "start bot\noperator extra for bot\n", 26, "unterminated operator block"),
    # An svar line names itself for a bad class, range or value domain.
    ("svar Flag -> bool : inf", "svar Flag -> bool : seen", 7, "svar class must be 'obs' or 'inf'"),
    ("svar Flag -> bool : inf", "svar Flag -> : inf", 7, "svar is missing its value range"),
    ("svar Flag -> bool : inf", "svar Flag -> int 0 : inf", 7, "usage: -> int <lo> <hi>"),
    ("svar Flag -> bool : inf", "svar Flag -> int 2 0 : inf", 7, "has an empty integer range"),
]


@pytest.mark.parametrize(
    "old,new,line,fragment", LINE_DEFECTS, ids=[new.strip() for _, new, _, _ in LINE_DEFECTS]
)
def test_method_and_operator_defects_name_their_line(old, new, line, fragment):
    assert old in MINI
    with pytest.raises(DomainSyntaxError) as err:
        parse(MINI.replace(old, new))
    assert str(err.value).startswith(f"line {line}: ")
    assert fragment in str(err.value)
    assert err.value.line == line


def test_pre_lines_compare_lifted_references():
    # Holds(?a) and Holds(?b) are two references; the grounding with ?a = ?b
    # is simply never applicable.
    text = MINI.replace(
        "operator observe for person\n",
        "operator observe for person\n  param ?a Agents\n  param ?b Agents\n"
        "  pre AgtAt(?a) = Here\n  pre AgtAt(?b) = There\n",
    ).replace("sub b observe", "sub b observe(bot, person)")
    ops = parse_bundle(text).problem.domains["person"].ground_ops
    assert ("observe", ("bot", "bot")) in ops
    assert ("observe", ("bot", "person")) in ops


# A DomainFile edited in code meets the reader's rules: the per-schema ones
# hold from construction on, and build checks the duplicate-method rule.


def test_build_rejects_a_second_method_of_one_name():
    dom = parse(MINI)
    dom.methods.append(dom.methods[0])
    with pytest.raises(DomainSyntaxError, match="method m-root declared twice for both"):
        dom.build()


# Each directive the reader takes once per attribute or label, doubled in code.
REPEATS = {
    "init": (lambda d: replace(d, init=d.init + d.init[:1]), "repeated 'init' line for AgtAt(bot)"),
    "belief": (
        lambda d: replace(d, beliefs=d.beliefs + d.beliefs[:1]),
        "repeated 'belief' line for person Flag",
    ),
    "root": (lambda d: replace(d, roots=d.roots + d.roots[:1]), "repeated root label 't0'"),
}


@pytest.mark.parametrize("name", REPEATS)
def test_build_rejects_what_the_reader_rejects_as_repeated(name):
    edit, message = REPEATS[name]
    dom = edit(parse(MINI.replace("start bot", "belief person Flag = true\nstart bot")))
    with pytest.raises(DomainSyntaxError) as built:
        dom.build()
    assert str(built.value) == message
    # The reader names the line of the repeat.
    with pytest.raises(DomainSyntaxError) as read:
        parse(serialize(dom))
    assert str(read.value) == f"line {read.value.line}: {message}"


def test_serialize_writes_the_one_format_version():
    # The version is no field of a document, so one made in code writes the
    # version the reader accepts, and its saved policy loads back.
    dom = builtin_bundle("cooking").domfile
    with pytest.raises(TypeError):
        replace(dom, version=2)
    assert serialize(dom).startswith(f"beliefhtn-domain {FORMAT_VERSION}\n")
    bundle = dom.build()
    policy = plan(bundle.problem, bundle.obs_model, "new")
    _, loaded = load_json(to_json(policy, bundle))
    assert to_text(loaded) == to_text(policy)


def test_method_schema_rejects_a_variable_bound_twice():
    (m_root,) = parse(MINI).methods
    with pytest.raises(BadArgument, match=r"method m-root: variable \?x bound twice"):
        replace(m_root, free_params=(("?x", "Places"), ("?x", "Places")))
    with pytest.raises(BadArgument, match=r"variable \?x bound twice"):
        replace(m_root, task_params=(("?x", "Places"),), free_params=(("?x", "Agents"),))


def test_operator_schema_rejects_a_second_pre_on_one_attribute():
    toggle = parse(MINI).operators[0]
    with pytest.raises(BadArgument, match="operator toggle: second 'pre' line for Flag"):
        replace(toggle, pre=toggle.pre + ((toggle.pre[0][0], "true"),))
    with pytest.raises(BadArgument, match=r"variable \?p bound twice"):
        replace(toggle, params=(("?p", "Places"), ("?p", "Places")))


# Placement defects in the cooking domain, each with its message fragment.
PLACEMENT_DEFECTS = [
    ("place AgtAt(?a) value-of AgtAt(?a)", "place AgtAt(robot) at Kitchen", "distinct variables"),
    ("place AgtAt(?a) value-of AgtAt(?a)", "place AgtAt at Kitchen", "takes 1 argument(s), got 0"),
    (
        "place AgtAt(?a) value-of AgtAt(?a)",
        "place AgtAt(?q) value-of AgtAt(?a)",
        "?a is not a variable of the template",
    ),
    ("place Stove at Kitchen", "place Stove at Kitchen\nplace Stove at Room", "already placed"),
    ("place Stove at Kitchen", "place Stove at Attic", "'Attic' is not a member of 'Places'"),
]


@pytest.mark.parametrize(
    "old,new,fragment", PLACEMENT_DEFECTS, ids=[new.splitlines()[-1] for _, new, _ in PLACEMENT_DEFECTS]
)
def test_placement_defects_rejected(old, new, fragment):
    assert old in COOKING_DOM
    with pytest.raises(DomainSyntaxError) as err:
        parse(COOKING_DOM.replace(old, new))
    assert fragment in str(err.value)


def test_place_template_binds_its_own_variables():
    # The template's variables bind by position, whatever the svar calls them.
    renamed = COOKING_DOM.replace(
        "place AgtAt(?a) value-of AgtAt(?a)", "place AgtAt(?q) value-of AgtAt(?q)"
    )
    assert renamed != COOKING_DOM
    bundle, builtin = parse_bundle(renamed), parse_bundle(COOKING_DOM)
    assert bundle.obs_model.placements == builtin.obs_model.placements
    assert "place AgtAt(?q) value-of AgtAt(?q)" in serialize(bundle.domfile)


@pytest.mark.parametrize(
    "text",
    [MINI, MINI.replace("start bot\n", ""), MINI.replace("root t0 Root", "root t0 Phantom")]
    + [MINI.replace(old, new) for old, new in MALFORMED],
)
def test_parse_bundle_rejects_what_parse_rejects(text):
    # parse_bundle grounds once where parse(...).build() grounds twice; both
    # must accept and reject the same documents with the same message.
    try:
        expected = parse(text).build()
    except DomainSyntaxError as exc:
        with pytest.raises(DomainSyntaxError) as err:
            parse_bundle(text)
        assert str(err.value) == str(exc)
    else:
        bundle = parse_bundle(text)
        assert bundle.domfile == expected.domfile
        assert bundle.problem.network == expected.problem.network


def test_bundle_attr_error_has_no_line_prefix():
    bundle = parse(MINI).build()
    with pytest.raises(DomainSyntaxError) as err:
        bundle.with_world({"Stove((": "on"})
    assert "malformed attribute reference" in str(err.value)
    assert not str(err.value).startswith("line")


def one_line_mutations(text, rng, count):
    """``count`` variants of ``text``, each with one line changed: a token
    replaced by a word of the document, given an argument list, dropped or
    doubled, or the whole line dropped or doubled.  Yields (line, variant)."""
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if line.strip()]
    words = sorted(set(re.findall(r"[^\s(),]+", text)))
    for _ in range(count):
        i = rng.choice(body)
        line = lines[i]
        indent = line[: len(line) - len(line.lstrip())]
        tokens = line.split()
        k = rng.randrange(len(tokens))
        kind = rng.randrange(6)
        if kind == 0:
            tokens[k] = rng.choice(words)
        elif kind == 1:
            tokens[k] += f"({rng.choice(words)})"
        elif kind == 2:
            del tokens[k]
        elif kind == 3:
            tokens.insert(k, tokens[k])
        if kind == 4 or not tokens:
            new = ""
        elif kind == 5:
            new = line + line
        else:
            new = f"{indent}{' '.join(tokens)}\n"
        yield new or "<deleted>", "".join(lines[:i] + [new] + lines[i + 1 :])


@pytest.mark.parametrize("name", ["cooking", "box"])
def test_one_line_mutations_round_trip_or_reject(name):
    # Seeded and bounded: 300 variants per builtin.  An accepted variant's
    # canonical form must parse back to itself; a rejected one must raise
    # DomainSyntaxError and nothing else.
    text = {"cooking": COOKING_DOM, "box": BOX_DOM}[name]
    accepted = rejected = 0
    for line, variant in one_line_mutations(text, random.Random(f"mutate-{name}"), 300):
        try:
            dom = parse(variant)
        except DomainSyntaxError:
            rejected += 1
            continue
        except Exception as exc:  # any other type is the defect; name the line
            pytest.fail(f"{line.strip()!r} raised {type(exc).__name__}: {exc}")
        accepted += 1
        canonical = serialize(dom)
        try:
            again = serialize(parse(canonical))
        except DomainSyntaxError as exc:
            pytest.fail(f"{line.strip()!r}: canonical form does not parse: {exc}")
        assert again == canonical, line
    assert accepted and rejected
