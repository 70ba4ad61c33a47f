from __future__ import annotations

import pytest

from beliefhtn import BOX_DOM, COOKING_DOM, parse, parse_bundle, serialize
from beliefhtn.errors import DomainSyntaxError

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


def test_minimal_domain_parses():
    dom = parse(MINI)
    bundle = dom.build()
    assert bundle.problem.robot == "bot"
    assert bundle.problem.human == "person"
    assert len(bundle.universe) == 3


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


MALFORMED = [
    ("pre Flag = false", "pre Flag = maybe"),
    ("eff Flag = true", "eff Flag += 1"),
    ("eff Flag = true", "eff Flag = 7"),
    ("operator toggle for bot\n", "operator toggle for bot\n  param ?x Nowhere\n"),
    ("  task Root\n", "  task Root\n  var ?p Nowhere\n"),
    ("sub a toggle\n", "sub a toggle(?q)\n"),
    ("  task Root\n", "  task\n"),
]


@pytest.mark.parametrize(
    "old,new", MALFORMED, ids=[new.strip().splitlines()[-1].strip() for _, new in MALFORMED]
)
def test_grounding_defects_rejected_at_parse(old, new):
    assert old in MINI
    with pytest.raises(DomainSyntaxError):
        parse(MINI.replace(old, new))


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
