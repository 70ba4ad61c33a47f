from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import beliefhtn
from beliefhtn import (
    BOX_DOM,
    COOKING_DOM,
    MODE_LEGACY,
    MODE_NEW,
    builtin_bundle,
    parse,
    parse_bundle,
    plan,
    planner,
    serialize,
)
from beliefhtn.cli import main
from beliefhtn.communication import CommAction, apply_comm_plan
from beliefhtn.errors import DomainSyntaxError
from beliefhtn.experiment import DEFAULT_SPECS, generate_initial_states
from beliefhtn.planner import PolicyEdge, PolicyNode, _step
from beliefhtn.policyio import _collect, _digest, load_json, to_json, to_text
from beliefhtn.state import diverging_attributes

from oracles import STUCK_DOM
from test_acceptance import STUDY_CSV_SHA256


def test_validate_domain_ok(tmp_path, capsys):
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    assert main(["validate-domain", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "6 attribute templates" in out
    assert "7 grounded attributes" in out


def test_validate_domain_echo_prints_the_canonical_form(tmp_path, capsys):
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    assert main(["validate-domain", str(path), "--echo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: ")
    assert out.endswith(serialize(parse(COOKING_DOM)))


def test_the_module_runs_as_a_script(tmp_path):
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    src = str(Path(beliefhtn.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "beliefhtn.cli", "validate-domain", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("OK: domain 'cooking'")


def test_validate_domain_reports_error(tmp_path, capsys):
    path = tmp_path / "broken.dom"
    path.write_text("beliefhtn-domain 1\ndomain broken\n")
    assert main(["validate-domain", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_domain_reports_grounding_error(tmp_path, capsys):
    from test_domfile import MINI

    path = tmp_path / "bad-value.dom"
    path.write_text(MINI.replace("pre Flag = false", "pre Flag = maybe"))
    assert main(["validate-domain", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "maybe" in out


def test_validate_domain_rejects_one_agent_named_twice(tmp_path, capsys):
    from test_domfile import ONE_AGENT

    path = tmp_path / "one-agent.dom"
    path.write_text(ONE_AGENT)
    assert main(["validate-domain", str(path)]) == 1
    assert capsys.readouterr().out == "INVALID: agents: the robot and the human are both 'bot'\n"


# A file the CLI cannot decode: the Latin-1 bytes of a non-ASCII name.
NOT_UTF8 = "beliefhtn-domain 1\ndomain caf\u00e9\n".encode("latin-1")
UTF8_ERROR = "'utf-8' codec can't decode byte 0xe9"


def test_validate_domain_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.dom"
    path.write_bytes(NOT_UTF8)
    assert main(["validate-domain", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: ") and UTF8_ERROR in out


@pytest.mark.parametrize(
    "option,content,fragment",
    [
        ("plan --domain", NOT_UTF8, UTF8_ERROR),
        ("simulate --policy", None, "No such file or directory"),
        ("simulate --policy", NOT_UTF8, UTF8_ERROR),
    ],
    ids=["plan-not-utf8", "simulate-missing", "simulate-not-utf8"],
)
def test_a_file_the_cli_cannot_read_is_an_error(option, content, fragment, tmp_path, capsys):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    assert main([*option.split(), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_validate_domain_reports_placement_defects(tmp_path, capsys):
    from test_domfile import PLACEMENT_DEFECTS

    path = tmp_path / "bad-place.dom"
    for old, new, fragment in PLACEMENT_DEFECTS:
        path.write_text(COOKING_DOM.replace(old, new))
        assert main(["validate-domain", str(path)]) == 1, new
        out = capsys.readouterr().out
        assert out.startswith("INVALID: ") and fragment in out, out


def test_plan_scenario_b_prints_tell(capsys):
    code = main(["plan", "--domain", "cooking", "--mode", "new", "--start", "human"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=success" in out
    assert "tell(SaltInPot, true)" in out


def test_plan_text_prints_the_policy_graph(capsys):
    assert main(["plan", "--domain", "cooking", "--start", "human", "--text"]) == 0
    bundle = builtin_bundle("cooking").with_start("human")
    policy = plan(bundle.problem, bundle.obs_model)
    assert capsys.readouterr().out.endswith("tell(SaltInPot, true)\n" + to_text(policy))


def test_plan_reads_a_domain_file(tmp_path, capsys):
    # A path loads the file; its plan prints as the builtin's does.
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    assert main(["plan", "--domain", "cooking", "--text"]) == 0
    builtin = capsys.readouterr().out
    assert main(["plan", "--domain", str(path), "--text"]) == 0
    assert capsys.readouterr().out == builtin


def test_experiment_writes_the_recorded_study_csv(tmp_path, capsys):
    out_dir = tmp_path / "new" / "sub"  # made, parents and all, once the study has run
    assert main(["experiment", "--domain", "box", "--out-dir", str(out_dir)]) == 0
    csv_path = out_dir / "experiment-box-seed0.csv"
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == STUDY_CSV_SHA256["box"]
    out = capsys.readouterr().out
    assert out.startswith("domain ")
    assert out.endswith(f"instances=1024 csv={csv_path}\n")


def test_plan_export_simulate_round_trip(tmp_path, capsys):
    out_file = tmp_path / "policy.json"
    code = main(
        [
            "plan",
            "--domain",
            "cooking",
            "--mode",
            "new",
            "--start",
            "human",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["simulate", "--policy", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=success" in out


def test_simulate_with_divergent_truth(tmp_path, capsys):
    out_file = tmp_path / "policy.json"
    main(["plan", "--domain", "cooking", "--mode", "legacy", "--out", str(out_file)])
    capsys.readouterr()
    code = main(
        [
            "simulate",
            "--policy",
            str(out_file),
            "--set",
            "PastaLoc=Kitchen",
            "--believe",
            "PastaLoc=Room",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "outcome=na" in out or "outcome=idl" in out


def test_simulate_overrides_start_from_the_policy_beliefs(tmp_path, capsys):
    # The policy was planned with PastaLoc=Kitchen and the human believing
    # Room; overriding Stove (already off) must keep those beliefs, not fall
    # back to the embedded domain file's init.
    out_file = tmp_path / "policy.json"
    plan_args = ["--start", "human", "--set", "PastaLoc=Kitchen", "--believe", "PastaLoc=Room"]
    assert main(["plan", "--domain", "cooking", *plan_args, "--out", str(out_file)]) == 0
    capsys.readouterr()
    for extra in ([], ["--set", "Stove=off"], ["--believe", "PastaLoc=Room"]):
        code = main(["simulate", "--policy", str(out_file), *extra])
        out = capsys.readouterr().out
        assert code == 0, (extra, out)
        assert "outcome=success" in out


def test_export_writes_both_formats(tmp_path, capsys):
    base = tmp_path / "pol"
    code = main(
        ["export", "--domain", "box", "--mode", "new", "--out", str(base)]
    )
    assert code == 0
    json_text = (tmp_path / "pol.json").read_text()
    text = (tmp_path / "pol.txt").read_text()
    obj = json.loads(json_text)
    assert obj["format"] == "beliefhtn-policy"
    assert obj["mode"] == "new"
    assert text.startswith("policy mode=new")
    assert "n0" in text


ROUND_TRIP_CASES = [
    (domain, start, mode)
    for domain in ("cooking", "box")
    for start in ("robot", "human")
    for mode in ("new", "legacy")
] + [(f"box_dom-{boxes}", None, mode) for boxes in (2, 3, 4) for mode in ("new", "legacy")]


@pytest.mark.parametrize("domain,start,mode", ROUND_TRIP_CASES)
def test_policy_json_round_trip(domain, start, mode):
    # A reloaded policy re-derives every node's beliefs, so it prints and
    # replays exactly as the policy that was saved.
    from beliefhtn import builtin_bundle, parse_bundle, plan, simulate
    from beliefhtn.builtins import box_dom

    if start is None:
        bundle = parse_bundle(box_dom(boxes=int(domain.split("-")[1])))
    else:
        bundle = builtin_bundle(domain).with_start(start)
    policy = plan(bundle.problem, bundle.obs_model, mode)
    bundle2, policy2 = load_json(to_json(policy, bundle))
    assert to_text(policy2) == to_text(policy)
    assert simulate(policy2, bundle2.obs_model) == simulate(policy, bundle.obs_model)
    (_, planned), (_, reloaded) = _collect(policy), _collect(policy2)
    assert [n.done for n in reloaded] == [n.done for n in planned]


def test_a_saved_policy_keeps_its_start_agent():
    # The saved domain starts with the agent whose turn the root is, so the
    # loaded bundle plans the same policy again.
    bundle = builtin_bundle("cooking").with_start("human")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    loaded_bundle, loaded = load_json(to_json(policy, bundle))
    assert loaded_bundle.problem.start_agent == loaded_bundle.domfile.start == "human"
    again = plan(loaded_bundle.problem, loaded_bundle.obs_model, MODE_NEW)
    assert to_text(again) == to_text(loaded) == to_text(policy)


# `Mark` gives the human, and `Pick` the robot, two moves with one action,
# `h` or `p`, that leave different networks: `z(a)` or `z(b)` to do next.
MARKS_DOM = """\
beliefhtn-domain 1
domain marks
group Places Here
group Agents bot person
group Marks a b
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
operator p for bot
end
operator h for person
end
operator z for person
  param ?m Marks
end
method m-mark for person
  task Mark
  var ?m Marks
  sub x h
  sub y z(?m)
  order x < y
end
method m-pick for bot
  task Pick
  var ?m Marks
  sub x p
  sub y z(?m)
  order x < y
end
root t {root}
init AgtAt(bot) = Here
init AgtAt(person) = Here
start {start}
"""


@pytest.mark.parametrize(
    "root,start,first", [("Mark", "person", ["h", "h"]), ("Pick", "bot", ["p"])]
)
@pytest.mark.parametrize("mode", ["new", "legacy"])
def test_policy_json_round_trip_with_moves_that_share_an_action(root, start, first, mode):
    # After two moves with one action, the next human node answers the
    # network its own path left, not the other one.
    from beliefhtn import parse_bundle, plan, simulate

    bundle = parse_bundle(MARKS_DOM.format(root=root, start=start))
    policy = plan(bundle.problem, bundle.obs_model, mode)
    bundle2, policy2 = load_json(to_json(policy, bundle))
    assert [str(edge.action) for edge in policy.root.edges] == first
    assert to_text(policy2) == to_text(policy)
    assert simulate(policy2, bundle2.obs_model) == simulate(policy, bundle.obs_model)


def _set(path, value):
    """An edit of a saved policy object: set the item at ``path``."""

    def edit(obj):
        *head, last = path
        for key in head:
            obj = obj[key]
        obj[last] = value

    return edit


def _drop(key):
    """An edit of a saved policy object: remove the field ``key``."""

    def edit(obj):
        del obj[key]

    return edit


def _swap_agents(obj):
    obj["robot"], obj["human"] = obj["human"], obj["robot"]


def _start_human(obj):
    """Make the embedded domain start with the human; the saved plan's root
    is still the robot's turn."""
    assert "\nstart robot\n" in obj["domain_text"]
    obj["domain_text"] = obj["domain_text"].replace("\nstart robot\n", "\nstart human\n")


def _fly(obj):
    obj["nodes"][1]["edges"][0]["action"].update(name="fly", args=[])


def _extra_wait(obj):
    """Give the first human node a second edge, a WAIT into the success leaf
    that its first edge's path reaches with other beliefs."""
    nodes, human = obj["nodes"], obj["human"]
    leaf = next(node for node in nodes if node["kind"] == "success")
    node = next(node for node in nodes if node["turn"] == human and node["edges"])
    wait = {"name": "WAIT", "agent": human, "args": [], "kind": "wait"}
    node["edges"].append({"action": wait, "comms": [], "child": leaf["id"]})


def _merge_paths(obj):
    """The box default plan, with the second edge of its first human node
    with two edges led into its first edge's child, which the first edge
    reaches with other beliefs: each edge is still one of the human's moves."""
    bundle = builtin_bundle("box")
    obj = json.loads(to_json(plan(bundle.problem, bundle.obs_model), bundle))
    node = next(n for n in obj["nodes"] if n["turn"] == obj["human"] and len(n["edges"]) >= 2)
    node["edges"][1]["child"] = node["edges"][0]["child"]
    return obj


def _tells(obj):
    """The tells of the first edge that communicates."""
    return next(e["comms"] for node in obj["nodes"] for e in node["edges"] if e["comms"])


def _tell_value(obj):
    _tells(obj)[0]["value"] = "purple"


def _tell_false(obj):
    """Add a tell of a value the robot does not hold, on an edge whose step
    lets the human observe the attribute."""
    node = next(node for node in obj["nodes"] if node["id"] == 1)
    node["edges"][0]["comms"].append({"attr": "PastaLoc", "value": "Kitchen"})


def _tell_twice(obj):
    tells = _tells(obj)
    tells.append(dict(tells[0]))


def _list_twice(obj):
    obj["nodes"].append(dict(obj["nodes"][-1]))


def _idle_to_wait(obj):
    """Make the robot's first IDLE a WAIT, which leaves every belief as it is
    but is not the robot's move there."""
    edge = next(
        e for node in obj["nodes"] if node["turn"] == obj["robot"]
        for e in node["edges"] if e["action"]["kind"] == "idle"
    )
    edge["action"].update(name="WAIT", kind="wait")


def _mixed_tells(obj):
    """Give the first communicating edge a twin without its tells, into a new
    success leaf with the beliefs the twin's step derives."""
    bundle, policy = load_json(json.dumps(obj))
    ids, order = _collect(policy)
    node = next(n for n in order if n.comms)
    edge = node.edges[0]
    world, human = _step(
        policy.mode, bundle.obs_model, policy.robot, policy.human, node.world,
        node.human_belief, edge.action, node.turn,
    )
    leaf = len(obj["nodes"])
    obj["nodes"].append(
        {"id": leaf, "turn": node.turn, "kind": "success", "done": True,
         "world": f"#{_digest(world)}", "belief": f"#{_digest(human)}", "edges": []}
    )
    spec = next(spec for spec in obj["nodes"] if spec["id"] == ids[id(node)])
    twin = next(e for e in spec["edges"] if e["comms"])
    spec["edges"].append(dict(twin, comms=[], child=leaf))


def _tell_every_divergence(world, human_belief, human_ops):
    attributes = world.universe.attributes
    divergent = diverging_attributes(world, human_belief)
    return tuple(CommAction(attributes[i], world.values[i]) for i in divergent)


def _planned_with(index, rule):
    """An edit that returns a whole file: cooking study instance ``index``
    planned in the new mode with ``rule`` in place of ``min_comm_bfs``, on a
    bundle of its own, so no other plan reads the states it solves."""

    def edit(obj):
        bundle = builtin_bundle("cooking")
        inst = generate_initial_states(bundle, DEFAULT_SPECS["cooking"])[index]
        problem = replace(bundle.problem, world=inst.world, human_belief=inst.human)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "min_comm_bfs", rule)
            policy = plan(problem, bundle.obs_model, MODE_NEW)
        return json.loads(to_json(policy, bundle))

    return edit


def _legacy_tell(obj):
    """Cooking study instance 1 planned in the legacy mode, with a tell of the
    robot's first diverging value on the root's one edge.  The beliefs after
    it are re-derived the loader's way, so that only the tell rule can
    reject the file."""
    bundle = builtin_bundle("cooking")
    inst = generate_initial_states(bundle, DEFAULT_SPECS["cooking"])[1]
    problem = replace(bundle.problem, world=inst.world, human_belief=inst.human)
    policy = plan(problem, bundle.obs_model, MODE_LEGACY)
    root = policy.root
    i = diverging_attributes(root.world, root.human_belief)[0]
    tell = CommAction(root.world.universe.attributes[i], root.world.values[i])
    built = {}

    def rebuild(node, world, human):
        key = (id(node), world.values, human.values)
        if key not in built:
            comms = (tell,) if node is root else node.comms
            edges = []
            for edge in node.edges:
                w2, h2 = _step(
                    policy.mode, bundle.obs_model, policy.robot, policy.human, world,
                    apply_comm_plan(comms, human), edge.action, node.turn,
                )
                edges.append(PolicyEdge(edge.action, rebuild(edge.child, w2, h2)))
            built[key] = PolicyNode(world, human, node.done, node.turn, comms, tuple(edges))
        return built[key]

    spliced = replace(policy, root=rebuild(root, root.world, root.human_belief))
    return json.loads(to_json(spliced, bundle))


def _legacy(change):
    """An edit that returns a whole file: the cooking default problem planned
    in the legacy mode, with the edit ``change`` made."""

    def edit(obj):
        bundle = builtin_bundle("cooking")
        obj = json.loads(to_json(plan(bundle.problem, bundle.obs_model, MODE_LEGACY), bundle))
        change(obj)
        return obj

    return edit


def _idle_renamed(obj):
    """Give the first IDLE edge an operator's name and an argument."""
    edge = next(e for node in obj["nodes"] for e in node["edges"] if e["action"]["kind"] == "idle")
    edge["action"].update(name="add-salt", args=["x"])


_EARLY_LEAF = "node 0: work is left, so it ends its branch exactly after 4 WAIT/IDLE turns"


# Each edit changes the saved object in place, or returns the whole file.
POLICY_EDITS = {
    # The mode selects the step that re-derives each node's beliefs.
    "mode": (_set(["mode"], "optimistic"), "unknown solver mode 'optimistic'"),
    "done": (_set(["nodes", 0, "done"], "no"), "bad turn/done"),
    # A node's kind is the one its edges and done give.
    "kind": (_set(["nodes", 0, "kind"], "finished"), "node 0: kind 'finished', not 'decision'"),
    "kind-deadlock": (_set(["nodes", 0, "kind"], "deadlock"), "node 0: kind 'deadlock', not"),
    "child": (_set(["nodes", 0, "edges", 0, "child"], 99), "names no node 99"),
    "action": (_fly, r"regular action fly\(\) is not an operator of 'human'"),
    "nodes": (_drop("nodes"), "lacks the field 'nodes'"),
    "agents": (_swap_agents, "are not the domain's agents"),
    # The root's turn is the domain's start.
    "start": (_start_human, "node 0: bad turn/done 'robot'/False"),
    "cycle": (_set(["nodes", 1, "edges", 0, "child"], 0), "node 0: an edge leads back to it"),
    "beliefs": (_merge_paths, r"node \d+: reached with two different beliefs"),
    # The walk checks each node's edges before it enters their children.
    "human-extra": (_extra_wait, r"node \d+: the edges are not the human's moves"),
    "list": (lambda obj: [], "not a beliefhtn policy file"),
    "nodes-type": (_set(["nodes"], 5), "the field 'nodes' has the wrong type"),
    "root-type": (_set(["root"], [0]), "the field 'root' has the wrong type"),
    "action-type": (
        _set(["nodes", 0, "edges", 0, "action"], "grab"), "the field 'action' has the wrong type"
    ),
    "tell-value": (_tell_value, "'purple' is not in the value domain of SaltInPot"),
    # Each node's tells are the ones min_comm_bfs picks, none at a done node
    # or in the legacy mode.
    "tell-twice": (
        _tell_twice,
        r"node \d+: \S+ carries the tells \[tell\(SaltInPot, true\); tell\(SaltInPot, true\)\], "
        r"not the search's \[tell\(SaltInPot, true\)\]",
    ),
    "tell-false": (
        _tell_false,
        r"node 1: add-salt carries the tells \[tell\(PastaLoc, Kitchen\)\], not the search's \[\]",
    ),
    "tell-extra": (
        _planned_with(34, _tell_every_divergence),
        r"node 0: add-salt carries the tells \[tell\(SaltInPot, false\)\], not the search's \[\]",
    ),
    "tell-missing": (
        _planned_with(51, lambda world, human_belief, human_ops: ()),
        r"node 0: add-salt carries the tells \[\], not the search's \[tell\(SaltInPot, false\)\]",
    ),
    "legacy-tell": (
        _legacy_tell,
        r"node 0: add-salt carries the tells \[tell\(Stove, off\)\], not the search's \[\]",
    ),
    "tells-mixed": (
        _mixed_tells,
        r"node \d+: \S+ carries the tells \[\], not the search's \[tell\(SaltInPot, true\)\]",
    ),
    "id-twice": (_list_twice, r"node \d+ is listed twice"),
    "digest": (_set(["nodes", 0, "world"], "#00000000"), "node 0: digests do not match"),
    "args-type": (
        _set(["nodes", 0, "edges", 0, "action", "args"], [1]), "its arguments must be strings"
    ),
    # A policy the search could not have built: each edge is one of the
    # agent's moves, and the robot takes one.
    "non-move": (_idle_to_wait, r"node \d+: WAIT is not a move of 'robot'"),
    "robot-twice": (
        lambda obj: obj["nodes"][0]["edges"].append(dict(obj["nodes"][0]["edges"][0])),
        "node 0: the robot takes more than one move",
    ),
    # Replay counts a branch that reaches a success leaf as a success, and
    # does not end a done node's WAIT/IDLE run: neither may come early.
    "success-early": (
        lambda obj: obj["nodes"][2].update(kind="success", done=True, edges=[]),
        "node 2: done while work is left",
    ),
    "done-early": (_set(["nodes", 1, "done"], True), "node 1: done while work is left"),
    # Node 8 takes the first of the closing IDLE turns: its work is done.
    "done-late": (_set(["nodes", 8, "done"], False), "node 8: not done, but no work is left"),
    "done-late-legacy": (
        _legacy(_set(["nodes", 8, "done"], False)), "node 8: not done, but no work is left"
    ),
    # Every listed node lies on some path, and a WAIT/IDLE action is named
    # WAIT/IDLE and takes no arguments.
    "unreached": (
        lambda obj: obj["nodes"].append(dict(obj["nodes"][-1], id=999)),
        "node 999: no edge reaches it",
    ),
    "idle-name": (_idle_renamed, r"idle action add-salt\('x',\) is not an operator of 'robot'"),
    # A node with work left ends its branch only where the search ends one:
    # after STALL_THRESHOLD WAIT/IDLE turns, in the legacy mode.
    "leaf-new": (lambda obj: obj["nodes"][0].update(kind="deadlock", edges=[]), _EARLY_LEAF),
    "leaf-legacy": (
        _legacy(lambda obj: obj["nodes"][0].update(kind="deadlock", edges=[])), _EARLY_LEAF
    ),
    "leaf-decision": (_set(["nodes", 0, "edges"], []), _EARLY_LEAF),
}
# The edits of a tell need a policy that communicates: cooking, the human first.
COMMUNICATING = {"tell-value", "tell-twice", "tell-false", "tells-mixed"}


@pytest.mark.parametrize("edit", sorted(POLICY_EDITS))
def test_policy_load_rejects_unknown_mode(edit, cooking, tmp_path, capsys):
    # Each edit of a saved policy is a file error: load_json raises
    # DomainSyntaxError, and `simulate` reports it and exits 2.
    from beliefhtn import plan
    from beliefhtn.errors import DomainSyntaxError

    change, message = POLICY_EDITS[edit]
    bundle = cooking.with_start("human") if edit in COMMUNICATING else cooking
    obj = json.loads(to_json(plan(bundle.problem, bundle.obs_model), bundle))
    whole = change(obj)
    text = json.dumps(obj if whole is None else whole)
    with pytest.raises(DomainSyntaxError, match=message):
        load_json(text)
    path = tmp_path / "policy.json"
    path.write_text(text)
    assert main(["simulate", "--policy", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_new_mode_file_does_not_end_a_branch_on_a_stall():
    # The legacy plan idles into a deadlock leaf, node 4, after
    # STALL_THRESHOLD turns.  Its beliefs never diverge, so the same file
    # marked new re-derives the same beliefs and tells, and only the leaf
    # rule rejects it: the new-mode search fails where the run ends.
    bundle = parse_bundle(STUCK_DOM)
    obj = json.loads(to_json(plan(bundle.problem, bundle.obs_model, MODE_LEGACY), bundle))
    load_json(json.dumps(obj))
    obj["mode"] = MODE_NEW
    with pytest.raises(DomainSyntaxError, match="node 4: work is left, so it ends its branch"):
        load_json(json.dumps(obj))


# The human finishes the work alone (h0), or starts it (h1) for the robot
# to finish (r0).  No move writes a belief, and the agents then idle once
# each into a success leaf.
TWO_WAYS_DOM = """\
beliefhtn-domain 1
domain twoways
group Places P1
group Agents bot person
agents bot person
svar AgtAt (?a Agents) -> Places : obs
place AgtAt(?a) value-of AgtAt(?a)
operator r0 for bot
end
operator h0 for person
end
operator h1 for person
end
method m0 for both
  task T0
  sub s0 h0
end
method m1 for both
  task T0
  sub s0 h1
  sub s1 r0
  order s0 < s1
end
root t0 T0
init AgtAt(bot) = P1
init AgtAt(person) = P1
start person
"""


def _two_ways():
    """The saved plan of TWO_WAYS_DOM: h0 leads to node 1, whose IDLE turns
    reach the success leaf, node 3, after a run of two; h1 and r0 lead to
    node 5, whose IDLE turns reach node 7."""
    bundle = parse_bundle(TWO_WAYS_DOM)
    obj = json.loads(to_json(plan(bundle.problem, bundle.obs_model), bundle))
    assert [[e["child"] for e in node["edges"]] for node in obj["nodes"]] == [
        [1, 4], [2], [3], [], [5], [6], [7], []
    ]
    return obj


def test_a_loaded_node_has_one_stall_run():
    # Node 5's IDLE, led into node 3, reaches it with the beliefs the other
    # branch reaches it with, and on the human's move, but after a run of one.
    obj = _two_ways()
    load_json(json.dumps(obj))
    obj["nodes"][5]["edges"][0]["child"] = 3
    with pytest.raises(DomainSyntaxError, match="node 3: reached with two different beliefs or"):
        load_json(json.dumps(obj))


def test_a_loaded_policy_alternates_turns():
    # Node 2, the human's closing IDLE after h0, given to the robot with the
    # robot's IDLE: that is the robot's move on an empty agenda, and no belief
    # changes, but the robot took the turn before it.
    obj = _two_ways()
    node = obj["nodes"][2]
    node["turn"] = node["edges"][0]["action"]["agent"] = "bot"
    with pytest.raises(DomainSyntaxError, match="node 2: bad turn/done 'bot'/True"):
        load_json(json.dumps(obj))


def test_policy_load_rejects_text_that_is_not_json():
    with pytest.raises(DomainSyntaxError, match="policy file is not JSON"):
        load_json('{"format": "beliefhtn-policy",')


@pytest.mark.parametrize(
    "option, message",
    [
        (["--modes", "neww"], "unknown solver mode 'neww'"),
        (["--depth", "0"], "depth bound must be a positive int, got 0"),
    ],
)
def test_a_rejected_experiment_makes_no_directory(option, message, tmp_path, capsys):
    out_dir = tmp_path / "new" / "sub"
    argv = ["experiment", "--domain", "cooking", *option, "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_experiment_rejects_unknown_mode(tmp_path, capsys):
    argv = ["experiment", "--domain", "cooking", "--modes", "neww", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unknown solver mode 'neww'\n"


def test_experiment_rejects_a_repeated_mode(tmp_path, capsys):
    argv = ["experiment", "--domain", "cooking", "--modes", "new,new", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: solver mode 'new' is given twice\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["plan", "export"])
def test_plan_rejects_a_depth_bound_below_one(command, tmp_path, capsys):
    argv = [command, "--domain", "cooking", "--depth", "-3", "--out", str(tmp_path / "p")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: depth bound must be a positive int, got -3\n"
    assert not list(tmp_path.iterdir())


def test_experiment_rejects_a_depth_bound_of_zero(tmp_path, capsys):
    argv = ["experiment", "--domain", "cooking", "--depth", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: depth bound must be a positive int, got 0\n"
    assert not list(tmp_path.iterdir())


def test_plan_rejects_unknown_domain(capsys):
    code = main(["plan", "--domain", "garden", "--mode", "new"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_assignment_syntax(capsys):
    code = main(["plan", "--domain", "cooking", "--set", "PastaLoc"])
    assert code == 2


def test_validate_domain_reports_the_hierarchy(tmp_path, capsys):
    from test_search_cache import RECURSIVE_DOM

    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    assert main(["validate-domain", str(path)]) == 0
    assert (
        "hierarchy: acyclic, at most 6 primitives from the root; plans search to depth 28 "
        "and share the bundle's state table"
    ) in capsys.readouterr().out
    path.write_text(BOX_DOM)
    assert main(["validate-domain", str(path)]) == 0
    assert (
        "hierarchy: acyclic, at most 16 primitives from the root; plans search to depth 68 "
        "and share the bundle's state table"
    ) in capsys.readouterr().out
    path.write_text(RECURSIVE_DOM)
    assert main(["validate-domain", str(path)]) == 0
    assert (
        "hierarchy: recursive; plans search to depth 64, each with a table of its own"
    ) in capsys.readouterr().out
