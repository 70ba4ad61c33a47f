from __future__ import annotations

import json

import pytest

from beliefhtn import COOKING_DOM
from beliefhtn.cli import main
from beliefhtn.policyio import load_json, to_json, to_text


def test_validate_domain_ok(tmp_path, capsys):
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    assert main(["validate-domain", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "6 attribute templates" in out
    assert "7 grounded attributes" in out


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


def test_plan_scenario_b_prints_tell(capsys):
    code = main(["plan", "--domain", "cooking", "--mode", "new", "--start", "human"])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=success" in out
    assert "tell(SaltInPot, true)" in out


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


def test_policy_load_rejects_unknown_mode(cooking):
    # The mode selects the step that re-derives each node's beliefs.
    from beliefhtn import plan
    from beliefhtn.errors import DomainSyntaxError

    obj = json.loads(to_json(plan(cooking.problem, cooking.obs_model), cooking))
    obj["mode"] = "optimistic"
    with pytest.raises(DomainSyntaxError, match="unknown solver mode"):
        load_json(json.dumps(obj))


def test_plan_rejects_unknown_domain(capsys):
    code = main(["plan", "--domain", "garden", "--mode", "new"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_assignment_syntax(capsys):
    code = main(["plan", "--domain", "cooking", "--set", "PastaLoc"])
    assert code == 2
