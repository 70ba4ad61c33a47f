from __future__ import annotations

import json

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


def test_policy_json_round_trip(cooking):
    from beliefhtn import MODE_NEW, plan, simulate

    bundle = cooking.with_start("human")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    blob = to_json(policy, bundle)
    bundle2, policy2 = load_json(blob)
    report = simulate(policy2, bundle2.obs_model)
    assert report.outcome == "success"
    assert to_text(policy2).count("tell(SaltInPot, true)") == to_text(policy).count(
        "tell(SaltInPot, true)"
    )


def test_plan_rejects_unknown_domain(capsys):
    code = main(["plan", "--domain", "garden", "--mode", "new"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_assignment_syntax(capsys):
    code = main(["plan", "--domain", "cooking", "--set", "PastaLoc"])
    assert code == 2
