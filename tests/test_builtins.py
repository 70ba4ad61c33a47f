from __future__ import annotations

import pytest

from beliefhtn import MODE_LEGACY, MODE_NEW, ObsClass, builtin_bundle, plan, simulate
from beliefhtn.builtins import box_dom
from beliefhtn.errors import BadArgument, UnknownDomain


def test_cooking_shape(cooking):
    dom = cooking.domfile
    assert dom.name == "cooking"
    assert (dom.robot, dom.human) == ("robot", "human")
    assert len(dom.svars) == 6  # attribute templates
    classes = {sv.symbol: sv.obs for sv in dom.svars}
    assert classes["SaltInPot"] is ObsClass.INF
    assert all(
        cls is ObsClass.OBS for sym, cls in classes.items() if sym != "SaltInPot"
    )


def test_cooking_grounded_attribute_count(cooking):
    # Hand count: AgtAt x2 agents + PastaLoc + SaltInPot + Stove +
    # HumanHasPasta + PastaInPot = 7.
    assert len(cooking.universe) == 7


def test_box_shape(box):
    dom = box.domfile
    assert box.universe.groups["Boxes"].members == ("box1", "box2", "box3")
    classes = {sv.symbol: sv.obs for sv in dom.svars}
    assert classes["BallsInBox"] is ObsClass.INF
    assert classes["Sticker"] is ObsClass.OBS
    assert classes["Sent"] is ObsClass.OBS
    assert classes["BucketBalls"] is ObsClass.OBS


def test_box_initial_state(box):
    u = box.universe
    world = box.problem.world
    for name in ("box1", "box2", "box3"):
        assert world.get(u.attr("BallsInBox", name)) == 0
        assert world.get(u.attr("Sticker", name)) == "false"
        assert world.get(u.attr("Sent", name)) == "false"
    assert world.get(u.attr("BucketBalls")) == 5


def test_unknown_builtin():
    with pytest.raises(UnknownDomain):
        builtin_bundle("garden")


def test_box_knobs_change_text():
    text = box_dom(boxes=2)
    assert "group Boxes box1 box2" in text


@pytest.mark.parametrize("boxes", [0, -1])
def test_box_dom_needs_a_box(boxes):
    with pytest.raises(BadArgument, match="at least one box"):
        box_dom(boxes)


@pytest.mark.parametrize("name", ["cooking", "box"])
@pytest.mark.parametrize("mode", [MODE_NEW, MODE_LEGACY])
def test_builtins_plan_end_to_end(name, mode):
    bundle = builtin_bundle(name)
    policy = plan(bundle.problem, bundle.obs_model, mode)
    report = simulate(policy, bundle.obs_model)
    assert report.outcome == "success"
    assert report.n_traces >= 1
