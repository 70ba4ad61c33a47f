"""Tests of the benchmark harness itself, on tiny inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from harness import count_mismatches, load_golden, percentile, study_summary  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import ladder_fields  # noqa: E402

from beliefhtn import parse, plan, simulate  # noqa: E402
from beliefhtn import htn, planner  # noqa: E402
from beliefhtn.builtins import box_dom  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7], which holds leaf [2, 5]; then a
    # second leaf [8, 9] directly under outer.
    t = Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    leaf = t.wrap("leaf", lambda: None)
    mid = t.wrap("mid", lambda: leaf())

    def body():
        mid()
        leaf()

    t.wrap("outer", body)()
    assert t.calls("leaf") == 2 and t.self_s("leaf") == 3 + 1
    assert t.self_s("mid") == 6 - 3
    assert t.self_s("outer") == 10 - 6 - 1
    assert t.top_level_s == 10
    assert sum(t.self_s(n) for n in ("outer", "mid", "leaf")) == t.top_level_s


def test_span_closes_when_the_call_raises():
    t = Tracer(clock=FakeClock([0, 1, 3, 4]))

    def boom():
        raise ValueError

    inner = t.wrap("inner", boom)

    def outer():
        try:
            inner()
        except ValueError:
            pass

    t.wrap("outer", outer)()
    assert t.calls("inner") == 1 and t.self_s("inner") == 2
    assert t.self_s("outer") == 2


def test_percentile_nearest_rank_and_samples_beyond():
    xs = list(range(1, 1025))
    p99 = percentile(xs, 99)
    assert p99 == {"value": 1014, "n": 1024, "beyond": 10, "resolved": True}
    # 0.99 * 1000 is not exactly 990 in floating point; the rank must be.
    assert percentile(list(range(1, 1001)), 99)["value"] == 990
    assert percentile(xs, 50)["value"] == 512


def test_percentile_with_fewer_than_ten_samples_beyond():
    p99 = percentile([5.0, 1.0, 4.0, 2.0, 3.0], 99)
    assert p99 == {"value": 5.0, "n": 5, "beyond": 0, "resolved": False}
    p50 = percentile([5.0, 1.0, 4.0, 2.0, 3.0], 50)
    assert p50["value"] == 3.0 and not p50["resolved"]


def test_patching_reaches_every_lookup_site_and_counts_agree():
    bundle = parse(box_dom(boxes=2)).build()
    original = htn.applicable
    t = Tracer()
    t.patch_function("htn.applicable", htn, "applicable", "beliefhtn")
    t.patch_function(
        "engine.step_belief_protocol", planner, "step_belief_protocol", "beliefhtn"
    )
    t.patch_method("planner.choices", planner._Search, "_choices", len)
    try:
        assert planner.applicable is htn.applicable is not original
        policy = planner.plan(bundle.problem, bundle.obs_model, "new")
    finally:
        t.unpatch()
    assert planner.applicable is htn.applicable is original
    assert "_choices" in planner._Search.__dict__
    assert policy.nodes_expanded == 25
    assert t.calls("engine.step_belief_protocol") == policy.nodes_expanded - 1
    assert t.calls("htn.applicable") > 0 and t.measured("planner.choices") > 0


def test_renamed_target_is_recorded_missing_not_fatal():
    t = Tracer()
    t.patch_method("planner.choices", planner._Search, "_no_such_method")
    t.patch_function("x.gone", htn, "no_such_function", "beliefhtn")
    assert t.missing == ["planner.choices", "x.gone"]


def test_altered_or_missing_golden_row_counts_as_failure():
    golden = load_golden("ladder-box")
    bundle = parse(box_dom(boxes=2)).build()
    policy = plan(bundle.problem, bundle.obs_model, "new")
    rows = [["boxes=2", ladder_fields(policy, simulate(policy, bundle.obs_model))]]
    subset = {"boxes=2": golden["boxes=2"]}
    assert count_mismatches(rows, subset) == 0
    altered = {"boxes=2": dict(golden["boxes=2"], n_traces="4")}
    assert count_mismatches(rows, altered) == 1
    assert count_mismatches([["boxes=2", {"error": "ValueError: x"}]], subset) == 1
    assert count_mismatches(rows, golden) == len(golden) - 1


def test_golden_references_match_the_published_tables():
    readme = (BENCH.parent / "README.md").read_text(encoding="utf-8").splitlines()
    for domain in ("cooking", "box"):
        rows = study_summary(f"study-{domain}", domain).splitlines()[2:]
        assert rows == [line for line in readme if line.startswith(f"{domain} ")]
        assert len(load_golden(f"study-{domain}")) == 1024
    # Nodes expanded per rung, as in the ROADMAP box-ladder table.
    ladder = load_golden("ladder-box")
    nodes = {k: int(v["nodes_expanded"]) for k, v in ladder.items()}
    assert nodes == {"boxes=2": 25, "boxes=3": 44, "boxes=4": 107, "boxes=5": 280, "boxes=6": 827}


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder-box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
