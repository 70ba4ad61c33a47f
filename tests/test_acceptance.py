"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the regenerated study table.  The criteria on the study read
the session's one run of it (``studies`` in ``tests/conftest.py``), which
plans both built-in domains over all 512 generated initial states in both
solver modes.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from beliefhtn import (
    MODE_LEGACY,
    MODE_NEW,
    BeliefState,
    ObsClass,
    builtin_bundle,
    enumerate_traces,
    is_relevant_divergence,
    min_comm_bfs,
    plan,
    simulate,
)
from beliefhtn.communication import apply_comm_plan
from beliefhtn.engine import step_belief_protocol
from beliefhtn.htn import applicable, apply_effects, wait_op
from beliefhtn.planner import STALL_THRESHOLD, NodeKind, policy_comm_edges

from oracles import _subset_minimum, detect_deadlock, place_of

DOMAINS = ("cooking", "box")

# SHA-256 of each domain's `beliefhtn experiment` CSV (default config), as
# recorded before belief access moved to dense attribute indices.  A change
# here is a behaviour change of the study and must be justified as such, not
# absorbed by re-recording.
STUDY_CSV_SHA256 = {
    "cooking": "d65fc7463275968e5183da0e32a76598352783a140bf028a0ecd5683a070aa64",
    "box": "02b5dca8a9e1e01efe80b02c84c76ca6ce3e1b7dfb121df78f4e500b4c6f1c61",
}


@pytest.fixture(scope="module")
def study(studies):
    """Both domains, both modes, all 512 initial states each; timed: the
    session's one run of each study (tests/conftest.py)."""
    return studies.runs


def test_study_csvs_byte_identical(study):
    """Both domains' experiment CSVs are byte for byte the recorded ones."""
    for domain in DOMAINS:
        digest = hashlib.sha256(study[domain].csv.encode("utf-8")).hexdigest()
        assert digest == STUDY_CSV_SHA256[domain], domain


def _row(study, domain, mode):
    return study[domain].table.row(domain, mode)


def test_criterion_1_new_solver_full_success(study):
    """New solver: S = 100% (exact) on all 512 states in both domains."""
    total_seconds = sum(study[d].seconds for d in DOMAINS)
    for domain in DOMAINS:
        row = _row(study, domain, MODE_NEW)
        assert row.n == 512
        assert row.n_success == 512, f"{domain}: {row.n_success}/512"
        assert row.success_rate == 100.0
    assert total_seconds < 120.0, f"study took {total_seconds:.1f}s"
    print(
        f"ACCEPTANCE 1: PASS - new solver S=100% on 512 states x 2 domains "
        f"({total_seconds:.1f}s total, both modes included)"
    )


def test_criterion_2_legacy_aligned_legal_plans(study):
    """Every aligned initial state yields a legal legacy plan (exact).

    Legal means the solver returns a policy containing no deadlock leaf and
    no run of ``STALL_THRESHOLD`` consecutive WAIT/IDLE turns: the old
    solver "always finds a legal plan" on aligned beliefs.  Execution of those plans can
    still fail through divergence emerging mid-run (in cooking the human
    may start in the Room and miss the inferrable add-salt); that is the
    paper's own "sometimes, this causes problems in practice" caveat, so
    execution success is reported but not required here.
    """
    exec_ok = {}
    for domain in DOMAINS:
        aligned = [
            r.instance
            for r in study[domain].results
            if r.mode == MODE_LEGACY and r.instance.aligned
        ]
        assert len(aligned) == 64
        for inst in aligned:
            _, policy = study[domain].plans[(MODE_LEGACY, inst.index)]
            assert _policy_is_legal(policy), f"{domain} instance {inst.index}"
        exec_ok[domain] = sum(
            1
            for r in study[domain].results
            if r.mode == MODE_LEGACY and r.instance.aligned and r.outcome == "success"
        )
    print(
        "ACCEPTANCE 2: PASS - legacy finds a legal plan on 64/64 aligned states "
        f"per domain (execution success: cooking {exec_ok['cooking']}/64, "
        f"box {exec_ok['box']}/64)"
    )


def _policy_is_legal(policy) -> bool:
    seen = set()

    def visit(node, run) -> bool:
        if id(node) in seen:
            return True
        seen.add(id(node))
        if node.kind is NodeKind.DEADLOCK:
            return False
        for edge in node.edges:
            new_run = run + 1 if edge.action.is_pseudo else 0
            if not node.done and new_run >= STALL_THRESHOLD:
                return False
            if not visit(edge.child, new_run):
                return False
        return True

    return visit(policy.root, 0)


def test_criterion_3_legacy_failure_taxonomy(study):
    """NA + IDL = 100% of failures; S in (12.5, 40); NA the majority."""
    for domain in DOMAINS:
        row = _row(study, domain, MODE_LEGACY)
        assert row.n_error == 0
        failed = row.n - row.n_success
        assert row.n_na + row.n_idl == failed  # exact identity
        assert 12.5 < row.success_rate < 40.0, f"{domain}: S={row.success_rate:.1f}%"
        assert row.n_na > failed / 2, (
            f"{domain}: NA {row.n_na}/{failed} is not the majority failure mode"
        )
    cooking, box = (_row(study, d, MODE_LEGACY) for d in DOMAINS)
    print(
        "ACCEPTANCE 3: PASS - legacy NA+IDL=100% of failures; "
        f"S cooking={cooking.success_rate:.1f}% box={box.success_rate:.1f}%; "
        f"NA share cooking={cooking.na_rate:.1f}% box={box.na_rate:.1f}%"
    )


def test_criterion_4_communication_economy(study):
    """New-solver Com strictly within (0, 100); target band 40-80."""
    rates = {}
    for domain in DOMAINS:
        row = _row(study, domain, MODE_NEW)
        assert 0.0 < row.com_rate < 100.0
        assert 40.0 <= row.com_rate <= 80.0, f"{domain}: Com={row.com_rate:.1f}%"
        rates[domain] = row.com_rate
    print(
        "ACCEPTANCE 4: PASS - Com cooking="
        f"{rates['cooking']:.1f}% box={rates['box']:.1f}% (band 40-80)"
    )


def test_criterion_5_scenario_golden():
    """Fig.-2-style scenarios reproduce structurally."""
    base = builtin_bundle("cooking")

    # (A) robot starts, aligned, co-present: no communication and the two
    # modes produce equivalent action sequences.
    new_pol = plan(base.problem, base.obs_model, MODE_NEW)
    leg_pol = plan(base.problem, base.obs_model, MODE_LEGACY)
    new_rep = simulate(new_pol, base.obs_model)
    leg_rep = simulate(leg_pol, base.obs_model)
    assert new_rep.outcome == "success" and leg_rep.outcome == "success"
    assert policy_comm_edges(new_pol) == []
    new_traces = enumerate_traces(new_pol, base.obs_model)
    leg_traces = enumerate_traces(leg_pol, base.obs_model)
    assert sorted(tuple(map(str, t.actions)) for t in new_traces) == sorted(
        tuple(map(str, t.actions)) for t in leg_traces
    )

    # (B) human starts with the fetch trip: exactly one tell(SaltInPot,true),
    # and the stove is corrected by assessment alone.
    b = base.with_start("human")
    b_pol = plan(b.problem, b.obs_model, MODE_NEW)
    b_rep = simulate(b_pol, b.obs_model)
    assert b_rep.outcome == "success"
    tells = [str(ca) for node, _ in policy_comm_edges(b_pol) for ca in node.comms]
    assert tells == ["tell(SaltInPot, true)"]
    (b_trace,) = enumerate_traces(b_pol, b.obs_model)
    acts = [str(a) for a in b_trace.actions]
    assert acts[0] == "move-to-pasta(Kitchen, Room)"
    assert "pour-pasta" in acts
    assert not any("Stove" in t for t in tells)

    # (C) stale pasta-location belief: assessment repairs it, zero
    # communication, success; the legacy policy simulates to NA.
    c = (
        base.with_world({"PastaLoc": "Kitchen"})
        .with_human_belief({"PastaLoc": "Room"})
        .with_start("human")
    )
    c_pol = plan(c.problem, c.obs_model, MODE_NEW)
    c_rep = simulate(c_pol, c.obs_model)
    assert c_rep.outcome == "success"
    assert policy_comm_edges(c_pol) == []
    c_leg = plan(c.problem, c.obs_model, MODE_LEGACY)
    assert simulate(c_leg, c.obs_model).outcome == "na"

    print(
        "ACCEPTANCE 5: PASS - scenarios: (A) comm-free & mode-equivalent, "
        "(B) single tell(SaltInPot,true) with stove assessed, "
        "(C) zero comms + legacy NA"
    )


def _human_ops(bundle):
    return tuple(bundle.problem.domains[bundle.problem.human].ground_ops.values())


def test_criterion_6_minimal_communication_oracle():
    """200 random pairs per domain: BFS length equals the exhaustive-subset
    minimum and relevance is gone afterwards; exact, under 30 s."""
    t0 = time.time()
    rng = random.Random(20240)
    checked = 0
    for domain in DOMAINS:
        bundle = builtin_bundle(domain)
        u = bundle.universe
        ops = _human_ops(bundle)
        for _ in range(200):
            w_vals = tuple(rng.choice(dom) for dom in u.value_domains)
            h_vals = tuple(
                w_vals[i] if rng.random() < 0.55 else rng.choice(u.value_domains[i])
                for i in range(len(w_vals))
            )
            world = BeliefState(bundle.problem.robot, u, w_vals)
            human = BeliefState(bundle.problem.human, u, h_vals)
            comm_plan = min_comm_bfs(world, human, ops)
            assert len(comm_plan) == _subset_minimum(world, human, ops)
            aligned = apply_comm_plan(comm_plan, human)
            assert not is_relevant_divergence(world, aligned, ops)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 6: PASS - {checked} randomized pairs match the "
        f"exhaustive-subset oracle ({elapsed:.1f}s)"
    )


def test_criterion_7_belief_protocol_properties():
    """>=1000 random traces: replay identity, assess idempotence, INF
    immunity, OBS alignment at the human's place, frame axiom.  Zero
    violations."""
    rng = random.Random(777)
    traces = 0
    for domain in DOMAINS:
        bundle = builtin_bundle(domain)
        u = bundle.universe
        model = bundle.obs_model
        robot_id, human_id = bundle.problem.robot, bundle.problem.human
        table = {}
        for agent, dom in bundle.problem.domains.items():
            for gop in dom.ground_ops.values():
                table.setdefault(agent, []).append(gop)
        for _ in range(500):
            w_vals = tuple(rng.choice(dom) for dom in u.value_domains)
            world = BeliefState(robot_id, u, w_vals)
            h_vals = tuple(
                w_vals[i] if rng.random() < 0.6 else rng.choice(u.value_domains[i])
                for i in range(len(w_vals))
            )
            human = model.assess(BeliefState(human_id, u, h_vals), world)
            bare = world
            turn = rng.choice([robot_id, human_id])
            for _step in range(10):
                belief = world if turn == robot_id else human
                ops = [
                    op
                    for op in table[turn]
                    if applicable(op, belief) and applicable(op, world)
                ]
                op = rng.choice(ops) if ops else wait_op(turn)
                before = human
                world_after, human_after = step_belief_protocol(
                    world, human, op, turn, robot_id, human_id, model
                )
                bare = apply_effects(op, bare)
                # Robot belief is exactly an independent effect replay.
                assert world_after == bare
                # Frame axiom on the ground truth.
                touched = {u.attributes[index] for index, _, _ in op.eff}
                for attr in u.attributes:
                    if attr not in touched:
                        assert world_after.get(attr) == world.get(attr)
                # Assessment idempotent; INF attributes never assessed in.
                assert model.assess(human_after, world_after) == human_after
                once = model.assess(before, world_after)
                for attr in u.attributes:
                    if model.obs_class(attr) is ObsClass.INF:
                        assert once.get(attr) == before.get(attr)
                # Post-step, observable attributes at the human's place agree.
                here = model.agent_place(human_id, world_after)
                for attr in u.attributes:
                    if (
                        model.obs_class(attr) is ObsClass.OBS
                        and place_of(model, attr, world_after) == here
                    ):
                        assert human_after.get(attr) == world_after.get(attr)
                world, human = world_after, human_after
                turn = human_id if turn == robot_id else robot_id
            traces += 1
    assert traces >= 1000
    print(f"ACCEPTANCE 7: PASS - {traces} random traces, zero violations")


def test_criterion_8_deadlock_detector():
    """Hand-built traces including the 3/4-consecutive boundary."""
    assert not detect_deadlock(["act", "wait", "wait", "wait", "act"])  # 3: below
    assert detect_deadlock(["act", "wait", "wait", "wait", "wait", "act"])  # 4
    assert detect_deadlock(["wait", "idle", "wait", "wait"])  # mixed kinds
    assert not detect_deadlock(["wait", "act", "wait", "act", "wait", "act"])
    assert not detect_deadlock(["act", "act", "idle", "idle"])  # terminal pair
    assert not detect_deadlock(["wait", "wait", "act", "wait", "idle", "idle"])
    assert detect_deadlock(["wait", "wait", "wait", "wait", "idle", "idle"])
    # A successful plan's trailing IDLE pair never counts as a deadlock.
    bundle = builtin_bundle("cooking")
    policy = plan(bundle.problem, bundle.obs_model, MODE_NEW)
    for trace in enumerate_traces(policy, bundle.obs_model):
        assert not detect_deadlock(trace.actions)
    print("ACCEPTANCE 8: PASS - deadlock detector boundary suite exact")
