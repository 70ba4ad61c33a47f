"""One benchmark pass (or one set-up probe) in a fresh process.

The planner's ``_canonical`` cache is process-global, so a second pass in
the same process would start warm; a ``beliefhtn experiment`` user never
sees that.  ``run.py`` therefore starts this script once per pass.

    python3 bench/worker.py --workload study-cooking --seed 1 [--trace] [--setup-only]

Prints one JSON object: set-up and pass times, per-instance latencies,
per-instance result rows (checked against the golden rows by ``run.py``),
peak RSS, and with ``--trace`` the per-layer span totals.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before the library loads

import argparse
import hashlib
import json
import random
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer  # noqa: E402

WORKLOADS = ("study-cooking", "study-box", "ladder-box")
LADDER_BOXES = (2, 3, 4, 5, 6)
SETUP_LAYERS = ("domfile.parse", "domfile.build", "experiment.generate_initial_states")


def _patch_layers(tracer: Tracer) -> None:
    """Wrap the hot layers of plan and simulate where they are looked up."""
    from beliefhtn import communication, engine, htn, planner
    from beliefhtn.observability import ObservabilityModel
    from beliefhtn.state import BeliefState

    pkg = "beliefhtn"
    tracer.patch_method("planner.choices", getattr(planner, "_Search", object), "_choices", len)
    tracer.patch_method("htn.canonical_key", htn.TaskNetwork, "canonical_key")
    tracer.patch_method("htn.without_node", htn.TaskNetwork, "without_node")
    tracer.patch_function("htn.decompose", htn, "decompose", pkg)
    tracer.patch_function("htn.ground_method", htn, "ground_method", pkg)
    tracer.patch_function("planner.enumerate_traces", planner, "enumerate_traces", pkg)
    tracer.patch_function("engine.step_belief_protocol", engine, "step_belief_protocol", pkg)
    tracer.patch_function("engine.legacy_step", engine, "legacy_step", pkg)
    tracer.patch_method("observability.assess", ObservabilityModel, "assess")
    tracer.patch_function("htn.apply_effects", htn, "apply_effects", pkg)
    tracer.patch_function("htn.applicable", htn, "applicable", pkg)
    tracer.patch_method("state.with_value", BeliefState, "with_value")
    tracer.patch_function(
        "communication.is_relevant_divergence", communication, "is_relevant_divergence",
        pkg, bool,
    )
    tracer.patch_function("communication.min_comm_bfs", communication, "min_comm_bfs", pkg, len)


def study_fields(policy, report) -> dict[str, str]:
    """One instance's columns of the `beliefhtn experiment` CSV."""
    from beliefhtn.planner import policy_comm_edges

    return {
        "outcome": report.outcome,
        "n_traces": str(report.n_traces),
        "n_success": str(report.n_success),
        "n_na": str(report.n_na),
        "n_idl": str(report.n_idl),
        "communicates": str(int(bool(policy_comm_edges(policy)))),
        "mean_comms": f"{report.mean_comm_count:.6f}",
        "mean_len": f"{report.mean_primitive_length:.6f}",
    }


def ladder_fields(policy, report) -> dict[str, str]:
    from beliefhtn.policyio import to_text

    return {
        "outcome": report.outcome,
        "nodes_expanded": str(policy.nodes_expanded),
        "n_traces": str(report.n_traces),
        "policy_sha256": hashlib.sha256(to_text(policy).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from dataclasses import replace

    from beliefhtn import (
        BOX_DOM, COOKING_DOM, MODE_LEGACY, MODE_NEW, parse, plan, planner, simulate,
    )
    from beliefhtn.builtins import box_dom
    from beliefhtn.domfile import DomainFile
    from beliefhtn.experiment import DEFAULT_SPECS, ExperimentConfig, generate_initial_states
    from beliefhtn.planner import PlannerConfig

    from harness import ladder_key, study_key

    tracer = Tracer() if args.trace else None

    def traced(name, fn, measure=None):
        return tracer.wrap(name, fn, measure) if tracer else fn

    parse_fn = traced("domfile.parse", parse)
    build_fn = traced("domfile.build", DomainFile.build)
    generate_fn = traced("experiment.generate_initial_states", generate_initial_states)

    # -- set-up: ends when the first instance is ready ------------------------
    # A job is (mode, bundle, world, human, key fields); the seed shuffles the
    # study order, which matters because the planner's cache spans instances.
    if args.workload == "ladder-box":
        jobs = []
        for boxes in LADDER_BOXES:
            bundle = build_fn(parse_fn(box_dom(boxes=boxes)))
            jobs.append((MODE_NEW, bundle, None, None, {"boxes": boxes}))
    else:
        domain = args.workload.split("-", 1)[1]
        text = COOKING_DOM if domain == "cooking" else BOX_DOM
        bundle = build_fn(parse_fn(text))
        instances = generate_fn(bundle, DEFAULT_SPECS[domain])
        jobs = [
            (mode, bundle, inst.world, inst.human, {"mode": mode, "instance": inst.index})
            for mode in (MODE_LEGACY, MODE_NEW)
            for inst in instances
        ]
        random.Random(args.seed).shuffle(jobs)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    config = PlannerConfig(depth_bound=ExperimentConfig().depth_bound)
    ladder = args.workload == "ladder-box"
    key_of = ladder_key if ladder else study_key
    step_name = {MODE_NEW: "engine.step_belief_protocol", MODE_LEGACY: "engine.legacy_step"}
    step_mismatches = 0
    if tracer:
        _patch_layers(tracer)
    plan_fn = traced("planner.plan", plan, lambda p: p.nodes_expanded)
    simulate_fn = traced("planner.simulate", simulate, lambda r: r.n_traces)

    def run_pass():
        nonlocal step_mismatches
        rows, latencies = [], []
        for mode, bundle, world, human, key in jobs:
            problem = bundle.problem
            if world is not None:
                problem = replace(problem, world=world, human_belief=human)
            if tracer:
                steps_before = tracer.calls(step_name[mode])
            start = time.perf_counter()
            try:
                policy = plan_fn(problem, bundle.obs_model, mode, config)
                if tracer:
                    steps = tracer.calls(step_name[mode]) - steps_before
                    # Every expanded node but the root is entered by one step.
                    step_mismatches += steps != policy.nodes_expanded - 1
                report = simulate_fn(policy, bundle.obs_model)
            except Exception as exc:  # counted as a failed instance, pass goes on
                latencies.append(time.perf_counter() - start)
                rows.append([key_of(key), {"error": f"{type(exc).__name__}: {exc}"}])
                continue
            latencies.append(time.perf_counter() - start)
            fields = ladder_fields(policy, report) if ladder else study_fields(policy, report)
            rows.append([key_of(key), fields])
        return rows, latencies

    cache_info = getattr(getattr(planner, "_canonical", None), "cache_info", None)
    hits_before = cache_info().hits if cache_info else None
    top_before = tracer.top_level_s if tracer else 0.0
    start = time.perf_counter()
    rows, latencies = traced("bench.pass", run_pass)()
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "rows": rows,
    }
    if tracer:
        tracer.unpatch()
        root_s = tracer.top_level_s - top_before
        pass_self = sum(
            tracer.self_s(name) for name in tracer.stats if name not in SETUP_LAYERS
        )
        out["trace"] = {
            "stats": tracer.stats,
            "missing": tracer.missing,
            "canonical_cache_hits": (cache_info().hits - hits_before) if cache_info else None,
            "root_s": root_s,
            "unattributed_s": tracer.self_s("bench.pass"),
            "self_sum_s": pass_self,
            "step_mismatches": step_mismatches,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
