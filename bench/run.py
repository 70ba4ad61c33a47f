"""Benchmark runner: runs one workload and prints its metrics as JSON.

    python3 bench/run.py --workload study-cooking --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every pass runs in a fresh process
(``bench/worker.py``), because the planner's memo cache is process-global.
With ``--trace 0`` passes repeat until ``--seconds`` have elapsed (at least
one) and the end-to-end metrics are reported: medians over passes, and
per-instance latency percentiles over every instance of every pass.  With
``--trace 1`` one traced pass runs, then one untraced pass if the deadline
allows, and the per-layer span totals of the traced pass are reported
together with the tracing overhead.

Every pass's rows are checked against ``bench/golden`` after the pass ends;
an instance that raised or differs counts as failed.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the context (Python, nproc, commit, seed, sample counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import count_mismatches, golden_path, load_golden, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "beliefhtn"
WORKLOADS = ("study-cooking", "study-box", "ladder-box")
SETUP_PROBES = 5  # set-up-only processes per run, at least; for a steadier median
DEADLINE_S = 170.0  # a run must end within 180 s


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise TimeoutError("run deadline passed before the next pass")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over the passes of one run, plus sample counts."""
    latencies_ms = [s * 1000.0 for p in passes for s in p["latencies_s"]]
    p50 = percentile(latencies_ms, 50)
    p99 = percentile(latencies_ms, 99)
    metrics = {
        "pass_s": _metric(statistics.median(p["pass_s"] for p in passes), "s"),
        "instance_ms_p50": _metric(p50["value"], "ms"),
        "instance_ms_p99": _metric(p99["value"], "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    samples = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "instance_ms_p50": {k: p50[k] for k in ("n", "beyond", "resolved")},
        "instance_ms_p99": {k: p99[k] for k in ("n", "beyond", "resolved")},
    }
    return metrics, samples


# Per-layer metrics: span name -> extra result measure reported beside
# .calls and .self_s, as (metric suffix, unit, per call?).
LAYERS = {
    "planner.choices": ("candidates", "count", False),
    "planner.plan": None,
    "htn.decompose": None,
    "htn.ground_method": None,
    "htn.canonical_key": None,
    "htn.without_node": None,
    "planner.simulate": ("n_traces", "count", False),
    "planner.enumerate_traces": None,
    "engine.step_belief_protocol": None,
    "engine.legacy_step": None,
    "observability.assess": None,
    "htn.apply_effects": None,
    "htn.applicable": None,
    "state.with_value": None,
    "communication.is_relevant_divergence": ("true_frac", "ratio", True),
    "communication.min_comm_bfs": ("tells", "count", False),
    "domfile.parse": None,
    "domfile.build": None,
    "experiment.generate_initial_states": None,
}


def per_layer(traced: dict, untraced: dict | None) -> tuple[dict, dict]:
    trace = traced["trace"]
    stats = trace["stats"]
    metrics: dict[str, dict] = {}
    for name, extra in LAYERS.items():
        calls, self_s, measured = (
            (None, None, None) if name in trace["missing"] else stats[name]
        )
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
        if extra is not None:
            suffix, unit, per_call = extra
            if per_call and measured is not None:
                measured = measured / calls if calls else 0.0
            metrics[f"{name}.{suffix}"] = _metric(measured, unit)
    plan_stats = stats.get("planner.plan")
    metrics["planner.nodes_expanded"] = _metric(plan_stats[2] if plan_stats else None, "count")
    metrics["planner.canonical_cache.hits"] = _metric(trace["canonical_cache_hits"], "count")
    metrics["trace.pass_s"] = _metric(traced["pass_s"], "s")
    metrics["trace.unattributed_s"] = _metric(trace["unattributed_s"], "s")
    untraced_s = untraced["pass_s"] if untraced else None
    overhead_s = traced["pass_s"] - untraced_s if untraced else None
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    samples = {
        "untraced_pass_s": untraced_s,
        "root_span_s": trace["root_s"],
        "self_time_sum_s": trace["self_sum_s"],
        "missing_layers": trace["missing"],
        "step_mismatches": trace["step_mismatches"],
    }
    return metrics, samples


def trace_consistent(traced: dict, instances: int) -> list[str]:
    """Cross-checks between the traced run's own counts; empty when sound."""
    trace = traced["trace"]
    problems = []
    plan_calls = trace["stats"].get("planner.plan", [0])[0]
    if plan_calls != instances:
        problems.append(f"planner.plan.calls {plan_calls} != {instances} instances")
    if trace["step_mismatches"] and not trace["missing"]:
        problems.append(
            f"{trace['step_mismatches']} plans whose step calls != nodes_expanded - 1"
        )
    # Self times under the pass root must add back up to the root's duration.
    if abs(trace["self_sum_s"] - trace["root_s"]) > 1e-6 + 1e-9 * trace["root_s"]:
        problems.append(
            f"self times sum to {trace['self_sum_s']} s, root span is {trace['root_s']} s"
        )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not SRC.is_dir():
        return _fail(f"no library sources at {SRC}; run from a full checkout")
    if not golden_path(args.workload).is_file():
        return _fail(f"no golden rows at {golden_path(args.workload)}")
    golden = load_golden(args.workload)
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            traced = _worker(base + ["--trace"], deadline)
            passes = [traced]
            untraced = None
            # The untraced reference pass is faster than the traced one; skip
            # it (overhead null) rather than overrun the run deadline.
            if time.perf_counter() + traced["pass_s"] < deadline:
                untraced = _worker(base, deadline)
                passes.append(untraced)
            metrics, samples = per_layer(traced, untraced)
            problems = trace_consistent(traced, len(golden))
        else:
            # Set-up takes ~0.1 s, so one slow phase of the host could cover
            # every probe taken back to back; spread them over the run.
            setups, passes = [], []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                if passes and time.perf_counter() + passes[-1]["pass_s"] * 1.5 > deadline:
                    break
                setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
                passes.append(_worker(base, deadline))
            while len(setups) < SETUP_PROBES:
                setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
            setups += [p["setup_s"] for p in passes]
            metrics, samples = end_to_end(passes, setups)
            problems = []
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(count_mismatches(p["rows"], golden) for p in passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "failed_frac": failed / attempted if attempted else 1.0,
        "samples": samples,
        "problems": problems,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
