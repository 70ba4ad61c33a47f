"""Command-line front end.

Subcommands: ``plan`` a single instance, ``simulate`` a saved policy,
``export`` a policy in both output formats, ``experiment`` to regenerate
the quantitative study, and ``validate-domain`` for parser diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .builtins import BUILTIN_NAMES, load_bundle
from .domfile import ProblemBundle, parse_bundle, serialize
from .errors import BeliefHtnError
from .experiment import (
    DEFAULT_SPECS,
    ExperimentConfig,
    results_csv,
    run_experiment,
)
from .planner import (
    MODE_LEGACY,
    MODE_NEW,
    RECURSIVE_DEPTH,
    PlannerConfig,
    plan as plan_policy,
    policy_comm_edges,
    simulate,
)
from .policyio import load_json, to_json, to_text

OUT_DIR_ENV = "BELIEFHTN_OUT"
# A bad input file: malformed, unreadable or not UTF-8.
_FILE_ERRORS = (BeliefHtnError, OSError, UnicodeError)


def _parse_assignments(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise BeliefHtnError(f"expected attr=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _with_overrides(bundle: ProblemBundle, args) -> ProblemBundle:
    if args.set:
        bundle = bundle.with_world(_parse_assignments(args.set))
    if args.believe:
        bundle = bundle.with_human_belief(_parse_assignments(args.believe))
    return bundle


def _prepare_bundle(args) -> ProblemBundle:
    bundle = _with_overrides(load_bundle(args.domain), args)
    if args.start:
        bundle = bundle.with_start(args.start)
    return bundle


def _cmd_plan(args) -> int:
    bundle = _prepare_bundle(args)
    config = PlannerConfig(depth_bound=args.depth)
    policy = plan_policy(bundle.problem, bundle.obs_model, args.mode, config)
    report = simulate(policy, bundle.obs_model)
    comm_edges = policy_comm_edges(policy)
    print(
        f"planned domain={bundle.domfile.name} mode={args.mode} "
        f"start={bundle.problem.start_agent}"
    )
    print(
        f"outcome={report.outcome} branches={report.n_traces} "
        f"comm_edges={len(comm_edges)} mean_len={report.mean_primitive_length:.2f}"
    )
    for node, _ in comm_edges:
        for ca in node.comms:
            print(f"  communicates {ca}")
    if args.out:
        Path(args.out).write_text(to_json(policy, bundle), encoding="utf-8")
        print(f"wrote {args.out}")
    if args.text:
        print(to_text(policy), end="")
    return 0 if report.outcome == "success" else 1


def _cmd_simulate(args) -> int:
    bundle, policy = load_json(Path(args.policy).read_text(encoding="utf-8"))
    # Overrides apply to the beliefs the policy was planned from, not to
    # the embedded domain file's init.
    problem = replace(bundle.problem, world=policy.init_world, human_belief=policy.init_human)
    bundle = _with_overrides(replace(bundle, problem=problem), args)
    report = simulate(policy, bundle.obs_model, bundle.problem.world, bundle.problem.human_belief)
    print(
        f"simulated mode={policy.mode}: outcome={report.outcome} "
        f"branches={report.n_traces} success={report.n_success} "
        f"na={report.n_na} idl={report.n_idl}"
    )
    if report.detail:
        print(f"  first failure: {report.detail}")
    return 0 if report.outcome == "success" else 1


def _cmd_export(args) -> int:
    bundle = _prepare_bundle(args)
    config = PlannerConfig(depth_bound=args.depth)
    policy = plan_policy(bundle.problem, bundle.obs_model, args.mode, config)
    base = Path(args.out or f"{bundle.domfile.name}-{args.mode}")
    json_path = base.with_suffix(".json")
    text_path = base.with_suffix(".txt")
    json_path.write_text(to_json(policy, bundle), encoding="utf-8")
    text_path.write_text(to_text(policy), encoding="utf-8")
    print(f"wrote {json_path} and {text_path}")
    return 0


def _cmd_experiment(args) -> int:
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    modes = tuple(args.modes.split(",")) if args.modes else (MODE_LEGACY, MODE_NEW)
    config = ExperimentConfig(
        domain=args.domain,
        modes=modes,
        start=args.start,
        depth_bound=args.depth,
    )
    table, results = run_experiment(config)
    csv_path = out_dir / f"experiment-{args.domain}-seed0.csv"
    out_dir.mkdir(parents=True, exist_ok=True)  # after the run, so a rejected one leaves none
    csv_path.write_text(results_csv(config, results), encoding="utf-8")
    print(table.format())
    print(f"instances={len(results)} csv={csv_path}")
    return 0


def _cmd_validate(args) -> int:
    try:
        bundle = parse_bundle(Path(args.file).read_text(encoding="utf-8"))
    except _FILE_ERRORS as exc:
        print(f"INVALID: {exc}")
        return 1
    dom = bundle.domfile
    print(
        f"OK: domain {dom.name!r}, {len(dom.groups)} groups, "
        f"{len(dom.svars)} attribute templates, "
        f"{len(bundle.universe)} grounded attributes, "
        f"{len(dom.operators)} operators, {len(dom.methods)} methods"
    )
    cache = bundle.problem.search_cache
    if cache.primitives is None:
        print(
            f"hierarchy: recursive; plans search to depth {RECURSIVE_DEPTH}, "
            "each with a table of its own"
        )
    else:
        print(
            f"hierarchy: acyclic, at most {cache.primitives} primitives from the root; "
            f"plans search to depth {cache.depth} and share the bundle's state table"
        )
    if args.echo:
        print(serialize(dom), end="")
    return 0


_DEPTH_HELP = (
    "search depth bound (default: the depth validate-domain reports, from "
    "which no branch is pruned and plans share the domain's state table)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefhtn",
        description="Human-aware HTN planning with belief tracking and communication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", required=True, help=f"builtin {BUILTIN_NAMES} or a .dom file")
        p.add_argument("--mode", choices=(MODE_NEW, MODE_LEGACY), default=MODE_NEW)
        p.add_argument("--start", choices=None, default=None, help="starting agent id")
        p.add_argument("--set", action="append", metavar="ATTR=VALUE",
                       help="override an initial world value (repeatable)")
        p.add_argument("--believe", action="append", metavar="ATTR=VALUE",
                       help="override an initial human-belief value (repeatable)")
        p.add_argument("--depth", type=int, help=_DEPTH_HELP)

    p_plan = sub.add_parser("plan", help="plan one instance and report the policy")
    common(p_plan)
    p_plan.add_argument("--out", help="write the policy as JSON")
    p_plan.add_argument("--text", action="store_true", help="print the text graph")
    p_plan.set_defaults(func=_cmd_plan)

    p_sim = sub.add_parser("simulate", help="replay a saved policy")
    p_sim.add_argument("--policy", required=True, help="policy JSON file")
    p_sim.add_argument("--set", action="append", metavar="ATTR=VALUE",
                       help="override the true initial world value (repeatable)")
    p_sim.add_argument("--believe", action="append", metavar="ATTR=VALUE",
                       help="override the true initial human belief (repeatable)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("export", help="plan and write both policy formats")
    common(p_exp)
    p_exp.add_argument("--out", help="output basename (suffixes .json/.txt added)")
    p_exp.set_defaults(func=_cmd_export)

    p_x = sub.add_parser("experiment", help="regenerate the quantitative study")
    p_x.add_argument("--domain", required=True, choices=sorted(DEFAULT_SPECS))
    p_x.add_argument("--modes", help="comma list, default legacy,new")
    p_x.add_argument("--start", default=None)
    p_x.add_argument("--depth", type=int, help=_DEPTH_HELP)
    p_x.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    p_x.set_defaults(func=_cmd_experiment)

    p_val = sub.add_parser("validate-domain", help="parse a domain file and report")
    p_val.add_argument("file")
    p_val.add_argument("--echo", action="store_true", help="print the canonical form")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FILE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
