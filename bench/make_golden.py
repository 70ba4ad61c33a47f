"""Regenerate the golden rows in ``bench/golden`` from the current sources.

    python3 bench/make_golden.py

Run it only at a commit whose behaviour is the reference.  The study rows
are the CSV ``beliefhtn experiment`` writes for seed 0, so they come from
the library's own experiment path rather than from the benchmark's loop.
Before writing, the study summary tables are checked against the README
table and the ladder's node counts against the ladder table measured when
the benchmark was defined; a mismatch writes nothing.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from harness import GOLDEN_DIR, LADDER_FIELDS, golden_path  # noqa: E402

# Nodes expanded per ladder rung, new mode, default initial state.
LADDER_NODES = {2: 25, 3: 44, 4: 107, 5: 280, 6: 827}


def readme_rows(domain: str) -> list[str]:
    text = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.startswith(f"{domain} ")]


def main() -> int:
    from beliefhtn import parse, plan, simulate
    from beliefhtn.builtins import box_dom
    from beliefhtn.experiment import ExperimentConfig, results_csv, run_experiment

    from worker import ladder_fields

    outputs: dict[Path, str] = {}
    for domain in ("cooking", "box"):
        config = ExperimentConfig(domain=domain)
        table, results = run_experiment(config)
        outputs[golden_path(f"study-{domain}")] = results_csv(config, results)
        rows = [line for line in table.format().splitlines() if line.startswith(f"{domain} ")]
        if rows != readme_rows(domain):
            raise SystemExit(f"{domain} summary differs from the README table:\n" + "\n".join(rows))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=("boxes",) + LADDER_FIELDS, lineterminator="\n")
    writer.writeheader()
    for boxes, nodes in LADDER_NODES.items():
        bundle = parse(box_dom(boxes=boxes)).build()
        policy = plan(bundle.problem, bundle.obs_model, "new")
        fields = ladder_fields(policy, simulate(policy, bundle.obs_model))
        if fields["nodes_expanded"] != str(nodes) or fields["outcome"] != "success":
            raise SystemExit(f"ladder rung {boxes}: {fields}, expected {nodes} nodes")
        writer.writerow({"boxes": boxes, **fields})
    outputs[golden_path("ladder-box")] = buf.getvalue()

    GOLDEN_DIR.mkdir(exist_ok=True)
    for path, text in outputs.items():
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
