"""Pure helpers shared by the benchmark runner, its worker and its tests:
the percentile rule, golden-reference rows and the study summary table."""

from __future__ import annotations

import csv
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Columns of the `beliefhtn experiment` CSV that a pass must reproduce.
STUDY_FIELDS = (
    "outcome", "n_traces", "n_success", "n_na", "n_idl",
    "communicates", "mean_comms", "mean_len",
)
LADDER_FIELDS = ("outcome", "nodes_expanded", "n_traces", "policy_sha256")

# A percentile is resolved when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], p: int) -> dict:
    """Nearest-rank ``p``-th percentile and how many samples lie beyond it.

    Integer arithmetic keeps the rank exact (0.99 * 1000 is not 990 in
    floating point).  With fewer than ``MIN_BEYOND`` samples beyond it the
    value is still returned, but marked unresolved.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, -(-p * n // 100))
    beyond = n - rank
    return {"value": xs[rank - 1], "n": n, "beyond": beyond, "resolved": beyond >= MIN_BEYOND}


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.csv"


def study_key(row: dict) -> str:
    return f"{row['mode']}/{row['instance']}"


def ladder_key(row: dict) -> str:
    return f"boxes={row['boxes']}"


def load_golden(workload: str) -> dict[str, dict[str, str]]:
    """Golden rows of a workload, keyed as the worker keys its rows."""
    is_ladder = workload.startswith("ladder")
    key_of = ladder_key if is_ladder else study_key
    fields = LADDER_FIELDS if is_ladder else STUDY_FIELDS
    with open(golden_path(workload), newline="", encoding="utf-8") as fh:
        return {key_of(r): {f: r[f] for f in fields} for r in csv.DictReader(fh)}


def count_mismatches(rows: list[list], golden: dict[str, dict[str, str]]) -> int:
    """Rows that raised, differ from their golden row, or have none; plus
    golden rows the pass never produced."""
    bad = 0
    seen = set()
    for key, fields in rows:
        seen.add(key)
        if fields != golden.get(key):
            bad += 1
    return bad + len(golden.keys() - seen)


def study_summary(workload: str, domain: str) -> str:
    """The `beliefhtn experiment` summary table rebuilt from golden rows."""
    from beliefhtn.experiment import MetricsTable

    table = MetricsTable()
    with open(golden_path(workload), newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            row = table.row(domain, r["mode"])
            row.n += 1
            if r["outcome"] == "success":
                row.n_success += 1
                row.n_comm += int(r["communicates"])
                row.sum_len += float(r["mean_len"])
                row.sum_comms += float(r["mean_comms"])
            elif r["outcome"] == "na":
                row.n_na += 1
            elif r["outcome"] == "idl":
                row.n_idl += 1
            else:
                row.n_error += 1
    return table.format()
