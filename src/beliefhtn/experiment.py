"""Quantitative study: initial-state sweeps, metrics, and CSV output.

For each domain the generator enumerates a parameterized grid of initial
world states (binary dimensions) crossed with all subsets of flippable
human-belief attributes, so a spec's size follows from its dimensions: the
default specs' six world and three flip dimensions yield 512 initial states
per domain, 448 of them with divergent beliefs and 64 fully aligned.  Every
state is planned under each solver mode and the policy is replayed against
the true belief protocol; outcomes aggregate into a per-domain table of
success, failure-taxonomy and communication ratios.

All enumeration and aggregation is deterministic, so repeated runs emit
byte-identical CSVs.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .builtins import load_bundle
from .domfile import ProblemBundle
from .errors import BadArgument, DepthExceeded, SpecMismatch, Unsolvable
from .planner import (
    MODE_LEGACY,
    MODE_NEW,
    ExecutionReport,
    PlannerConfig,
    plan,
    policy_comm_edges,
    simulate,
)
from .state import BeliefState, follow_world

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Which attributes vary in the world and which human beliefs may flip."""

    world_dims: tuple[tuple[str, tuple[str, str]], ...]
    flip_dims: tuple[tuple[str, tuple[str, str]], ...]


DEFAULT_SPECS: dict[str, GeneratorSpec] = {
    "cooking": GeneratorSpec(
        world_dims=(
            ("AgtAt(human)", ("Kitchen", "Room")),
            ("PastaLoc", ("Kitchen", "Room")),
            ("SaltInPot", ("false", "true")),
            ("Stove", ("off", "on")),
            ("HumanHasPasta", ("false", "true")),
            ("PastaInPot", ("false", "true")),
        ),
        flip_dims=(
            ("PastaLoc", ("Kitchen", "Room")),
            ("SaltInPot", ("false", "true")),
            ("Stove", ("off", "on")),
        ),
    ),
    "box": GeneratorSpec(
        world_dims=(
            ("BallsInBox(box1)", ("0", "1")),
            ("BallsInBox(box2)", ("0", "1")),
            ("BallsInBox(box3)", ("0", "1")),
            ("Sticker(box1)", ("false", "true")),
            ("Sticker(box2)", ("false", "true")),
            ("Sticker(box3)", ("false", "true")),
        ),
        # The box1 flip overestimates the count by one from either world
        # value; the box2 flip swaps within the world pair; the sticker flip
        # is repaired by assessment alone and never needs communication.
        flip_dims=(
            ("BallsInBox(box1)", ("1", "2")),
            ("BallsInBox(box2)", ("0", "1")),
            ("Sticker(box3)", ("false", "true")),
        ),
    ),
}


@dataclass(frozen=True)
class Instance:
    index: int
    world_bits: tuple[int, ...]
    flip_bits: tuple[int, ...]
    world: BeliefState
    human: BeliefState

    @property
    def aligned(self) -> bool:
        """True iff the human's belief equals the world."""
        return self.human.values == self.world.values


def generate_initial_states(bundle: ProblemBundle, spec: GeneratorSpec) -> list[Instance]:
    """Deterministically enumerate the full initial-state grid.

    Each instance is what :meth:`ProblemBundle.with_world` with the world
    bits' values, then :meth:`ProblemBundle.with_human_belief` with the set
    flips, would give: both write the world by :func:`follow_world`, and a
    set flip gives the human the flip value that differs from the world's.
    Each dimension is resolved once, raising as those methods raise, and
    every instance is written by index.  The world dimensions must name
    distinct attributes, and no two instances may share a (world, human)
    pair.  The grid has ``2 ** (len(world_dims) + len(flip_dims))`` instances;
    when the start beliefs agree, the ``2 ** len(world_dims)`` with no flip
    set are aligned.
    """
    flip_names = {name for name, _ in spec.flip_dims}
    dim_names = {name for name, _ in spec.world_dims}
    if not flip_names <= dim_names:
        raise SpecMismatch("flippable attributes must be world dimensions")

    world0, human0 = bundle.problem.world, bundle.problem.human_belief
    # Per world dimension: (attribute index, value per world bit).
    dims = []
    for name, values in spec.world_dims:
        index, first = bundle.resolve(name, values[0])
        dims.append((index, (first, bundle.resolve(name, values[1])[1])))
    if len({index for index, _ in dims}) != len(dims):
        raise SpecMismatch("world dimensions must name distinct attributes")
    # Per flip: (world dimension position, attribute index, the human's value
    # per world bit), the flip value that differs from the world's text.
    position = {name: k for k, (name, _) in enumerate(spec.world_dims)}
    flips = []
    for name, values in spec.flip_dims:
        k = position[name]
        per_bit = [
            bundle.resolve(name, values[1] if text == values[0] else values[0])
            for text in spec.world_dims[k][1][:2]
        ]
        flips.append((k, per_bit[0][0], (per_bit[0][1], per_bit[1][1])))

    instances: list[Instance] = []
    seen: dict[tuple, tuple] = {}  # (world, human) values -> the first bits to give them
    named = [("world", n) for n, _ in spec.world_dims] + [("flip", n) for n, _ in spec.flip_dims]
    for world_bits in itertools.product((0, 1), repeat=len(dims)):
        writes = [(index, values[bit]) for (index, values), bit in zip(dims, world_bits)]
        world, human = follow_world(world0, human0, writes)
        for flip_bits in itertools.product((0, 1), repeat=len(flips)):
            flipped = human.with_values_at(
                [(index, values[world_bits[k]])
                 for (k, index, values), bit in zip(flips, flip_bits) if bit]
            )
            bits = world_bits + flip_bits
            before = seen.setdefault((world.values, flipped.values), bits)
            if before != bits:  # the first dimension they differ in writes a held value
                kind, name = next(d for d, a, b in zip(named, before, bits) if a != b)
                raise SpecMismatch(f"the {kind} dimension {name!r} repeats a (world, human) state")
            instances.append(Instance(len(instances), world_bits, flip_bits, world, flipped))
    return instances


# The replay report of an instance that planning failed: no branches.
_NO_REPLAY = ExecutionReport("", "", 0, 0, 0, 0, 0, 0)


@dataclass
class InstanceResult:
    instance: Instance
    mode: str
    outcome: str  # success | na | idl | error:<...>
    report: ExecutionReport = _NO_REPLAY
    communicates: bool = False


@dataclass
class ModeMetrics:
    """One row of the summary table."""

    domain: str
    mode: str
    n: int = 0
    n_success: int = 0
    n_na: int = 0
    n_idl: int = 0
    n_error: int = 0
    n_comm: int = 0
    sum_len: float = 0.0
    sum_comms: float = 0.0

    @property
    def success_rate(self) -> float:
        return 100.0 * self.n_success / self.n if self.n else 0.0

    @property
    def n_failed(self) -> float:
        return self.n - self.n_success - self.n_error

    @property
    def na_rate(self) -> float:
        return 100.0 * self.n_na / self.n_failed if self.n_failed else 0.0

    @property
    def idl_rate(self) -> float:
        return 100.0 * self.n_idl / self.n_failed if self.n_failed else 0.0

    @property
    def com_rate(self) -> float:
        return 100.0 * self.n_comm / self.n_success if self.n_success else 0.0

    @property
    def mean_len(self) -> float:
        return self.sum_len / self.n_success if self.n_success else 0.0

    @property
    def mean_comms(self) -> float:
        return self.sum_comms / self.n_success if self.n_success else 0.0


@dataclass
class MetricsTable:
    rows: list[ModeMetrics] = field(default_factory=list)

    def row(self, domain: str, mode: str) -> ModeMetrics:
        for r in self.rows:
            if r.domain == domain and r.mode == mode:
                return r
        r = ModeMetrics(domain, mode)
        self.rows.append(r)
        return r

    def format(self) -> str:
        header = (
            f"{'domain':<10} {'mode':<7} {'n':>5} {'S%':>7} {'NA%':>7} "
            f"{'IDL%':>7} {'Com%':>7} {'len':>7} {'comms':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.domain:<10} {r.mode:<7} {r.n:>5} {r.success_rate:>6.1f}% "
                f"{r.na_rate:>6.1f}% {r.idl_rate:>6.1f}% {r.com_rate:>6.1f}% "
                f"{r.mean_len:>7.2f} {r.mean_comms:>6.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str = "cooking"
    modes: tuple[str, ...] = (MODE_LEGACY, MODE_NEW)
    start: Optional[str] = None  # None keeps the domain file's starting agent
    seed: int = 0  # recorded in outputs; generation is exhaustive, not sampled
    depth_bound: Optional[int] = None  # None: PlannerConfig's default
    spec: Optional[GeneratorSpec] = None


def run_instance(
    bundle: ProblemBundle,
    instance: Instance,
    mode: str,
    depth_bound: Optional[int] = None,
) -> InstanceResult:
    problem = replace(
        bundle.problem, world=instance.world, human_belief=instance.human
    )
    config = PlannerConfig(depth_bound=depth_bound)
    try:
        policy = plan(problem, bundle.obs_model, mode, config)
    except (Unsolvable, DepthExceeded) as exc:  # declared failures; anything else is a bug
        return InstanceResult(instance, mode, f"error:{type(exc).__name__}")
    report = simulate(policy, bundle.obs_model)
    return InstanceResult(
        instance, mode, report.outcome, report, bool(policy_comm_edges(policy))
    )


def run_experiment(
    config: ExperimentConfig,
) -> tuple[MetricsTable, list[InstanceResult]]:
    for i, mode in enumerate(config.modes):
        if mode in config.modes[:i]:
            raise BadArgument(f"solver mode {mode!r} is given twice")
    PlannerConfig(depth_bound=config.depth_bound)  # a bad bound raises before any plan
    bundle = load_bundle(config.domain)
    if config.start is not None:
        bundle = bundle.with_start(config.start)
    spec = config.spec
    if spec is None:
        if config.domain not in DEFAULT_SPECS:
            raise SpecMismatch(
                f"no default generator spec for domain {config.domain!r}"
            )
        spec = DEFAULT_SPECS[config.domain]
    instances = generate_initial_states(bundle, spec)

    table = MetricsTable()
    results: list[InstanceResult] = []
    for mode in config.modes:
        row = table.row(config.domain, mode)
        for inst in instances:
            res = run_instance(bundle, inst, mode, config.depth_bound)
            results.append(res)
            row.n += 1
            if res.outcome == "success":
                row.n_success += 1
                row.n_comm += res.communicates
                row.sum_len += res.report.mean_primitive_length
                row.sum_comms += res.report.mean_comm_count
            elif res.outcome == "na":
                row.n_na += 1
            elif res.outcome == "idl":
                row.n_idl += 1
            else:
                row.n_error += 1
    return table, results


CSV_FIELDS = [
    "schema_version",
    "domain",
    "mode",
    "seed",
    "instance",
    "world_bits",
    "flip_bits",
    "aligned",
    "outcome",
    "n_traces",
    "n_success",
    "n_na",
    "n_idl",
    "communicates",
    "mean_comms",
    "mean_len",
]


def results_csv(config: ExperimentConfig, results: list[InstanceResult]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in results:
        writer.writerow(
            {
                "schema_version": CSV_SCHEMA_VERSION,
                "domain": config.domain,
                "mode": r.mode,
                "seed": config.seed,
                "instance": r.instance.index,
                "world_bits": "".join(map(str, r.instance.world_bits)),
                "flip_bits": "".join(map(str, r.instance.flip_bits)),
                "aligned": int(r.instance.aligned),
                "outcome": r.outcome,
                "n_traces": r.report.n_traces,
                "n_success": r.report.n_success,
                "n_na": r.report.n_na,
                "n_idl": r.report.n_idl,
                "communicates": int(r.communicates),
                "mean_comms": f"{r.report.mean_comm_count:.6f}",
                "mean_len": f"{r.report.mean_primitive_length:.6f}",
            }
        )
    return buf.getvalue()
