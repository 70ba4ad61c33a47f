"""Session fixtures.

``studies`` plans each full study once, by ``run_experiment`` on the
default config, on the fresh bundle it loads per domain, and times it.  The
acceptance criteria, the study digests, the state-key check and the checks
on the stride-17 study sample (``tests/test_planner.py`` and the walk and
replay differentials) read it, so no test plans a study again to check what
it says.  Every study plan searches at the certifying depth
(``PlannerConfig()``), so each policy depends on its state key alone, not
on which plans filled the bundle's shared table first.

A test must not read these plans, but plan on a bundle of its own, when it
checks how a search fills or reads its table: a search from a cold table
(check (g)'s depth records, warm against cold plans, the nodes a cold plan
expands), a table that must stay apart (the foreign-universe check, which
then compares its own plans with these), a table per plan, the calls a search makes under a wrapper (the choice and
tell differentials), or the CLI's own study run.  On the studies' bundle
such a search would find each of its states already solved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from beliefhtn import builtin_bundle, experiment
from beliefhtn.domfile import ProblemBundle
from beliefhtn.experiment import ExperimentConfig, InstanceResult, MetricsTable, results_csv
from beliefhtn.htn import HtnProblem
from beliefhtn.planner import PolicyTree, _Search


@pytest.fixture(scope="session")
def cooking():
    return builtin_bundle("cooking")


@pytest.fixture(scope="session")
def box():
    return builtin_bundle("box")


@dataclass
class Study:
    """One domain's full study, as ``run_experiment`` ran it: its bundle,
    table and results, the CSV they give, its wall time, and each plan by
    (mode, instance index) with the problem it was planned for, under the
    bundle's observability model."""

    bundle: ProblemBundle
    table: MetricsTable
    results: list[InstanceResult]
    csv: str
    seconds: float
    plans: dict[tuple[str, int], tuple[HtnProblem, PolicyTree]]

    def in_order(self, mode: str) -> list[tuple[int, HtnProblem, PolicyTree]]:
        """(instance index, problem, policy) of each plan in ``mode``, by index."""
        return [(index, *self.plans[m, index]) for m, index in sorted(self.plans) if m == mode]


@dataclass
class Studies:
    """Both full studies, by domain, and the exact networks each search
    state key was reached with over both."""

    runs: dict[str, Study] = field(default_factory=dict)
    networks: dict[tuple, set] = field(default_factory=dict)


@pytest.fixture(scope="session")
def studies():
    """Cooking's and box's full studies, each planned once and timed."""
    shared = Studies()
    bundles: list[ProblemBundle] = []
    planned: list[tuple[HtnProblem, PolicyTree]] = []
    load_bundle, plan, state_key = experiment.load_bundle, experiment.plan, _Search._state_key

    def loading(name):
        bundles.append(load_bundle(name))
        return bundles[-1]

    def planning(problem, obs_model, mode, config):
        policy = plan(problem, obs_model, mode, config)  # a study plan never raises
        planned.append((problem, policy))
        return policy

    def keying(self, world, hb, network, turn, stall):
        key = state_key(self, world, hb, network, turn, stall)
        shared.networks.setdefault(key, set()).add(network)
        return key

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "load_bundle", loading)
        mp.setattr(experiment, "plan", planning)
        mp.setattr(_Search, "_state_key", keying)
        for domain in ("cooking", "box"):
            config = ExperimentConfig(domain=domain)
            bundles.clear()
            planned.clear()
            t0 = time.time()
            table, results = experiment.run_experiment(config)
            seconds = time.time() - t0
            plans = {
                (r.mode, r.instance.index): record
                for r, record in zip(results, planned, strict=True)
            }
            (bundle,) = bundles
            shared.runs[domain] = Study(
                bundle, table, results, results_csv(config, results), seconds, plans
            )
            print()
            print(table.format())
    return shared
