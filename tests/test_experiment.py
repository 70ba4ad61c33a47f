from __future__ import annotations

import pytest

from beliefhtn import experiment
from beliefhtn.errors import BadArgument, BeliefHtnError, SpecMismatch
from beliefhtn.experiment import (
    DEFAULT_SPECS,
    ExperimentConfig,
    GeneratorSpec,
    generate_initial_states,
    results_csv,
    run_experiment,
    run_instance,
)


def test_default_grid_counts(cooking):
    instances = generate_initial_states(cooking, DEFAULT_SPECS["cooking"])
    assert len(instances) == 512
    aligned = [i for i in instances if i.aligned]
    assert len(aligned) == 64
    assert len(instances) - len(aligned) == 448
    assert (len(instances) - len(aligned)) / len(instances) == pytest.approx(0.875)


def test_aligned_instances_have_equal_beliefs(cooking):
    instances = generate_initial_states(cooking, DEFAULT_SPECS["cooking"])
    for inst in instances:
        diverges = inst.world.values != inst.human.values
        assert diverges == (not inst.aligned)


def test_all_initial_states_distinct(cooking, box):
    for bundle, name in ((cooking, "cooking"), (box, "box")):
        instances = generate_initial_states(bundle, DEFAULT_SPECS[name])
        keys = {(i.world.values, i.human.values) for i in instances}
        assert len(keys) == 512


def test_zero_flips_all_aligned(cooking):
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(),
        expected_total=64,
        expected_aligned=64,
    )
    instances = generate_initial_states(cooking, spec)
    assert len(instances) == 64
    assert all(i.aligned for i in instances)


def test_spec_mismatch_detected(cooking):
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims[:3],
        flip_dims=(),
    )
    with pytest.raises(SpecMismatch):
        generate_initial_states(cooking, spec)


def test_flip_must_be_world_dim(cooking):
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(("HumanHasPasta", ("false", "true")),) * 3,
        expected_total=4096,
        expected_aligned=64,
    )
    with pytest.raises(SpecMismatch):
        generate_initial_states(cooking, spec)


SMALL_SPEC = GeneratorSpec(
    world_dims=(
        ("PastaLoc", ("Kitchen", "Room")),
        ("SaltInPot", ("false", "true")),
    ),
    flip_dims=(("SaltInPot", ("false", "true")),),
    expected_total=8,
    expected_aligned=4,
)


def test_small_sweep_metrics_identities(cooking):
    config = ExperimentConfig(domain="cooking", spec=SMALL_SPEC)
    table, results = run_experiment(config)
    assert len(results) == 16  # 8 instances x 2 modes
    for row in table.rows:
        failed = row.n - row.n_success - row.n_error
        assert row.n_na + row.n_idl == failed
        if failed:
            assert row.na_rate + row.idl_rate == pytest.approx(100.0)
        assert 0.0 <= row.success_rate <= 100.0


def test_sweep_csv_deterministic(cooking):
    config = ExperimentConfig(domain="cooking", spec=SMALL_SPEC, seed=0)
    _, first = run_experiment(config)
    _, second = run_experiment(config)
    assert results_csv(config, first) == results_csv(config, second)
    header = results_csv(config, first).splitlines()[0]
    assert header.startswith("schema_version,domain,mode,seed,instance")


def test_run_instance_records_errors(cooking):
    # An impossible instance is recorded as an error, never raised.
    instances = generate_initial_states(cooking, DEFAULT_SPECS["cooking"])
    inst = instances[0]
    broken = inst.world.with_value(cooking.universe.attr("AgtAt", "robot"), "Room")
    from dataclasses import replace

    bad = replace(inst, world=broken, human=broken.with_owner("human"))
    res = run_instance(cooking, bad, "new", depth_bound=24)
    assert res.outcome.startswith("error:")


def test_run_instance_lets_invariant_failures_propagate(cooking, monkeypatch):
    # Only the planner's declared failures become error rows.
    def broken_plan(*args, **kwargs):
        raise AssertionError("planner invariant violated")

    monkeypatch.setattr(experiment, "plan", broken_plan)
    inst = generate_initial_states(cooking, DEFAULT_SPECS["cooking"])[0]
    with pytest.raises(AssertionError, match="planner invariant violated"):
        run_instance(cooking, inst, "new")


def test_run_experiment_rejects_missing_domain_file(tmp_path):
    missing = tmp_path / "absent.dom"
    with pytest.raises(BeliefHtnError, match="neither a builtin domain"):
        run_experiment(ExperimentConfig(domain=str(missing)))


def test_run_experiment_rejects_a_repeated_mode():
    # A repeated mode would plan every instance twice into one row.
    with pytest.raises(BadArgument, match="solver mode 'new' is given twice"):
        run_experiment(ExperimentConfig(modes=("new", "legacy", "new")))


@pytest.mark.parametrize("bound", [0, -1, True])
def test_run_experiment_rejects_a_bad_depth_bound(bound):
    # Before any plan runs, not as one error row per instance.
    with pytest.raises(BadArgument, match="depth bound must be a positive int"):
        run_experiment(ExperimentConfig(domain="cooking", depth_bound=bound))
