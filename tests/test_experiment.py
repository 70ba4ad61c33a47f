from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from beliefhtn import COOKING_DOM, experiment
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
from beliefhtn.state import follow_world


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


# The default cooking grid without its Stove flip, which would write the
# value a human who believes the other Stove value already holds.
NO_STOVE_FLIP = GeneratorSpec(
    world_dims=DEFAULT_SPECS["cooking"].world_dims,
    flip_dims=DEFAULT_SPECS["cooking"].flip_dims[:2],
)


def _other_stove(bundle):
    stove = "on" if bundle.problem.world.get(bundle.attr("Stove")) == "off" else "off"
    return bundle.with_human_belief({"Stove": stove})


def test_aligned_reads_the_beliefs_not_the_flips(cooking):
    # The human starts off believing the other Stove value, which no world
    # write moves, so only the worlds with that value are aligned.
    instances = generate_initial_states(_other_stove(cooking), NO_STOVE_FLIP)
    unflipped = [i for i in instances if not any(i.flip_bits)]
    assert len(unflipped) == 64
    assert sum(not i.aligned for i in unflipped) == 32
    assert [i.aligned for i in instances] == [i.human.values == i.world.values for i in instances]


def test_a_flip_that_writes_a_held_value_is_rejected(cooking):
    # With the default grid, the Stove flip then gives the human the value it
    # holds in half the worlds: 512 instances over 384 states.
    with pytest.raises(SpecMismatch, match="the flip dimension 'Stove' repeats a"):
        generate_initial_states(_other_stove(cooking), DEFAULT_SPECS["cooking"])


def test_the_human_follows_each_world_write_it_agreed_with_just_before(cooking):
    # follow_world, which with_world and the grid both call, against the
    # rule written out, over writes that repeat one attribute.
    stove = cooking.universe.index_of(cooking.attr("Stove"))
    world0 = cooking.problem.world
    for human_start in ("off", "on"):
        human0 = cooking.problem.human_belief.with_values_at([(stove, human_start)])
        for writes in itertools.product(("off", "on"), repeat=3):
            world, human = follow_world(world0, human0, [(stove, v) for v in writes])
            w, h = world0.values[stove], human0.values[stove]
            for value in writes:
                if h == w:
                    h = value
                w = value
            assert (world.values[stove], human.values[stove]) == (w, h)
            assert world.values == world0.with_values_at([(stove, w)]).values
            assert human.values == human0.with_values_at([(stove, h)]).values
    # The world's stove on, the human's off: the first write aligns them,
    # so the human follows the second.
    world, human = follow_world(
        world0.with_values_at([(stove, "on")]), cooking.problem.human_belief,
        [(stove, "off"), (stove, "on")],
    )
    assert (world.values[stove], human.values[stove]) == ("on", "on")


def test_all_initial_states_distinct(cooking, box):
    for bundle, name in ((cooking, "cooking"), (box, "box")):
        instances = generate_initial_states(bundle, DEFAULT_SPECS[name])
        keys = {(i.world.values, i.human.values) for i in instances}
        assert len(keys) == 512
        assert sum(i.aligned for i in instances) == 64
        assert sum(i.world.values != i.human.values for i in instances) == 448


def test_zero_flips_all_aligned(cooking):
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(),
    )
    instances = generate_initial_states(cooking, spec)
    assert len(instances) == 64
    assert all(i.aligned for i in instances)


def test_flip_must_be_world_dim(cooking):
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(("HumanHasPasta", ("false", "true")),) * 3,
    )
    with pytest.raises(SpecMismatch):
        generate_initial_states(cooking, spec)


def test_flip_dimensions_must_name_distinct_attributes(cooking):
    # Three flips of one attribute would give 512 instances but only 128
    # distinct states.
    spec = GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(("HumanHasPasta", ("false", "true")),) * 3,
    )
    with pytest.raises(SpecMismatch, match="the flip dimension 'HumanHasPasta' repeats a"):
        generate_initial_states(cooking, spec)


SMALL_SPEC = GeneratorSpec(
    world_dims=(
        ("PastaLoc", ("Kitchen", "Room")),
        ("SaltInPot", ("false", "true")),
    ),
    flip_dims=(("SaltInPot", ("false", "true")),),
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
    config = ExperimentConfig(domain="cooking", spec=SMALL_SPEC)
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


def test_run_experiment_needs_a_spec_for_a_domain_file(tmp_path):
    # A domain file has no default grid; with a spec it runs as the builtin.
    path = tmp_path / "cooking.dom"
    path.write_text(COOKING_DOM)
    with pytest.raises(SpecMismatch, match="no default generator spec for domain"):
        run_experiment(ExperimentConfig(domain=str(path)))
    config = ExperimentConfig(domain=str(path), spec=SMALL_SPEC)
    _, from_file = run_experiment(config)
    _, builtin = run_experiment(replace(config, domain="cooking"))
    assert [(r.mode, r.outcome, r.report) for r in from_file] == [
        (r.mode, r.outcome, r.report) for r in builtin
    ]


def test_run_experiment_plans_from_the_given_start(cooking):
    config = ExperimentConfig(domain="cooking", spec=SMALL_SPEC, start="human")
    _, results = run_experiment(config)
    human_first = cooking.with_start("human")
    instances = generate_initial_states(human_first, SMALL_SPEC)
    for r in results:
        want = run_instance(human_first, instances[r.instance.index], r.mode)
        assert (r.outcome, r.report, r.communicates) == (
            want.outcome, want.report, want.communicates
        )
    _, robot_first = run_experiment(replace(config, start=None))
    assert [r.report for r in results] != [r.report for r in robot_first]


def test_a_plan_that_fails_is_counted_as_an_error():
    # Depth 1 prunes every plan's first step: each instance raises
    # DepthExceeded, which the row counts apart from the replay failures.
    config = ExperimentConfig(domain="cooking", spec=SMALL_SPEC, depth_bound=1)
    table, results = run_experiment(config)
    assert {r.outcome for r in results} == {"error:DepthExceeded"}
    for row in table.rows:
        assert (row.n, row.n_error, row.n_success, row.n_na, row.n_idl) == (8, 8, 0, 0, 0)
        assert (row.n_failed, row.na_rate, row.idl_rate) == (0, 0.0, 0.0)


def test_run_experiment_rejects_a_repeated_mode():
    # A repeated mode would plan every instance twice into one row.
    with pytest.raises(BadArgument, match="solver mode 'new' is given twice"):
        run_experiment(ExperimentConfig(modes=("new", "legacy", "new")))


@pytest.mark.parametrize("modes", [("new", "neww"), ("legacy", "")])
def test_run_experiment_rejects_an_unknown_mode_before_any_plan(modes, monkeypatch):
    # Not after planning every instance of the modes before it.
    calls = 0
    run = experiment.run_instance

    def counted(*args):
        nonlocal calls
        calls += 1
        return run(*args)

    monkeypatch.setattr(experiment, "run_instance", counted)
    with pytest.raises(BadArgument, match=f"unknown solver mode {modes[1]!r}"):
        run_experiment(ExperimentConfig(domain="cooking", modes=modes))
    assert calls == 0


@pytest.mark.parametrize("bound", [0, -1, True])
def test_run_experiment_rejects_a_bad_depth_bound(bound):
    # Before any plan runs, not as one error row per instance.
    with pytest.raises(BadArgument, match="depth bound must be a positive int"):
        run_experiment(ExperimentConfig(domain="cooking", depth_bound=bound))


# -- the grid written by index against the bundle API --------------------------


def ref_generate(bundle, spec):
    """The grid built through ``with_world`` and ``with_human_belief``, one
    bundle per instance, as it was built before each dimension was resolved
    once."""
    if not {n for n, _ in spec.flip_dims} <= {n for n, _ in spec.world_dims}:
        raise SpecMismatch("flippable attributes must be world dimensions")
    out = []
    for world_bits in itertools.product((0, 1), repeat=len(spec.world_dims)):
        overrides = {name: values[bit] for (name, values), bit in zip(spec.world_dims, world_bits)}
        base = bundle.with_world(overrides)
        for flip_bits in itertools.product((0, 1), repeat=len(spec.flip_dims)):
            human = {
                name: values[1] if overrides[name] == values[0] else values[0]
                for (name, values), bit in zip(spec.flip_dims, flip_bits)
                if bit
            }
            b = base.with_human_belief(human) if human else base
            out.append((len(out), world_bits, flip_bits, b.problem.world, b.problem.human_belief))
    return out


def as_rows(instances):
    return [
        (index, world_bits, flip_bits, w.owner, w.values, h.owner, h.values, w.universe, h.universe)
        for index, world_bits, flip_bits, w, h in instances
    ]


NO_FLIPS = GeneratorSpec(world_dims=DEFAULT_SPECS["cooking"].world_dims, flip_dims=())


@pytest.mark.parametrize(
    "domain, spec",
    [
        ("cooking", DEFAULT_SPECS["cooking"]),
        ("box", DEFAULT_SPECS["box"]),
        ("cooking", SMALL_SPEC),
        ("cooking", NO_FLIPS),
        ("diverged", NO_STOVE_FLIP),
    ],
    ids=["cooking", "box", "small", "no-flips", "diverged"],
)
def test_the_grid_equals_the_bundle_api_grid(cooking, box, domain, spec):
    bundle = box if domain == "box" else cooking
    if domain == "diverged":
        # The human starts off believing otherwise of a world dimension and
        # of a dimension no spec names, so it follows the world on the rest.
        stove = "on" if bundle.problem.world.get(bundle.attr("Stove")) == "off" else "off"
        robot_at = bundle.problem.world.get(bundle.attr("AgtAt(robot)"))
        elsewhere = "Room" if robot_at == "Kitchen" else "Kitchen"
        bundle = bundle.with_human_belief({"Stove": stove, "AgtAt(robot)": elsewhere})
    got = [
        (i.index, i.world_bits, i.flip_bits, i.world, i.human)
        for i in generate_initial_states(bundle, spec)
    ]
    assert as_rows(got) == as_rows(ref_generate(bundle, spec))


def _with_dim(position, dim, flips=DEFAULT_SPECS["cooking"].flip_dims):
    dims = list(DEFAULT_SPECS["cooking"].world_dims)
    dims[position] = dim
    return GeneratorSpec(world_dims=tuple(dims), flip_dims=flips)


BAD_SPECS = {
    "unknown-attribute": _with_dim(0, ("NoSuch", ("a", "b"))),
    "malformed-name": _with_dim(4, ("HumanHasPasta(", ("false", "true"))),
    "flip-not-a-dimension": _with_dim(3, ("Stove(", ("off", "on"))),
    "bad-first-value": _with_dim(3, ("Stove", ("warm", "on"))),
    "bad-second-value": _with_dim(3, ("Stove", ("off", "warm"))),
    "one-value": _with_dim(3, ("Stove", ("off",))),
    "bad-flip-value": GeneratorSpec(
        world_dims=DEFAULT_SPECS["cooking"].world_dims,
        flip_dims=(("PastaLoc", ("Kitchen", "Room")), ("SaltInPot", ("false", "true")),
                   ("Stove", ("off", "hot"))),
    ),
}


@pytest.mark.parametrize("name", BAD_SPECS)
def test_a_bad_spec_raises_as_the_bundle_api_raises(cooking, name):
    spec = BAD_SPECS[name]
    with pytest.raises(Exception) as want:
        ref_generate(cooking, spec)
    with pytest.raises(type(want.value)) as got:
        generate_initial_states(cooking, spec)
    assert str(got.value) == str(want.value)


def test_world_dimensions_must_name_distinct_attributes(cooking):
    # Two names for one attribute: the grid would repeat its states.
    spec = _with_dim(1, ("AgtAt( human )", ("Kitchen", "Room")), flips=())
    with pytest.raises(SpecMismatch, match="distinct attributes"):
        generate_initial_states(cooking, spec)
