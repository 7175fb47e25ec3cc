"""Wire-format tests: versioned, lossless config round-trips (repro.schema)."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import StrategyParams
from repro.placer import PlacementParams
from repro.router import RouterParams
from repro.router.cost import CostParams
from repro.runtime import stable_hash
from repro.schema import (
    SCHEMA_VERSION,
    ExplorationReport,
    JobEvent,
    JobProgress,
    SchemaError,
    Trial,
)
from repro.verify import LEVELS

fast_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)

placement_params = st.builds(
    PlacementParams,
    target_density=st.floats(0.1, 1.0),
    grid_dim=st.one_of(st.none(), st.integers(8, 256)),
    target_overflow=st.floats(0.01, 0.5),
    max_iters=st.integers(30, 2000),
    min_iters=st.integers(1, 30),
    gamma_scale=positive,
    initial_noise=st.floats(0.0, 2.0),
    initial_placer=st.sampled_from(["star", "quadratic"]),
    seed=st.integers(0, 2**31),
)

router_params = st.builds(
    RouterParams,
    rrr_rounds=st.integers(0, 8),
    cost=st.builds(
        CostParams,
        congestion_weight=positive,
        history_increment=st.floats(0.0, 10.0),
        slack=st.floats(0.1, 1.0),
    ),
    maze_margin=st.integers(0, 20),
    pin_demand=st.floats(0.0, 1.0),
    use_z_patterns=st.booleans(),
)

strategy_params = st.builds(
    StrategyParams,
    alpha_local_cg=finite,
    beta=finite,
    mu=positive,
    xi=st.integers(0, 10),
    kernel_size=st.integers(1, 9),
    legal_area_cap=st.floats(0.0, 0.5),
    legalizer=st.sampled_from(["abacus", "tetris"]),
)

run_configs = st.builds(
    api.RunConfig,
    scale=positive,
    seed=st.integers(0, 2**31),
    placement=placement_params,
    router=router_params,
    strategy=st.one_of(st.none(), strategy_params),
    verify=st.sampled_from(LEVELS),
)


class TestRandomizedRoundTrips:
    @given(config=run_configs)
    @fast_settings
    def test_runconfig_round_trips_bit_identically(self, config):
        assert api.RunConfig.from_dict(config.to_dict()) == config

    @given(config=run_configs)
    @fast_settings
    def test_runconfig_survives_json(self, config):
        wire = json.loads(json.dumps(config.to_dict()))
        assert api.RunConfig.from_dict(wire) == config

    @given(config=run_configs)
    @fast_settings
    def test_cache_key_reproducible_across_serialization(self, config):
        """The memo key of a config equals the key of its round-trip."""
        wire = json.loads(json.dumps(config.to_dict()))
        rebuilt = api.RunConfig.from_dict(wire)
        assert stable_hash(config.to_dict()) == stable_hash(rebuilt.to_dict())

    @given(params=placement_params)
    @fast_settings
    def test_placement_params_round_trip(self, params):
        assert PlacementParams.from_dict(params.to_dict()) == params

    @given(params=router_params)
    @fast_settings
    def test_router_params_round_trip_with_nested_cost(self, params):
        rebuilt = RouterParams.from_dict(json.loads(json.dumps(params.to_dict())))
        assert rebuilt == params
        assert isinstance(rebuilt.cost, CostParams)

    @given(params=strategy_params)
    @fast_settings
    def test_strategy_params_round_trip(self, params):
        assert StrategyParams.from_dict(params.to_dict()) == params


metric_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-(2**31), 2**31),
    st.booleans(),
)

job_progress = st.builds(
    JobProgress,
    stage=st.sampled_from(["gp", "padding", "route"]),
    step=st.integers(0, 10_000),
    metrics=st.dictionaries(
        st.sampled_from(["hpwl", "overflow", "round", "gp_iteration"]),
        metric_values,
        max_size=4,
    ),
)

job_events = st.one_of(
    st.builds(
        JobEvent,
        seq=st.integers(0, 2**31),
        kind=st.just("state"),
        job_id=st.uuids().map(str),
        ts=st.floats(0, 2e9, allow_nan=False),
        state=st.sampled_from(["queued", "running", "done", "failed", "cancelled"]),
        progress=st.none(),
    ),
    st.builds(
        JobEvent,
        seq=st.integers(0, 2**31),
        kind=st.just("progress"),
        job_id=st.uuids().map(str),
        ts=st.floats(0, 2e9, allow_nan=False),
        state=st.none(),
        progress=job_progress,
    ),
)


class TestJobEventRoundTrips:
    @given(event=job_events)
    @fast_settings
    def test_event_round_trips_bit_identically(self, event):
        assert JobEvent.from_dict(event.to_dict()) == event

    @given(event=job_events)
    @fast_settings
    def test_event_survives_json(self, event):
        wire = json.loads(json.dumps(event.to_dict()))
        rebuilt = JobEvent.from_dict(wire)
        assert rebuilt == event
        if event.kind == "progress":
            assert isinstance(rebuilt.progress, JobProgress)

    @given(progress=job_progress)
    @fast_settings
    def test_progress_round_trips(self, progress):
        assert JobProgress.from_dict(progress.to_dict()) == progress

    def test_event_version_stamped_and_nested(self):
        event = JobEvent(
            seq=0, kind="progress", job_id="j", ts=1.0,
            progress=JobProgress(stage="gp", step=3, metrics={"hpwl": 5.0}),
        )
        wire = event.to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert wire["progress"]["schema_version"] == SCHEMA_VERSION

    def test_unknown_event_key_rejected(self):
        wire = JobEvent(seq=0, kind="state", job_id="j", ts=0.0, state="done").to_dict()
        wire["sequence"] = 1
        with pytest.raises(SchemaError, match="sequence"):
            JobEvent.from_dict(wire)

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            JobEvent(seq=0, kind="telemetry", job_id="j", ts=0.0)

    def test_state_event_requires_state(self):
        with pytest.raises(SchemaError, match="state"):
            JobEvent(seq=0, kind="state", job_id="j", ts=0.0)

    def test_progress_event_requires_payload(self):
        with pytest.raises(SchemaError, match="progress"):
            JobEvent(seq=1, kind="progress", job_id="j", ts=0.0)

    def test_bad_stage_and_step_rejected(self):
        with pytest.raises(SchemaError, match="stage"):
            JobProgress(stage="detailed", step=0)
        with pytest.raises(SchemaError, match="step"):
            JobProgress(stage="gp", step=-1)

    def test_unsupported_event_version_rejected(self):
        wire = JobEvent(seq=0, kind="state", job_id="j", ts=0.0, state="done").to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            JobEvent.from_dict(wire)


space_values = st.one_of(
    finite,
    st.integers(-(2**31), 2**31),
    st.text(max_size=8),
)

param_dicts = st.dictionaries(
    st.sampled_from(["alpha_local_cg", "beta", "mu", "xi", "legalizer"]),
    space_values,
    max_size=4,
)

explore_configs = st.builds(
    api.ExploreConfig,
    design=st.sampled_from(["OR1200", "CT_SCAN", "ASIC_ENTITY"]),
    scale=positive,
    budget=st.integers(1, 64),
    group_evals=st.one_of(st.none(), st.integers(1, 32)),
    patience=st.one_of(st.none(), st.integers(1, 32)),
    max_group_rounds=st.integers(1, 4),
    seed=st.integers(0, 2**31),
    batch_size=st.integers(1, 16),
    wl_weight=st.floats(0.0, 1.0),
    priors=st.sampled_from(api.PRIOR_MODES),
    prior_limit=st.integers(0, 256),
)

wire_trials = st.builds(
    Trial,
    index=st.integers(0, 2**31),
    stage=st.sampled_from(["global", "formula", "schedule", "smoothing"]),
    params=param_dicts,
    loss=finite,
    overflow=st.one_of(st.none(), finite),
    wirelength=st.one_of(st.none(), finite),
    cached=st.booleans(),
)

exploration_reports = st.builds(
    ExplorationReport,
    design=st.sampled_from(["OR1200", "DES_PERF"]),
    params=param_dicts,
    best_loss=finite,
    best_params=param_dicts,
    evaluations=st.integers(0, 10**6),
    group_rounds=st.integers(0, 16),
    history=st.lists(
        st.tuples(
            st.sampled_from(["global", "formula", "schedule"]), finite
        ).map(list),
        max_size=6,
    ),
    trials=st.lists(wire_trials, max_size=3),
)

trial_events = st.builds(
    JobEvent,
    seq=st.integers(0, 2**31),
    kind=st.just("trial"),
    job_id=st.uuids().map(str),
    ts=st.floats(0, 2e9, allow_nan=False),
    state=st.none(),
    progress=st.none(),
    trial=wire_trials,
)


class TestExplorationWireRoundTrips:
    """PR-10 wire types: ExploreConfig, Trial, ExplorationReport."""

    @given(config=explore_configs)
    @fast_settings
    def test_explore_config_round_trips_bit_identically(self, config):
        assert api.ExploreConfig.from_dict(config.to_dict()) == config

    @given(config=explore_configs)
    @fast_settings
    def test_explore_config_survives_json(self, config):
        wire = json.loads(json.dumps(config.to_dict()))
        assert api.ExploreConfig.from_dict(wire) == config

    @given(config=explore_configs)
    @fast_settings
    def test_explore_config_stable_hash_reproducible(self, config):
        """The transfer-prior / memo key survives serialization."""
        wire = json.loads(json.dumps(config.to_dict()))
        rebuilt = api.ExploreConfig.from_dict(wire)
        assert stable_hash(config.to_dict()) == stable_hash(rebuilt.to_dict())

    @given(trial=wire_trials)
    @fast_settings
    def test_trial_round_trips_bit_identically(self, trial):
        assert Trial.from_dict(json.loads(json.dumps(trial.to_dict()))) == trial

    @given(report=exploration_reports)
    @fast_settings
    def test_report_round_trips_with_nested_trials(self, report):
        rebuilt = ExplorationReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert rebuilt == report
        assert all(isinstance(t, Trial) for t in rebuilt.trials)

    @given(event=trial_events)
    @fast_settings
    def test_trial_event_round_trips(self, event):
        rebuilt = JobEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event
        assert isinstance(rebuilt.trial, Trial)

    def test_explore_config_version_stamped(self):
        wire = api.ExploreConfig().to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION

    def test_explore_config_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="budgett"):
            api.ExploreConfig.from_dict({"budgett": 12})

    def test_explore_config_unsupported_version_rejected(self):
        wire = api.ExploreConfig().to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            api.ExploreConfig.from_dict(wire)

    def test_explore_config_semantic_validation_at_boundary(self):
        with pytest.raises(ValueError, match="budget"):
            api.ExploreConfig.from_dict({"budget": 0})
        with pytest.raises(ValueError, match="priors"):
            api.ExploreConfig.from_dict({"priors": "always"})
        with pytest.raises(ValueError, match="batch_size"):
            api.ExploreConfig(batch_size=0)

    def test_trial_unknown_key_rejected(self):
        wire = Trial(index=0, stage="global", params={}, loss=1.0).to_dict()
        wire["cost"] = 2.0
        with pytest.raises(SchemaError, match="cost"):
            Trial.from_dict(wire)

    def test_trial_validation(self):
        with pytest.raises(SchemaError, match="index"):
            Trial(index=-1, stage="global", params={}, loss=0.0)
        with pytest.raises(SchemaError, match="stage"):
            Trial(index=0, stage="", params={}, loss=0.0)
        with pytest.raises(SchemaError, match="params"):
            Trial(index=0, stage="global", params=[], loss=0.0)
        with pytest.raises(SchemaError, match="loss"):
            Trial(index=0, stage="global", params={}, loss="cheap")

    def test_report_unknown_key_rejected(self):
        wire = ExplorationReport(
            design="OR1200", params={}, best_loss=0.0, best_params={},
            evaluations=1, group_rounds=1,
        ).to_dict()
        wire["best"] = 0.0
        with pytest.raises(SchemaError, match="best"):
            ExplorationReport.from_dict(wire)

    def test_report_unsupported_version_rejected(self):
        wire = ExplorationReport(
            design="OR1200", params={}, best_loss=0.0, best_params={},
            evaluations=1, group_rounds=1,
        ).to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            ExplorationReport.from_dict(wire)

    def test_report_history_normalized_to_lists(self):
        """Tuple history entries compare bit-identical after JSON."""
        report = ExplorationReport(
            design="OR1200", params={}, best_loss=0.5, best_params={"mu": 2.0},
            evaluations=3, group_rounds=1, history=[("global", 0.5)],
        )
        assert report.history == [["global", 0.5]]
        assert ExplorationReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        ) == report

    def test_trial_event_requires_payload(self):
        with pytest.raises(SchemaError, match="trial"):
            JobEvent(seq=0, kind="trial", job_id="explore-1", ts=0.0)


class TestBoundaryValidation:
    def test_schema_version_stamped_everywhere(self):
        wire = api.RunConfig().to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert wire["placement"]["schema_version"] == SCHEMA_VERSION
        assert wire["router"]["schema_version"] == SCHEMA_VERSION
        assert wire["router"]["cost"]["schema_version"] == SCHEMA_VERSION

    def test_unsupported_version_rejected(self):
        wire = api.RunConfig().to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            api.RunConfig.from_dict(wire)

    def test_nested_version_rejected(self):
        wire = api.RunConfig().to_dict()
        wire["placement"]["schema_version"] = 99
        with pytest.raises(SchemaError, match="PlacementParams"):
            api.RunConfig.from_dict(wire)

    @pytest.mark.parametrize(
        "wire",
        [{"sale": 0.004}, {"mode": "slots"}, {"slots": {}}],
        ids=["sale", "mode", "slots"],
    )
    def test_unknown_top_level_key_rejected(self, wire):
        (key,) = wire
        with pytest.raises(SchemaError, match=key):
            api.RunConfig.from_dict(wire)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(SchemaError, match="max_itters"):
            api.RunConfig.from_dict({"placement": {"max_itters": 100}})

    def test_bad_verify_level_raises_at_construction(self):
        with pytest.raises(ValueError, match="verify level"):
            api.RunConfig(verify="paranoid")
        with pytest.raises(ValueError, match="verify level"):
            api.RunConfig.from_dict({"verify": "paranoid"})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(SchemaError, match="dict"):
            api.RunConfig.from_dict([1, 2, 3])

    def test_missing_keys_keep_defaults(self):
        config = api.RunConfig.from_dict({"scale": 0.002})
        assert config.scale == 0.002
        assert config.seed == api.RunConfig().seed
        assert config.placement == PlacementParams()

    def test_strategy_none_round_trips(self):
        config = api.RunConfig()
        assert config.to_dict()["strategy"] is None
        assert api.RunConfig.from_dict(config.to_dict()).strategy is None

    def test_strategy_exploration_dicts_still_accepted(self):
        """The pre-wire exploration call style keeps working."""
        params = StrategyParams.from_dict({"xi": 4.6, "kernel_size": 5.2})
        assert params.xi == 5 and params.kernel_size == 5
        with pytest.raises(KeyError):
            StrategyParams.from_dict({"not_a_knob": 1.0})

    def test_suite_level_config_fails_early_not_late(self):
        """api.suite() can no longer thread an invalid verify level in."""
        with pytest.raises(ValueError, match="verify level"):
            api.suite(api.RunConfig(verify="sometimes"))
