"""Tests for the strategy exploration (Algorithms 2 and 3)."""


from repro.core import StrategyParams, default_space
from repro.core.exploration import (
    FAILED_TRIAL_LOSS,
    ExplorationReport,
    make_batch_evaluator,
    parameter_exploration,
    strategy_exploration,
)
from repro.runtime import Journal
from repro.tpe import Space, Uniform


def bowl_objective(params: dict) -> float:
    """Quadratic bowl over two strategy dimensions, rest ignored."""
    return (params.get("mu", 0) - 2.0) ** 2 + (params.get("tau", 0) - 0.3) ** 2


class TestParameterExploration:
    def test_shrinks_ranges(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0), Uniform("tau", 0.0, 1.0)])
        new_space, early, result = parameter_exploration(
            bowl_objective, space, ["mu", "tau"], {}, max_evals=30, patience=30, rng=rng
        )
        mu = new_space.dim("mu")
        assert mu.hi - mu.lo < 8.0
        assert mu.lo <= 2.0 + 2.0 and mu.hi >= 2.0 - 2.0

    def test_fixed_params_passed_through(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0), Uniform("tau", 0.0, 1.0)])
        seen = []

        def objective(params):
            seen.append(params)
            return bowl_objective(params)

        parameter_exploration(
            objective, space, ["mu"], {"tau": 0.5}, max_evals=5, patience=5, rng=rng
        )
        assert all(p["tau"] == 0.5 for p in seen)
        assert all("mu" in p for p in seen)

    def test_early_stop_flag(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0)])
        _, early, result = parameter_exploration(
            lambda p: 1.0, space, ["mu"], {}, max_evals=50, patience=4, rng=rng
        )
        assert early
        assert len(result.trials) <= 10


class TestStrategyExploration:
    def test_full_protocol_on_cheap_objective(self):
        report = strategy_exploration(
            bowl_objective,
            global_evals=12,
            group_evals=6,
            patience=4,
            max_group_rounds=2,
            rng=0,
        )
        assert isinstance(report, ExplorationReport)
        assert isinstance(report.params, StrategyParams)
        assert report.evaluations > 12
        # Best-seen loss must be a meaningful optimum of the bowl.
        assert report.best_loss < 1.0
        assert report.group_rounds >= 1
        # And the final midpoint configuration must be near the optimum
        # along the explored dimensions (ranges shrank around it).
        final = bowl_objective(
            {"mu": report.params.mu, "tau": report.params.tau}
        )
        assert final < bowl_objective(default_space().midpoint()) + 1.0

    def test_final_params_valid(self):
        report = strategy_exploration(
            bowl_objective, global_evals=8, group_evals=4, patience=3, rng=1
        )
        params = report.params
        assert params.pu_low <= params.pu_high + 1e-9
        assert 1 <= params.xi <= 10
        assert params.legalizer in ("abacus", "tetris")

    def test_history_covers_groups(self):
        report = strategy_exploration(
            bowl_objective, global_evals=8, group_evals=4, patience=3, rng=2
        )
        stages = [h[0] for h in report.history]
        assert stages[0] == "global"
        assert "formula" in stages
        assert "schedule" in stages


class _StructuredObjective:
    """Minimal PlacementObjective stand-in with a poisonable raw eval."""

    def __init__(self, poison=()):
        self.poison = set(poison)
        self.raw_calls = []

    def evaluate_raw(self, params):
        self.raw_calls.append(dict(params))
        if params["mu"] in self.poison:
            raise RuntimeError("solver exploded")
        return (params["mu"] * 0.1, 100.0 + params["mu"])

    def loss_from_raw(self, raw):
        return raw[0]

    def cache_key(self, params):
        return f"mu={params['mu']}"


class TestBatchEvaluator:
    def test_failed_trial_scores_penalty_not_abort(self):
        objective = _StructuredObjective(poison={3.0})
        evaluate = make_batch_evaluator(objective)
        losses = evaluate([{"mu": 1.0}, {"mu": 3.0}, {"mu": 2.0}])
        assert losses[0] == objective.loss_from_raw((0.1, 101.0))
        assert losses[1] == FAILED_TRIAL_LOSS
        assert losses[2] == objective.loss_from_raw((0.2, 102.0))
        details = evaluate.last_details
        assert details[0]["overflow"] == 0.1 and not details[0]["cached"]
        assert details[1]["failed"] and "solver exploded" in details[1]["error"]
        assert "failed" not in details[2]

    def test_failed_trial_journaled(self, tmp_path):
        """The bugfix: a raising trial leaves a durable ``failed`` record."""
        journal = Journal(tmp_path / "explore.jsonl")
        objective = _StructuredObjective(poison={3.0})
        evaluate = make_batch_evaluator(objective, journal=journal)
        evaluate([{"mu": 3.0}, {"mu": 1.0}])
        records = {r["key"]: r for r in journal.records()}
        assert records["mu=3.0"]["failed"].startswith("RuntimeError")
        assert records["mu=1.0"]["overflow"] == 0.1
        assert "wirelength" in records["mu=1.0"]

    def test_resume_replays_failure_without_rerunning(self, tmp_path):
        """--resume must not re-run poisoned params on every restart."""
        journal = Journal(tmp_path / "explore.jsonl")
        first = _StructuredObjective(poison={3.0})
        make_batch_evaluator(first, journal=journal)([{"mu": 3.0}, {"mu": 1.0}])

        fresh = _StructuredObjective(poison={3.0})
        evaluate = make_batch_evaluator(fresh, journal=Journal(journal.path))
        losses = evaluate([{"mu": 3.0}, {"mu": 1.0}, {"mu": 2.0}])
        assert losses[0] == FAILED_TRIAL_LOSS
        assert losses[1] == fresh.loss_from_raw((0.1, 101.0))
        # Only the genuinely new params hit the objective.
        assert [p["mu"] for p in fresh.raw_calls] == [2.0]
        details = evaluate.last_details
        assert details[0]["cached"] and details[0]["failed"]
        assert details[1]["cached"]

    def test_failure_memoized_within_run(self):
        objective = _StructuredObjective(poison={3.0})
        evaluate = make_batch_evaluator(objective)
        evaluate([{"mu": 3.0}])
        evaluate([{"mu": 3.0}])
        # No journal: in-run memoization does not apply, both evaluate.
        assert len(objective.raw_calls) == 2

    def test_unstructured_objective_maps_directly(self):
        evaluate = make_batch_evaluator(lambda p: p["mu"] ** 2)
        assert evaluate([{"mu": 2.0}, {"mu": 3.0}]) == [4.0, 9.0]
        assert evaluate.last_details == [None, None]


class TestTransport:
    def test_transport_sees_only_unreplayed_candidates(self, tmp_path):
        journal = Journal(tmp_path / "explore.jsonl")
        objective = _StructuredObjective()
        make_batch_evaluator(objective, journal=journal)([{"mu": 1.0}])
        waves = []

        def transport(pending):
            waves.append([p["mu"] for p in pending])
            return [((0.5, 105.0), True), RuntimeError("shard lost")]

        evaluate = make_batch_evaluator(
            objective, journal=Journal(journal.path), transport=transport
        )
        losses = evaluate([{"mu": 1.0}, {"mu": 5.0}, {"mu": 6.0}])
        assert waves == [[5.0, 6.0]]
        assert losses == [0.1, 0.5, FAILED_TRIAL_LOSS]
        details = evaluate.last_details
        assert details[1] == {"cached": True, "overflow": 0.5,
                              "wirelength": 105.0}
        assert details[2]["failed"] and details[2]["error"] == "shard lost"
        records = {r["key"]: r for r in journal.records()}
        assert records["mu=6.0"]["failed"] == "RuntimeError: shard lost"


class TestWarmStart:
    def test_priors_seed_sampler_without_spending_evaluations(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0), Uniform("tau", 0.0, 1.0)])
        priors = [({"mu": 2.0, "tau": 0.3}, 0.0), ({"mu": 7.5, "tau": 0.9}, 50.0)]
        _, _, result = parameter_exploration(
            bowl_objective, space, ["mu", "tau"], {}, max_evals=10,
            patience=10, rng=rng, warm_start=priors,
        )
        # Budget counts only this run's own evaluations.
        assert len(result.trials) <= 10

    def test_out_of_range_priors_clipped(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0)])
        seen = []

        def objective(params):
            seen.append(params)
            return bowl_objective(params)

        parameter_exploration(
            objective, space, ["mu"], {}, max_evals=8, patience=8,
            rng=rng, warm_start=[({"mu": 500.0}, 1.0), ({"mu": -3.0}, 2.0)],
        )
        # Clipped priors must not drag suggestions outside the space.
        assert all(0.0 <= p["mu"] <= 8.0 for p in seen)

    def test_priors_missing_a_dimension_are_skipped(self, rng):
        space = Space([Uniform("mu", 0.0, 8.0), Uniform("tau", 0.0, 1.0)])
        _, _, result = parameter_exploration(
            bowl_objective, space, ["mu", "tau"], {}, max_evals=6,
            patience=6, rng=rng, warm_start=[({"mu": 2.0}, 0.0)] * 40,
        )
        # A flood of partial priors neither crashes nor eats the budget.
        assert len(result.trials) >= 1
