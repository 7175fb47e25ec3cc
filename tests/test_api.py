"""Tests for the unified run facade (repro.api)."""

import pickle

import pytest

from repro import api, obs
from repro.core import PufferResult, StrategyParams
from repro.evalkit import run_benchmark
from repro.evalkit.runner import SuiteRunConfig, _default_flow_cell


class TestFlowRegistry:
    def test_canonical_names(self):
        assert api.FLOWS == ("commercial", "puffer", "replace", "wirelength")

    def test_aliases_resolve_to_canonical(self):
        for alias, canonical in api.FLOW_ALIASES.items():
            name, fn = api.resolve_flow(alias)
            assert name == canonical
            assert callable(fn)

    def test_unknown_flow_raises_typed_error(self):
        with pytest.raises(api.UnknownFlowError) as info:
            api.resolve_flow("typo")
        assert info.value.flow == "typo"
        assert info.value.available == api.FLOWS
        assert "typo" in str(info.value)
        assert "puffer" in str(info.value)

    def test_unknown_flow_is_a_value_error(self):
        with pytest.raises(ValueError):
            api.resolve_flow("typo")

    def test_callable_passes_through(self):
        def my_flow(design, placement):
            return None

        name, fn = api.resolve_flow(my_flow)
        assert name == "my_flow"
        assert fn is my_flow

    def test_strategy_binds_into_puffer_flow(self):
        strategy = StrategyParams(mu=2.5)
        _, fn = api.resolve_flow("puffer", strategy=strategy)
        assert fn.keywords["strategy"] is strategy

    def test_resolved_flows_are_picklable(self):
        for alias in api.TABLE2_COLUMNS:
            _, fn = api.resolve_flow(alias, strategy=StrategyParams())
            pickle.loads(pickle.dumps(fn))

    def test_table2_flows_in_paper_order(self):
        flows = api.table2_flows()
        assert tuple(flows) == api.TABLE2_COLUMNS


class TestRun:
    def test_run_by_name_places_and_reports(self):
        result = api.run("OR1200", config=api.RunConfig(scale=0.002))
        assert result.flow == "puffer"
        assert isinstance(result.flow_result, PufferResult)
        assert result.hpwl > 0
        assert result.place_seconds > 0
        assert result.route_report is None
        assert result.verify_report is None

    def test_run_with_route_and_legality(self):
        result = api.run(
            "OR1200",
            config=api.RunConfig(scale=0.002, verify="cheap"),
            route=True,
        )
        assert result.route_report.wirelength > 0
        assert result.verify_report.ok
        assert "placement/overlap" in result.verify_report.checkers_run

    def test_run_accepts_design_instance(self):
        from repro.benchgen import make_design

        design = make_design("OR1200", scale=0.002)
        result = api.run(design, flow="wirelength")
        assert result.design is design
        assert result.flow == "wirelength"

    def test_run_writes_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        api.run("OR1200", config=api.RunConfig(scale=0.002), trace=path)
        names = {r["name"] for r in obs.read_trace(path) if r["type"] == "span"}
        assert "api/run" in names
        assert "gp/iteration" in names
        assert not obs.is_enabled()


class TestLegacyWrappersDelegate:
    def test_run_benchmark_returns_metrics_row(self):
        config = SuiteRunConfig(scale=0.002)
        flow = api.table2_flows()["PUFFER"]
        row = run_benchmark("OR1200", flow, config, "PUFFER")
        assert row.benchmark == "OR1200"
        assert row.placer == "PUFFER"
        assert row.hpwl > 0
        assert row.runtime > 0

    def test_default_flow_cell_unknown_name(self):
        with pytest.raises(api.UnknownFlowError, match="Bogus"):
            _default_flow_cell("OR1200", "Bogus", SuiteRunConfig(scale=0.002), None)


class TestRouteResult:
    @pytest.fixture(scope="class")
    def routed(self):
        from repro.benchgen import make_design

        design = make_design("OR1200", scale=0.002)
        api.run(design, flow="wirelength")
        return api.route(design)

    def test_route_returns_typed_result(self, routed):
        assert isinstance(routed, api.RouteResult)
        assert routed.route_seconds > 0
        assert routed.route_report.wirelength > 0

    def test_route_summary_is_json_safe(self, routed):
        import json

        summary = routed.to_summary()
        json.dumps(summary)
        assert summary["design"] == "OR1200"
        assert summary["route"]["wirelength"] == pytest.approx(
            routed.route_report.wirelength
        )
        assert summary["route"]["total_overflow"] == pytest.approx(
            routed.route_report.total_overflow
        )

    def test_missing_attribute_still_raises(self, routed):
        with pytest.raises(AttributeError):
            routed.not_a_metric


class TestRunSummary:
    def test_run_summary_is_json_safe(self):
        import json

        result = api.run("OR1200", config=api.RunConfig(scale=0.002))
        summary = result.to_summary()
        json.dumps(summary)
        assert set(summary) == {
            "design", "flow", "hpwl", "place_seconds", "route", "verify",
        }
        assert summary["design"] == "OR1200"
        assert summary["flow"] == "puffer"
        assert summary["hpwl"] == pytest.approx(result.hpwl)
        assert summary["route"] is None
        assert summary["verify"] is None


class TestExploreSeedNaming:
    @pytest.fixture()
    def capture_exploration(self, monkeypatch):
        from repro.core import exploration

        calls = {}

        def fake_exploration(objective, **kwargs):
            calls.update(kwargs)
            calls["report"] = exploration.ExplorationReport(
                params=StrategyParams(), best_loss=0.0, best_params={},
                evaluations=0, space=kwargs["space"], group_rounds=0,
            )
            return calls["report"]

        monkeypatch.setattr(exploration, "strategy_exploration", fake_exploration)
        return calls

    def test_seed_keyword_threads_through(self, capture_exploration):
        assert api.explore("OR1200", seed=11) is capture_exploration["report"]
        assert capture_exploration["rng"] == 11

    def test_rng_keyword_is_a_type_error(self, capture_exploration):
        with pytest.raises(TypeError, match="rng"):
            api.explore("OR1200", rng=13)
        assert capture_exploration == {}

    def test_default_seed_matches_old_rng_default(self, capture_exploration):
        api.explore("OR1200")
        assert capture_exploration["rng"] == 7


class TestSuiteAndExplore:
    def test_suite_facade_matches_runner(self, tmp_path):
        rows = api.suite(
            api.RunConfig(scale=0.002),
            benchmarks=["OR1200"],
            trace=tmp_path / "suite.jsonl",
        )
        assert [r.placer for r in rows] == list(api.TABLE2_COLUMNS)
        records = obs.read_trace(tmp_path / "suite.jsonl")
        assert sum(1 for r in records if r["name"] == "api/run") == 3

    def test_explore_traces_tpe_trials(self, tmp_path):
        path = tmp_path / "explore.jsonl"
        report = api.explore("OR1200", scale=0.0015, budget=3, trace=path)
        assert report.evaluations > 0
        records = obs.read_trace(path)
        trial_spans = [
            r for r in records if r["type"] == "span" and r["name"] == "tpe/trial"
        ]
        assert trial_spans
        stages = {
            r["attrs"]["stage"]
            for r in records
            if r["type"] == "span" and r["name"] == "explore/stage"
        }
        assert "global" in stages
