"""Determinism, caching, and resume tests for the runtime-backed suite."""

import pytest

from repro import api, obs
from repro.baselines import place_replace_like, place_wirelength_driven
from repro.benchgen import make_design
from repro.evalkit import SuiteRunConfig, run_suite
from repro.evalkit.runner import suite_cell_key
from repro.router import GlobalRouter
from repro.runtime import ArtifactCache, Journal

SCALE = 0.0015
BENCHMARKS = ["OR1200"]


def traced_suite(*args, **kwargs):
    """``(rows, tracer)`` of one :func:`run_suite` under its own tracer."""
    with obs.tracing(obs.Tracer()) as tracer:
        rows = run_suite(*args, **kwargs)
    return rows, tracer


def count(tracer, kind: str) -> int:
    """How many ``runtime/<kind>`` events ``tracer`` counted."""
    return int(tracer.metrics().get("runtime/" + kind, {}).get("value", 0))


def deterministic_fields(row):
    """Everything about a row except wall-clock runtime."""
    return (row.benchmark, row.placer, row.hof, row.vof, row.wirelength, row.hpwl)


@pytest.fixture(scope="module")
def config():
    return SuiteRunConfig(scale=SCALE, benchmarks=BENCHMARKS)


@pytest.fixture(scope="module")
def serial_rows(config):
    return run_suite(config)


class TestSerialDeterminism:
    def test_jobs1_matches_pre_subsystem_serial_loop(self, config, serial_rows):
        """run_suite(jobs=1) must equal the historical serial loop:
        benchmark-major iteration, fresh design per cell, route, score."""
        legacy = []
        for name in config.benchmarks:
            for flow_name, flow in api.table2_flows().items():
                design = make_design(name, config.scale, seed=config.seed)
                flow(design, config.placement)
                report = GlobalRouter(design, config.router).run()
                legacy.append(
                    (name, flow_name, report.hof, report.vof,
                     report.wirelength, design.hpwl())
                )
        assert [deterministic_fields(r) for r in serial_rows] == legacy

    def test_explicit_seed_changes_design(self, config):
        base = make_design("OR1200", SCALE, seed=0)
        offset = make_design("OR1200", SCALE, seed=1)
        assert base.hpwl() != offset.hpwl()
        # And the cache key tracks the seed.
        seeded = SuiteRunConfig(scale=SCALE, benchmarks=BENCHMARKS, seed=1)
        assert suite_cell_key("OR1200", "PUFFER", config) != suite_cell_key(
            "OR1200", "PUFFER", seeded
        )


class TestParallelDeterminism:
    def test_jobs2_equals_jobs1(self, config, serial_rows):
        parallel = run_suite(config, jobs=2)
        assert [deterministic_fields(r) for r in parallel] == [
            deterministic_fields(r) for r in serial_rows
        ]

    def test_custom_picklable_flows_parallelize(self, config):
        flows = {"WL": place_wirelength_driven, "RePlAce": place_replace_like}
        serial = run_suite(config, flows=flows)
        parallel = run_suite(config, flows=flows, jobs=2)
        assert [deterministic_fields(r) for r in parallel] == [
            deterministic_fields(r) for r in serial
        ]

    def test_lambda_flows_degrade_inline(self, config):
        flows = {"WL": lambda d, p: place_wirelength_driven(d, p)}
        rows, tracer = traced_suite(config, flows=flows, jobs=2)
        assert len(rows) == 1
        assert count(tracer, "task_inline") == 1


class TestCacheAndResume:
    def test_cache_rerun_skips_work(self, config, serial_rows, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first, cold = traced_suite(config, cache=cache_dir)
        assert count(cold, "task_finished") == len(first)
        second, warm = traced_suite(config, cache=cache_dir)
        assert count(warm, "task_finished") == 0
        assert count(warm, "cache_hit") == len(first)
        assert [deterministic_fields(r) for r in second] == [
            deterministic_fields(r) for r in first
        ]

    def test_cache_invalidated_by_param_change(self, config, tmp_path):
        cache_dir = str(tmp_path / "cache")
        flows = {"WL": place_wirelength_driven}
        run_suite(config, flows=flows, cache=cache_dir)
        other = SuiteRunConfig(scale=SCALE, benchmarks=BENCHMARKS, seed=5)
        _rows, tracer = traced_suite(other, flows=flows, cache=cache_dir)
        assert count(tracer, "cache_hit") == 0
        assert count(tracer, "task_finished") == 1

    def test_resume_after_kill(self, config, serial_rows, tmp_path):
        """Simulate a mid-matrix kill by truncating the journal, then
        resume: the final table must match the uninterrupted run and
        only the missing cells may execute."""
        journal_path = str(tmp_path / "suite.journal")
        full = run_suite(config, journal=journal_path)
        journal = Journal(journal_path)
        records = journal.records()
        assert len(records) == len(full)
        # Keep only the first record, as if the run died after one cell.
        journal.clear()
        journal.append(records[0])
        resumed, tracer = traced_suite(config, journal=journal_path, resume=True)
        assert count(tracer, "journal_replayed") == 1
        assert count(tracer, "task_finished") == len(full) - 1
        assert [deterministic_fields(r) for r in resumed] == [
            deterministic_fields(r) for r in full
        ]
        # The journal is complete again afterwards.
        assert len(Journal(journal_path).records()) == len(full)

    def test_fresh_run_clears_stale_journal(self, config, tmp_path):
        journal_path = str(tmp_path / "suite.journal")
        journal = Journal(journal_path)
        journal.append({"key": "stale", "row": {}})
        flows = {"WL": place_wirelength_driven}
        _rows, tracer = traced_suite(config, flows=flows, journal=journal_path)
        assert count(tracer, "journal_replayed") == 0
        keys = [r["key"] for r in Journal(journal_path).records()]
        assert "stale" not in keys

    def test_shared_cache_object_counts_hits_per_run(self, config, tmp_path):
        """Two runs on one cache object: each run's tracer sees its own
        lookups, and the first run's counters stop at its end."""
        flows = {"WL": place_wirelength_driven}
        cache = ArtifactCache(str(tmp_path / "cache"))
        rows, first = traced_suite(config, flows=flows, cache=cache)
        before = first.metrics()
        assert count(first, "cache_miss") == len(rows)
        _rows, second = traced_suite(config, flows=flows, cache=cache)
        assert count(second, "cache_hit") == len(rows)
        assert count(second, "cache_miss") == 0
        assert first.metrics() == before
