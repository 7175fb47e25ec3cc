"""Tests for the parallel job-execution runtime (repro.runtime)."""

import os
import time

import pytest

from repro import obs
from repro.obs.report import runtime_summary
from repro.runtime import (
    MISSING,
    ArtifactCache,
    CheckpointError,
    Journal,
    Task,
    TaskExecutionError,
    TaskExecutor,
    TaskTimeoutError,
    WorkerCrashError,
    stable_hash,
)


# Task bodies must live at module top level to cross process boundaries.
def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"boom {x}")


def _crash(x):
    os._exit(13)


def _sleep_forever(x):
    time.sleep(60)


def _runtime_count(tracer, kind: str) -> int:
    """How many ``runtime/<kind>`` events ``tracer`` counted."""
    return int(tracer.metrics().get("runtime/" + kind, {}).get("value", 0))


def _flaky_via_file(path, fail_times):
    """Fails the first ``fail_times`` calls, counting across processes."""
    count = 0
    if os.path.exists(path):
        with open(path) as f:
            count = int(f.read() or 0)
    with open(path, "w") as f:
        f.write(str(count + 1))
    if count < fail_times:
        raise RuntimeError(f"flaky attempt {count}")
    return "recovered"


class TestStableHash:
    def test_insensitive_to_dict_order(self):
        assert stable_hash({"a": 1, "b": 2.5}) == stable_hash({"b": 2.5, "a": 1})

    def test_sensitive_to_values_and_types(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})
        assert stable_hash({"a": 1}) != stable_hash({"a": 1.0})

    def test_dataclasses_hash_by_fields(self):
        from repro.placer import PlacementParams

        assert stable_hash(PlacementParams()) == stable_hash(PlacementParams())
        assert stable_hash(PlacementParams()) != stable_hash(
            PlacementParams(max_iters=123)
        )

    def test_numpy_scalars_canonicalize(self):
        import numpy as np

        assert stable_hash({"x": np.int64(3)}) == stable_hash({"x": 3})
        assert stable_hash({"x": np.float64(0.25)}) == stable_hash({"x": 0.25})

    def test_int_and_str_dict_keys_collide(self):
        # Documented behavior: dict keys canonicalize through str() so
        # keys survive a JSON round-trip; {1: v} and {"1": v} are the
        # same payload.  Values keep their types ({"a": 1} != {"a": "1"}).
        assert stable_hash({1: "v"}) == stable_hash({"1": "v"})
        assert stable_hash({"a": 1}) != stable_hash({"a": "1"})

    def test_unhashable_payload_raises(self):
        with pytest.raises(TypeError):
            stable_hash({"fn": lambda: None})


class TestExecutorInline:
    def test_runs_in_order(self):
        executor = TaskExecutor(jobs=1)
        results = executor.run([Task(f"t{i}", _double, (i,)) for i in range(4)])
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_retry_then_succeed(self, tmp_path):
        counter = str(tmp_path / "count")
        executor = TaskExecutor(jobs=1, retries=3, backoff=0.0)
        results = executor.run([Task("f", _flaky_via_file, (counter, 2))])
        assert results[0].ok
        assert results[0].value == "recovered"
        assert results[0].attempts == 3

    def test_exhausted_retries_fail(self):
        executor = TaskExecutor(jobs=1, retries=1, backoff=0.0)
        with obs.tracing(obs.Tracer()) as tracer:
            results = executor.run([Task("b", _boom, (1,))])
        assert not results[0].ok
        assert isinstance(results[0].error, TaskExecutionError)
        assert results[0].attempts == 2
        assert _runtime_count(tracer, "task_retried") == 1
        assert _runtime_count(tracer, "task_failed") == 1

    def test_duplicate_keys_rejected(self):
        executor = TaskExecutor(jobs=1)
        with pytest.raises(ValueError):
            executor.run([Task("k", _double, (1,)), Task("k", _double, (2,))])

    def test_on_result_sees_completion(self):
        seen = []
        TaskExecutor(jobs=1).run(
            [Task("a", _double, (1,))], on_result=lambda r: seen.append(r.key)
        )
        assert seen == ["a"]


class TestExecutorPool:
    def test_parallel_results_in_task_order(self):
        executor = TaskExecutor(jobs=2)
        results = executor.run([Task(f"t{i}", _double, (i,)) for i in range(5)])
        assert [r.value for r in results] == [0, 2, 4, 6, 8]

    def test_retry_across_processes(self, tmp_path):
        counter = str(tmp_path / "count")
        executor = TaskExecutor(jobs=2, retries=2, backoff=0.01)
        results = executor.run([Task("f", _flaky_via_file, (counter, 1))])
        assert results[0].ok
        assert results[0].attempts == 2

    def test_worker_crash_recovery(self):
        executor = TaskExecutor(jobs=2, retries=1, backoff=0.01)
        with obs.tracing(obs.Tracer()) as tracer:
            results = executor.run(
                [Task("crash", _crash, (1,)), Task("ok", _double, (4,))]
            )
        by_key = {r.key: r for r in results}
        assert by_key["ok"].ok
        assert by_key["ok"].value == 8
        # Innocents are never charged for someone else's crash.
        assert by_key["ok"].attempts == 1
        assert not by_key["crash"].ok
        assert isinstance(by_key["crash"].error, WorkerCrashError)
        assert by_key["crash"].attempts == 2
        assert _runtime_count(tracer, "pool_restarted") >= 1

    def test_timeout_kills_hung_worker(self):
        executor = TaskExecutor(jobs=2, retries=0)
        start = time.perf_counter()
        results = executor.run(
            [
                Task("hung", _sleep_forever, (1,), timeout=0.5),
                Task("ok", _double, (3,)),
            ]
        )
        elapsed = time.perf_counter() - start
        by_key = {r.key: r for r in results}
        assert isinstance(by_key["hung"].error, TaskTimeoutError)
        assert by_key["ok"].ok
        assert elapsed < 30  # nowhere near the 60s sleep

    def test_unpicklable_degrades_inline(self):
        executor = TaskExecutor(jobs=2)
        with obs.tracing(obs.Tracer()) as tracer:
            results = executor.run([Task("l", lambda: 99)])
        assert results[0].ok
        assert results[0].value == 99
        assert _runtime_count(tracer, "task_inline") == 1

    def test_map_returns_values_and_raises_on_failure(self):
        executor = TaskExecutor(jobs=2)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        with pytest.raises(TaskExecutionError):
            executor.map(_boom, [1])


def _pid(x=None):
    return os.getpid()


class TestExecutorShard:
    """persistent=True + force_pool=True: the serving-shard configuration."""

    def _shard(self, **kw):
        kw.setdefault("jobs", 1)
        kw.setdefault("retries", 0)
        return TaskExecutor(persistent=True, force_pool=True, **kw)

    def test_force_pool_runs_out_of_process(self):
        executor = self._shard()
        try:
            result = executor.run_one(Task("p", _pid))
            assert result.ok
            assert result.value != os.getpid()
        finally:
            executor.close()

    def test_persistent_pool_reuses_worker_across_runs(self):
        executor = self._shard()
        try:
            executor.warm()
            first = executor.run_one(Task("a", _pid))
            second = executor.run_one(Task("b", _pid))
            assert first.ok and second.ok
            assert first.value == second.value
        finally:
            executor.close()

    def test_non_persistent_pool_forks_fresh_workers(self):
        executor = TaskExecutor(jobs=1, retries=0, force_pool=True)
        first = executor.run_one(Task("a", _pid))
        second = executor.run_one(Task("b", _pid))
        assert first.ok and second.ok
        assert first.value != second.value

    def test_abort_fails_in_flight_task_and_shard_recovers(self):
        import threading

        executor = self._shard()
        try:
            executor.warm()
            box = {}

            def run():
                box["r"] = executor.run_one(Task("hung", _sleep_forever, (1,)))

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.3)
            executor.abort()
            thread.join(timeout=15)
            assert not thread.is_alive()
            assert not box["r"].ok
            assert isinstance(box["r"].error, WorkerCrashError)
            # The shard recycles: the next submit runs in a fresh worker.
            after = executor.run_one(Task("next", _pid))
            assert after.ok
        finally:
            executor.close()

    def test_timeout_recycles_persistent_shard(self):
        executor = self._shard()
        try:
            hung = executor.run_one(Task("hung", _sleep_forever, (1,), timeout=0.3))
            assert isinstance(hung.error, TaskTimeoutError)
            after = executor.run_one(Task("next", _double, (21,)))
            assert after.ok
            assert after.value == 42
        finally:
            executor.close()

    def test_abort_and_close_are_idempotent(self):
        executor = self._shard()
        executor.abort()  # nothing in flight, nothing retained
        executor.warm()
        executor.close()
        executor.close()
        executor.abort()

    def test_warm_is_noop_without_persistence(self):
        executor = TaskExecutor(jobs=1)
        executor.warm()
        assert executor._pool is None


class TestArtifactCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})
        assert cache.get(key) is MISSING
        cache.put(key, {"rows": [1, 2]})
        assert cache.get(key) == {"rows": [1, 2]}
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_param_change_changes_key(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put(stable_hash({"scale": 0.004}), "result-a")
        assert cache.get(stable_hash({"scale": 0.002})) is MISSING

    def test_invalidate(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})
        cache.put(key, 42)
        cache.invalidate(key)
        assert cache.get(key) is MISSING

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})
        cache.put(key, 42)
        path = cache._path(key)
        with open(path, "wb") as f:
            f.write(b"\x80garbage")
        assert cache.get(key) is MISSING
        assert not os.path.exists(path)

    def test_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        for i in range(3):
            cache.put(stable_hash({"i": i}), i)
        cache.clear()
        assert cache.get(stable_hash({"i": 0})) is MISSING

    def test_none_is_a_legitimate_value(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})
        cache.put(key, None)
        assert cache.get(key) is None

    def test_put_cleans_tmp_file_when_replace_fails(self, tmp_path, monkeypatch):
        from repro.runtime import cache as cache_mod

        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache_mod.os, "replace", failing_replace)
        with pytest.raises(OSError):
            cache.put(key, 42)
        monkeypatch.undo()
        leftovers = [
            name
            for _dir, _sub, files in os.walk(str(tmp_path))
            for name in files
        ]
        assert leftovers == []
        assert cache.get(key) is MISSING

    def test_clear_keeps_counters(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = stable_hash({"a": 1})
        cache.put(key, 42)
        assert cache.get(key) == 42
        cache.clear()
        # clear() drops entries, not the handle's hit/miss history.
        assert cache.stats() == {"hits": 1, "misses": 0}
        assert cache.get(key) is MISSING
        assert cache.stats() == {"hits": 1, "misses": 1}


class TestJournal:
    def test_append_and_records(self, tmp_path):
        journal = Journal(str(tmp_path / "j.journal"))
        journal.append({"key": "a", "v": 1})
        journal.append({"key": "b", "v": 2})
        assert [r["key"] for r in journal.records()] == ["a", "b"]
        assert journal.completed()["b"]["v"] == 2

    def test_remainder_preserves_order(self, tmp_path):
        journal = Journal(str(tmp_path / "j.journal"))
        journal.append({"key": "b"})
        assert journal.remainder(["a", "b", "c"]) == ["a", "c"]

    def test_missing_key_rejected(self, tmp_path):
        journal = Journal(str(tmp_path / "j.journal"))
        with pytest.raises(CheckpointError):
            journal.append({"v": 1})

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = Journal(str(path))
        journal.append({"key": "a"})
        journal.append({"key": "b"})
        # Simulate a kill mid-append: truncate inside the final record.
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        assert [r["key"] for r in journal.records()] == ["a"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        path.write_text('not json\n{"key": "a"}\n')
        with pytest.raises(CheckpointError):
            Journal(str(path)).records()

    def test_clear(self, tmp_path):
        journal = Journal(str(tmp_path / "j.journal"))
        journal.append({"key": "a"})
        journal.clear()
        assert journal.records() == []


class TestRuntimeEvents:
    """Task and cache events land in the current tracer as
    ``runtime/<kind>`` events and counters."""

    def test_counters_and_summary(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        cache.put("b", 1)
        with obs.tracing(obs.Tracer()) as tracer:
            (result,) = TaskExecutor(jobs=1).run([Task("a", _double, (2,))])
            assert cache.get("b") == 1
        events = [r for r in tracer.ring if r["type"] == "event"]
        assert [r["name"] for r in events] == [
            "runtime/task_started", "runtime/task_finished", "runtime/cache_hit"
        ]
        finished = events[1]["attrs"]
        assert finished["key"] == "a" and finished["attempt"] == 1
        # The task's seconds ride on its finish event.
        assert finished["wall_time"] == pytest.approx(result.wall_time, abs=1e-6)
        assert _runtime_count(tracer, "task_finished") == 1
        assert _runtime_count(tracer, "cache_hit") == 1
        assert runtime_summary(tracer.metrics()) == (
            "1 done, 0 failed, 0 retried, cache 1/1 hits"
        )


class TestBatchedMinimize:
    def test_batch_one_is_bit_identical(self):
        import numpy as np

        from repro.tpe import Space, Uniform, minimize

        def objective(params):
            return (params["x"] - 0.3) ** 2

        space = Space([Uniform("x", 0.0, 1.0)])
        a = minimize(objective, space, max_evals=20, patience=50, rng=3)
        b = minimize(objective, space, max_evals=20, patience=50, rng=3, batch_size=1)
        c = minimize(
            objective, space, max_evals=20, patience=50, rng=3, batch_size=1,
            evaluator=lambda batch: [objective(p) for p in batch],
        )
        assert [t.params for t in a.trials] == [t.params for t in b.trials]
        assert [t.loss for t in a.trials] == [t.loss for t in c.trials]

    def test_batched_respects_budget_and_patience(self):
        from repro.tpe import Space, Uniform, minimize

        space = Space([Uniform("x", 0.0, 1.0)])
        result = minimize(
            lambda p: 1.0, space, max_evals=10, patience=3, batch_size=4, rng=0
        )
        assert result.stopped_early
        assert len(result.trials) <= 8  # stops within the batch that fired

    def test_mismatched_evaluator_rejected(self):
        from repro.tpe import Space, Uniform, minimize

        space = Space([Uniform("x", 0.0, 1.0)])
        with pytest.raises(ValueError):
            minimize(
                lambda p: 0.0, space, max_evals=4, batch_size=2, rng=0,
                evaluator=lambda batch: [0.0],
            )
