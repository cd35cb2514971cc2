"""Tests for the parallel evaluation engine and the cross-run result cache.

The engine's contract: same :class:`EvaluationRecord` stream as the
sequential :class:`Evaluator`, in example order, regardless of worker
count or cache temperature, on a dataset written to since it was built,
and when a pool worker dies or stops.  Record identity across every
execution mode and both cache settings is checked in
``tests/test_mode_identity.py``.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.core import parallel
from repro.core.aas import AASConfig, run_aas
from repro.core.design_space import SearchSpace
from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import MethodSpec, ParallelEvaluator, result_fingerprint
from repro.datagen.benchmark import Dataset, build_benchmark
from repro.methods.zoo import build_method

from tests.conftest import null_value_columns, small_benchmark_config

METHODS = ["DAILSQL", "SuperSQL"]

# A worker-side fault, set by TestPoolFailures before its pool forks:
# the first chunk holding ``example_id`` sends ``signal`` to its own
# worker once (the marker file records the worker's pid).
_FAULT: dict = {}
_worker_evaluate = parallel._worker_evaluate


def _faulty_worker_evaluate(spec, example_ids, gold_updates):
    if _FAULT.get("example_id") in example_ids:
        try:
            fd = os.open(_FAULT["marker"], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            os.kill(os.getpid(), _FAULT["signal"])
    return _worker_evaluate(spec, example_ids, gold_updates)


@pytest.fixture(scope="module")
def sequential_reports(small_dataset):
    evaluator = Evaluator(small_dataset, measure_timing=False)
    return evaluator.evaluate_zoo([build_method(m) for m in METHODS])


class TestEquivalence:
    def test_process_pool_matches_sequential(self, small_dataset, sequential_reports):
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=2) as engine:
            reports = engine.evaluate_zoo([build_method(m) for m in METHODS])
            assert engine.stats.parallel_tasks > 0
        for name in METHODS:
            assert reports[name].records == sequential_reports[name].records

    def test_records_preserve_example_order(self, small_dataset):
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=2) as engine:
            report = engine.evaluate_method(build_method("DAILSQL"))
            # 43 examples in chunks of ceil(43 / (2 workers * 4)) = 6.
            assert engine.stats.parallel_tasks == 8
        expected = [e.example_id for e in small_dataset.dev_examples]
        assert [r.example_id for r in report.records] == expected


class TestGoldPrecompute:
    def test_gold_executed_once_across_methods(self, small_dataset):
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=1) as engine:
            engine.evaluate_method(build_method("DAILSQL"))
            first = engine.stats.gold_executions
            engine.evaluate_method(build_method("SuperSQL"))
            assert engine.stats.gold_executions == first  # all shared
        distinct = {
            (e.db_id, e.gold_sql) for e in small_dataset.dev_examples
        }
        assert first == len(distinct)


class TestResultCache:
    def test_warm_cache_returns_identical_records(
        self, small_dataset, sequential_reports
    ):
        store = ExperimentLogStore()
        with ParallelEvaluator(
            small_dataset, log_store=store, measure_timing=False, jobs=1
        ) as engine:
            cold = engine.evaluate_method(build_method("DAILSQL"))
            assert engine.stats.fresh_by_method["DAILSQL"] == len(cold.records)
            warm = engine.evaluate_method(build_method("DAILSQL"))
            assert engine.stats.fresh_by_method["DAILSQL"] == 0
        assert warm.records == cold.records
        assert warm.records == sequential_reports["DAILSQL"].records
        store.close()

    def test_cache_survives_process_restart(self, small_dataset, tmp_path):
        path = tmp_path / "logs.db"
        with ExperimentLogStore(path) as store:
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as engine:
                cold = engine.evaluate_method(build_method("SuperSQL"))
                assert engine.stats.predictions > 0
        # A brand-new store over the same file: simulates a fresh process.
        with ExperimentLogStore(path) as store:
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as engine:
                warm = engine.evaluate_method(build_method("SuperSQL"))
                assert engine.stats.predictions == 0
                assert engine.stats.cache_hits == len(cold.records)
        assert warm.records == cold.records

    def test_no_result_cache_flag(self, small_dataset):
        store = ExperimentLogStore()
        with ParallelEvaluator(
            small_dataset, log_store=store, measure_timing=False, jobs=1,
            use_result_cache=False,
        ) as engine:
            engine.evaluate_method(build_method("DAILSQL"))
            engine.evaluate_method(build_method("DAILSQL"))
            assert engine.stats.cache_hits == 0
        assert store.result_cache_size() == 0
        store.close()

    def test_fingerprint_sensitivity(self, small_dataset):
        base = result_fingerprint(build_method("DAILSQL"), small_dataset, False, 1)
        assert result_fingerprint(
            build_method("DAILSQL"), small_dataset, False, 1
        ) == base
        assert result_fingerprint(
            build_method("SuperSQL"), small_dataset, False, 1
        ) != base
        assert result_fingerprint(
            build_method("DAILSQL", seed=9), small_dataset, False, 1
        ) != base
        assert result_fingerprint(
            build_method("DAILSQL"), small_dataset, True, 1
        ) != base

    def test_store_roundtrip(self, small_dataset, sequential_reports):
        store = ExperimentLogStore()
        records = sequential_reports["DAILSQL"].records
        assert store.store_cached_records("fp", records) == len(records)
        loaded = store.cached_records("fp")
        assert [loaded[r.example_id] for r in records] == records
        assert store.cached_records("other") == {}
        assert store.clear_result_cache("fp") == len(records)
        assert store.result_cache_size() == 0
        store.close()


class TestPoolFailures:
    """A worker that dies or stops: the chunks the pool never answers run
    in-process, and the next batch gets a new pool."""

    def _run_with_fault(self, small_dataset, monkeypatch, tmp_path, fault_signal):
        target = small_dataset.dev_examples[20].example_id  # a middle chunk
        marker = tmp_path / "faulted-pid"
        monkeypatch.setattr(parallel, "_worker_evaluate", _faulty_worker_evaluate)
        monkeypatch.setitem(_FAULT, "example_id", target)
        monkeypatch.setitem(_FAULT, "marker", str(marker))
        monkeypatch.setitem(_FAULT, "signal", fault_signal)
        engine = ParallelEvaluator(small_dataset, measure_timing=False, jobs=2)
        try:
            pool = engine._process_pool()
            pool.submit(os.getpid).result()  # the fork pool starts every worker
            first = set(pool._processes)
            started = time.perf_counter()
            failed = engine.evaluate_method(build_method("DAILSQL"))
            elapsed = time.perf_counter() - started
            assert engine.stats.pool_failures == 1
            tasks = engine.stats.parallel_tasks
            following = engine.evaluate_method(build_method("SuperSQL"))
            assert engine.stats.parallel_tasks > tasks
            assert first.isdisjoint(engine._pool._processes)
            assert engine.stats.pool_failures == 1
        finally:
            if marker.exists():
                try:
                    os.kill(int(marker.read_text()), signal.SIGCONT)
                except ProcessLookupError:
                    pass
            engine.close()
        assert marker.exists()  # the fault fired
        for pid in first:  # the dropped pool's workers are gone and reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        return failed.records, following.records, elapsed

    def test_a_killed_worker_falls_back_in_process(
        self, small_dataset, sequential_reports, monkeypatch, tmp_path
    ):
        failed, following, elapsed = self._run_with_fault(
            small_dataset, monkeypatch, tmp_path, signal.SIGKILL
        )
        assert failed == sequential_reports["DAILSQL"].records
        assert following == sequential_reports["SuperSQL"].records
        assert elapsed < parallel._CHUNK_TIMEOUT_S

    def test_a_stopped_worker_is_killed_after_the_bound(
        self, small_dataset, sequential_reports, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(parallel, "_CHUNK_TIMEOUT_S", 2.0)
        failed, following, elapsed = self._run_with_fault(
            small_dataset, monkeypatch, tmp_path, signal.SIGSTOP
        )
        assert failed == sequential_reports["DAILSQL"].records
        assert following == sequential_reports["SuperSQL"].records
        # It waited out the bound once, then finished without the pool.
        assert 2.0 <= elapsed < 2.0 + 20.0

    def test_a_worker_killed_between_methods(self, small_dataset, sequential_reports):
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=2) as engine:
            engine.evaluate_method(build_method("DAILSQL"))
            first = set(engine._pool._processes)
            os.kill(min(first), signal.SIGKILL)  # the pool is idle between methods
            report = engine.evaluate_method(build_method("SuperSQL"))
            assert engine.stats.pool_failures == 1
            tasks = engine.stats.parallel_tasks
            following = engine.evaluate_method(build_method("DAILSQL"))
            assert engine.stats.parallel_tasks > tasks
            assert first.isdisjoint(engine._pool._processes)
        assert report.records == sequential_reports["SuperSQL"].records
        assert following.records == sequential_reports["DAILSQL"].records
        for pid in first:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestMethodSpec:
    def test_non_pipeline_methods_are_not_specced(self, small_dataset):
        from repro.methods.base import MethodGroup, NL2SQLMethod

        class Custom(NL2SQLMethod):
            name = "custom"
            group = MethodGroup.PLM

        assert MethodSpec.from_method(Custom()) is None
        assert MethodSpec.from_method(build_method("DAILSQL")) is not None

    def test_spec_key_stable(self):
        a = MethodSpec.from_method(build_method("DAILSQL"))
        b = MethodSpec.from_method(build_method("DAILSQL"))
        assert a.key() == b.key()


class TestAASWithEngine:
    @pytest.fixture(scope="class")
    def search_inputs(self, small_dataset):
        examples = small_dataset.dev_examples[:10]
        config = AASConfig(population_size=4, generations=2, seed=5)
        return examples, config

    def test_parallel_search_matches_sequential(self, small_dataset, search_inputs):
        _, config = search_inputs
        # All 43 dev examples, enough for the process pool to serve the search.
        examples = small_dataset.dev_examples
        sequential = run_aas(
            SearchSpace(), Evaluator(small_dataset, measure_timing=False),
            examples, config,
        )
        with ParallelEvaluator(small_dataset, measure_timing=False, jobs=2) as engine:
            parallel = run_aas(SearchSpace(), engine, examples, config)
            assert engine.stats.parallel_tasks > 0
        assert parallel.best.fitness == sequential.best.fitness
        assert parallel.best.assignment == sequential.best.assignment
        assert [
            [ind.fitness for ind in gen] for gen in parallel.history
        ] == [[ind.fitness for ind in gen] for gen in sequential.history]

    def test_persistent_cache_reduces_evaluations(
        self, small_dataset, search_inputs, tmp_path
    ):
        examples, config = search_inputs
        path = tmp_path / "aas.db"
        with ExperimentLogStore(path) as store:
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as engine:
                cold = run_aas(SearchSpace(), engine, examples, config)
        assert cold.evaluations > 0
        with ExperimentLogStore(path) as store:
            with ParallelEvaluator(
                small_dataset, log_store=store, measure_timing=False, jobs=1
            ) as engine:
                warm = run_aas(SearchSpace(), engine, examples, config)
                assert engine.stats.predictions == 0
        assert warm.evaluations == 0
        assert warm.evaluations < cold.evaluations
        assert warm.best.fitness == cold.best.fitness


class TestDatasetImage:
    """Pool workers restore the coordinator's dataset from its image."""

    @pytest.mark.parametrize("pickled", [False, True], ids=["fork", "pickled"])
    def test_every_database_round_trips(self, small_dataset, pickled):
        image = small_dataset.image()
        if pickled:  # what a spawn-context pool would send its workers
            image = pickle.loads(pickle.dumps(image))
        restored = Dataset.from_image(image)
        try:
            assert restored.name == small_dataset.name
            assert restored.examples == small_dataset.examples
            assert restored.config == small_dataset.config
            assert restored.built_versions == small_dataset.built_versions
            assert restored.as_built()
            assert sorted(restored.databases) == sorted(small_dataset.databases)
            for db_id, original in small_dataset.databases.items():
                copy = restored.databases[db_id]
                for table in original.schema.tables:
                    sql = f'SELECT * FROM "{table.name}" ORDER BY rowid'
                    rows = original.connection.execute(sql).fetchall()
                    assert rows and copy.connection.execute(sql).fetchall() == rows
                assert copy.data_version == original.data_version > 0
                # The build warms the value cache; the copy starts as warm.
                assert copy._value_cache == original._value_cache != {}
                pragma = "PRAGMA foreign_keys"
                assert copy.connection.execute(pragma).fetchone() == (1,)
                assert original.connection.execute(pragma).fetchone() == (1,)
        finally:
            restored.close()


class TestWrittenDataset:
    """A write after the build: the pool takes a fresh image of the written
    rows, and the result cache, which keys on the build recipe, steps
    aside."""

    METHOD = "T5-3B + PICARD"
    # Dev records of METHOD that NULLing every value column changes.
    CHANGED_BY_NULLS = 27

    @pytest.fixture()
    def private_dataset(self):
        # Never write to the session-scoped small_dataset.
        dataset = build_benchmark(small_benchmark_config())
        yield dataset
        dataset.close()

    def _fresh_records(self, dataset):
        evaluator = Evaluator(dataset, measure_timing=False)
        return evaluator.evaluate_method(build_method(self.METHOD)).records

    def test_written_dataset_evaluates_in_the_pool(self, private_dataset):
        before = self._fresh_records(private_dataset)
        null_value_columns(private_dataset)
        expected = self._fresh_records(private_dataset)
        assert sum(a != b for a, b in zip(before, expected)) == self.CHANGED_BY_NULLS
        with ParallelEvaluator(
            private_dataset, measure_timing=False, jobs=2
        ) as engine:
            report = engine.evaluate_method(build_method(self.METHOD))
        assert report.records == expected
        assert engine.stats.parallel_tasks > 0

    def test_hand_assembled_dataset_evaluates_in_the_pool(self, private_dataset):
        assembled = Dataset(
            name="assembled",
            examples=private_dataset.examples,
            databases=private_dataset.databases,
        )
        expected = self._fresh_records(assembled)
        with ParallelEvaluator(assembled, measure_timing=False, jobs=2) as engine:
            report = engine.evaluate_method(build_method(self.METHOD))
        assert report.records == expected
        assert engine.stats.parallel_tasks > 0

    def test_a_write_replaces_the_pool(self, private_dataset):
        with ParallelEvaluator(
            private_dataset, measure_timing=False, jobs=2
        ) as engine:
            engine.evaluate_method(build_method(self.METHOD))
            first = set(engine._pool._processes)
            null_value_columns(private_dataset)
            report = engine.evaluate_method(build_method(self.METHOD))
            second = set(engine._pool._processes)
            assert engine.stats.pool_failures == 0
        assert first and second and first.isdisjoint(second)
        assert report.records == self._fresh_records(private_dataset)

    def test_result_cache_is_bypassed_after_a_write(self, private_dataset):
        store = ExperimentLogStore()
        with ParallelEvaluator(
            private_dataset, log_store=store, measure_timing=False, jobs=1
        ) as engine:
            before = engine.evaluate_method(build_method(self.METHOD)).records
            null_value_columns(private_dataset)
            after = engine.evaluate_method(build_method(self.METHOD)).records
            assert engine.stats.cache_hits == 0
        expected = self._fresh_records(private_dataset)
        assert expected != before
        assert after == expected
        store.close()
