"""Tests for the parallel evaluation engine and the cross-run result cache.

The engine's contract: same :class:`EvaluationRecord` stream as the
sequential :class:`Evaluator`, in example order, regardless of worker
count or cache temperature, and on a dataset written to since it was
built.  Record identity across every execution mode and both cache
settings is checked in ``tests/test_mode_identity.py``.
"""

from __future__ import annotations

import pytest

from repro.core.aas import AASConfig, run_aas
from repro.core.design_space import SearchSpace
from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.core.parallel import MethodSpec, ParallelEvaluator, result_fingerprint
from repro.datagen.benchmark import build_benchmark
from repro.methods.zoo import build_method

from tests.conftest import small_benchmark_config, value_columns

METHODS = ["DAILSQL", "SuperSQL"]


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


def _null_value_columns(dataset) -> None:
    """NULL every non-key, non-FK column through ``Database.apply_write``."""
    for database in dataset.databases.values():
        by_table: dict[str, list[str]] = {}
        for table, column in value_columns(database.schema):
            by_table.setdefault(table, []).append(f'"{column.name}" = NULL')
        for table, assignments in by_table.items():
            database.apply_write(f'UPDATE "{table}" SET {", ".join(assignments)}')


class TestWrittenDataset:
    """A write after the build: workers would rebuild the old rows, and the
    result cache keys on the build recipe, so both must step aside."""

    METHOD = "T5-3B + PICARD"

    @pytest.fixture()
    def private_dataset(self):
        # Never write to the session-scoped small_dataset.
        dataset = build_benchmark(small_benchmark_config())
        yield dataset
        dataset.close()

    def _fresh_records(self, dataset):
        evaluator = Evaluator(dataset, measure_timing=False)
        return evaluator.evaluate_method(build_method(self.METHOD)).records

    def test_written_dataset_evaluates_in_process(self, private_dataset):
        before = self._fresh_records(private_dataset)
        _null_value_columns(private_dataset)
        expected = self._fresh_records(private_dataset)
        assert expected != before  # the writes change records
        with ParallelEvaluator(
            private_dataset, measure_timing=False, jobs=2
        ) as engine:
            report = engine.evaluate_method(build_method(self.METHOD))
        assert report.records == expected
        assert engine.stats.parallel_tasks == 0

    def test_result_cache_is_bypassed_after_a_write(self, private_dataset):
        store = ExperimentLogStore()
        with ParallelEvaluator(
            private_dataset, log_store=store, measure_timing=False, jobs=1
        ) as engine:
            before = engine.evaluate_method(build_method(self.METHOD)).records
            _null_value_columns(private_dataset)
            after = engine.evaluate_method(build_method(self.METHOD)).records
            assert engine.stats.cache_hits == 0
        expected = self._fresh_records(private_dataset)
        assert expected != before
        assert after == expected
        store.close()
