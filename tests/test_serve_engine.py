"""Tests for the online serving engine (repro.serve).

The load-bearing property is serve/offline equivalence: under any
schedule — concurrent clients, micro-batching, coalescing, the response
cache on or off — every OK response must carry the exact
:class:`~repro.core.metrics.EvaluationRecord` the offline
:class:`~repro.core.evaluator.Evaluator` produces for the same
``(method, example)``.  The remaining tests pin the deterministic
scheduler counters (coalesce hits, computed, shed), admission control,
deadline semantics, warm start, and the ``serve_*`` metrics surface;
a repair-enabled method served in process gives the offline records too.
"""

from __future__ import annotations

import gc
import random
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from contextlib import nullcontext

from repro.core.evaluator import Evaluator
from repro.datagen.benchmark import build_benchmark
from repro.errors import ServeError, ServeOverloaded, ServeTimeout
from repro.methods.zoo import build_method, with_repair
from repro.obs.trace import tracing
from repro.serve import (
    ResponseCache,
    ServeConfig,
    ServeRequest,
    ServeStatus,
    ServingEngine,
    WorkloadSpec,
    build_workload,
    question_index,
)
from repro.utils.cache import caches_disabled

from tests.conftest import small_benchmark_config

METHOD = "C3SQL"


@pytest.fixture(scope="module")
def served_method(small_dataset):
    method = build_method(METHOD, seed=42)
    method.prepare(small_dataset)
    return method


@pytest.fixture(scope="module")
def workload(small_dataset):
    spec = WorkloadSpec(
        requests=40, methods=(METHOD,), distinct_examples=8, zipf_s=1.1, seed=7
    )
    return build_workload(small_dataset, spec)


@pytest.fixture(scope="module")
def offline_records(small_dataset, served_method, workload):
    """Reference records from the offline evaluator, one per distinct key."""
    index = question_index(small_dataset)
    evaluator = Evaluator(small_dataset, measure_timing=False)
    records = {}
    for request in workload:
        if request.key not in records:
            example = index[(request.db_id, request.question)]
            records[request.key] = evaluator.evaluate_example(served_method, example)
    return records


def make_engine(small_dataset, served_method, **overrides):
    config = ServeConfig(methods=(METHOD,), workers=4, **overrides)
    return ServingEngine(small_dataset, config, methods={METHOD: served_method})


class TestServeOfflineEquivalence:
    """Served records are bit-identical to offline ones under any schedule."""

    @pytest.mark.parametrize("response_cache", [True, False])
    def test_concurrent_clients_match_offline(
        self, small_dataset, served_method, workload, offline_records, response_cache
    ):
        clients = 4
        rng = random.Random(0xC0FFEE + response_cache)
        shuffled = list(workload)
        rng.shuffle(shuffled)
        slices = [shuffled[cid::clients] for cid in range(clients)]
        responses: list = []
        lock = threading.Lock()

        def client(requests: list[ServeRequest]) -> None:
            for request in requests:
                response = engine.submit(request).response()
                with lock:
                    responses.append(response)

        with make_engine(
            small_dataset, served_method, response_cache=response_cache
        ) as engine:
            threads = [
                threading.Thread(target=client, args=(part,)) for part in slices
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(responses) == len(workload)
        for response in responses:
            assert response.status is ServeStatus.OK, response.error
            assert response.record == offline_records[response.request.key]

    def test_serve_preserves_request_order(
        self, small_dataset, served_method, workload, offline_records
    ):
        with make_engine(small_dataset, served_method) as engine:
            responses = engine.serve(list(workload), submit_paused=True)
        assert [r.request for r in responses] == list(workload)
        for response in responses:
            assert response.ok
            assert response.record == offline_records[response.request.key]


class TestCoalescing:
    def test_paused_submission_coalesces_exactly(
        self, small_dataset, served_method, workload
    ):
        distinct = len({request.key for request in workload})
        with make_engine(small_dataset, served_method) as engine:
            responses = engine.serve(list(workload), submit_paused=True)
        assert all(response.ok for response in responses)
        assert engine.stats.coalesce_hits == len(workload) - distinct
        assert engine.stats.computed == distinct
        coalesced = sum(1 for response in responses if response.coalesced)
        assert coalesced == engine.stats.coalesce_hits


class TestMicroBatching:
    def test_paused_drain_chunks_each_method_and_database_group(
        self, small_dataset, served_method
    ):
        # build_workload's first examples all come from one database, so
        # the requests here are picked per database by hand.
        other = build_method("DAILSQL", seed=42)
        other.prepare(small_dataset)
        methods = {METHOD: served_method, "DAILSQL": other}
        by_db: dict[str, list] = {}
        for example in small_dataset.dev_examples:
            by_db.setdefault(example.db_id, []).append(example)
        first, second, third = sorted(by_db)[:3]
        # Group sizes 4, 2, 2, 4 at step 3: grouping by method alone, by
        # database alone, or not at all would give other batch counts.
        pairs = (
            [(METHOD, e) for e in by_db[first][:4] + by_db[second][:2]]
            + [("DAILSQL", e) for e in by_db[first][4:6] + by_db[third][:4]]
        )
        random.Random(3).shuffle(pairs)
        requests = [ServeRequest(name, e.db_id, e.question) for name, e in pairs]
        assert len({request.key for request in requests}) == len(requests)
        step = 3
        config = ServeConfig(methods=tuple(methods), workers=2, max_batch_size=step)
        with ServingEngine(small_dataset, config, methods=methods) as engine:
            responses = engine.serve(requests, submit_paused=True)
        groups = Counter((request.method, request.db_id) for request in requests)
        assert len(groups) == 4
        assert engine.stats.batches == sum(-(-n // step) for n in groups.values())
        assert engine.stats.max_batch == max(min(n, step) for n in groups.values())
        offline = Evaluator(small_dataset, measure_timing=False)
        for (name, example), response in zip(pairs, responses):
            assert response.ok
            assert response.record == offline.evaluate_example(
                methods[name], example
            )


class TestAdmissionControl:
    def test_over_capacity_rejected_with_typed_error(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method, max_in_flight=1) as engine:
            engine.pause()
            admitted = engine.submit(request)
            # Admission is checked before coalescing: the same key is refused.
            rejected = engine.submit(request)
            assert rejected.done()
            response = rejected.response()
            assert response.status is ServeStatus.REJECTED
            with pytest.raises(ServeOverloaded):
                response.raise_for_status()
            engine.resume()
            assert admitted.response().ok
        assert engine.stats.rejected == 1

    def test_backpressure_snapshot(self, small_dataset, served_method, workload):
        with make_engine(small_dataset, served_method, max_in_flight=7) as engine:
            snapshot = engine.backpressure()
        assert snapshot["max_in_flight"] == 7
        assert snapshot["in_flight"] == 0 and snapshot["queued"] == 0


class TestDeadlines:
    def test_expired_deadline_yields_typed_timeout(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            engine.pause()
            future = engine.submit(
                ServeRequest(request.method, request.db_id, request.question,
                             deadline_s=0.0)
            )
            response = future.response()
            assert response.status is ServeStatus.TIMEOUT
            with pytest.raises(ServeTimeout):
                response.raise_for_status()
            engine.resume()
            # The engine stays healthy: the shed slot serves new traffic.
            assert engine.submit(request).response().ok
        assert engine.stats.timeouts == 1

    def test_default_deadline_applies_to_bare_requests(
        self, small_dataset, served_method, workload, offline_records
    ):
        # A zero default deadline times out a whole paused batch with
        # typed responses, and the same engine then serves normally.
        with make_engine(
            small_dataset, served_method, default_deadline_s=0.0
        ) as engine:
            responses = engine.serve(list(workload), submit_paused=True)
            assert all(r.status is ServeStatus.TIMEOUT for r in responses)
            assert engine.stats.timeouts == len(workload)
            # An explicit deadline overrides the engine's zero default.
            recovered = [
                engine.submit(replace(request, deadline_s=300.0)).response()
                for request in list(workload)[:4]
            ]
        for response in recovered:
            assert response.ok, response.error
            assert response.record == offline_records[response.request.key]

    def test_explicit_wait_timeout_raises_but_request_survives(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            engine.pause()
            future = engine.submit(request)
            with pytest.raises(ServeTimeout):
                future.response(timeout=0.02)
            engine.resume()
            assert future.response().ok


class TestErrorsAndLifecycle:
    def test_unknown_method_and_question_resolve_as_error(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            bad_method = engine.ask("NoSuchMethod", request.db_id, request.question)
            bad_question = engine.ask(METHOD, request.db_id, "what is the airspeed?")
            for future in (bad_method, bad_question):
                response = future.response()
                assert response.status is ServeStatus.ERROR
                with pytest.raises(ServeError):
                    response.raise_for_status()
        assert engine.stats.errors == 2

    def test_submit_before_start_raises(self, small_dataset, served_method, workload):
        engine = make_engine(small_dataset, served_method)
        with pytest.raises(ServeError):
            engine.submit(workload[0])

    def test_warmup_counts_methods_and_gold(self, small_dataset):
        config = ServeConfig(methods=(METHOD,), workers=2)
        engine = ServingEngine(small_dataset, config)
        with engine:
            assert engine.stats.warmed_methods == 1
            assert engine.stats.warmed_gold > 0
            pool = engine.pool_stats()
            assert pool["checkouts"] > 0


class TestServeObservability:
    def test_serve_metrics_ingested_under_tracing(
        self, small_dataset, served_method, workload
    ):
        requests = [workload[0], workload[0], workload[1]]
        with tracing() as tracer:
            with make_engine(small_dataset, served_method) as engine:
                responses = engine.serve(requests, submit_paused=True)
        assert all(response.ok for response in responses)
        metrics = tracer.metrics
        assert metrics.counter_total("serve_requests", method=METHOD) == 3
        assert metrics.counter_total("serve_coalesce_hits", method=METHOD) == 1
        histograms = {name for name, _labels, _summary in metrics.histograms()}
        assert {"serve_queue_wait_s", "serve_service_s", "serve_latency_s"} <= histograms
        assert all(
            summary.count == 3 for name, _labels, summary in metrics.histograms()
            if name.startswith("serve_")
        )

    def test_responses_carry_batch_metadata(
        self, small_dataset, served_method, workload
    ):
        with make_engine(small_dataset, served_method) as engine:
            responses = engine.serve([workload[0], workload[1]], submit_paused=True)
        for response in responses:
            assert response.status is ServeStatus.OK
            assert response.batch_size >= 1
            assert response.request.method == METHOD


class TestWorkload:
    def test_workload_is_seed_deterministic(self, small_dataset):
        spec = WorkloadSpec(requests=25, methods=(METHOD,), distinct_examples=6, seed=3)
        first = build_workload(small_dataset, spec)
        second = build_workload(small_dataset, spec)
        assert first == second
        assert len(first) == 25
        assert len({request.key for request in first}) <= 6

    def test_workload_rejects_bad_spec(self, small_dataset):
        with pytest.raises(ServeError):
            build_workload(
                small_dataset, WorkloadSpec(requests=0, methods=(METHOD,))
            )


class TestRequestKeyNormalization:
    """Coalescing identity and the exact cache key share normalize_question."""

    def test_whitespace_and_case_variants_share_a_key(self):
        a = ServeRequest(METHOD, "db", "List  the   Flights ")
        b = ServeRequest(METHOD, "db", "list the flights")
        assert a.key == b.key

    def test_key_matches_response_cache_identity(self):
        cache = ResponseCache()
        request = ServeRequest(METHOD, "db", "  Show the NAMES ")
        assert cache.key(METHOD, "db", request.question, 0)[:3] == request.key

    def test_variants_coalesce_in_flight(
        self, small_dataset, served_method, workload
    ):
        base = workload[0]
        variant = ServeRequest(
            base.method, base.db_id, f"  {base.question.upper()} "
        )
        with make_engine(small_dataset, served_method) as engine:
            responses = engine.serve([base, variant], submit_paused=True)
        assert all(response.ok for response in responses)
        assert responses[0].record == responses[1].record
        assert engine.stats.coalesce_hits == 1 and engine.stats.computed == 1


class TestResponseCache:
    def test_repeat_request_hits_and_is_bit_identical(
        self, small_dataset, served_method, workload, offline_records
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method, response_cache=True) as engine:
            first = engine.submit(request).response()
            second = engine.submit(request).response()
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert first.record == second.record == offline_records[request.key]
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_stores == 1
        assert engine.stats.computed == 1

    def test_whitespace_case_variant_hits_the_cache(
        self, small_dataset, served_method, workload
    ):
        base = workload[0]
        variant = ServeRequest(base.method, base.db_id, f" {base.question.upper()}  ")
        with make_engine(small_dataset, served_method, response_cache=True) as engine:
            cold = engine.submit(base).response()
            warm = engine.submit(variant).response()
        assert not cold.cached and warm.cached
        assert warm.record == cold.record
        assert engine.stats.cache_hits == 1

    def test_full_workload_equivalence_with_cache_enabled(
        self, small_dataset, served_method, workload, offline_records
    ):
        with make_engine(small_dataset, served_method, response_cache=True) as engine:
            responses = engine.serve(list(workload) * 2, submit_paused=False)
        for response in responses:
            assert response.ok
            assert response.record == offline_records[response.request.key]
        assert engine.stats.cache_hits + engine.stats.cache_misses == (
            2 * len(workload)
        )

    def test_expired_deadline_outranks_a_cache_hit(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method, response_cache=True) as engine:
            assert engine.submit(request).response().ok  # warm the cache
            dead = engine.submit(
                ServeRequest(request.method, request.db_id, request.question,
                             deadline_s=0.0)
            ).response()
        assert dead.status is ServeStatus.TIMEOUT
        assert engine.stats.timeouts == 1

    def test_cache_disabled_by_default(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            first = engine.submit(request).response()
            second = engine.submit(request).response()
        assert not first.cached and not second.cached
        assert all(value == 0 for value in engine.cache_stats().values())
        assert engine.stats.cache_hits == 0 and engine.stats.cache_misses == 0

    def test_cache_metrics_ingested_under_tracing(
        self, small_dataset, served_method, workload
    ):
        request = workload[0]
        with tracing() as tracer:
            with make_engine(
                small_dataset, served_method, response_cache=True
            ) as engine:
                engine.submit(request).response()
                engine.submit(request).response()
        metrics = tracer.metrics
        assert metrics.counter_total("serve_cache_hits", method=METHOD) == 1
        assert metrics.counter_total("serve_cache_misses", method=METHOD) == 1
        assert metrics.counter_total("serve_cache_stores") == 1


class TestResponseCacheInvalidation:
    """A data_version bump must provably never serve a stale record."""

    @pytest.fixture()
    def private_dataset(self):
        # The session-scoped small_dataset must never be mutated; this
        # test edits database content, so it builds its own copy.
        dataset = build_benchmark(small_benchmark_config())
        yield dataset
        dataset.close()

    def test_mutation_invalidates_and_recomputes(self, private_dataset):
        method = build_method(METHOD, seed=42)
        method.prepare(private_dataset)
        example = private_dataset.dev_examples[0]
        request = ServeRequest(METHOD, example.db_id, example.question)
        database = private_dataset.databases[example.db_id]
        config = ServeConfig(methods=(METHOD,), workers=2, response_cache=True)
        engine = ServingEngine(private_dataset, config, methods={METHOD: method})
        cache = engine.response_cache
        with engine:
            version_before = database.data_version
            cold = engine.submit(request).response()
            assert engine.submit(request).response().cached

            # A writer advertises its mutation via mark_mutated(); a real
            # content edit is covered by the test below.
            database.mark_mutated()
            assert database.data_version == version_before + 1
            # The mutation listener eagerly purged this database's entries.
            assert cache.stats()["invalidations"] == 1
            assert len(cache) == 0

            replay = engine.submit(request).response()
            assert replay.ok and not replay.cached  # recomputed, not stale
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 2
        # The recomputed record matches a fresh post-mutation offline
        # evaluation bit-for-bit.
        offline = Evaluator(private_dataset, measure_timing=False)
        assert replay.record == offline.evaluate_example(method, example)
        assert cold.record == replay.record  # no-op edit: same content

    def test_content_edit_purges_exactly_the_edited_database(
        self, private_dataset
    ):
        # Every dev example may be drawn, so the keys span all databases.
        workload = build_workload(private_dataset, WorkloadSpec(
            requests=60, methods=(METHOD,), distinct_examples=40, seed=7
        ))
        method = build_method(METHOD, seed=42)
        method.prepare(private_dataset)
        index = question_index(private_dataset)
        keys = {request.key for request in workload}

        def reference(wanted):
            offline = Evaluator(private_dataset, measure_timing=False)
            return {
                key: offline.evaluate_example(method, index[(key[1], key[2])])
                for key in wanted
            }

        before = reference(keys)
        target = Counter(request.db_id for request in workload).most_common(1)[0][0]
        affected = [request for request in workload if request.db_id == target]
        affected_keys = {request.key for request in affected}
        assert 0 < len(affected_keys) < len(keys)
        config = ServeConfig(methods=(METHOD,), workers=4, response_cache=True)
        with ServingEngine(
            private_dataset, config, methods={METHOD: method}
        ) as engine:
            cache = engine.response_cache
            engine.serve(list(workload), submit_paused=True)  # fill the cache
            assert len(cache) == len(keys)
            hits, misses = engine.stats.cache_hits, engine.stats.cache_misses
            database = private_dataset.databases[target]
            # Upper-casing one value changes what an affected record's
            # gold query (``= 'Economics'``) returns but not what its
            # prediction (``LIKE 'Economics'``) returns, so a stale serve
            # would show as a record mismatch below.
            assert target == "college_100"
            assert database.apply_write(
                "UPDATE departments SET department_name = 'ECONOMICS'"
                " WHERE department_name = 'Economics'"
            ) == 1
            # The commit's mutation listener purged exactly the edited
            # database's entries.
            assert cache.stats()["invalidations"] == len(affected_keys)
            assert len(cache) == len(keys) - len(affected_keys)
            replay = engine.serve(list(workload), submit_paused=True)
            assert engine.stats.cache_hits - hits == len(workload) - len(affected)
            assert engine.stats.cache_misses - misses == len(affected)
        after = {**before, **reference(affected_keys)}
        assert any(after[key] != before[key] for key in affected_keys)
        stale = [
            r for r in replay if not r.ok or r.record != after[r.request.key]
        ]
        assert stale == []

    def test_stale_entry_structurally_unreachable_without_listener(
        self, private_dataset
    ):
        # Even if the eager purge never ran, a version-keyed lookup
        # cannot return a pre-mutation record.
        cache = ResponseCache()
        database = private_dataset.databases[private_dataset.dev_examples[0].db_id]
        cache.store(METHOD, database.db_id, "how many?", database.data_version,
                    record="sentinel")
        database.mark_mutated()
        assert cache.lookup(
            METHOD, database.db_id, "how many?", database.data_version
        ) is None


class TestResponseTimeoutBound:
    """``ServeFuture.response(timeout=…)`` is a hard overall bound.

    Regression tests for the deadline-race bug: the old loop consulted
    the full explicit ``timeout`` on every iteration instead of the
    remaining budget, so a deadline-governed wait that raced the clock
    either raised prematurely or re-armed the whole timeout.
    """

    def test_deadline_shorter_than_timeout_returns_typed_timeout(
        self, small_dataset, served_method, workload
    ):
        # The ISSUE scenario: deadline slightly shorter than the explicit
        # timeout.  The deadline must win with a typed TIMEOUT response —
        # response() must neither raise ServeTimeout nor wait out the
        # full explicit budget.
        base = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            engine.pause()
            future = engine.submit(
                ServeRequest(base.method, base.db_id, base.question,
                             deadline_s=0.05)
            )
            started = time.perf_counter()
            response = future.response(timeout=5.0)
            elapsed = time.perf_counter() - started
            engine.resume()
        assert response.status is ServeStatus.TIMEOUT
        assert elapsed < 2.0  # deadline-bounded, not timeout-bounded

    def test_explicit_timeout_is_total_elapsed_not_per_iteration(
        self, small_dataset, served_method, workload
    ):
        # Force the perpetual race: the deadline always reports "a hair
        # of time left", so every wait wakes without a resolution.  The
        # explicit timeout must still be consumed as *total* elapsed
        # time — the old code raised after a single ~1ms slice; a
        # re-arming variant would never raise at all.
        base = workload[0]
        with make_engine(small_dataset, served_method) as engine:
            engine.pause()
            future = engine.submit(base)
            future._deadline_remaining = lambda: 0.001  # type: ignore[method-assign]
            started = time.perf_counter()
            with pytest.raises(ServeTimeout):
                future.response(timeout=0.3)
            elapsed = time.perf_counter() - started
            del future.__dict__["_deadline_remaining"]
            engine.resume()
            assert future.response().ok  # the request itself survived
        assert 0.25 <= elapsed < 2.0


class TestLifecycleListeners:
    """close() tears down mutation listeners exactly once; no restart."""

    @pytest.fixture()
    def private_dataset(self):
        dataset = build_benchmark(small_benchmark_config())
        yield dataset
        dataset.close()

    def _engine(self, dataset):
        method = build_method(METHOD, seed=42)
        method.prepare(dataset)
        config = ServeConfig(methods=(METHOD,), workers=2, response_cache=True)
        return ServingEngine(dataset, config, methods={METHOD: method})

    def test_close_unregisters_listeners_and_drops_references(
        self, private_dataset
    ):
        engine = self._engine(private_dataset)
        cache = engine.response_cache
        engine.start()
        example = private_dataset.dev_examples[0]
        database = private_dataset.databases[example.db_id]
        engine.submit(ServeRequest(METHOD, example.db_id, example.question)).response()
        assert len(cache) == 1
        engine.close()
        # A post-close mutation must not reach the closed engine's cache.
        database.mark_mutated()
        assert cache.stats()["invalidations"] == 0
        assert len(cache) == 1  # nobody purged it: the listener is gone
        # And nothing (database listener lists included) keeps the dead
        # engine reachable.
        ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert ref() is None

    def test_start_after_close_raises_instead_of_leaking(self, private_dataset):
        engine = self._engine(private_dataset)
        engine.start()
        engine.close()
        # The old behavior re-registered mutation listeners on a
        # half-dead engine (closed flag still set), leaking one listener
        # registration per restart.
        with pytest.raises(ServeError):
            engine.start()
        database = private_dataset.databases[private_dataset.dev_examples[0].db_id]
        database.mark_mutated()
        assert engine.response_cache.stats()["invalidations"] == 0

    def test_double_close_ingests_cache_deltas_once(self, private_dataset):
        example = private_dataset.dev_examples[0]
        with tracing() as tracer:
            engine = self._engine(private_dataset)
            engine.start()
            engine.submit(
                ServeRequest(METHOD, example.db_id, example.question)
            ).response()
            engine.close()
            engine.close()  # idempotent: must not double-ingest deltas
        assert tracer.metrics.counter_total("serve_cache_stores") == 1


class TestDbIdRestriction:
    """ServeConfig.db_ids scopes warmup, listeners, and admission."""

    def test_unowned_database_resolves_as_typed_error(
        self, small_dataset, served_method, workload
    ):
        owned = workload[0].db_id
        foreign = next(
            example for example in small_dataset.dev_examples
            if example.db_id != owned
        )
        other = ServeRequest(METHOD, foreign.db_id, foreign.question)
        with make_engine(
            small_dataset, served_method, db_ids=(owned,)
        ) as engine:
            ok = engine.submit(workload[0]).response()
            refused = engine.submit(other).response()
        assert ok.ok
        assert refused.status is ServeStatus.ERROR
        assert "not served" in (refused.error or "")

    def test_warmup_covers_only_owned_databases(
        self, small_dataset, served_method, workload
    ):
        owned = workload[0].db_id
        with make_engine(
            small_dataset, served_method, db_ids=(owned,)
        ) as restricted:
            pass
        with make_engine(small_dataset, served_method) as full:
            pass
        assert 0 < restricted.stats.warmed_gold < full.stats.warmed_gold

    def test_unknown_db_ids_rejected_at_construction(
        self, small_dataset, served_method
    ):
        with pytest.raises(ServeError):
            make_engine(small_dataset, served_method, db_ids=("no_such_db",))



class TestServedRepair:
    """A repair-enabled method served in process gives the offline records,
    as docs/PIPELINE.md's determinism contract says."""

    @pytest.fixture(scope="class")
    def reference(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        report = evaluator.evaluate_method(with_repair(build_method(METHOD, seed=42)))
        return {record.example_id: record for record in report.records}

    @pytest.mark.parametrize("caches", [True, False], ids=["caches_on", "caches_off"])
    def test_concurrent_clients_match_offline(self, small_dataset, reference, caches):
        method = with_repair(build_method(METHOD, seed=42))
        method.prepare(small_dataset)
        index = question_index(small_dataset)
        requests = [
            ServeRequest(METHOD, example.db_id, example.question)
            for example in small_dataset.dev_examples
        ] * 2
        random.Random(11).shuffle(requests)
        clients = 4
        responses: list = []
        lock = threading.Lock()

        def client(part: list[ServeRequest]) -> None:
            for request in part:
                response = engine.submit(request).response()
                with lock:
                    responses.append(response)

        config = ServeConfig(methods=(METHOD,), workers=4, response_cache=caches)
        with nullcontext() if caches else caches_disabled(), tracing() as tracer:
            with ServingEngine(small_dataset, config, methods={METHOD: method}) as engine:
                threads = [
                    threading.Thread(target=client, args=(requests[cid::clients],))
                    for cid in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            spans = tracer.drain()
        assert len(responses) == len(requests)
        for response in responses:
            assert response.ok, response.error
            example = index[(response.request.db_id, response.request.question)]
            assert response.record == reference[example.example_id]
        assert any(stage.stage == "repair" for span in spans for stage in span.stages)
