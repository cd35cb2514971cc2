"""Load-generator benchmark for the online serving engine.

Measures the serving engine against the offline evaluator on one seeded
Zipf-skewed workload (see :mod:`repro.serve.workload`):

* **offline reference** — every distinct ``(method, db_id, question)``
  key is evaluated once with the plain sequential
  :class:`~repro.core.evaluator.Evaluator`; every served response must
  be bit-identical to these records (``responses_identical``);
* **serial baseline** — one request at a time through a 1-worker,
  no-coalescing engine: the throughput denominator;
* **closed loop** — N client threads, each submitting its share of the
  workload and waiting for each response before sending the next;
  latency percentiles (p50/p95/p99) come from these runs;
* **open loop** — the whole workload is queued while the scheduler is
  paused, then released at once: duplicate keys coalesce
  deterministically (hits == requests − distinct keys, an exact gate)
  and the drain rate gives peak throughput;
* **degradation** — a zero-deadline run must resolve every request as a
  typed ``TIMEOUT`` (never hang) and the engine must serve normally
  right after;
* **response cache** — cache-on engines replay the workload cold (all
  misses, exact counter gate) then warm (all hits, served from memory);
  the warm drain rate against the cache-off open loop is the
  ``warm_speedup_vs_off`` headline, gated at ≥
  :data:`CACHE_SPEEDUP_GATE`× in full runs.  A semantic-key pass
  measures the paraphrase-folding correctness risk (collisions and
  record mismatches, reported but never gated), and a final
  invalidation stage mutates the hottest database mid-run and proves —
  by exact hit/miss/invalidation counters and bit-comparison against a
  fresh post-mutation offline reference — that no stale entry is ever
  served.

* **sharded gateway** (``--gateway``) — the same trace replayed through
  :class:`~repro.serve.gateway.cluster.ShardedGateway` at each shard
  count in ``--shards``: a full-record fill pass proves every shard
  layout bit-identical to the offline reference, a high-volume digest
  pass (``--gateway-requests``, 10⁵+ in full runs) measures per-shard
  p50/p95/p99 and scaling efficiency vs the 1-shard throughput, a
  mutation stage routes a write through ``apply_write`` and gates exact
  per-shard invalidation/recompute counters, and an HTTP stage drives a
  subset through real ``/query`` / ``/healthz`` / ``/metrics`` sockets.

Emits a JSON document (``BENCH_serve.json`` at the repo root, see
``benchmarks/test_perf_serve_smoke.py`` and
``benchmarks/test_perf_gateway_smoke.py``) with throughput, latency
percentiles at concurrency 1/4/8, coalesce/pool/timeout/cache counters,
and the ``speedup_at_8`` headline gated at ≥ :data:`SPEEDUP_GATE`× in
full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

from collections import Counter

from repro.core.evaluator import Evaluator
from repro.datagen.benchmark import build_benchmark, spider_like_config
from repro.methods.zoo import build_method
from repro.schema.model import ColumnType, DatabaseSchema
from repro.serve.cache import DEFAULT_RESPONSE_CACHE_SIZE
from repro.serve.engine import (
    ServeConfig,
    ServeRequest,
    ServeResponse,
    ServeStatus,
    ServingEngine,
    question_index,
)
from repro.serve.workload import WorkloadSpec, build_workload
from repro.utils.text import normalize_question

#: Full-run throughput gate: open-loop @ concurrency 8 vs the serial baseline.
SPEEDUP_GATE = 3.0

#: Full-run gate: warm response-cache drain vs the cache-off open loop @ 8.
CACHE_SPEEDUP_GATE = 10.0

CONCURRENCIES = (1, 4, 8)

#: Shard counts the gateway stage sweeps in full runs (quick: 1 and 2).
GATEWAY_SHARD_COUNTS = (1, 2, 4)

#: High-volume digest-pass request count in full gateway runs (quick: 2000).
GATEWAY_VOLUME_REQUESTS = 120_000


def _percentiles(latencies_s: list[float]) -> dict[str, float]:
    if not latencies_s:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(latencies_s)

    def pick(quantile: float) -> float:
        index = min(len(ordered) - 1, int(quantile * len(ordered)))
        return round(ordered[index] * 1000.0, 3)

    return {"p50_ms": pick(0.50), "p95_ms": pick(0.95), "p99_ms": pick(0.99)}


def _loop_summary(
    responses: list[ServeResponse], elapsed: float, engine: ServingEngine
) -> dict:
    return {
        "seconds": round(elapsed, 4),
        "throughput_rps": round(len(responses) / elapsed, 2) if elapsed else 0.0,
        "ok": sum(1 for r in responses if r.ok),
        "coalesce_hits": engine.stats.coalesce_hits,
        "batches": engine.stats.batches,
        "max_batch": engine.stats.max_batch,
        **_percentiles([r.total_s for r in responses]),
    }


def _closed_loop(
    engine: ServingEngine, workload: list[ServeRequest], clients: int
) -> tuple[list[ServeResponse], float]:
    """Each client thread works its round-robin share, one request at a time."""
    responses: list[ServeResponse | None] = [None] * len(workload)
    barrier = threading.Barrier(clients + 1)

    def client(cid: int) -> None:
        barrier.wait()
        for i in range(cid, len(workload), clients):
            responses[i] = engine.submit(workload[i]).response()

    threads = [
        threading.Thread(target=client, args=(cid,), name=f"client-{cid}")
        for cid in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return [r for r in responses if r is not None], elapsed


def _open_loop(
    engine: ServingEngine, workload: list[ServeRequest]
) -> tuple[list[ServeResponse], float]:
    """Queue the whole workload while paused, then release it at once."""
    engine.pause()
    futures = [engine.submit(request) for request in workload]
    started = time.perf_counter()
    engine.resume()
    responses = [future.response() for future in futures]
    elapsed = time.perf_counter() - started
    return responses, elapsed


def _cached_pass(
    engine: ServingEngine, workload: list[ServeRequest]
) -> tuple[list[ServeResponse], float]:
    """Submit and collect with submission time included.

    Warm response-cache hits resolve synchronously inside ``submit``, so
    the open loop's resume-to-drain window would measure nothing; this
    pass times the whole submit+collect cycle instead.
    """
    started = time.perf_counter()
    futures = [engine.submit(request) for request in workload]
    responses = [future.response() for future in futures]
    elapsed = time.perf_counter() - started
    return responses, elapsed


def _mutable_text_column(schema: DatabaseSchema) -> tuple[str, str]:
    """A (table, column) safe to rewrite in place: TEXT, non-key, non-FK."""
    fk_columns = set()
    for fk in schema.foreign_keys:
        fk_columns.add((fk.source_table.lower(), fk.source_column.lower()))
        fk_columns.add((fk.target_table.lower(), fk.target_column.lower()))
    for table in schema.tables:
        for column in table.columns:
            if (
                column.col_type is ColumnType.TEXT
                and not column.is_primary_key
                and (table.name.lower(), column.name.lower()) not in fk_columns
            ):
                return table.name, column.name
    raise RuntimeError(f"no mutable text column in {schema.db_id!r}")


def run_bench(
    scale: float = 0.08,
    seed: int = 42,
    requests: int = 240,
    distinct_examples: int = 32,
    zipf_s: float = 1.1,
    method_names: tuple[str, ...] = ("SuperSQL", "DAILSQL"),
    quick: bool = False,
    response_cache: bool = True,
    cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
    cache_ttl_s: float | None = None,
    semantic_keys: bool = False,
) -> dict:
    """Run the full serving benchmark; returns the result document."""
    dataset = build_benchmark(spider_like_config(scale=scale, seed=seed))
    workload = build_workload(
        dataset,
        WorkloadSpec(
            requests=requests,
            methods=method_names,
            distinct_examples=distinct_examples,
            zipf_s=zipf_s,
            seed=seed,
        ),
    )
    distinct_keys = sorted({request.key for request in workload})

    # Shared, prepared method instances: every engine (and the offline
    # reference) sees identical prepared state, and preparation cost is
    # paid once.
    methods = {name: build_method(name, seed=seed) for name in method_names}
    for method in methods.values():
        method.prepare(dataset)

    def fresh_engine(
        workers: int,
        coalesce: bool = True,
        deadline_s: float | None = None,
        cache: bool = False,
        semantic: bool = False,
    ) -> ServingEngine:
        config = ServeConfig(
            methods=method_names,
            workers=workers,
            max_in_flight=max(len(workload) * 2, 64),
            coalesce=coalesce,
            default_deadline_s=deadline_s,
            measure_timing=False,
            warm_start=True,
            seed=seed,
            response_cache=cache,
            response_cache_size=cache_size,
            response_cache_ttl_s=cache_ttl_s,
            semantic_cache_keys=semantic,
        )
        return ServingEngine(dataset, config, methods=dict(methods)).start()

    # Offline reference: the ground truth every response must match.
    # Also warms the process-wide memo layers, so the serial baseline and
    # the concurrent runs compete on equal (warm) footing.
    index = question_index(dataset)
    offline = Evaluator(dataset, measure_timing=False)
    reference = {
        key: offline.evaluate_example(methods[key[0]], index[(key[1], key[2])])
        for key in distinct_keys
    }

    mismatches = 0
    timeouts_total = 0

    def check(responses: list[ServeResponse]) -> None:
        nonlocal mismatches, timeouts_total
        for response in responses:
            if response.status is ServeStatus.TIMEOUT:
                timeouts_total += 1
            if not response.ok or response.record != reference[response.request.key]:
                mismatches += 1

    # Serial baseline: one request at a time, no coalescing.
    engine = fresh_engine(workers=1, coalesce=False)
    serial_responses, serial_elapsed = _closed_loop(engine, workload, clients=1)
    check(serial_responses)
    serial = _loop_summary(serial_responses, serial_elapsed, engine)
    engine.close()

    concurrency: dict[str, dict] = {}
    open_hits_at_8 = 0
    for clients in CONCURRENCIES:
        engine = fresh_engine(workers=clients)
        closed_responses, closed_elapsed = _closed_loop(engine, workload, clients)
        check(closed_responses)
        closed = _loop_summary(closed_responses, closed_elapsed, engine)
        engine.close()

        engine = fresh_engine(workers=clients)
        open_responses, open_elapsed = _open_loop(engine, workload)
        check(open_responses)
        opened = _loop_summary(open_responses, open_elapsed, engine)
        if clients == CONCURRENCIES[-1]:
            open_hits_at_8 = engine.stats.coalesce_hits
        # Pool counters live on the shared Database objects, so this is
        # cumulative over every run so far (snapshotted once below).
        pool_totals = engine.pool_stats()
        engine.close()
        concurrency[str(clients)] = {"closed": closed, "open": opened}

    # Graceful degradation: a zero deadline must time out every request
    # (typed responses, nothing hangs) and leave the engine healthy.
    engine = fresh_engine(workers=4, deadline_s=0.0)
    degradation_workload = workload[: max(len(distinct_keys), 8)]
    engine.pause()
    futures = [engine.submit(request) for request in degradation_workload]
    engine.resume()
    degraded = [future.response() for future in futures]
    # Recovery requests carry an explicit generous deadline (overriding
    # the engine's zero default): the same engine must serve them fine.
    recovery = [
        engine.submit(
            ServeRequest(method=key[0], db_id=key[1], question=key[2],
                         deadline_s=300.0)
        ).response()
        for key in distinct_keys[:4]
    ]
    check(recovery)
    degradation = {
        "requests": len(degraded),
        "timeouts": sum(1 for r in degraded if r.status is ServeStatus.TIMEOUT),
        "shed": engine.stats.shed,
        "recovered_ok": sum(1 for r in recovery if r.ok),
    }
    engine.close()

    open_8 = concurrency[str(CONCURRENCIES[-1])]["open"]
    speedup = (
        open_8["throughput_rps"] / serial["throughput_rps"]
        if serial["throughput_rps"]
        else 0.0
    )

    # -- response cache: cold/warm comparison, semantic risk, invalidation.
    # Runs last because the invalidation stage mutates a live database.
    cache_doc: dict = {"enabled": bool(response_cache)}
    if response_cache:
        cache_doc.update(
            size=cache_size, ttl_s=cache_ttl_s, semantic_keys=semantic_keys
        )

        # Cold pass: fresh cache, open loop — every submission must miss.
        engine = fresh_engine(workers=8, cache=True, semantic=semantic_keys)
        cold_responses, cold_elapsed = _open_loop(engine, workload)
        if not semantic_keys:
            check(cold_responses)
        cold = _loop_summary(cold_responses, cold_elapsed, engine)
        cold["cache_hits"] = engine.stats.cache_hits
        cold["cache_misses"] = engine.stats.cache_misses

        # Warm pass on the same engine: every request must hit.
        warm_responses, warm_elapsed = _cached_pass(engine, workload)
        warm = _loop_summary(warm_responses, warm_elapsed, engine)
        warm["cache_hits"] = engine.stats.cache_hits - cold["cache_hits"]
        warm["cache_misses"] = engine.stats.cache_misses - cold["cache_misses"]
        warm["served_cached"] = sum(1 for r in warm_responses if r.cached)
        if semantic_keys:
            # Lossy keys: record divergences instead of gating on them.
            warm["semantic_mismatches"] = sum(
                1
                for r in warm_responses
                if not r.ok or r.record != reference[r.request.key]
            )
        else:
            check(warm_responses)

        # Whitespace/case variants must hit the same entries (the shared
        # normalize_question key): mangled questions, identical records.
        probes = [
            ServeRequest(
                method=key[0], db_id=key[1], question=f"  {key[2].upper()} "
            )
            for key in distinct_keys[: min(8, len(distinct_keys))]
        ]
        probe_hits_before = engine.stats.cache_hits
        probe_responses = [engine.submit(probe).response() for probe in probes]
        if not semantic_keys:
            check(probe_responses)
        variant_probes = {
            "requests": len(probes),
            "hits": engine.stats.cache_hits - probe_hits_before,
        }
        engine.close()

        # Semantic-key risk measurement: fold paraphrase equivalence
        # classes into the key and count collisions plus the record
        # divergences they cause.  Reported, never gated.
        semantic_base_keys = {
            (key[0], key[1], normalize_question(key[2], semantic=True))
            for key in distinct_keys
        }
        dev_questions = len(dataset.dev_examples)
        dev_semantic = len(
            {
                (e.db_id, normalize_question(e.question, semantic=True))
                for e in dataset.dev_examples
            }
        )
        engine = fresh_engine(workers=8, cache=True, semantic=True)
        _open_loop(engine, workload)
        semantic_responses, _ = _cached_pass(engine, workload)
        semantic_doc = {
            "distinct_base_keys": len(distinct_keys),
            "distinct_semantic_keys": len(semantic_base_keys),
            "workload_collisions": len(distinct_keys) - len(semantic_base_keys),
            "dev_questions": dev_questions,
            "dev_collisions": dev_questions - dev_semantic,
            "warm_hits": engine.stats.cache_hits,
            "mismatches": sum(
                1
                for r in semantic_responses
                if not r.ok or r.record != reference[r.request.key]
            ),
        }
        engine.close()

        # Invalidation: mutate the hottest database while a warm exact-key
        # engine is live; its entries must be purged, every affected
        # request must miss and recompute against a fresh post-mutation
        # offline reference, and unaffected entries must keep hitting.
        target_db = Counter(r.db_id for r in workload).most_common(1)[0][0]
        affected = [r for r in workload if r.db_id == target_db]
        unaffected = [r for r in workload if r.db_id != target_db]
        affected_distinct = {r.key for r in affected}
        engine = fresh_engine(workers=8, cache=True)
        _open_loop(engine, workload)  # fill: one entry per distinct key
        fill_hits = engine.stats.cache_hits
        fill_misses = engine.stats.cache_misses
        database = dataset.databases[target_db]
        table, column = _mutable_text_column(database.schema)
        # apply_write commits and fires the engine's invalidation
        # listener via mark_mutated.
        database.apply_write(
            f"UPDATE {table} SET {column} = {column} || ' (edited)' "
            f"WHERE rowid IN (SELECT rowid FROM {table} LIMIT 1)"
        )
        invalidated = engine.cache_stats()["invalidations"]
        post_reference = dict(reference)
        for key in sorted(affected_distinct):
            post_reference[key] = offline.evaluate_example(
                methods[key[0]], index[(key[1], key[2])]
            )
        replay_responses, _ = _open_loop(engine, workload)
        replay_hits = engine.stats.cache_hits - fill_hits
        replay_misses = engine.stats.cache_misses - fill_misses
        stale_serves = sum(
            1
            for r in replay_responses
            if not r.ok or r.record != post_reference[r.request.key]
        )
        mismatches += stale_serves
        invalidation_doc = {
            "mutated_db": target_db,
            "mutated_table": table,
            "affected_requests": len(affected),
            "unaffected_requests": len(unaffected),
            "expected_invalidated": len(affected_distinct),
            "invalidated_entries": invalidated,
            "replay_hits": replay_hits,
            "replay_misses": replay_misses,
            "stale_serves": stale_serves,
        }
        engine.close()

        warm_speedup = (
            warm["throughput_rps"] / open_8["throughput_rps"]
            if open_8["throughput_rps"]
            else 0.0
        )
        cache_doc.update(
            cold=cold,
            warm=warm,
            warm_speedup_vs_off=round(warm_speedup, 2),
            variant_probes=variant_probes,
            semantic=semantic_doc,
            invalidation=invalidation_doc,
        )

    return {
        "quick": quick,
        "scale": scale,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "requests": len(workload),
        "distinct_keys": len(distinct_keys),
        "zipf_s": zipf_s,
        "methods": list(method_names),
        "responses_identical": mismatches == 0,
        "timeouts_total": timeouts_total,
        "serial": serial,
        "concurrency": concurrency,
        "speedup_at_8": round(speedup, 2),
        "coalesce": {
            "open_hits_at_8": open_hits_at_8,
            "expected_open_hits": len(workload) - len(distinct_keys),
        },
        "pool": pool_totals,
        "degradation": degradation,
        "response_cache": cache_doc,
    }


def _shard_latency_rows(
    gateway, digests: list[tuple], workload: list[ServeRequest]
) -> dict[int, list[float]]:
    """Group digest-pass latencies by the shard that served them."""
    by_shard: dict[int, list[float]] = {shard: [] for shard in range(gateway.shards)}
    for request, digest in zip(workload, digests):
        by_shard[gateway.owner(request.db_id)].append(digest[5])
    return by_shard


def run_gateway_bench(
    scale: float = 0.08,
    seed: int = 42,
    distinct_examples: int = 32,
    zipf_s: float = 1.1,
    method_names: tuple[str, ...] = ("SuperSQL", "DAILSQL"),
    shard_counts: tuple[int, ...] = GATEWAY_SHARD_COUNTS,
    volume_requests: int = GATEWAY_VOLUME_REQUESTS,
    quick: bool = False,
) -> dict:
    """Replay one seeded trace through the sharded gateway at each shard count.

    Every gate here is a deterministic counter or bit-identity check —
    never wall-clock — so the same document doubles as the tier-2 smoke
    fixture.  Scaling efficiency vs the 1-shard throughput is recorded
    for the report but not gated (a 1-CPU host cannot scale).
    """
    from repro.serve.gateway.cluster import ShardedGateway
    from repro.serve.gateway.http import GatewayHTTPClient, GatewayHTTPServer
    from repro.serve.gateway.wire import record_digest, record_to_dict

    dataset_config = spider_like_config(scale=scale, seed=seed)
    serve_config = ServeConfig(
        methods=method_names,
        workers=2,
        max_in_flight=max(volume_requests * 2, 64),
        measure_timing=False,
        warm_start=True,
        seed=seed,
        response_cache=True,
    )
    per_shards: dict[str, dict] = {}
    throughputs: dict[int, float] = {}
    gates = {
        "identical_all_layouts": True,
        "volume_all_cached": True,
        "counters_exact": True,
        "mutation_exact": True,
        "spans_dropped_exact": True,
        "http_ok": True,
    }
    http_doc: dict = {}

    for shards in shard_counts:
        # A pristine parent-side dataset per layout: the mutation stage
        # below edits live databases, and every spawned worker rebuilds
        # from the same (unmutated) config.
        dataset = build_benchmark(dataset_config)
        workload = build_workload(
            dataset,
            WorkloadSpec(
                requests=volume_requests,
                methods=method_names,
                distinct_examples=distinct_examples,
                zipf_s=zipf_s,
                seed=seed,
            ),
        )
        distinct_keys = sorted({request.key for request in workload})
        fill_requests = [
            ServeRequest(method=key[0], db_id=key[1], question=key[2])
            for key in distinct_keys
        ]
        methods = {name: build_method(name, seed=seed) for name in method_names}
        for method in methods.values():
            method.prepare(dataset)
        index = question_index(dataset)
        offline = Evaluator(dataset, measure_timing=False)
        reference = {
            key: offline.evaluate_example(methods[key[0]], index[(key[1], key[2])])
            for key in distinct_keys
        }
        reference_digests = {
            key: record_digest(record) for key, record in reference.items()
        }

        gateway = ShardedGateway(dataset_config, serve_config, shards=shards)
        started = time.perf_counter()
        gateway.start()
        startup_s = time.perf_counter() - started
        try:
            layout = gateway.shard_layout()

            # Fill: every distinct key once, full records — the
            # bit-identity witness for this layout.
            fill_started = time.perf_counter()
            fill_responses = gateway.serve(fill_requests)
            fill_elapsed = time.perf_counter() - fill_started
            fill_mismatches = sum(
                1
                for response in fill_responses
                if not response.ok
                or response.record != reference[response.request.key]
            )
            if fill_mismatches:
                gates["identical_all_layouts"] = False
            after_fill = {s["shard"]: s for s in gateway.shard_stats()}

            # Volume: the Zipf trace in digest mode — every request must
            # be a response-cache hit with the reference record's digest.
            volume_started = time.perf_counter()
            digests = gateway.serve_many(workload, mode="digest")
            volume_elapsed = time.perf_counter() - volume_started
            not_cached = sum(1 for d in digests if not (d[0] == "ok" and d[1]))
            digest_mismatches = sum(
                1
                for request, digest in zip(workload, digests)
                if digest[4] != reference_digests[request.key]
            )
            if not_cached:
                gates["volume_all_cached"] = False
            if digest_mismatches:
                gates["identical_all_layouts"] = False
            after_volume = {s["shard"]: s for s in gateway.shard_stats()}
            latencies = _shard_latency_rows(gateway, digests, workload)

            # Mutation: route one write to the owner shard; its cache
            # entries must invalidate and affected keys must recompute
            # bit-identically to a fresh post-mutation offline reference.
            target_db = Counter(r.db_id for r in workload).most_common(1)[0][0]
            affected_keys = sorted(k for k in distinct_keys if k[1] == target_db)
            table, column = _mutable_text_column(dataset.databases[target_db].schema)
            mutation_sql = (
                f"UPDATE {table} SET {column} = {column} || ' (edited)' "
                f"WHERE rowid IN (SELECT rowid FROM {table} LIMIT 1)"
            )
            apply_result = gateway.apply_write(target_db, mutation_sql)
            # The parent-side reference copy takes the same write.
            dataset.databases[target_db].apply_write(mutation_sql)
            post_reference = {
                key: offline.evaluate_example(methods[key[0]], index[(key[1], key[2])])
                for key in affected_keys
            }
            replay = gateway.serve(
                [
                    ServeRequest(method=key[0], db_id=key[1], question=key[2])
                    for key in affected_keys
                ]
            )
            stale_serves = sum(
                1
                for response in replay
                if not response.ok
                or response.record != post_reference[response.request.key]
            )
            after_mutation = {s["shard"]: s for s in gateway.shard_stats()}
            owner_shard = gateway.owner(target_db)
            invalidated = (
                after_mutation[owner_shard]["cache"]["invalidations"]
                - after_volume[owner_shard]["cache"]["invalidations"]
            )
            replay_misses = (
                after_mutation[owner_shard]["engine"]["cache_misses"]
                - after_volume[owner_shard]["engine"]["cache_misses"]
            )
            mutation_doc = {
                "mutated_db": target_db,
                "owner_shard": owner_shard,
                "affected_distinct": len(affected_keys),
                "applied_rows": apply_result["affected"],
                "invalidated_entries": invalidated,
                "replay_misses": replay_misses,
                "stale_serves": stale_serves,
            }
            if (
                stale_serves
                or invalidated != len(affected_keys)
                or replay_misses != len(affected_keys)
            ):
                gates["mutation_exact"] = False

            # Per-shard accounting: exact fill/volume counter deltas plus
            # latency percentiles and the span-drop invariant.
            shard_rows = []
            for shard in range(shards):
                owned = layout.get(shard, [])
                owned_distinct = sum(1 for key in distinct_keys if key[1] in owned)
                routed_volume = len(latencies[shard])
                fill_stats = after_fill[shard]
                volume_stats = after_volume[shard]
                final_stats = after_mutation[shard]
                fill_misses = fill_stats["engine"]["cache_misses"]
                fill_computed = fill_stats["engine"]["computed"]
                volume_hits = (
                    volume_stats["engine"]["cache_hits"]
                    - fill_stats["engine"]["cache_hits"]
                )
                submitted = final_stats["engine"]["submitted"]
                spans_dropped = final_stats["engine"]["spans_dropped"]
                expected_dropped = max(
                    0, submitted - serve_config.request_log_size
                )
                row = {
                    "shard": shard,
                    "databases": len(owned),
                    "distinct_keys": owned_distinct,
                    "fill_misses": fill_misses,
                    "fill_computed": fill_computed,
                    "volume_requests": routed_volume,
                    "volume_hits": volume_hits,
                    "submitted": submitted,
                    "spans_dropped": spans_dropped,
                    "expected_spans_dropped": expected_dropped,
                    **_percentiles(latencies[shard]),
                }
                shard_rows.append(row)
                if fill_misses != owned_distinct or fill_computed != owned_distinct:
                    gates["counters_exact"] = False
                if volume_hits != routed_volume:
                    gates["counters_exact"] = False
                if spans_dropped != expected_dropped:
                    gates["spans_dropped_exact"] = False

            # HTTP: real sockets for the largest layout only (volume goes
            # over pipes; this stage proves the endpoint contract).
            if shards == max(shard_counts):
                probe_keys = distinct_keys[: min(8, len(distinct_keys))]
                server = GatewayHTTPServer(gateway).start()
                try:
                    client = GatewayHTTPClient(server.host, server.port)
                    http_mismatches = 0
                    for key in probe_keys:
                        body = client.query(key[0], key[1], key[2])
                        expected = (
                            record_to_dict(post_reference[key])
                            if key in post_reference
                            else record_to_dict(reference[key])
                        )
                        if body["status"] != "ok" or body["record"] != expected:
                            http_mismatches += 1
                    health = client.healthz()
                    metrics_text = client.metrics_text()
                    http_doc = {
                        "shards": shards,
                        "queries": len(probe_keys),
                        "mismatches": http_mismatches,
                        "healthz": health.get("status"),
                        "metrics_families": sum(
                            1 for line in metrics_text.splitlines()
                            if line.startswith("# TYPE")
                        ),
                        "has_serve_requests": "serve_requests" in metrics_text,
                        "has_gateway_requests": "gateway_requests" in metrics_text,
                    }
                    client.close()
                    if (
                        http_mismatches
                        or health.get("status") != "ok"
                        or not http_doc["has_serve_requests"]
                        or not http_doc["has_gateway_requests"]
                    ):
                        gates["http_ok"] = False
                finally:
                    server.close()
        finally:
            gateway.close()

        throughput = (
            len(workload) / volume_elapsed if volume_elapsed else 0.0
        )
        throughputs[shards] = throughput
        per_shards[str(shards)] = {
            "startup_s": round(startup_s, 3),
            "fill": {
                "requests": len(fill_requests),
                "seconds": round(fill_elapsed, 4),
                "mismatches": fill_mismatches,
            },
            "volume": {
                "requests": len(workload),
                "seconds": round(volume_elapsed, 4),
                "throughput_rps": round(throughput, 2),
                "not_cached": not_cached,
                "digest_mismatches": digest_mismatches,
            },
            "shards": shard_rows,
            "mutation": mutation_doc,
            "routing": gateway.stats.as_dict(),
        }

    base = throughputs.get(shard_counts[0], 0.0)
    scaling = {
        str(shards): {
            "throughput_rps": round(throughputs[shards], 2),
            "speedup_vs_1": round(throughputs[shards] / base, 3) if base else 0.0,
            "efficiency": (
                round(throughputs[shards] / (shards * base), 3) if base else 0.0
            ),
        }
        for shards in shard_counts
    }
    return {
        "quick": quick,
        "shard_counts": list(shard_counts),
        "volume_requests": volume_requests,
        "methods": list(method_names),
        "request_log_size": serve_config.request_log_size,
        "layouts": per_shards,
        "scaling": scaling,
        "http": http_doc,
        "gates": gates,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serving engine benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small dataset/workload; skips the wall-clock gate")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--distinct", type=int, default=None)
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument("--methods", nargs="+", default=None)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--response-cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="run the response-cache stages (cold/warm, "
                             "semantic risk, invalidation)")
    parser.add_argument("--cache-size", type=int,
                        default=DEFAULT_RESPONSE_CACHE_SIZE,
                        help="response-cache entry bound")
    parser.add_argument("--cache-ttl-s", type=float, default=None,
                        help="response-cache TTL in seconds (default: no expiry)")
    parser.add_argument("--semantic-keys", action="store_true",
                        help="use paraphrase-folding semantic cache keys for "
                             "the cold/warm passes (divergences are reported, "
                             "not gated)")
    parser.add_argument("--gateway", action="store_true",
                        help="also run the sharded-gateway stage (spawned "
                             "worker processes, HTTP endpoints)")
    parser.add_argument("--shards", type=int, nargs="+", default=None,
                        help="shard counts the gateway stage sweeps "
                             "(default: 1 2 4; quick: 1 2)")
    parser.add_argument("--gateway-requests", type=int, default=None,
                        help="digest-pass volume per shard count "
                             f"(default: {GATEWAY_VOLUME_REQUESTS}; quick: 2000)")
    args = parser.parse_args(argv)

    if args.quick:
        defaults = {"scale": 0.05, "requests": 120, "distinct": 24,
                    "methods": ["C3SQL"]}
    else:
        defaults = {"scale": 0.08, "requests": 240, "distinct": 32,
                    "methods": ["SuperSQL", "DAILSQL"]}
    result = run_bench(
        scale=args.scale if args.scale is not None else defaults["scale"],
        seed=args.seed,
        requests=args.requests if args.requests is not None else defaults["requests"],
        distinct_examples=(
            args.distinct if args.distinct is not None else defaults["distinct"]
        ),
        zipf_s=args.zipf,
        method_names=tuple(args.methods or defaults["methods"]),
        quick=args.quick,
        response_cache=args.response_cache,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl_s,
        semantic_keys=args.semantic_keys,
    )

    problems = []
    if not result["responses_identical"]:
        problems.append("served responses diverge from offline Evaluator records")
    if result["coalesce"]["open_hits_at_8"] != result["coalesce"]["expected_open_hits"]:
        problems.append("open-loop coalescing is not exact")
    if result["timeouts_total"]:
        problems.append("deadline-free runs recorded timeouts")
    if result["pool"]["checkouts"] == 0:
        problems.append("connection pool was never exercised")
    if result["degradation"]["timeouts"] != result["degradation"]["requests"]:
        problems.append("zero-deadline run did not time out every request")
    if not args.quick and result["speedup_at_8"] < SPEEDUP_GATE:
        problems.append(
            f"speedup_at_8 {result['speedup_at_8']}x below the {SPEEDUP_GATE}x gate"
        )
    cache = result["response_cache"]
    if cache["enabled"]:
        if cache["cold"]["cache_hits"] != 0:
            problems.append("cold response-cache pass recorded hits")
        if cache["cold"]["cache_misses"] != result["requests"]:
            problems.append("cold response-cache pass did not miss every request")
        if cache["warm"]["cache_hits"] != result["requests"]:
            problems.append("warm response-cache pass did not hit every request")
        if cache["warm"]["served_cached"] != result["requests"]:
            problems.append("warm responses were not all cached-flagged")
        if cache["variant_probes"]["hits"] != cache["variant_probes"]["requests"]:
            problems.append("whitespace/case variants missed the response cache")
        invalidation = cache["invalidation"]
        if invalidation["invalidated_entries"] != invalidation["expected_invalidated"]:
            problems.append("data_version bump did not invalidate exactly the "
                            "mutated database's entries")
        if invalidation["replay_hits"] != invalidation["unaffected_requests"]:
            problems.append("post-mutation replay missed unaffected entries")
        if invalidation["replay_misses"] != invalidation["affected_requests"]:
            problems.append("post-mutation replay hit stale-keyed entries")
        if invalidation["stale_serves"] != 0:
            problems.append("a stale cached response was served after invalidation")
        if not args.quick and cache["warm_speedup_vs_off"] < CACHE_SPEEDUP_GATE:
            problems.append(
                f"warm_speedup_vs_off {cache['warm_speedup_vs_off']}x below "
                f"the {CACHE_SPEEDUP_GATE}x gate"
            )

    if args.gateway:
        if args.quick:
            shard_counts = tuple(args.shards or (1, 2))
            volume = args.gateway_requests or 2000
        else:
            shard_counts = tuple(args.shards or GATEWAY_SHARD_COUNTS)
            volume = args.gateway_requests or GATEWAY_VOLUME_REQUESTS
        gateway_result = run_gateway_bench(
            scale=args.scale if args.scale is not None else defaults["scale"],
            seed=args.seed,
            distinct_examples=(
                args.distinct if args.distinct is not None else defaults["distinct"]
            ),
            zipf_s=args.zipf,
            method_names=tuple(args.methods or defaults["methods"]),
            shard_counts=shard_counts,
            volume_requests=volume,
            quick=args.quick,
        )
        result["gateway"] = gateway_result
        gate_messages = {
            "identical_all_layouts": "gateway responses diverge from the "
                                     "offline reference at some shard layout",
            "volume_all_cached": "gateway volume pass was not served "
                                 "entirely from the response cache",
            "counters_exact": "per-shard fill/volume counters are not exact",
            "mutation_exact": "gateway mutation stage invalidation/recompute "
                              "counters are not exact (or served stale)",
            "spans_dropped_exact": "per-shard serve_spans_dropped does not "
                                   "match the request-log overflow exactly",
            "http_ok": "HTTP endpoint stage failed (query mismatch, "
                       "degraded healthz, or missing metrics)",
        }
        for gate, passed in gateway_result["gates"].items():
            if not passed:
                problems.append(f"gateway: {gate_messages[gate]}")

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    for problem in problems:
        print(f"bench_serve: FAIL — {problem}")
    if not problems:
        print(
            f"bench_serve: OK — {result['speedup_at_8']}x at concurrency "
            f"{CONCURRENCIES[-1]} ({result['requests']} requests, "
            f"{result['distinct_keys']} distinct)"
        )
        if args.gateway:
            scaling = result["gateway"]["scaling"]
            summary = ", ".join(
                f"{shards} shard(s): {row['throughput_rps']} rps "
                f"(eff {row['efficiency']})"
                for shards, row in scaling.items()
            )
            print(f"bench_serve: gateway OK — {summary}")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
