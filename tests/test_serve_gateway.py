"""Tests for the sharded multi-process gateway (repro.serve.gateway).

The load-bearing property is cross-topology equivalence: the same
seeded workload must produce bit-identical
:class:`~repro.core.metrics.EvaluationRecord` payloads through the
offline :class:`~repro.core.evaluator.Evaluator`, the single-process
:class:`~repro.serve.engine.ServingEngine`, and the gateway at 1, 2,
and 4 shards — with exact per-shard cache/invalidation counters at
every layout.  The remaining tests pin the consistent-hash ring, the
Prometheus merge/render pair, write/invalidation routing, and the HTTP
surface.  The memo switch's trip across the spawn boundary is checked in
``tests/test_mode_identity.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.evaluator import Evaluator
from repro.datagen.benchmark import build_benchmark
from repro.errors import GatewayError
from repro.serve import (
    GatewayHTTPClient,
    GatewayHTTPServer,
    HashRing,
    ServeConfig,
    ServeRequest,
    ServeStatus,
    ServingEngine,
    ShardedGateway,
    WorkloadSpec,
    build_workload,
    question_index,
)
from repro.serve.gateway import (
    canonical_record_json,
    owned_db_ids,
    query_body,
    record_digest,
    record_to_dict,
    response_to_dict,
    stable_hash,
)
from repro.serve.gateway import cluster, wire
from repro.serve.gateway import http as gateway_http
from repro.serve.gateway.cluster import DEADLINE_GRACE_S, HEALTH_TIMEOUT_S
from repro.methods.zoo import build_method
from repro.obs.prometheus import merge_metric_exports, render_prometheus
from repro.utils.cache import caches_disabled

from tests.conftest import edit_one_row_sql, small_benchmark_config

METHOD = "C3SQL"
# Quotes, backslashes and non-ASCII text: everything JSON has to escape.
AWKWARD_QUESTION = 'Which "quoted" \\ back\\slash — naïve café 航班?'


def gateway_serve_config(**overrides) -> ServeConfig:
    config = dict(
        methods=(METHOD,), workers=2, response_cache=True, seed=42,
    )
    config.update(overrides)
    return ServeConfig(**config)


@pytest.fixture(scope="module")
def workload(small_dataset):
    # Draw from every dev example so the requests span all four dev
    # databases and, at 2 and 4 shards, more than one shard.
    spec = WorkloadSpec(
        requests=40, methods=(METHOD,), distinct_examples=40, zipf_s=1.1, seed=7
    )
    return build_workload(small_dataset, spec)


@pytest.fixture(scope="module")
def offline_records(small_dataset, workload):
    method = build_method(METHOD, seed=42)
    method.prepare(small_dataset)
    index = question_index(small_dataset)
    evaluator = Evaluator(small_dataset, measure_timing=False)
    records = {}
    for request in workload:
        if request.key not in records:
            example = index[(request.db_id, request.question)]
            records[request.key] = evaluator.evaluate_example(method, example)
    return records


@pytest.fixture(scope="module")
def gateway():
    """A running 2-shard gateway shared by the read-only tests."""
    with ShardedGateway(
        small_benchmark_config(), gateway_serve_config(), shards=2
    ) as gw:
        yield gw


class TestHashRing:
    IDS = [f"db_{i}" for i in range(200)]

    def test_owner_is_deterministic_across_instances(self):
        first = HashRing(4)
        second = HashRing(4)
        assert [first.owner(i) for i in self.IDS] == [
            second.owner(i) for i in self.IDS
        ]

    def test_stable_hash_is_process_independent(self):
        # Pinned literal: blake2b, not the salted built-in hash(), so
        # every spawn-context worker positions keys identically.
        assert stable_hash("flights_100") == 0x43225592059294C3

    def test_partition_is_a_disjoint_cover(self):
        ring = HashRing(4)
        parts = ring.partition(self.IDS)
        assert sorted(parts) == [0, 1, 2, 3]
        flat = [db_id for shard in sorted(parts) for db_id in parts[shard]]
        assert sorted(flat) == sorted(self.IDS)
        assert len(flat) == len(set(flat))
        for shard, owned in parts.items():
            assert all(ring.owner(db_id) == shard for db_id in owned)

    def test_vnodes_keep_shards_roughly_balanced(self):
        parts = HashRing(4).partition(self.IDS)
        sizes = [len(owned) for owned in parts.values()]
        assert min(sizes) > 0
        assert max(sizes) <= 3 * (len(self.IDS) // 4)

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            1 for db_id in self.IDS if before.owner(db_id) != after.owner(db_id)
        )
        # Consistent hashing: ~1/5 of keys move, never a full reshuffle.
        assert 0 < moved < len(self.IDS) // 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)

    def test_owned_db_ids_matches_partition(self):
        ring = HashRing(3)
        parts = ring.partition(sorted(self.IDS))
        for shard in range(3):
            assert owned_db_ids(self.IDS, shard, ring) == parts[shard]


class TestPrometheus:
    def test_merge_sums_counters_by_name_and_labels(self):
        merged = merge_metric_exports([
            {"counters": [
                {"name": "serve_requests", "labels": {"method": "A"}, "value": 2.0},
                {"name": "serve_requests", "labels": {"method": "B"}, "value": 1.0},
            ]},
            {"counters": [
                {"name": "serve_requests", "labels": {"method": "A"}, "value": 3.0},
            ]},
        ])
        assert merged["counters"] == [
            {"name": "serve_requests", "labels": {"method": "A"}, "value": 5.0},
            {"name": "serve_requests", "labels": {"method": "B"}, "value": 1.0},
        ]

    def test_merge_combines_histograms_exactly(self):
        merged = merge_metric_exports([
            {"histograms": [{
                "name": "latency", "labels": {}, "count": 2, "total": 3.0,
                "mean": 1.5, "min": 1.0, "max": 2.0,
            }]},
            {"histograms": [{
                "name": "latency", "labels": {}, "count": 1, "total": 0.5,
                "mean": 0.5, "min": 0.5, "max": 0.5,
            }]},
        ])
        (entry,) = merged["histograms"]
        assert entry["count"] == 3
        assert entry["total"] == 3.5
        assert entry["min"] == 0.5
        assert entry["max"] == 2.0

    def test_merge_is_order_independent(self):
        exports = [
            {"counters": [{"name": "x", "labels": {"s": "0"}, "value": 1.0}]},
            {"counters": [{"name": "x", "labels": {"s": "1"}, "value": 2.0}]},
        ]
        assert merge_metric_exports(exports) == merge_metric_exports(exports[::-1])

    def test_render_emits_sorted_typed_families(self):
        text = render_prometheus({
            "counters": [
                {"name": "b_total", "labels": {}, "value": 2.0},
                {"name": "a_total", "labels": {"shard": "0"}, "value": 1.0},
            ],
            "histograms": [{
                "name": "latency", "labels": {}, "count": 2, "total": 3.0,
                "mean": 1.5, "min": 1.0, "max": 2.0,
            }],
        })
        assert text == (
            "# TYPE a_total counter\n"
            'a_total{shard="0"} 1\n'
            "# TYPE b_total counter\n"
            "b_total 2\n"
            "# TYPE latency summary\n"
            "latency_count 2\n"
            "latency_sum 3\n"
            "latency_min 1\n"
            "latency_max 2\n"
        )

    def test_render_escapes_label_values(self):
        text = render_prometheus({
            "counters": [
                {"name": "x", "labels": {"q": 'say "hi"\n'}, "value": 1.0}
            ],
            "histograms": [],
        })
        assert 'x{q="say \\"hi\\"\\n"} 1' in text


class TestWireFormat:
    def test_digest_is_an_equality_witness(self, offline_records):
        records = list(offline_records.values())
        assert record_digest(records[0]) == record_digest(records[0])
        digests = {record_digest(record) for record in records}
        jsons = {canonical_record_json(record) for record in records}
        assert len(digests) == len(jsons)
        assert record_digest(None) is None

    def test_record_to_dict_serializes_enums(self, offline_records):
        record = next(iter(offline_records.values()))
        payload = record_to_dict(record)
        json.dumps(payload, default=str)  # JSON-safe end to end
        assert payload["db_id"] == record.db_id

    def test_query_bodies_are_the_encoded_response_dicts(self, small_dataset, workload):
        request = workload[0]
        with ServingEngine(small_dataset, gateway_serve_config()) as engine:
            (fresh,) = engine.serve([request])
            (cached,) = engine.serve([request])
            (shouted,) = engine.serve([
                dataclasses.replace(request, question=f" {request.question.upper()} ")
            ])
            unknown, unserved, expired = engine.serve([
                ServeRequest(METHOD, request.db_id, AWKWARD_QUESTION),
                ServeRequest("NoSuchMethod", request.db_id, request.question),
                dataclasses.replace(request, deadline_s=0),
            ])
        awkward = dataclasses.replace(
            cached,
            request=dataclasses.replace(cached.request, question=AWKWARD_QUESTION),
            record=dataclasses.replace(cached.record, question=AWKWARD_QUESTION),
        )
        assert fresh.ok and not fresh.cached
        assert cached.ok and cached.cached and shouted.cached
        assert unknown.status is unserved.status is ServeStatus.ERROR
        assert expired.status is ServeStatus.TIMEOUT
        responses = [fresh, cached, shouted, unknown, unserved, expired, awkward]

        def expected(response) -> bytes:
            return json.dumps(response_to_dict(response), sort_keys=True).encode()

        for response in responses:
            assert query_body(response) == expected(response), response.status
        # A repeated response-cache hit comes from the memo, byte for byte;
        # a hit asked in other words than its record's is never memoized.
        memo = wire._cached_query_body
        hits = memo.cache_info().hits
        assert query_body(awkward) == expected(awkward)
        assert memo.cache_info().hits == hits + 1
        size = memo.cache_info().currsize
        assert query_body(shouted) == expected(shouted)
        assert memo.cache_info().currsize == size
        info = memo.cache_info()
        with caches_disabled():
            for response in responses:
                assert query_body(response) == expected(response), response.status
        assert memo.cache_info() == info


class TestGatewayServing:
    def test_routing_matches_the_ring(self, gateway):
        layout = gateway.shard_layout()
        assert sorted(layout) == [0, 1]
        for shard, owned in layout.items():
            assert all(gateway.owner(db_id) == shard for db_id in owned)

    def test_responses_bit_identical_to_offline(
        self, gateway, workload, offline_records
    ):
        responses = gateway.serve(list(workload))
        assert len(responses) == len(workload)
        for request, response in zip(workload, responses):
            assert response.ok, response.error
            assert response.record == offline_records[request.key]

    def test_small_chunks_preserve_request_order(
        self, gateway, workload, offline_records
    ):
        responses = gateway.serve_many(list(workload), chunk_size=3)
        for request, response in zip(workload, responses):
            assert response.record == offline_records[request.key]

    def test_parent_routing_counters_are_exact(self, gateway, workload):
        before = dict(gateway.stats.routed)
        gateway.serve(list(workload))
        routed = {
            shard: gateway.stats.routed[shard] - before.get(shard, 0)
            for shard in gateway.stats.routed
        }
        expected: dict[int, int] = {}
        for request in workload:
            owner = gateway.owner(request.db_id)
            expected[owner] = expected.get(owner, 0) + 1
        assert {s: n for s, n in routed.items() if n} == expected

    def test_bad_chunk_size_rejected(self, gateway, workload):
        with pytest.raises(GatewayError):
            gateway.serve_many(list(workload), chunk_size=0)

    def test_metrics_text_merges_worker_registries(self, gateway, workload):
        gateway.serve(list(workload))
        text = gateway.metrics_text()
        assert "# TYPE serve_requests counter" in text
        assert "# TYPE gateway_requests counter" in text
        assert text.endswith("\n")


class TestCrossTopologyEquivalence:
    """Satellite D: offline == single-process engine == gateway at 1/2/4."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_layouts_are_bit_identical_with_exact_counters(
        self, shards, small_dataset, workload, offline_records
    ):
        method = build_method(METHOD, seed=42)
        method.prepare(small_dataset)
        # A request log smaller than the trace, so span drops are exact too.
        config = gateway_serve_config(request_log_size=16)
        from repro.serve import ServingEngine

        # Fill pass over the distinct keys, then the full trace: this
        # makes every cache counter exact (one miss+store per distinct
        # key, then one hit per request).
        seen: set = set()
        fill = [r for r in workload if not (r.key in seen or seen.add(r.key))]
        with ServingEngine(
            small_dataset, config, methods={METHOD: method}
        ) as engine:
            engine.serve(fill)
            engine_responses = engine.serve(list(workload))
        with ShardedGateway(
            small_benchmark_config(), config, shards=shards
        ) as gateway:
            gateway.serve(fill)
            gateway_responses = gateway.serve(list(workload))
            shard_stats = gateway.shard_stats()
        for request, from_engine, from_gateway in zip(
            workload, engine_responses, gateway_responses
        ):
            reference = offline_records[request.key]
            assert from_engine.record == reference
            assert from_gateway.record == reference
            assert from_gateway.cached
        distinct_by_shard: dict[int, int] = {}
        total_by_shard: dict[int, int] = {}
        for request in workload:
            owner = gateway.owner(request.db_id)
            total_by_shard[owner] = total_by_shard.get(owner, 0) + 1
        for request in fill:
            owner = gateway.owner(request.db_id)
            distinct_by_shard[owner] = distinct_by_shard.get(owner, 0) + 1
        assert shards == 1 or len(total_by_shard) > 1
        for entry in shard_stats:
            shard = entry["shard"]
            assert entry["cache"]["misses"] == distinct_by_shard.get(shard, 0)
            assert entry["cache"]["stores"] == distinct_by_shard.get(shard, 0)
            assert entry["cache"]["hits"] == total_by_shard.get(shard, 0)
            assert entry["cache"]["invalidations"] == 0
            assert entry["engine"]["errors"] == 0
            submitted = distinct_by_shard.get(shard, 0) + total_by_shard.get(shard, 0)
            assert entry["engine"]["submitted"] == submitted
            assert entry["engine"]["spans_dropped"] == max(
                0, submitted - config.request_log_size
            )


class TestMutationPropagation:
    """apply_write / mark_mutated reach the owning shard's cache."""

    def test_apply_write_invalidates_owner_shard_cache(self, small_dataset, workload):
        request = workload[0]
        edit = edit_one_row_sql(small_dataset.databases[request.db_id].schema)
        with ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=2
        ) as gateway:
            first = gateway.ask(request.method, request.db_id, request.question)
            warm = gateway.ask(request.method, request.db_id, request.question)
            assert first.ok and not first.cached
            assert warm.ok and warm.cached
            result = gateway.apply_write(request.db_id, edit)
            assert result["affected"] == 1
            replay = gateway.ask(request.method, request.db_id, request.question)
            assert not replay.cached  # version-keyed entry went stale
            owner = gateway.owner(request.db_id)
            entry = next(
                e for e in gateway.shard_stats() if e["shard"] == owner
            )
            assert entry["cache"]["invalidations"] == 1
            assert gateway.stats.apply_writes == 1

    def test_attach_dataset_forwards_parent_mutations(self, workload):
        request = workload[0]
        parent = build_benchmark(small_benchmark_config())
        try:
            with ShardedGateway(
                small_benchmark_config(), gateway_serve_config(), shards=2
            ) as gateway:
                gateway.attach_dataset(parent)
                gateway.ask(request.method, request.db_id, request.question)
                before = gateway.invalidate(request.db_id)["data_version"]
                parent.databases[request.db_id].mark_mutated()
                assert gateway.stats.invalidations_forwarded == 2
                owner = gateway.owner(request.db_id)
                entry = next(
                    e for e in gateway.shard_stats() if e["shard"] == owner
                )
                # The first invalidation purged the only cached entry;
                # the forwarded one found nothing left to remove.
                assert entry["cache"]["invalidations"] == 1
                # data_version advanced once per event, so the parent's
                # mark_mutated demonstrably crossed the process boundary.
                after = gateway.invalidate(request.db_id)["data_version"]
                assert after == before + 2
            # close() detached the forwarder: further parent mutations
            # must not try to reach dead workers.
            parent.databases[request.db_id].mark_mutated()
        finally:
            parent.close()


class TestGatewayHTTP:
    def test_query_round_trips_the_record(
        self, gateway, workload, offline_records
    ):
        request = workload[0]
        # Serve it once first, so the HTTP reply and the replay below are
        # both cache hits whichever tests ran before.
        gateway.serve([request])
        with GatewayHTTPServer(gateway) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                payload = client.query(request.method, request.db_id, request.question)
        expected = response_to_dict(gateway.serve([request])[0])
        assert payload["record"] == record_to_dict(offline_records[request.key])
        assert payload["status"] == "ok"
        assert payload == expected

    def test_query_forwards_the_shards_body_bytes(
        self, gateway, workload, monkeypatch
    ):
        # The loop decodes only the frame around the body: a list of bytes,
        # never a response or a record, and sends those bytes unchanged.
        decoded = []

        def recording_decode_frames(buffer):
            messages = wire.decode_frames(buffer)
            decoded.extend(messages)
            return messages

        request = workload[0]
        gateway.serve([request])  # a response-cache hit from here on
        with GatewayHTTPServer(gateway) as server:
            monkeypatch.setattr(cluster, "decode_frames", recording_decode_frames)
            conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                conn.request("POST", "/query", body=json.dumps({
                    "method": request.method, "db_id": request.db_id,
                    "question": request.question,
                }).encode())
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            monkeypatch.undo()
        assert response.status == 200
        ((_, (kind, payload)),) = decoded
        assert kind == "ok" and payload == [body]
        (served,) = gateway.serve([request])
        assert body == query_body(served)

    def test_healthz_and_metrics_endpoints(self, gateway, workload):
        with GatewayHTTPServer(gateway) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                client.query(
                    workload[0].method, workload[0].db_id, workload[0].question
                )
                health = client.healthz()
                text = client.metrics_text()
        assert health["status"] == "ok"
        assert {entry["shard"] for entry in health["shards"]} == {0, 1}
        assert "# TYPE serve_requests counter" in text
        assert "# TYPE gateway_requests counter" in text

    def test_bad_requests_get_http_errors_not_crashes(self, gateway, workload):
        request = workload[0]
        valid = {
            "method": request.method, "db_id": request.db_id,
            "question": request.question,
        }
        bad_bodies = [
            b"not json", b"[]", b'"x"', b"{}",
            json.dumps({**valid, "db_id": [1]}).encode(),
            json.dumps({**valid, "question": 5}).encode(),
            *(
                json.dumps({**valid, "deadline_s": deadline}).encode()
                for deadline in ("a", [1], {"x": 1}, True, float("nan"))
            ),
            json.dumps(valid).encode()[:-1] + b', "deadline_s": 1e999}',
        ]
        errors_before = gateway.stats.worker_errors
        with GatewayHTTPServer(gateway) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request("GET", "/nope")
                assert conn.getresponse().status == 404
            finally:
                conn.close()
            for body in bad_bodies:
                conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
                try:
                    conn.request(
                        "POST", "/query", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    assert conn.getresponse().status == 400, body
                finally:
                    conn.close()
            # Sent raw: a malformed Content-Length, a header line and a
            # request line past the server's 64 KiB line limit, a request
            # line of four words, and two ambiguous framings: a chunked
            # body (no transfer coding is implemented) and two different
            # Content-Length values.
            query = json.dumps(valid).encode()
            raw_requests = [
                *(
                    (b"400 Bad Request", b"POST /query HTTP/1.1\r\nHost: gateway\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n")
                    for length in (b"abc", b"-5")
                ),
                (b"400 Bad Request",
                 b"GET /healthz HTTP/1.1\r\nX-Long: " + b"x" * 70_000 + b"\r\n\r\n"),
                (b"400 Bad Request", b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n"),
                (b"400 Bad Request", b"GET /healthz HTTP/1.1 extra\r\n\r\n"),
                (b"501 Not Implemented",
                 b"POST /query HTTP/1.1\r\nHost: gateway\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n"
                 + b"%x\r\n" % len(query) + query + b"\r\n0\r\n\r\n"),
                (b"400 Bad Request",
                 b"POST /query HTTP/1.1\r\nHost: gateway\r\nContent-Length: 2\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(query) + query),
            ]
            for status, raw in raw_requests:
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(raw)
                    reply = _read_to_eof(sock)
                assert reply.startswith(b"HTTP/1.1 " + status + b"\r\n"), (raw[:60], reply)
                assert b"Connection: close" in reply
                assert reply.count(b"HTTP/1.1 ") == 1, reply  # one reply, then EOF
            # The server survives bad input and keeps serving; none of it
            # reached a shard.
            with GatewayHTTPClient(server.host, server.port) as client:
                assert client.healthz()["status"] == "ok"
                payload = client.query(**valid)
        assert payload["status"] == "ok"
        assert gateway.stats.worker_errors == errors_before

    def test_connections_persist_by_the_http_version_rule(self, gateway):
        # HTTP/1.0 persists only on "keep-alive", HTTP/1.1 unless "close";
        # a connection that does not persist is answered "close" and ended.
        healthz = b"GET /healthz HTTP/%s\r\nHost: gateway\r\n%s\r\n"
        with GatewayHTTPServer(gateway) as server:
            for version, header in (
                (b"1.0", b""),
                (b"1.0", b"Connection: Upgrade, close\r\n"),
                (b"1.1", b"Connection: Close\r\n"),
            ):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(healthz % (version, header))
                    reply = _read_to_eof(sock)
                assert reply.startswith(b"HTTP/1.1 200 OK\r\n"), (version, header, reply)
                assert b"Connection: close\r\n" in reply, (version, header)
            for version, header in (
                (b"1.0", b"Connection: Keep-Alive\r\n"),
                (b"1.1", b""),
            ):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(healthz % (version, header) * 2)
                    sock.shutdown(socket.SHUT_WR)
                    reply = _read_to_eof(sock)
                # Both requests answered on the one connection.
                assert reply.count(b"HTTP/1.1 200 OK\r\n") == 2, (version, header)
                assert reply.count(b"Connection: keep-alive\r\n") == 2, (version, header)

    @pytest.mark.parametrize(
        ("bound", "sent", "status"),
        [
            ("IDLE_TIMEOUT_S", b"", None),
            ("REQUEST_TIMEOUT_S", b"GET /healthz HTTP/1.1\r\n", b"408 Request Timeout"),
            ("REQUEST_TIMEOUT_S",
             b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{", b"408 Request Timeout"),
        ],
        ids=["sends_nothing", "head_cut_short", "body_cut_short"],
    )
    def test_a_stalled_client_is_ended_within_its_bound(
        self, gateway, monkeypatch, bound, sent, status
    ):
        # Only the bound under test is lowered: a wait bounded by the
        # other one would outlast the socket's own 5 s timeout.
        monkeypatch.setattr(gateway_http, bound, 0.3)
        with GatewayHTTPServer(gateway) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                started = time.monotonic()
                sock.sendall(sent)
                reply = _read_to_eof(sock)
                elapsed = time.monotonic() - started
            assert not server._connections
        assert 0.3 <= elapsed < 3.0
        if status is None:
            assert reply == b""  # closed without a reply
        else:
            assert reply.startswith(b"HTTP/1.1 " + status + b"\r\n"), reply
            assert b"Connection: close\r\n" in reply
            assert reply.count(b"HTTP/1.1 ") == 1

    def test_a_client_that_never_reads_is_dropped_within_the_bound(
        self, gateway, monkeypatch
    ):
        monkeypatch.setattr(gateway_http, "SEND_TIMEOUT_S", 0.3)
        requests = 2000
        with GatewayHTTPServer(gateway) as server:
            # Small socket buffers at both ends (an accepted socket takes
            # the listener's): the replies, about 270 KB of 404s, outgrow
            # them and the transport's high-water mark.
            server._server.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(5)
                sock.connect((server.host, server.port))
                sock.sendall(b"GET /nope HTTP/1.1\r\n\r\n" * requests)
                time.sleep(1.5)  # read nothing until the bound has passed
                assert not server._connections
                try:
                    reply = _read_to_eof(sock)
                except ConnectionResetError:
                    reply = b""
        assert reply.count(b"HTTP/1.1 404 Not Found\r\n") < requests

    def test_client_reconnects_after_the_idle_bound(self, gateway, monkeypatch):
        monkeypatch.setattr(gateway_http, "IDLE_TIMEOUT_S", 0.2)
        with GatewayHTTPServer(gateway) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                assert client.healthz()["status"] == "ok"
                deadline = time.monotonic() + 5
                while server._connections and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not server._connections  # the server closed it
                assert client.healthz()["status"] == "ok"

    def test_close_ends_open_keep_alive_connections(self):
        # Run apart under asyncio's debug mode, where a connection left
        # open by close() shows as a pending task destroyed with the loop
        # and as unclosed-socket warnings.
        script = (
            "from repro.serve import GatewayHTTPClient, GatewayHTTPServer,"
            " ServeConfig, ShardedGateway\n"
            "from tests.conftest import small_benchmark_config\n"
            "config = ServeConfig(methods=('C3SQL',))\n"
            "with ShardedGateway(small_benchmark_config(), config, shards=1) as gateway:\n"
            "    server = GatewayHTTPServer(gateway).start()\n"
            "    client = GatewayHTTPClient(server.host, server.port)\n"
            "    assert client.healthz()['status'] == 'ok'\n"
            "    server.close()  # the client's keep-alive connection is still open\n"
            "client.close()\n"
            "print('closed')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "closed"
        for complaint in (
            "Task was destroyed", "Event loop is closed", "ResourceWarning",
            "unclosed", "Exception ignored",
        ):
            assert complaint not in result.stderr, result.stderr

    def test_client_does_not_retry_a_timed_out_request(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            client = GatewayHTTPClient(host, port, timeout_s=0.5)
            started = time.monotonic()
            with client, pytest.raises(TimeoutError):
                client.healthz()  # the listener accepts and never answers
            elapsed = time.monotonic() - started
            listener.settimeout(0.2)
            connections = []
            try:
                while True:
                    connections.append(listener.accept()[0])
            except TimeoutError:
                pass
            finally:
                for conn in connections:
                    conn.close()
        assert len(connections) == 1
        assert elapsed < 0.95

    def test_client_retries_once_on_a_reused_connection_the_server_closed(self):
        reply = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 16\r\n\r\n{\"status\": \"ok\"}"
        )
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10)

            def answer_once_per_connection() -> None:
                for _ in range(2):
                    conn, _ = listener.accept()
                    with conn:
                        conn.recv(65536)
                        conn.sendall(reply)  # then close the keep-alive connection

            server = threading.Thread(target=answer_once_per_connection)
            server.start()
            try:
                with GatewayHTTPClient(*listener.getsockname(), timeout_s=10) as client:
                    assert client.healthz() == {"status": "ok"}
                    assert client.healthz() == {"status": "ok"}
            finally:
                server.join(timeout=20)
            assert not server.is_alive()


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes; a timeout raises."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _first_keys_by_shard(gateway, workload) -> dict[int, list]:
    """The workload's distinct requests, grouped by owner shard."""
    by_shard: dict[int, list] = {}
    seen: set = set()
    for request in workload:
        if request.key not in seen:
            seen.add(request.key)
            by_shard.setdefault(gateway.owner(request.db_id), []).append(request)
    return by_shard


def _healthz_status(server) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestShardFaults:
    """A dead or stuck shard fails its own slice, typed and within a bound.

    Each test signals only the shard processes of its own gateway.
    """

    def test_killed_shard_fails_typed_and_the_other_keeps_serving(
        self, workload, offline_records
    ):
        with ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=2
        ) as gw, GatewayHTTPServer(gw) as server:
            by_shard = _first_keys_by_shard(gw, workload)
            victim, survivor = by_shard[1][0], by_shard[0][0]
            pids = [entry["pid"] for entry in gw.healthz()["shards"]]
            errors_before = gw.stats.worker_errors
            os.kill(pids[1], signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(GatewayError):
                gw.ask(victim.method, victim.db_id, victim.question)
            with GatewayHTTPClient(server.host, server.port, timeout_s=30) as client:
                with pytest.raises(GatewayError, match="HTTP 500"):
                    client.query(victim.method, victim.db_id, victim.question)
                payload = client.query(survivor.method, survivor.db_id, survivor.question)
            status, health = _healthz_status(server)
            assert time.monotonic() - started < HEALTH_TIMEOUT_S + 5
            assert payload["record"] == record_to_dict(offline_records[survivor.key])
            assert status == 503 and health["status"] == "degraded"
            assert "error" in health["shards"][1] and "pid" in health["shards"][0]
            # The direct call, the HTTP query and the /healthz ping.
            assert gw.stats.worker_errors == errors_before + 3
        live = {process.pid for process in multiprocessing.active_children()}
        assert not live & set(pids)

    def test_stopped_shard_times_out_typed_then_recovers(
        self, workload, offline_records
    ):
        with ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=2
        ) as gw, GatewayHTTPServer(gw) as server:
            by_shard = _first_keys_by_shard(gw, workload)
            late, after, survivor = by_shard[1][0], by_shard[1][1], by_shard[0][0]
            stopped = gw.healthz()["shards"][1]["pid"]
            with GatewayHTTPClient(server.host, server.port, timeout_s=30) as client:
                os.kill(stopped, signal.SIGSTOP)
                try:
                    started = time.monotonic()
                    timed_out = client.query(
                        late.method, late.db_id, late.question, deadline_s=0.5
                    )
                    assert time.monotonic() - started < 0.5 + DEADLINE_GRACE_S + 1.0
                    (gateway_timeout,) = gw.serve_many(
                        [dataclasses.replace(late, deadline_s=0.5)]
                    )
                    started = time.monotonic()
                    status, health = _healthz_status(server)
                    direct = gw.healthz()
                    assert time.monotonic() - started < 2 * HEALTH_TIMEOUT_S + 2.0
                    served = client.query(
                        survivor.method, survivor.db_id, survivor.question
                    )
                finally:
                    os.kill(stopped, signal.SIGCONT)
                # The shard now answers the calls above late; their
                # replies are dropped, and this one gets its own record.
                recovered = client.query(after.method, after.db_id, after.question)
                assert client.healthz()["status"] == "ok"
        assert timed_out["status"] == "timeout" and timed_out["record"] is None
        # The gateway builds this TIMEOUT itself; its body is the same
        # encoding of the same envelope as every shard-built body.
        assert gateway_timeout.status is ServeStatus.TIMEOUT
        assert query_body(gateway_timeout) == json.dumps(
            response_to_dict(gateway_timeout), sort_keys=True
        ).encode()
        assert timed_out == response_to_dict(gateway_timeout)
        assert status == 503 and health["status"] == "degraded"
        assert direct["status"] == "degraded" and "error" in direct["shards"][1]
        assert served["record"] == record_to_dict(offline_records[survivor.key])
        assert recovered["record"] == record_to_dict(offline_records[after.key])

    def test_frames_larger_than_the_socket_buffer_pipeline_in_order(
        self, gateway, workload
    ):
        # 8 requests of 64 KB per frame, in both directions; no shard knows
        # these questions, so each reply is an ERROR that echoes its request.
        db_ids = sorted({request.db_id for request in workload})
        requests = [
            ServeRequest(METHOD, db_ids[i % len(db_ids)], f"{i:03d} " + "x" * 65_536)
            for i in range(64)
        ]
        started = time.monotonic()
        responses = gateway.serve_many(requests, chunk_size=8)
        assert time.monotonic() - started < 60
        assert len({gateway.owner(db_id) for db_id in db_ids}) == 2
        for request, response in zip(requests, responses, strict=True):
            assert response.status is ServeStatus.ERROR
            assert response.request == request

    def test_blocking_call_on_the_loop_thread_raises(self, gateway):
        async def call_from_the_loop() -> None:
            with pytest.raises(GatewayError, match="own loop thread"):
                gateway.healthz()

        asyncio.run_coroutine_threadsafe(call_from_the_loop(), gateway._loop).result(10)


class TestGatewayLifecycle:
    def test_unstarted_gateway_refuses_requests(self):
        gateway = ShardedGateway(small_benchmark_config(), shards=1)
        with pytest.raises(GatewayError):
            gateway.ask(METHOD, "flights_100", "q")

    def test_close_is_idempotent_and_restart_is_refused(self):
        gateway = ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=1
        )
        gateway.start()
        gateway.close()
        gateway.close()
        with pytest.raises(GatewayError):
            gateway.start()

    def test_zero_shards_rejected(self):
        with pytest.raises(GatewayError):
            ShardedGateway(small_benchmark_config(), shards=0)
