"""One mode-identity matrix: every execution mode, with caches on and off.

The contract: however a run is executed — the sequential
:class:`~repro.core.evaluator.Evaluator`; the
:class:`~repro.core.parallel.ParallelEvaluator` with one worker or with
its process pool; the in-process
:class:`~repro.serve.engine.ServingEngine`; the
:class:`~repro.serve.gateway.ShardedGateway` at 1 and at 2 shards; or
``POST /query`` on a 2-shard gateway's
:class:`~repro.serve.gateway.GatewayHTTPServer` — and whether the memo
layers run or :func:`~repro.utils.cache.caches_disabled` bypasses them,
every record equals one offline sequential reference (over HTTP: the
body's ``record`` equals the reference's ``record_to_dict``).

No memo ever changes a record, so records alone cannot show that the
switch got lost on its way to a worker.  The traced in-process and
process-pool cases therefore also count the stage spans' ``memo_hits``
and ``prefix_hits``: none with caches off, some with caches on.  Gateway
shards trace into their own registries, so those cases check the
``caches`` value each shard reports on ``ping`` (over HTTP, on
``/healthz``) instead.

The six methods cover all four decoders: greedy (DAILSQL), sampling
(DAILSQL(SC)), beam (BRIDGE v2) and PICARD (T5-3B + PICARD), plus
SuperSQL and DINSQL, which renders through the NatSQL IR.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.core.evaluator import Evaluator
from repro.core.parallel import ParallelEvaluator
from repro.methods.zoo import build_method
from repro.obs.trace import Tracer, get_tracer, tracing
from repro.serve import (
    GatewayHTTPClient,
    GatewayHTTPServer,
    ServeConfig,
    ServeRequest,
    ServingEngine,
    ShardedGateway,
    question_index,
)
from repro.serve.gateway import record_to_dict
from repro.utils.cache import caches_disabled

from tests.conftest import small_benchmark_config

METHODS = ("DAILSQL", "DAILSQL(SC)", "BRIDGE v2", "T5-3B + PICARD", "SuperSQL", "DINSQL")
SEED = 42


def _methods():
    return [build_method(name, seed=SEED) for name in METHODS]


def _offline_pairs(reports):
    return [
        ((name, record.example_id), record)
        for name, report in reports.items()
        for record in report.records
    ]


def _requests(dataset):
    return [
        ServeRequest(name, example.db_id, example.question)
        for name in METHODS
        for example in dataset.dev_examples
    ]


def _served_pairs(dataset, requests, responses):
    index = question_index(dataset)
    pairs = []
    for request, response in zip(requests, responses, strict=True):
        assert response.ok, response.error
        example = index[(request.db_id, request.question)]
        pairs.append(((request.method, example.example_id), response.record))
    return pairs


def _body_pairs(dataset, requests, bodies):
    index = question_index(dataset)
    pairs = []
    for request, body in zip(requests, bodies, strict=True):
        assert body["status"] == "ok", body["error"]
        example = index[(request.db_id, request.question)]
        pairs.append(((request.method, example.example_id), body["record"]))
    return pairs


def _serve_config():
    return ServeConfig(methods=METHODS, workers=2, seed=SEED)


# Each mode runs under an ambient tracer and returns ``(pairs, evidence)``:
# ``pairs`` holds one ((method, example id), record) per evaluation (over
# HTTP, the body's record dict), and ``evidence`` is the traced example
# spans, or each gateway shard's ``caches`` flag.


def run_sequential(dataset):
    evaluator = Evaluator(dataset, measure_timing=False)
    return _offline_pairs(evaluator.evaluate_zoo(_methods())), evaluator.trace_spans


def parallel(**options):
    def run(dataset):
        with ParallelEvaluator(dataset, measure_timing=False, **options) as engine:
            reports = engine.evaluate_zoo(_methods())
        if options["jobs"] > 1:
            assert engine.stats.parallel_tasks > 0
        return _offline_pairs(reports), engine.trace_spans

    return run


def run_serving(dataset):
    requests = _requests(dataset)
    with ServingEngine(dataset, _serve_config()) as engine:
        responses = engine.serve(requests)
    return _served_pairs(dataset, requests, responses), get_tracer().drain()


def gateway(shards):
    def run(dataset):
        requests = _requests(dataset)
        with ShardedGateway(
            small_benchmark_config(), _serve_config(), shards=shards
        ) as gw:
            responses = gw.serve(requests)
            flags = [entry["caches"] for entry in gw.healthz()["shards"]]
        assert len(flags) == shards
        return _served_pairs(dataset, requests, responses), flags

    return run


def run_gateway_http(dataset):
    requests = _requests(dataset)
    with ShardedGateway(small_benchmark_config(), _serve_config(), shards=2) as gw:
        with GatewayHTTPServer(gw) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                bodies = [
                    client.query(request.method, request.db_id, request.question)
                    for request in requests
                ]
                flags = [entry["caches"] for entry in client.healthz()["shards"]]
    assert len(flags) == 2
    return _body_pairs(dataset, requests, bodies), flags


MODES = {
    "sequential": run_sequential,
    "jobs1": parallel(jobs=1),
    "processes": parallel(jobs=2),
    "serving": run_serving,
    "gateway1": gateway(1),
    "gateway2": gateway(2),
    "gateway_http": run_gateway_http,
}


@pytest.fixture(scope="module")
def reference(small_dataset):
    """The offline sequential records, keyed by (method, example id)."""
    evaluator = Evaluator(small_dataset, measure_timing=False)
    return dict(_offline_pairs(evaluator.evaluate_zoo(_methods())))


class TestModeIdentity:
    @pytest.mark.parametrize("caches", [True, False], ids=["caches_on", "caches_off"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_records_match_offline(self, small_dataset, reference, mode, caches):
        with nullcontext() if caches else caches_disabled():
            with tracing(Tracer()):
                pairs, evidence = MODES[mode](small_dataset)
        assert len(pairs) == len(reference)
        for key, record in pairs:
            expected = reference[key]
            if isinstance(record, dict):  # a /query body's record
                expected = record_to_dict(expected)
            assert record == expected, (mode, key)
        if mode.startswith("gateway"):
            assert evidence == [caches] * len(evidence)
            return
        stages = [stage for span in evidence for stage in span.stages]
        memo_hits = sum(stage.counters.get("memo_hits", 0) for stage in stages)
        prefix_hits = sum(stage.counters.get("prefix_hits", 0) for stage in stages)
        if caches:
            assert memo_hits > 0 and prefix_hits > 0
        else:
            assert memo_hits == prefix_hits == 0
