"""``serve_zipf_writes``: bursts of Zipf-skewed questions with writes between them.

An in-process ``ServingEngine`` with the response cache on and one
worker thread per core serves methods covering the four decoders.  Set-up
warms the cache over every served key.  Each round submits one burst
while the engine is paused, resumes it and waits for every response;
then one content-neutral ``Database.apply_write`` goes to the next
database in a fixed rotation.  The write bumps ``data_version``, so the
cache drops that database's entries and its read replicas refresh, yet
every record stays checkable against the offline reference.  A burst
presents the same queue on every run, which keeps the engine's counters
exact whatever the host's speed.
"""

from __future__ import annotations

import statistics
import time

from common import Answer, Context, Stopwatch, reference_digests
from layers import Figures, serve_figures, stage_figures
from traffic import Key, key_universe, neutral_write, zipf_bursts

RESPONSE_TIMEOUT_S = 120.0


def response_answer(dataset: str, key: Key, response) -> Answer:
    from repro.serve.gateway.wire import record_digest

    record = response.record
    ok = response.ok and record is not None
    billed = 0
    if ok and not response.cached and not response.coalesced:
        billed = record.input_tokens + record.output_tokens
    return Answer(
        dataset=dataset, method=key.method, example_id=key.example_id, ok=ok,
        digest=record_digest(record) if ok else None,
        ex=ok and record.ex, em=ok and record.em, billed_tokens=billed,
    )


class ServeZipfWrites:
    name = "serve_zipf_writes"

    def __init__(self, ctx: Context) -> None:
        from repro.datagen.benchmark import spider_like_config

        self.ctx = ctx
        cfg = ctx.config["serve_zipf_writes"]
        self.cfg = cfg
        self.dataset_config = spider_like_config(cfg["scale"], ctx.dataset_seeds["spider"])
        self.bursts = max(1, round(ctx.seconds * cfg["bursts_per_second"]))
        self.engine = None
        self.dataset = None
        self.keys: list[Key] = []
        self.timed: list[tuple[Key, object]] = []
        self.warm: list[tuple[Key, object]] = []
        self.write_seconds: list[float] = []
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.pool_before: dict = {}
        self.pool_after: dict = {}
        self.spans: list = []

    def setup(self, watch: Stopwatch) -> None:
        from repro.datagen.benchmark import build_benchmark
        from repro.serve.engine import ServeConfig, ServeRequest, ServingEngine

        started = time.perf_counter()
        self.dataset = build_benchmark(self.dataset_config)
        watch.add("build_s", time.perf_counter() - started)
        config = ServeConfig(
            methods=tuple(self.cfg["methods"]), workers=self.ctx.jobs, response_cache=True
        )
        self.engine = ServingEngine(self.dataset, config).start()
        self.keys = key_universe(self.dataset, self.cfg["methods"])
        requests = [ServeRequest(k.method, k.db_id, k.question) for k in self.keys]
        responses = self.engine.serve(requests, submit_paused=True)
        self.warm = list(zip(self.keys, responses))

    def program_pids(self) -> list[int]:
        return []

    def measure(self, timeline) -> None:
        from repro.obs.trace import get_tracer
        from repro.serve.engine import ServeRequest

        engine = self.engine
        tracer = get_tracer()
        tracer.drain()  # set-up spans are not part of the timed phase
        plan = zipf_bursts(
            self.keys, self.cfg["zipf_s"], self.bursts, self.cfg["burst_size"], self.ctx.seed
        )
        written = sorted({k.db_id for k in self.keys})
        self.stats_before = engine.stats.as_dict()
        self.pool_before = engine.pool_stats()
        for index, burst in enumerate(plan):
            due = time.perf_counter()
            engine.pause()
            futures = [engine.submit(ServeRequest(k.method, k.db_id, k.question)) for k in burst]
            engine.resume()
            timeline.release_lags.append(time.perf_counter() - due)
            responses = [future.response(timeout=RESPONSE_TIMEOUT_S) for future in futures]
            latencies = [
                future.submitted_at + response.total_s - due
                for future, response in zip(futures, responses)
            ]
            database = self.dataset.database(written[index % len(written)])
            sql = neutral_write(database, index)
            write_started = time.perf_counter()
            database.apply_write(sql)
            ended = time.perf_counter()
            self.write_seconds.append(ended - write_started)
            self.timed.extend(zip(burst, responses))
            timeline.add_round(ended - due, latencies, len(burst))
        self.stats_after = engine.stats.as_dict()
        self.pool_after = engine.pool_stats()
        self.spans = tracer.drain()
        self.timeline = timeline

    def counters(self) -> dict:
        return {
            name: self.stats_after[name] - self.stats_before[name]
            for name in ("cache_hits", "computed", "coalesce_hits", "batches")
        }

    def shares(self) -> dict:
        counters = self.counters()
        requests = len(self.timed)
        return {
            "cache_hit_pct": 100.0 * counters["cache_hits"] / requests,
            "coalesced_pct": 100.0 * counters["coalesce_hits"] / requests,
            "computed_pct": 100.0 * counters["computed"] / requests,
        }

    def answers(self) -> list[Answer]:
        return [response_answer(self.dataset_config.name, k, r) for k, r in self.timed]

    def warm_answers(self) -> list[Answer]:
        return [response_answer(self.dataset_config.name, k, r) for k, r in self.warm]

    def reference(self) -> dict[str, str]:
        pairs = [(k.method, k.example_id) for k in self.keys]
        return reference_digests(self.dataset_config, pairs, self.engine.config.seed)

    def write_ms(self) -> list[float]:
        """Each write's latency, rescaled like the round it ended."""
        factors = self.timeline.round_factors()
        return [1000.0 * s * f for s, f in zip(self.write_seconds, factors)]

    def layer_figures(self) -> Figures:
        from repro.obs import stage_breakdown

        out = stage_figures(stage_breakdown(self.spans))
        admitted = [r for _, r in self.timed if not r.cached]
        out.update(serve_figures(
            {k: self.stats_after[k] - self.stats_before[k] for k in self.stats_after},
            {k: self.pool_after[k] - self.pool_before[k] for k in self.pool_after},
            len(self.timed),
            [r.queue_wait_s for r in admitted],
            [r.service_s for r in admitted if not r.coalesced],
        ))
        writes = self.write_ms()
        out["serve.write_p50_ms"] = (statistics.median(writes), len(writes))
        return out

    def extra_detail(self) -> dict:
        writes = self.write_ms()
        return {"write_p50_ms": statistics.median(writes), "writes": len(writes)}

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        if self.dataset is not None:
            self.dataset.close()
