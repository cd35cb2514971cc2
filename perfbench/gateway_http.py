"""``gateway_http``: keep-alive HTTP clients in a closed loop over a warm gateway.

``GatewayHTTPServer`` fronts the default two-shard ``ShardedGateway``.
Set-up warms every shard's response cache over every key, so nearly
every timed request is a shard-local cache hit: HTTP parsing and JSON,
the executor hop, ring routing and pipe IPC do the work while the
pipeline does almost none.  The clients, one per core, run in a load
generator process of their own (:mod:`loadgen`), each sending its share
of a round one request after the other; each pass sends every key once
in a seeded order, split over a few rounds, and the clients are idle
between rounds, which is when the probe runs.
"""

from __future__ import annotations

import multiprocessing
import statistics
import threading
import time

from common import Answer, Context, Stopwatch, layer_percentile, reference_digests
from layers import Figures, serve_figures
from loadgen import loadgen_main
from serve_zipf import response_answer
from traffic import Key, key_universe, uniform_rounds

LOADGEN_TIMEOUT_S = 120.0


class GatewayHTTP:
    name = "gateway_http"

    def __init__(self, ctx: Context) -> None:
        from repro.datagen.benchmark import spider_like_config

        self.ctx = ctx
        cfg = ctx.config["gateway_http"]
        self.cfg = cfg
        self.dataset_config = spider_like_config(cfg["scale"], ctx.dataset_seeds["spider"])
        self.passes = max(1, round(ctx.seconds * cfg["passes_per_second"]))
        self.clients_n = ctx.jobs
        self.gateway = None
        self.server = None
        self.loadgen = None
        self.loadgen_conn = None
        self.keys: list[Key] = []
        self.warm: list[tuple[Key, object]] = []
        self.timed: list[tuple[Key, tuple]] = []
        self.pids: list[int] = []
        self.asks: dict[tuple[str, str, str], list[tuple[float, object]]] = {}
        self.client_latency: dict[tuple[str, str, str], list[float]] = {}
        self.routed_before: dict[int, int] = {}
        self.routed_after: dict[int, int] = {}
        self.shards_before: list[dict] = []
        self.shards_after: list[dict] = []
        self.scrape_ms: list[float] = []

    def setup(self, watch: Stopwatch) -> None:
        from repro.datagen.benchmark import build_benchmark
        from repro.serve.engine import ServeConfig, ServeRequest
        from repro.serve.gateway import GatewayHTTPClient, GatewayHTTPServer, ShardedGateway

        started = time.perf_counter()
        dataset = build_benchmark(self.dataset_config)
        watch.add("build_s", time.perf_counter() - started)
        self.keys = key_universe(dataset, self.cfg["methods"])
        dataset.close()
        serve_config = ServeConfig(methods=tuple(self.cfg["methods"]), response_cache=True)
        self.gateway = ShardedGateway(
            self.dataset_config, serve_config, shards=self.cfg["shards"]
        ).start()
        self.server = GatewayHTTPServer(self.gateway).start()
        requests = [ServeRequest(k.method, k.db_id, k.question) for k in self.keys]
        self.warm = list(zip(self.keys, self.gateway.serve_many(requests)))
        with GatewayHTTPClient(self.server.host, self.server.port) as client:
            client.healthz()  # the HTTP front end answers
        self.pids = [shard["pid"] for shard in self.gateway.healthz()["shards"]]

    def program_pids(self) -> list[int]:
        return list(self.pids)

    def _start_loadgen(self) -> None:
        context = multiprocessing.get_context("spawn")
        self.loadgen_conn, child = context.Pipe()
        self.loadgen = context.Process(
            target=loadgen_main,
            args=(child, self.server.host, self.server.port, self.clients_n),
            daemon=True,
        )
        self.loadgen.start()
        child.close()
        if not self.loadgen_conn.poll(LOADGEN_TIMEOUT_S) or self.loadgen_conn.recv() != "ready":
            raise RuntimeError("the load generator did not start")

    def _ask_loadgen(self, message: tuple):
        self.loadgen_conn.send(message)
        if not self.loadgen_conn.poll(LOADGEN_TIMEOUT_S):
            raise RuntimeError("the load generator stopped answering")
        return self.loadgen_conn.recv()

    def trace_asks(self) -> None:
        """Time ``ShardedGateway.ask`` as the HTTP executor calls it."""
        gateway = self.gateway
        original = gateway.ask
        lock = threading.Lock()

        def ask(method, db_id, question, deadline_s=None):
            started = time.perf_counter()
            response = original(method, db_id, question, deadline_s)
            elapsed = time.perf_counter() - started
            with lock:
                self.asks.setdefault((method, db_id, question), []).append((elapsed, response))
            return response

        gateway.ask = ask

    def measure(self, timeline) -> None:
        if self.ctx.trace:
            self.trace_asks()
            self.shards_before = self.gateway.shard_stats()
        plan = uniform_rounds(
            self.keys, self.passes, self.cfg["rounds_per_pass"], self.clients_n, self.ctx.seed
        )
        self._start_loadgen()
        self.routed_before = dict(self.gateway.stats.routed)
        sent: list[Key] = []
        for shares in plan:
            due = time.perf_counter()
            lag, latencies = self._ask_loadgen(
                ("round", [[(k.method, k.db_id, k.question) for k in share] for share in shares])
            )
            ended = time.perf_counter()
            timeline.release_lags.append(lag)
            keys = [key for share in shares for key in share]
            sent.extend(keys)
            for key, latency in zip(keys, latencies):
                self.client_latency.setdefault(
                    (key.method, key.db_id, key.question), []
                ).append(latency)
            timeline.add_round(
                ended - due,
                [float("inf") if latency is None else latency for latency in latencies],
                len(keys),
            )
        self.routed_after = dict(self.gateway.stats.routed)
        self.timed = list(zip(sent, self._ask_loadgen(("outcomes",))))
        if self.ctx.trace:
            from repro.serve.gateway import GatewayHTTPClient

            del self.gateway.ask  # back to the class's method
            self.worker_errors = self.gateway.stats.worker_errors
            self.shards_after = self.gateway.shard_stats()
            with GatewayHTTPClient(self.server.host, self.server.port) as client:
                for _ in range(5):
                    started = time.perf_counter()
                    client.metrics_text()
                    self.scrape_ms.append(1000.0 * (time.perf_counter() - started))

    def counters(self) -> dict:
        return {
            f"routed.shard{shard}": self.routed_after.get(shard, 0)
            - self.routed_before.get(shard, 0)
            for shard in sorted(self.routed_after)
        }

    def shares(self) -> dict:
        """Over HTTP a computed answer is one that billed tokens; the rest hit
        the cache (coalescing is not visible; see ``serve.*`` when traced)."""
        answers = self.answers()
        computed = sum(1 for a in answers if a.ok and a.billed_tokens)
        hits = sum(1 for a in answers if a.ok) - computed
        return {
            "cache_hit_pct": 100.0 * hits / len(answers),
            "coalesced_pct": 0.0,
            "computed_pct": 100.0 * computed / len(answers),
        }

    def answers(self) -> list[Answer]:
        name = self.dataset_config.name
        return [
            Answer(name, key.method, key.example_id, ok, digest, ex, em, billed)
            for key, (ok, digest, ex, em, billed) in self.timed
        ]

    def warm_answers(self) -> list[Answer]:
        name = self.dataset_config.name
        return [response_answer(name, key, response) for key, response in self.warm]

    def reference(self) -> dict[str, str]:
        pairs = [(k.method, k.example_id) for k in self.keys]
        return reference_digests(self.dataset_config, pairs, self.gateway.serve_config.seed)

    def extra_detail(self) -> dict:
        return {}

    def layer_figures(self) -> Figures:
        out: Figures = {}
        http, ipc, shard, waits, service = [], [], [], [], []
        for ident, latencies in self.client_latency.items():
            for latency, (ask_s, response) in zip(latencies, self.asks.get(ident, [])):
                if latency is None:
                    continue
                http.append(latency - ask_s)
                ipc.append(ask_s - response.total_s)
                shard.append(response.total_s)
                if not response.cached:
                    waits.append(response.queue_wait_s)
                    service.append(response.service_s)
        out["gateway.http_ms.p50"] = layer_percentile(http, 50, 1000.0)
        out["gateway.http_ms.p99"] = layer_percentile(http, 99, 1000.0)
        out["gateway.ipc_ms.p50"] = layer_percentile(ipc, 50, 1000.0)
        out["gateway.ipc_ms.p99"] = layer_percentile(ipc, 99, 1000.0)
        out["gateway.shard_ms.p50"] = layer_percentile(shard, 50, 1000.0)
        routed = list(self.counters().values())
        out["gateway.route_skew"] = (max(routed) / statistics.fmean(routed), len(routed))
        out["gateway.worker_errors"] = (float(self.worker_errors), self.worker_errors)
        out["gateway.metrics_scrape_ms"] = (statistics.median(self.scrape_ms), len(self.scrape_ms))

        def summed(part: str) -> dict[str, int]:
            return {
                name: sum(after[part][name] - before[part][name]
                          for before, after in zip(self.shards_before, self.shards_after))
                for name in self.shards_after[0][part]
            }

        out.update(serve_figures(summed("engine"), summed("pool"), len(self.timed), waits, service))
        return out

    def teardown(self) -> None:
        if self.loadgen is not None:
            try:
                self.loadgen_conn.send(("stop",))
            except (OSError, ValueError):
                pass
            self.loadgen.join(timeout=LOADGEN_TIMEOUT_S)
            if self.loadgen.is_alive():
                self.loadgen.terminate()
                self.loadgen.join(timeout=5)
            self.loadgen_conn.close()
        if self.server is not None:
            self.server.close()
        if self.gateway is not None:
            self.gateway.close()
