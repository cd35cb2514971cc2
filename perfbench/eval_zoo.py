"""``eval_zoo``: the offline ``repro evaluate --no-timing`` path over the zoo.

Every zoo method runs on the Spider-like dev split and the core BIRD
methods on the BIRD-like dev split, through ``ParallelEvaluator`` with
one process worker per core and no result cache.  One round is one
method's ``evaluate_method`` call; the pool is idle between rounds,
which is when the probe runs.  As with ``repro evaluate --seed``, each
dataset's seed is also its methods' seed; the workload seed shuffles the
order the methods run in, which changes which memos each one finds warm
but no record, so the offline reference is computed once per checkout.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

from common import Answer, Context, Stopwatch, reference_digests
from layers import Figures, stage_figures

_ARRIVALS = None  # barrier the pool workers meet at once set up


def _arrive() -> int:
    """Pool task: returns once every worker has finished its initializer."""
    from shims import reset_active

    reset_active()  # a traced run times the evaluation, not the dataset rebuild
    _ARRIVALS.wait(timeout=120)
    return os.getpid()


class EvalZoo:
    name = "eval_zoo"

    def __init__(self, ctx: Context) -> None:
        from repro.datagen.benchmark import bird_like_config, spider_like_config
        from repro.methods.zoo import CORE_BIRD_METHODS, zoo_configs

        self.ctx = ctx
        cfg = ctx.config["eval_zoo"]
        self.dataset_configs = {
            "spider": spider_like_config(cfg["spider_scale"], ctx.dataset_seeds["spider"]),
            "bird": bird_like_config(cfg["bird_scale"], ctx.dataset_seeds["bird"]),
        }
        rng = random.Random(f"eval-order:{ctx.seed}")
        self.methods = {"spider": sorted(zoo_configs()), "bird": list(CORE_BIRD_METHODS)}
        for names in self.methods.values():
            rng.shuffle(names)
        self.passes = max(1, round(ctx.seconds / cfg["seconds_per_pass"]))
        self.datasets: dict = {}
        self.evaluators: dict = {}
        self.records: list = []
        self.pids: list[int] = []

    def setup(self, watch: Stopwatch) -> None:
        global _ARRIVALS
        from repro.core.parallel import ParallelEvaluator
        from repro.datagen.benchmark import build_benchmark

        for label, config in self.dataset_configs.items():
            started = time.perf_counter()
            self.datasets[label] = build_benchmark(config)
            watch.add("build_s", time.perf_counter() - started)
        for label, dataset in self.datasets.items():
            evaluator = ParallelEvaluator(
                dataset, measure_timing=False, jobs=self.ctx.jobs, use_result_cache=False
            )
            self.evaluators[label] = evaluator
            if evaluator.jobs > 1:
                # The pool forks at its first task; every worker rebuilds the
                # dataset in its initializer before it can take one.
                _ARRIVALS = multiprocessing.get_context("fork").Barrier(evaluator.jobs)
                pool = evaluator._process_pool()
                for future in [pool.submit(_arrive) for _ in range(evaluator.jobs)]:
                    future.result()
                self.pids.extend(pool._processes)

    def program_pids(self) -> list[int]:
        return list(self.pids)

    def method_seed(self, label: str) -> int:
        return self.ctx.dataset_seeds[label]

    def measure(self, timeline) -> None:
        from repro.methods.zoo import build_method

        for _ in range(self.passes):
            for label, names in self.methods.items():
                evaluator = self.evaluators[label]
                for name in names:
                    started = time.perf_counter()
                    method = build_method(name, seed=self.method_seed(label))
                    report = evaluator.evaluate_method(method)
                    elapsed = time.perf_counter() - started
                    self.records.extend((label, r) for r in report.records)
                    timeline.add_round(elapsed, [elapsed], len(report.records))

    def counters(self) -> dict:
        stats = [evaluator.stats for evaluator in self.evaluators.values()]
        return {
            "predictions": sum(s.predictions for s in stats),
            "gold_executions": sum(s.gold_executions for s in stats),
            "parallel_tasks": sum(s.parallel_tasks for s in stats),
        }

    def shares(self) -> dict:
        """Every example is computed: eval_zoo has no cache or coalescing."""
        return {"cache_hit_pct": 0.0, "coalesced_pct": 0.0, "computed_pct": 100.0}

    def answers(self) -> list[Answer]:
        from repro.serve.gateway.wire import record_digest

        return [
            Answer(
                dataset=self.dataset_configs[label].name,
                method=r.method, example_id=r.example_id, ok=True,
                digest=record_digest(r), ex=r.ex, em=r.em,
                billed_tokens=r.input_tokens + r.output_tokens,
            )
            for label, r in self.records
        ]

    def warm_answers(self) -> list[Answer]:
        return []  # set-up computes no record

    def extra_detail(self) -> dict:
        return {}

    def reference(self) -> dict[str, str]:
        digests: dict[str, str] = {}
        for label, config in self.dataset_configs.items():
            pairs = [(r.method, r.example_id) for lab, r in self.records if lab == label]
            digests.update(reference_digests(config, pairs, self.method_seed(label)))
        return digests

    def layer_figures(self) -> Figures:
        from repro.obs import stage_breakdown

        spans = [s for ev in self.evaluators.values() for s in ev.trace_spans]
        out = stage_figures(stage_breakdown(spans))
        counters = self.counters()
        out["core.parallel.tasks"] = (float(counters["parallel_tasks"]), counters["parallel_tasks"])
        out["core.gold_executions"] = (float(counters["gold_executions"]), counters["gold_executions"])
        pool = {"refreshes": 0, "waits": 0}
        for dataset in self.datasets.values():
            for database in dataset.databases.values():
                for key, value in database.pool_stats().items():
                    if key in pool:
                        pool[key] += value
        out["dbengine.pool.refreshes"] = (float(pool["refreshes"]), pool["refreshes"])
        out["dbengine.pool.waits"] = (float(pool["waits"]), pool["waits"])
        return out

    def teardown(self) -> None:
        for evaluator in self.evaluators.values():
            evaluator.close()
        for dataset in self.datasets.values():
            dataset.close()
