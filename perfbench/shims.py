"""Timing shims around the public functions of each program layer.

The traced run installs these wrappers from the benchmark's own process.
Each wrapper records the wall time of every call, in ns, under a layer
name; a few also count an outcome (PICARD verdicts accepted, candidate
executions served from the memo).  A function is patched wherever its
caller looks it up: a method on its class, a module-level function in
every ``repro`` module that imported it by name.

A process pool forked after :meth:`LayerShims.install` inherits the
wrappers.  Each forked worker starts from empty samples and writes its
own to ``dump_dir`` when it exits; :meth:`LayerShims.merge_dumps` folds
them back in after the pool has shut down.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

_ACTIVE: "LayerShims | None" = None


def reset_active() -> None:
    """Drop the samples of the installed shims, if any (set-up is not traced)."""
    if _ACTIVE is not None:
        _ACTIVE.reset()


class LayerShims:
    """Installs, records and removes the per-layer timing wrappers."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._local = threading.local()

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, original, outcome=None):
        samples = self.samples[name]

        def wrapper(*args, **kwargs):
            started = time.perf_counter_ns()
            result = original(*args, **kwargs)
            samples.append(time.perf_counter_ns() - started)
            if outcome is not None:
                outcome(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _cached_execute(self, original):
        """Time ``execute_sql_cached`` and count calls that reached SQLite."""
        samples = self.samples["dbengine.execute_cached"]
        local = self._local

        def wrapper(*args, **kwargs):
            local.inner = 0
            local.depth = getattr(local, "depth", 0) + 1
            started = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter_ns() - started)
                local.depth -= 1
                if local.inner == 0:
                    self.counters["dbengine.exec_memo_hits"] += 1

        wrapper.__wrapped__ = original
        return wrapper

    def _execute(self, original):
        samples = self.samples["dbengine.execute"]
        local = self._local

        def wrapper(*args, **kwargs):
            if getattr(local, "depth", 0):
                local.inner += 1
            started = time.perf_counter_ns()
            result = original(*args, **kwargs)
            samples.append(time.perf_counter_ns() - started)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_accepted(self, accepted: bool) -> None:
        if accepted:
            self.counters["sqlkit.picard_accepted"] += 1

    def reset(self) -> None:
        for samples in self.samples.values():
            samples.clear()
        self.counters.clear()

    # -- patching --------------------------------------------------------

    def _patch_attr(self, owner: object, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent only via uninstall)."""
        from repro.core import evaluator as core_evaluator
        from repro.core.parallel import ParallelEvaluator
        from repro.dbengine import executor
        from repro.dbengine.database import Database
        from repro.llm.model import SimulatedLanguageModel
        from repro.methods import base as methods_base
        from repro.methods.base import PipelineMethod
        from repro.modules import prompts
        from repro.nlu.intent_parser import IntentParser
        from repro.sqlkit.picard import PicardChecker

        targets = [
            (core_evaluator.Evaluator, "evaluate_example", "core.evaluate_example", None),
            (ParallelEvaluator, "evaluate_method", "core.parallel.evaluate_method", None),
            (PipelineMethod, "predict", "methods.predict", None),
            (SimulatedLanguageModel, "generate_many", "llm.generate_many", None),
            (IntentParser, "parse", "nlu.parse", None),
            (PicardChecker, "accepts", "sqlkit.picard_accepts", self._count_accepted),
            (Database, "apply_write", "dbengine.apply_write", None),
        ]
        for owner, attr, name, outcome in targets:
            self._patch_attr(owner, attr, self._timed(name, getattr(owner, attr), outcome))
        self._patch_function(
            prompts.build_prompt, self._timed("modules.build_prompt", prompts.build_prompt)
        )
        for attr in (
            "self_consistency_vote", "execution_guided_select",
            "rerank_candidates", "needs_correction",
        ):
            original = getattr(methods_base, attr)
            self._patch_function(original, self._timed("modules.post_process", original))
        self._patch_function(
            core_evaluator.exact_match,
            self._timed("sqlkit.exact_match", core_evaluator.exact_match),
        )
        self._patch_function(executor.execute_sql, self._execute(executor.execute_sql))
        self._patch_function(
            executor.execute_sql_cached, self._cached_execute(executor.execute_sql_cached)
        )
        mp_util.register_after_fork(self, LayerShims._after_fork)
        global _ACTIVE
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        global _ACTIVE
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    # -- forked workers --------------------------------------------------

    def _after_fork(self) -> None:
        self.reset()
        mp_util.Finalize(self, LayerShims._dump, args=(self,), exitpriority=100)

    def _dump(self) -> None:
        if not any(self.samples.values()) and not self.counters:
            return
        path = self.dump_dir / f"shims-{os.getpid()}.json"
        path.write_text(json.dumps(
            {"samples": dict(self.samples), "counters": dict(self.counters)}
        ))

    def merge_dumps(self) -> int:
        """Fold in and delete the files forked workers wrote; returns how many."""
        merged = 0
        for path in sorted(self.dump_dir.glob("shims-*.json")):
            payload = json.loads(path.read_text())
            for name, values in payload["samples"].items():
                self.samples[name].extend(values)
            for name, value in payload["counters"].items():
                self.counters[name] += value
            path.unlink()
            merged += 1
        return merged
