"""Decode scheduler: counts the model draws of serving micro-batches.

The serving engine groups waiting computations by ``(method, db_id)``
into micro-batches (:class:`~repro.serve.engine.ServingEngine`'s
scheduler thread).  A :class:`DecodeScheduler` rides along: it opens one
*decode window* per micro-batch and installs it as the ambient window of
the worker thread running that batch
(:func:`repro.llm.engine.decode_window`).  Each decoder's draw list,
issued by a member request's :class:`~repro.llm.decoding.BoundSampler`,
is then submitted to the window, which passes it to the same batched
:meth:`~repro.llm.model.SimulatedLanguageModel.generate_many` call that
``BoundSampler.many`` makes without a window.  The window therefore
only counts: draws of different requests are never combined.

The window tallies deterministic counters (submissions routed, draws
carried, largest single submission) that the engine folds into
:class:`~repro.serve.engine.ServeStats` and — when tracing is on — into
the run's :class:`~repro.obs.registry.MetricsRegistry` as
``serve_decode_windows`` / ``serve_decode_submissions`` /
``serve_decode_draws``.  The per-stage ``llm_batched_calls`` /
``llm_batch_draws`` span counters are annotated by the model itself and
flow through the ordinary span → registry → report → Prometheus path.

Thread/process safety: a window is installed thread-locally and used by
the one worker thread running its micro-batch; the scheduler's
cumulative counters take an internal lock, so one scheduler serves every
worker thread of an engine.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.llm.engine import decode_window


@dataclass
class DecodeWindowStats:
    """Deterministic cumulative counters of one :class:`DecodeScheduler`."""

    windows: int = 0
    submissions: int = 0
    draws: int = 0
    max_submission: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class _DecodeWindow:
    """One micro-batch's ambient decode window (single worker thread)."""

    __slots__ = ("batch_size", "submissions", "draws", "max_submission")

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.submissions = 0
        self.draws = 0
        self.max_submission = 0

    def submit(self, sampler, draws: list[tuple[int, float]]) -> list:
        """Count one decoder's draw list, then run it as ``many`` would."""
        self.submissions += 1
        self.draws += len(draws)
        self.max_submission = max(self.max_submission, len(draws))
        return sampler.generate_batch(draws)


class DecodeScheduler:
    """Opens decode windows over serving micro-batches and keeps tallies."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stats = DecodeWindowStats()

    @contextmanager
    def window(self, batch_size: int = 1):
        """Ambient decode window for one micro-batch."""
        active = _DecodeWindow(batch_size)
        try:
            with decode_window(active):
                yield active
        finally:
            with self._lock:
                self.stats.windows += 1
                self.stats.submissions += active.submissions
                self.stats.draws += active.draws
                self.stats.max_submission = max(
                    self.stats.max_submission, active.max_submission
                )

    def stats_dict(self) -> dict[str, int]:
        """Snapshot of the cumulative window counters."""
        with self._lock:
            return self.stats.as_dict()
