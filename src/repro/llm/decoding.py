"""Decoding strategies over the simulated model.

* :class:`GreedyDecoder` — one deterministic completion (the OpenAI-API
  behaviour of the prompt-based methods).
* :class:`BeamDecoder` — several candidates; downstream modules pick
  (execution-guided selection, N-best reranking).
* :class:`PicardDecoder` — beam constrained by the PICARD validity gate:
  only parseable, schema-consistent candidates survive; if every entry is
  rejected, decoding degenerates to a guaranteed-valid fallback, exactly
  like PICARD's grammar forcing.
* :class:`SamplingDecoder` — temperature sampling for self-consistency.

Decoders draw through a sampler bound by :func:`make_sampler`.  The
bound sampler is callable as ``(draw, temperature) -> candidate`` (the
historical closure contract, still used by the repair engine and
self-correction) and additionally exposes :meth:`BoundSampler.many`,
which routes a whole batch of draws through the model's batched
``generate_many`` path — bit-identical to per-draw calls, draw-invariant
work hoisted once.  ``many`` reports through the ambient decode window
when one is installed (the serving scheduler's counting hook: the
window makes the same ``generate_batch`` call).  Plain-function
samplers draw once per call, which is how the tests compare every
decoder's batched path with per-draw ``generate``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.dbengine.database import Database
from repro.llm.engine import current_decode_window
from repro.llm.model import GenerationCandidate, SimulatedLanguageModel
from repro.llm.prompt import Prompt
from repro.llm.tokens import count_tokens
from repro.sqlkit.picard import PicardChecker

# A sampler: (draw index, temperature) -> candidate.
SampleFn = Callable[[int, float], GenerationCandidate]


class BoundSampler:
    """A model+prompt bound into a sampler with a batched ``many`` path."""

    __slots__ = ("model", "prompt", "database", "_options")

    def __init__(
        self,
        model: SimulatedLanguageModel,
        prompt: Prompt,
        database: Database,
        uses_natsql: bool = False,
        decomposed: bool = False,
        overdecompose: bool = False,
        style_divergence: float = 0.0,
    ) -> None:
        self.model = model
        self.prompt = prompt
        self.database = database
        self._options = {
            "uses_natsql": uses_natsql,
            "decomposed": decomposed,
            "overdecompose": overdecompose,
            "style_divergence": style_divergence,
        }

    def __call__(self, draw: int, temperature: float) -> GenerationCandidate:
        return self.model.generate(
            self.prompt,
            self.database,
            temperature=temperature,
            draw=draw,
            **self._options,
        )

    def generate_batch(
        self, draws: list[tuple[int, float]]
    ) -> list[GenerationCandidate]:
        """Run ``draws`` through the batched model path (no window)."""
        return self.model.generate_many(
            self.prompt, self.database, list(draws), **self._options
        )

    def many(self, draws: list[tuple[int, float]]) -> list[GenerationCandidate]:
        """Candidates for ``draws`` from one batched ``generate_many`` call.

        Bit-identical to calling the sampler once per draw.  An ambient
        decode window (installed by the serving scheduler) counts the
        batch and then makes the same ``generate_batch`` call.
        """
        window = current_decode_window()
        if window is not None:
            return window.submit(self, list(draws))
        return self.generate_batch(list(draws))


def make_sampler(
    model: SimulatedLanguageModel,
    prompt: Prompt,
    database: Database,
    uses_natsql: bool = False,
    decomposed: bool = False,
    overdecompose: bool = False,
    style_divergence: float = 0.0,
) -> BoundSampler:
    """Bind a model+prompt into a (draw, temperature) -> candidate sampler."""
    return BoundSampler(
        model,
        prompt,
        database,
        uses_natsql=uses_natsql,
        decomposed=decomposed,
        overdecompose=overdecompose,
        style_divergence=style_divergence,
    )


def _draw_many(
    sample: SampleFn, draws: list[tuple[int, float]]
) -> list[GenerationCandidate]:
    """Batch through ``sample.many`` when available, else draw singly.

    Plain-function samplers (tests, custom harnesses) keep working: only
    a :class:`BoundSampler` carries the batched path.
    """
    many = getattr(sample, "many", None)
    if many is not None:
        return many(draws)
    return [sample(draw, temperature) for draw, temperature in draws]


@dataclass(frozen=True)
class GreedyDecoder:
    """Single deterministic completion."""

    def decode(self, sample: SampleFn) -> list[GenerationCandidate]:
        return _draw_many(sample, [(0, 0.0)])


@dataclass(frozen=True)
class BeamDecoder:
    """``width`` candidates; the first is the greedy completion."""

    width: int = 4

    def decode(self, sample: SampleFn) -> list[GenerationCandidate]:
        return _draw_many(
            sample,
            [(draw, 0.0 if draw == 0 else 0.15) for draw in range(self.width)],
        )


@dataclass(frozen=True)
class PicardDecoder:
    """Beam decoding under the PICARD validity gate.

    Candidates that fail to parse or reference unknown schema elements are
    rejected and re-drawn (up to ``max_attempts``); PICARD's guarantee —
    output always valid — is preserved by the fallback.

    The gate's verdict for a given SQL string cannot change between
    draws, so verdicts are memoized locally and each distinct candidate
    is checked once.  Beam *composition* is untouched: re-drawn accepted
    duplicates still fill beam slots (they act as self-consistency votes
    downstream) and rejected duplicates still consume attempts, exactly
    as in unmemoized decoding.

    Batching: the attempt loop always consumes at least
    ``min(width, max_attempts)`` draws before it can stop (the beam
    cannot fill sooner), so that window is pre-drawn through the batched
    path and checked in order; any re-draws past it are topped up singly
    to preserve exact attempt accounting.
    """

    width: int = 4
    max_attempts: int = 10

    def decode(
        self, sample: SampleFn, checker: PicardChecker
    ) -> list[GenerationCandidate]:
        accepted: list[GenerationCandidate] = []
        verdicts: dict[str, bool] = {}
        prefetch = _draw_many(
            sample,
            [
                (draw, 0.0 if draw == 0 else 0.15)
                for draw in range(min(self.width, self.max_attempts))
            ],
        )
        draw = 0
        while len(accepted) < self.width and draw < self.max_attempts:
            if draw < len(prefetch):
                candidate = prefetch[draw]
            else:
                candidate = sample(draw, 0.0 if draw == 0 else 0.15)
            draw += 1
            verdict = verdicts.get(candidate.sql)
            if verdict is None:
                verdict = checker.accepts(candidate.sql)
                verdicts[candidate.sql] = verdict
            if verdict:
                accepted.append(candidate)
        if not accepted:
            fallback_table = (
                checker.schema.tables[0].name if checker.schema else "sqlite_master"
            )
            sql = f"SELECT * FROM {fallback_table}"
            accepted.append(
                GenerationCandidate(
                    sql=sql,
                    output_tokens=count_tokens(sql),
                    errors=("picard_fallback",),
                )
            )
        return accepted


@dataclass(frozen=True)
class SamplingDecoder:
    """``num_samples`` stochastic completions for self-consistency voting."""

    num_samples: int = 5
    temperature: float = 0.5

    def decode(self, sample: SampleFn) -> list[GenerationCandidate]:
        return _draw_many(
            sample,
            [(draw, self.temperature) for draw in range(self.num_samples)],
        )
