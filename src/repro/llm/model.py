"""The simulated language model.

``SimulatedLanguageModel.generate`` runs the full pipeline a real model
performs implicitly:

1. **read** the question through a capability-limited lexicon (paraphrase
   robustness),
2. **understand** it with the shared NLU intent parser against the
   (possibly schema-linked/pruned) schema,
3. **err** according to the corruption model — errors are split into a
   *systematic* component (fixed per question: the model's actual
   misunderstanding, shared across samples) and a *stochastic* component
   (varies per decode draw), so that self-consistency voting and beam
   re-ranking help exactly as much as they do in practice,
4. **render** SQL, possibly through the NatSQL IR, in the model's own
   style (EM-divergent but execution-equivalent choices), and
5. occasionally emit a **syntactically broken** completion, which
   constrained decoding (PICARD) or execution-guided selection can catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.datagen.intents import QueryIntent
from repro.dbengine.database import Database
from repro.errors import NatSQLError, ReproError, SQLError
from repro.llm.corruption import CorruptionContext, CorruptionSampler, error_rates
from repro.llm.finetune import make_finetune_state
from repro.llm.prompt import Prompt
from repro.llm.profile import FineTuneState, ModelProfile
from repro.llm.styles import sample_style, render_with_style, StyleChoices
from repro.llm.tokens import count_tokens
from repro.nlu.intent_parser import IntentParser, NLUParseError
from repro.nlu.lexicon import HARD_PHRASES, Lexicon
from repro.nlu.linker import SchemaLinker
from repro.obs.trace import get_tracer
from repro.schema.model import DatabaseSchema, ForeignKey
from repro.sqlkit.natsql import natsql_round_trip
from repro.utils.cache import caches_enabled, per_object_cache
from repro.utils.rng import derive_rng

# Per-schema memo bounds.  A zoo pass over one schema sees a few hundred
# distinct (pruned tables, normalized question) keys and a few dozen
# pruned table tuples.
_INTENT_CACHE_SIZE = 4096
_PRUNED_CACHE_SIZE = 512
# A zoo pass renders at most a few hundred distinct (intent, style,
# NatSQL) keys per schema: 223 at most in a Spider-like pass at scale 0.3.
_RENDER_CACHE_SIZE = 4096

# Fraction of each error class that is systematic (identical across
# samples of the same question) rather than per-draw noise.
_SYSTEMATIC_FRACTION = 0.75


@dataclass(frozen=True)
class GenerationCandidate:
    """One decoded SQL candidate with bookkeeping."""

    sql: str
    output_tokens: int
    parse_failed: bool = False
    errors: tuple[str, ...] = ()
    intent: QueryIntent | None = None
    draw: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors and not self.parse_failed


def _pruned_schema(schema: DatabaseSchema, tables: tuple[str, ...]) -> DatabaseSchema:
    """A sub-schema containing only ``tables`` and the FKs among them."""
    wanted = {name.lower() for name in tables}
    kept_tables = [t for t in schema.tables if t.name.lower() in wanted]
    kept_fks: list[ForeignKey] = [
        fk
        for fk in schema.foreign_keys
        if fk.source_table.lower() in wanted and fk.target_table.lower() in wanted
    ]
    return DatabaseSchema(
        db_id=schema.db_id, tables=kept_tables, foreign_keys=kept_fks,
        domain=schema.domain, ambient_difficulty=schema.ambient_difficulty,
    )


def _literal_types(intent: QueryIntent) -> tuple[type, ...]:
    """The types of ``intent``'s literal values, in a fixed order.

    Intents that compare equal can still render differently, since
    ``5 == 5.0`` and ``1 == True``: only an ``int`` threshold is shifted,
    and a LIKE pattern is ``str(value)``.  The render memo's key carries
    the types, so such intents never share an entry.
    """
    filters = [*intent.filters, intent.set_branch_filter]
    if intent.subquery is not None:
        filters.append(intent.subquery.inner_filter)
    types = [
        kind
        for flt in filters
        if flt is not None
        for kind in (type(flt.value), type(flt.value2))
    ]
    if intent.having is not None:
        types.append(type(intent.having.value))
    if intent.order is not None:
        types.append(type(intent.order.limit))
    return tuple(types)


def _render_sql(
    intent: QueryIntent,
    schema: DatabaseSchema,
    style: StyleChoices,
    uses_natsql: bool,
) -> str:
    """Render ``intent`` in ``style``, through the NatSQL IR when asked."""
    try:
        if uses_natsql:
            # Emit NatSQL (in the model's own style), then reconstruct the
            # join path from the schema FKs.  Subquery-rewriting styles
            # (EXISTS, set-op flattening) do not survive the NatSQL round
            # trip, so they are disabled here.
            natsql_style = replace(style, exists_for_in=False,
                                   connector_for_setop=False)
            return natsql_round_trip(
                render_with_style(intent, schema, natsql_style), schema
            )
        return render_with_style(intent, schema, style)
    except (NatSQLError, SQLError, ReproError):
        return _fallback_sql("", schema)


def _fallback_sql(question: str, schema: DatabaseSchema) -> str:
    """Last-resort completion when understanding failed entirely."""
    if question:
        linker = SchemaLinker(schema)
        tables = linker.relevant_tables(question, top_k=1)
        table = tables[0] if tables else schema.tables[0].name
    else:
        table = schema.tables[0].name
    return f"SELECT * FROM {table}"


def _break_syntax(sql: str, rng: random.Random) -> str:
    """Produce a realistically malformed completion."""
    mode = rng.randrange(3)
    if mode == 0 and len(sql) > 12:
        return sql[: rng.randrange(len(sql) // 2, len(sql) - 4)]
    if mode == 1:
        return sql.replace("FROM", "FORM", 1)
    return sql + " AND"


class SimulatedLanguageModel:
    """A capability-profiled NL2SQL backbone."""

    def __init__(
        self,
        profile: ModelProfile,
        finetune: FineTuneState | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.finetune = finetune
        self.seed = seed
        self._lexicon: Lexicon | None = None

    # -- identity --------------------------------------------------------

    @property
    def name(self) -> str:
        if self.finetune is not None:
            return f"{self.profile.name}+sft:{self.finetune.dataset_name}"
        return self.profile.name

    def fine_tune(self, dataset_name: str, examples: list) -> "SimulatedLanguageModel":
        """Return a fine-tuned copy of this model (Alpaca-style SFT)."""
        state = make_finetune_state(self.profile, dataset_name, examples)
        return SimulatedLanguageModel(self.profile, finetune=state, seed=self.seed)

    # -- linguistic coverage ----------------------------------------------

    def lexicon(self) -> Lexicon:
        """The hard-phrase lexicon this model resolves.

        Fine-tuned models read the dataset's phrasing perfectly (the train
        split contains the paraphrase styles); otherwise each hard phrase
        is known with probability equal to the linguistic capability —
        decided once per model, so a model is *consistently* blind to the
        same phrasings (which is what QVT measures).
        """
        if self._lexicon is not None:
            return self._lexicon
        if self.finetune is not None and self.finetune.style_aligned:
            self._lexicon = Lexicon.full()
            return self._lexicon
        rng = derive_rng(self.seed, "lexicon", self.profile.name)
        linguistic = self.profile.linguistic
        enabled = {
            phrase for phrase in HARD_PHRASES if rng.random() < linguistic
        }
        self._lexicon = Lexicon.with_coverage(frozenset(enabled))
        return self._lexicon

    # -- generation --------------------------------------------------------

    def _effective_schema(self, database: Database, prompt: Prompt) -> DatabaseSchema:
        """The (possibly pruned) schema the model reads, memoized when on.

        Pruned schemas are shared per live schema object by every model:
        a pruned schema depends only on its parent and the table tuple,
        and nothing mutates a ``DatabaseSchema`` after it is built.
        """
        schema = database.schema
        tables = prompt.features.schema_tables
        if tables is None:
            return schema
        if not caches_enabled():
            return _pruned_schema(schema, tables)
        cache = per_object_cache(schema, "pruned_schemas", maxsize=_PRUNED_CACHE_SIZE)
        hit, effective_schema = cache.lookup(tables)
        if not hit:
            effective_schema = _pruned_schema(schema, tables)
            cache.put(tables, effective_schema)
        return effective_schema

    def _honest_intent(
        self, database: Database, prompt: Prompt, effective_schema: DatabaseSchema
    ) -> QueryIntent | None:
        """The pre-corruption parse of the question; ``None`` on a failure.

        The parse depends only on the effective schema and the
        lexicon-normalized question, so it is memoized per live schema
        object on ``(schema_tables, normalized question)`` and shared by
        every model whose lexicon reads the question the same way.  A
        parse failure is as deterministic as a success, so the memo
        stores intent-or-None; ``QueryIntent`` is frozen, so sharing it
        is safe.
        """
        if not caches_enabled():
            return self._parse_intent(effective_schema, prompt.question)
        cache = per_object_cache(
            database.schema, "intents", maxsize=_INTENT_CACHE_SIZE
        )
        key = (
            prompt.features.schema_tables,
            self.lexicon().normalize(prompt.question),
        )
        hit, intent = cache.lookup(key)
        if hit:
            get_tracer().annotate_stage(memo_hits=1)
            return intent
        intent = self._parse_intent(effective_schema, prompt.question)
        cache.put(key, intent)
        return intent

    def _question_key(self, prompt: Prompt) -> tuple:
        fingerprint = (
            (self.finetune.dataset_name, self.finetune.num_samples)
            if self.finetune
            else None
        )
        return (self.profile.name, fingerprint, prompt.db_id, prompt.question)

    def generate(
        self,
        prompt: Prompt,
        database: Database,
        temperature: float = 0.0,
        draw: int = 0,
        uses_natsql: bool = False,
        decomposed: bool = False,
        overdecompose: bool = False,
        style_divergence: float = 0.0,
    ) -> GenerationCandidate:
        """Generate one SQL candidate for ``prompt``.

        ``draw`` indexes independent decode samples (beam entries or
        self-consistency samples); draw 0 at temperature 0 is the greedy
        completion.
        """
        schema = database.schema
        effective_schema = self._effective_schema(database, prompt)

        context = CorruptionContext(
            schema=effective_schema,
            database=database,
            profile=self.profile,
            features=prompt.features,
            finetune=self.finetune,
            domain=schema.domain,
            temperature=temperature,
            uses_natsql=uses_natsql,
            decomposed=decomposed,
            overdecompose=overdecompose,
        )

        question_key = self._question_key(prompt)
        systematic_rng = derive_rng(self.seed, "sys", *question_key)
        draw_rng = derive_rng(self.seed, "draw", *question_key, draw, round(temperature, 3))

        intent = self._honest_intent(database, prompt, effective_schema)
        parse_failed = intent is None

        if intent is None:
            sql = _fallback_sql(prompt.question, effective_schema)
            tokens = count_tokens(sql)
            get_tracer().annotate_stage(llm_calls=1, output_tokens=tokens)
            return GenerationCandidate(
                sql=sql,
                output_tokens=tokens,
                parse_failed=True,
                errors=("parse_failure",),
                draw=draw,
            )

        rates = error_rates(context, intent)
        systematic_rates = {k: v * _SYSTEMATIC_FRACTION for k, v in rates.items()}
        stochastic_scale = (1.0 - _SYSTEMATIC_FRACTION) * (1.0 + 0.8 * temperature)
        stochastic_rates = {k: v * stochastic_scale for k, v in rates.items()}

        sampler_sys = CorruptionSampler(context, systematic_rng)
        intent = sampler_sys.apply(intent, systematic_rates)
        sampler_draw = CorruptionSampler(context, draw_rng)
        intent = sampler_draw.apply(intent, stochastic_rates)

        style = StyleChoices()
        if style_divergence > 0:
            style_rng = derive_rng(self.seed, "style", *question_key)
            style = sample_style(style_rng, style_divergence)

        sql = self._render(intent, schema, style, uses_natsql)

        # Syntax breakage is mostly a decoding-level accident: stochastic.
        if draw_rng.random() < rates["syntax_error"] * stochastic_scale * 1.8:
            sql = _break_syntax(sql, draw_rng)
            context.errors.append("syntax_error")

        tokens = count_tokens(sql)
        get_tracer().annotate_stage(llm_calls=1, output_tokens=tokens)
        return GenerationCandidate(
            sql=sql,
            output_tokens=tokens,
            parse_failed=parse_failed,
            errors=tuple(context.errors),
            intent=intent,
            draw=draw,
        )

    def generate_many(
        self,
        prompt: Prompt,
        database: Database,
        draws: list[tuple[int, float]],
        uses_natsql: bool = False,
        decomposed: bool = False,
        overdecompose: bool = False,
        style_divergence: float = 0.0,
    ) -> list[GenerationCandidate]:
        """Generate one candidate per ``(draw, temperature)`` pair, batched.

        Bit-identical to calling :meth:`generate` once per pair, but the
        draw-invariant work — lexicon, honest intent parse, pruned
        schema, style sampling, and the *systematic* corruption component
        (which depends only on the question and the temperature) — is
        hoisted out of the per-draw loop.  Each draw's stochastic RNG
        stream is derived and consumed exactly as in :meth:`generate`:
        the systematic stream is keyed by question only, the draw stream
        by ``(question, draw, temperature)``, and neither reads the
        other, so hoisting cannot change any sampled value.  Each draw's
        SQL comes from :meth:`_render`, whose memo lives on the schema:
        a corrupted intent that any model already rendered there, in
        this call or an earlier one, is not rendered again.
        """
        if not draws:
            return []
        schema = database.schema
        effective_schema = self._effective_schema(database, prompt)
        question_key = self._question_key(prompt)

        # One honest parse for the whole batch (per-draw calls repeat it
        # verbatim; with the memo on they pay a lookup each instead).
        intent = self._honest_intent(database, prompt, effective_schema)

        if intent is None:
            # Parse failure: every draw degrades to the same deterministic
            # fallback; accounting matches one annotate per sequential call.
            sql = _fallback_sql(prompt.question, effective_schema)
            tokens = count_tokens(sql)
            get_tracer().annotate_stage(
                llm_calls=len(draws),
                output_tokens=tokens * len(draws),
                llm_batched_calls=1,
                llm_batch_draws=len(draws),
            )
            return [
                GenerationCandidate(
                    sql=sql,
                    output_tokens=tokens,
                    parse_failed=True,
                    errors=("parse_failure",),
                    draw=draw,
                )
                for draw, _temperature in draws
            ]

        style = StyleChoices()
        if style_divergence > 0:
            # Sequential calls re-derive this stream per call and land on
            # the same choices; one sample is exactly equivalent.
            style_rng = derive_rng(self.seed, "style", *question_key)
            style = sample_style(style_rng, style_divergence)

        def make_context(temperature: float) -> CorruptionContext:
            return CorruptionContext(
                schema=effective_schema,
                database=database,
                profile=self.profile,
                features=prompt.features,
                finetune=self.finetune,
                domain=schema.domain,
                temperature=temperature,
                uses_natsql=uses_natsql,
                decomposed=decomposed,
                overdecompose=overdecompose,
            )

        # The systematic component is f(question, temperature): its RNG
        # stream is freshly derived per generate() call from question-only
        # keys, so all draws sharing a temperature share one systematic
        # intent and error list.  Cache it per distinct temperature.
        systematic: dict[float, tuple] = {}

        def systematic_state(temperature: float) -> tuple:
            state = systematic.get(temperature)
            if state is None:
                context = make_context(temperature)
                rates = error_rates(context, intent)
                systematic_rates = {
                    k: v * _SYSTEMATIC_FRACTION for k, v in rates.items()
                }
                stochastic_scale = (1.0 - _SYSTEMATIC_FRACTION) * (
                    1.0 + 0.8 * temperature
                )
                stochastic_rates = {k: v * stochastic_scale for k, v in rates.items()}
                systematic_rng = derive_rng(self.seed, "sys", *question_key)
                sampler_sys = CorruptionSampler(context, systematic_rng)
                sys_intent = sampler_sys.apply(intent, systematic_rates)
                state = (
                    sys_intent,
                    tuple(context.errors),
                    rates,
                    stochastic_rates,
                    stochastic_scale,
                )
                systematic[temperature] = state
            return state

        results: list[GenerationCandidate] = []
        total_tokens = 0
        for draw, temperature in draws:
            (
                sys_intent,
                sys_errors,
                rates,
                stochastic_rates,
                stochastic_scale,
            ) = systematic_state(temperature)
            draw_rng = derive_rng(
                self.seed, "draw", *question_key, draw, round(temperature, 3)
            )
            draw_context = make_context(temperature)
            draw_context.errors.extend(sys_errors)
            sampler_draw = CorruptionSampler(draw_context, draw_rng)
            draw_intent = sampler_draw.apply(sys_intent, stochastic_rates)

            sql = self._render(draw_intent, schema, style, uses_natsql)

            if draw_rng.random() < rates["syntax_error"] * stochastic_scale * 1.8:
                sql = _break_syntax(sql, draw_rng)
                draw_context.errors.append("syntax_error")

            tokens = count_tokens(sql)
            total_tokens += tokens
            results.append(
                GenerationCandidate(
                    sql=sql,
                    output_tokens=tokens,
                    parse_failed=False,
                    errors=tuple(draw_context.errors),
                    intent=draw_intent,
                    draw=draw,
                )
            )
        get_tracer().annotate_stage(
            llm_calls=len(draws),
            output_tokens=total_tokens,
            llm_batched_calls=1,
            llm_batch_draws=len(draws),
        )
        return results

    def _parse_intent(
        self, effective_schema: DatabaseSchema, question: str
    ) -> QueryIntent | None:
        """Honestly parse ``question``; ``None`` signals a parse failure."""
        parser = IntentParser(effective_schema, self.lexicon())
        try:
            return parser.parse(question)
        except (NLUParseError, ReproError):
            return None

    def _render(
        self,
        intent: QueryIntent,
        schema: DatabaseSchema,
        style: StyleChoices,
        uses_natsql: bool,
    ) -> str:
        """The SQL text of a corrupted ``intent``, memoized when on.

        A render depends only on the intent, the style, the NatSQL flag
        and the full schema, never on the model or on database content,
        so it is memoized per live schema object and shared by every
        model; a content write leaves every entry valid.  The fallback
        SQL of a failed render is as deterministic as a success, so the
        memo stores it too.  An intent whose literals cannot be hashed
        renders uncached.
        """
        if not caches_enabled():
            return _render_sql(intent, schema, style, uses_natsql)
        cache = per_object_cache(schema, "renders", maxsize=_RENDER_CACHE_SIZE)
        key = (intent, _literal_types(intent), style, uses_natsql)
        try:
            hit, sql = cache.lookup(key)
        except TypeError:
            return _render_sql(intent, schema, style, uses_natsql)
        if not hit:
            sql = _render_sql(intent, schema, style, uses_natsql)
            cache.put(key, sql)
        return sql
