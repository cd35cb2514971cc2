"""Prompting: render the actual prompt text (paper Figures 10 and 15).

Prompts are real strings — schema DDL (optionally pruned by schema
linking, optionally annotated with matched DB content), in-context
examples, and the question — so the Exp-6 token/cost accounting measures
genuine prompt sizes.  Verbose methods (C3's calibration instructions,
DIN-SQL's four-stage manual exemplars) carry their documented token
overhead as instruction text.

When tracing is enabled the pre-processing steps are timed as the
``schema_linking`` / ``fewshot`` / ``prompt_build`` stages of the
example's span (see :mod:`repro.obs.trace`).

Prompt assembly goes through the process-global
:class:`~repro.llm.engine.PromptPrefixCache`: the instruction-overhead
block, the schema-DDL block (cached per live ``Database`` on
``(data_version, pruned tables, value-comment content)``), and the
few-shot block (keyed on ``(strategy, k, selected examples)``) are
rendered and token-counted once, then shared by every question — and
method — that produces the same segment.  Cached segments end on
newlines and the approximate tokenizer never matches across
whitespace, so the prompt's token count is primed as the exact sum of
per-segment counts (:meth:`~repro.llm.prompt.Prompt.prime_token_count`)
instead of a fresh regex scan per example.  Segment hits/misses are
annotated on the enclosing stage span as ``prefix_hits`` /
``prefix_misses``.
"""

from __future__ import annotations

from repro.dbengine.database import Database
from repro.llm.engine import PromptSegment, prefix_cache
from repro.llm.prompt import Prompt, PromptFeatures
from repro.llm.tokens import count_tokens
from repro.modules.base import PipelineConfig
from repro.modules.db_content import match_db_content
from repro.modules.fewshot import select_examples
from repro.modules.retrieval import FewShotIndex
from repro.modules.schema_linking import link_schema
from repro.obs.trace import get_tracer
from repro.utils.cache import caches_enabled
from repro.schema.ddl import render_schema_ddl

_OVERHEAD_SENTENCE = (
    "Follow the SQL generation guidelines carefully, check every clause "
    "against the database schema, prefer explicit column names, and never "
    "invent tables or columns that are not listed above. "
)
# ~34 tokens per sentence under the 4-chars/token heuristic.
_OVERHEAD_SENTENCE_TOKENS = 40


def _overhead_text(token_budget: int) -> str:
    if token_budget <= 0:
        return ""
    repeats = max(1, token_budget // _OVERHEAD_SENTENCE_TOKENS)
    return "/* " + _OVERHEAD_SENTENCE * repeats + "*/\n"


_EMPTY_SEGMENT = PromptSegment(text="", tokens=0)


def _example_block(examples) -> str:
    lines = []
    for example in examples:
        lines.append(f"/* Answer the following: {example.question} */")
        lines.append(example.sql + ";")
    return "\n".join(lines) + "\n\n" if lines else ""


def _value_comments_key(
    value_comments: dict[str, dict[str, list[str]]] | None,
) -> tuple | None:
    """Hashable canonical form of the BRIDGE/CODES value annotations.

    The matched values depend on the question, so the schema segment must
    key on their content — two questions that match the same values share
    the rendered DDL, two that differ do not.
    """
    if value_comments is None:
        return None
    return tuple(
        (table, tuple((column, tuple(values)) for column, values in columns.items()))
        for table, columns in value_comments.items()
    )


def build_prompt(
    config: PipelineConfig,
    database: Database,
    question: str,
    train_pairs: list[tuple[str, str]] | None = None,
    fewshot_index: FewShotIndex | None = None,
) -> Prompt:
    """Assemble the full prompt for one question under ``config``.

    When ``fewshot_index`` is provided (and caches are enabled) few-shot
    selection goes through the inverted-index retriever, which is
    bit-identical to :func:`select_examples` but amortises tokenization
    and memoizes per-question selections across methods.
    """
    trace = get_tracer()
    schema = database.schema
    schema_tables: tuple[str, ...] | None = None
    if config.schema_linking is not None:
        with trace.stage("schema_linking"):
            schema_tables = link_schema(config.schema_linking, schema, question)

    segments = prefix_cache()
    few_shot_quality = 0.0
    fewshot_segment = _EMPTY_SEGMENT
    few_shot_count = 0
    if config.prompting != "zero_shot":
        with trace.stage("fewshot"):
            if fewshot_index is not None and caches_enabled():
                examples, few_shot_quality, memo_hit = fewshot_index.select(
                    config.prompting, question, config.few_shot_k
                )
                if memo_hit:
                    trace.annotate_stage(memo_hits=1)
            else:
                examples, few_shot_quality = select_examples(
                    config.prompting, question, train_pairs or [], config.few_shot_k
                )
            few_shot_count = len(examples)
            fewshot_segment, fewshot_hit = segments.segment(
                "fewshot",
                (config.prompting, config.few_shot_k, tuple(examples)),
                lambda: _example_block(examples),
            )
            trace.annotate_stage(
                prefix_hits=int(fewshot_hit), prefix_misses=int(not fewshot_hit)
            )

    with trace.stage("prompt_build"):
        overhead_segment, overhead_hit = segments.segment(
            "overhead",
            config.prompt_overhead_tokens,
            lambda: _overhead_text(config.prompt_overhead_tokens),
        )

        db_content: dict[str, dict[str, list[str]]] | None = None
        if config.db_content is not None:
            db_content = match_db_content(config.db_content, database, question)

        value_comments = None
        if db_content is not None:
            value_comments = {
                table: {column: [str(v) for v in values] for column, values in columns.items()}
                for table, columns in db_content.items()
            }
        schema_segment, schema_hit = segments.segment(
            "schema",
            (
                database.data_version,
                schema_tables,
                _value_comments_key(value_comments),
            ),
            lambda: (
                "/* Given the following database schema: */\n"
                + render_schema_ddl(
                    schema,
                    value_comments=value_comments,
                    tables=list(schema_tables) if schema_tables is not None else None,
                )
                + "\n\n"
            ),
            host=database,
        )
        trace.annotate_stage(
            prefix_hits=int(overhead_hit) + int(schema_hit),
            prefix_misses=int(not overhead_hit) + int(not schema_hit),
        )

        tail = f"/* Answer the following: {question} */\nSELECT"
        text = (
            overhead_segment.text + schema_segment.text + fewshot_segment.text + tail
        )
    features = PromptFeatures(
        schema_tables=schema_tables,
        db_content=db_content,
        few_shot_count=few_shot_count,
        few_shot_quality=few_shot_quality,
        sql_style=True,
        instruction=config.name,
    )
    prompt = Prompt(text=text, question=question, db_id=schema.db_id, features=features)
    # Segment boundaries all fall on newlines (or are empty), so the
    # approximate tokenizer's per-segment counts sum exactly to the
    # whole-text count — prime it so no accounting site rescans the text.
    prompt.prime_token_count(
        overhead_segment.tokens
        + schema_segment.tokens
        + fewshot_segment.tokens
        + count_tokens(tail)
    )
    return prompt
