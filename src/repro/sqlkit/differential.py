"""Differential / metamorphic correctness harness for the SQL toolkit.

Every number the testbed reports — EX, EM, VES, the AAS fitness — flows
through ``sqlkit`` (tokenize/parse/print/exact-match) and
``dbengine.executor``, so a bug in the metrics layer silently distorts
every downstream conclusion.  This module adversarially verifies that
layer with three oracle families:

1. **Round-trip oracles** — ``parse -> to_sql -> parse`` must be
   idempotent, and ``normalize_sql(q)`` must be *execution-equivalent*
   to ``q`` on the live SQLite databases (this is the oracle that
   catches semantics-changing rewrites like lexing the quoted
   identifier ``"name"`` as the string literal ``'name'``).
2. **Metamorphic EM oracles** — ``exact_match`` must be reflexive and
   symmetric, *invariant* under semantics-preserving transforms (alias
   renaming, join-operand flips, ``a < b`` ↔ ``b > a`` comparison
   mirrors), and *variant* under semantics-changing ones (duplicate
   select items, clause deletion).
3. **Executor oracles** — ``results_match`` must be symmetric, stable
   under row reordering when order does not matter, and must never
   equate results that were silently truncated at the row cap.

SQL flows from three sources: the gold queries of ``datagen``-built
benchmarks, corruption-mutated variants of their intents (the
``repro.llm.corruption`` error model, i.e. realistic *wrong* SQL), and a
seeded grammar generator that exercises quoting, ``LIKE .. ESCAPE``,
and operator corners the benchmarks rarely hit.  Runs are deterministic
for a given seed; every divergence is reported as a clause-minimized
repro case.

The optional ``hypothesis`` dev dependency can drive the same generator
as a shrinking strategy (:func:`sql_strategy`); the harness itself has
no hard dependency on it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dbengine.database import Database
from repro.dbengine.executor import ExecutionResult, execute_sql, results_match
from repro.errors import ReproError, SQLError
from repro.sqlkit.ast_nodes import (
    BinaryOp,
    ColumnRef,
    LikeExpr,
    Literal,
    SelectItem,
    SelectStatement,
    Star,
)
from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.parser import parse_select
from repro.sqlkit.printer import to_sql
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # imported lazily at runtime: datagen itself imports sqlkit
    from repro.datagen.benchmark import Dataset, Example

FAMILY_ROUND_TRIP = "round-trip"
FAMILY_METAMORPHIC_EM = "metamorphic-em"
FAMILY_EXECUTOR = "executor"

_MIRROR_COMPARISONS = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass(frozen=True)
class Divergence:
    """One confirmed oracle violation, with a minimized repro query."""

    family: str
    oracle: str
    sql: str
    counterpart: str = ""
    detail: str = ""
    db_id: str = ""

    def __str__(self) -> str:
        lines = [f"[{self.family}/{self.oracle}] {self.detail}", f"  sql: {self.sql}"]
        if self.counterpart:
            lines.append(f"  vs:  {self.counterpart}")
        if self.db_id:
            lines.append(f"  db:  {self.db_id}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one harness run."""

    seeds: int = 0
    checks: int = 0
    checks_by_family: dict[str, int] = field(default_factory=dict)
    skipped: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def count(self, family: str) -> None:
        self.checks += 1
        self.checks_by_family[family] = self.checks_by_family.get(family, 0) + 1

    def summary(self) -> str:
        families = ", ".join(
            f"{name}={count}" for name, count in sorted(self.checks_by_family.items())
        )
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"fuzz-sqlkit: {verdict} — {self.checks} oracle checks over "
            f"{self.seeds} seeds ({families}; {self.skipped} skipped inputs)"
        )


# -- semantics-preserving / semantics-changing transforms --------------------


def rename_aliases(statement: SelectStatement) -> SelectStatement:
    """Deep-copied statement with every table bound to a fresh alias.

    Column qualifiers are rewritten consistently, with correlated
    subqueries inheriting (and shadowing) the outer scope — exactly the
    scoping ``exact_match`` must resolve.
    """
    renamed = copy.deepcopy(statement)
    counter = iter(range(1, 10_000))
    _rename_scope(renamed, {}, counter)
    return renamed


def _rename_scope(
    statement: SelectStatement, outer: dict[str, str], counter
) -> None:
    mapping = dict(outer)
    if statement.from_clause is not None:
        for table_ref in statement.from_clause.tables:
            old_binding = table_ref.binding.lower()
            table_ref.alias = f"FZ{next(counter)}"
            mapping[old_binding] = table_ref.alias
    for expr in statement.iter_expressions():
        if isinstance(expr, (ColumnRef, Star)) and expr.table:
            replacement = mapping.get(expr.table.lower())
            if replacement is not None:
                expr.table = replacement
    # Expression subqueries are correlated scopes; set-operation branches
    # are siblings and only see the scope this statement inherited.
    for expr in statement.iter_expressions():
        if hasattr(expr, "select"):
            _rename_scope(expr.select, mapping, counter)
    if statement.set_operation is not None:
        _rename_scope(statement.set_operation.right, outer, counter)


def flip_join_operands(statement: SelectStatement) -> SelectStatement:
    """Deep copy with every ``ON a = b`` rewritten to ``ON b = a``."""
    flipped = copy.deepcopy(statement)
    for stmt in flipped.all_statements():
        if stmt.from_clause is None:
            continue
        for join in stmt.from_clause.joins:
            condition = join.condition
            if isinstance(condition, BinaryOp) and condition.op == "=":
                condition.left, condition.right = condition.right, condition.left
    return flipped


def mirror_comparisons(statement: SelectStatement) -> SelectStatement:
    """Deep copy with every ``a < b`` rewritten to ``b > a`` (and <=/>=)."""
    mirrored = copy.deepcopy(statement)
    for stmt in mirrored.all_statements():
        for expr in stmt.iter_expressions():
            if isinstance(expr, BinaryOp) and expr.op in _MIRROR_COMPARISONS:
                expr.left, expr.right = expr.right, expr.left
                expr.op = _MIRROR_COMPARISONS[expr.op]
    return mirrored


def duplicate_select_item(statement: SelectStatement) -> SelectStatement:
    """Deep copy with the first projection item repeated (shape-changing)."""
    duplicated = copy.deepcopy(statement)
    duplicated.select_items.append(copy.deepcopy(duplicated.select_items[0]))
    return duplicated


def clause_deletions(statement: SelectStatement) -> list[tuple[str, SelectStatement]]:
    """Semantics-changing single-clause deletions of ``statement``."""
    variants: list[tuple[str, SelectStatement]] = []

    def variant(name: str) -> SelectStatement:
        clone = copy.deepcopy(statement)
        variants.append((name, clone))
        return clone

    if statement.where is not None:
        variant("drop-where").where = None
    if statement.order_by:
        variant("drop-order-by").order_by = []
    if statement.limit is not None:
        variant("drop-limit").limit = None
    if statement.having is not None:
        variant("drop-having").having = None
    if statement.group_by:
        clone = variant("drop-group-by")
        clone.group_by = []
        clone.having = None
    if statement.set_operation is not None:
        variant("drop-set-op").set_operation = None
    if len(statement.select_items) > 1:
        clone = variant("drop-select-item")
        clone.select_items = clone.select_items[:-1]
    return variants


# -- seeded grammar generator ------------------------------------------------


def generate_query(database: Database, rng) -> str:
    """One random, schema-valid SELECT over ``database``.

    Deliberately exercises the corners the benchmark generator rarely
    emits: quoted identifiers, ``LIKE .. ESCAPE``, mirrored comparisons,
    arithmetic, IN-lists, and BETWEEN.
    """
    schema = database.schema
    tables = list(schema.tables)
    table = tables[rng.randrange(len(tables))]

    def column_ref(column) -> str:
        if rng.random() < 0.2:
            return f'"{column.name}"'
        if rng.random() < 0.3:
            return f"{table.name}.{column.name}"
        return column.name

    columns = list(table.columns)
    projection_count = 1 + rng.randrange(min(3, len(columns)))
    projection = [
        column_ref(columns[rng.randrange(len(columns))])
        for __ in range(projection_count)
    ]
    if rng.random() < 0.1:
        projection = ["*"]
    distinct = "DISTINCT " if rng.random() < 0.2 else ""
    sql = f"SELECT {distinct}{', '.join(projection)} FROM {table.name}"

    predicates: list[str] = []
    for __ in range(rng.randrange(3)):
        column = columns[rng.randrange(len(columns))]
        ref = column_ref(column)
        roll = rng.random()
        if column.col_type.is_numeric:
            value = rng.randrange(-5, 2_000)
            if roll < 0.5:
                op = ("<", ">", "<=", ">=", "=", "!=")[rng.randrange(6)]
                if rng.random() < 0.5:
                    predicates.append(f"{ref} {op} {value}")
                else:
                    mirrored = _MIRROR_COMPARISONS.get(op, op)
                    predicates.append(f"{value} {mirrored} {ref}")
            elif roll < 0.75:
                predicates.append(f"{ref} BETWEEN {value} AND {value + 100}")
            else:
                predicates.append(f"{ref} + 1 > {value}")
        else:
            samples = database.sample_values(table.name, column.name, count=3)
            text = str(samples[0]) if samples else "x"
            text = text.replace("'", "''")
            if roll < 0.4:
                predicates.append(f"{ref} = '{text}'")
            elif roll < 0.6:
                prefix = text[:3].replace("'", "''")
                predicates.append(f"{ref} LIKE '{prefix}%'")
            elif roll < 0.75:
                prefix = text[:2].replace("'", "''")
                predicates.append(f"{ref} LIKE '{prefix}!%%' ESCAPE '!'")
            elif roll < 0.9:
                predicates.append(f"{ref} IN ('{text}', 'zz-{rng.randrange(100)}')")
            else:
                predicates.append(f"{ref} IS NOT NULL")
    if predicates:
        connector = " AND " if rng.random() < 0.7 else " OR "
        sql += " WHERE " + connector.join(predicates)

    if rng.random() < 0.3:
        column = columns[rng.randrange(len(columns))]
        direction = "DESC" if rng.random() < 0.5 else "ASC"
        sql += f" ORDER BY {column_ref(column)} {direction}"
        if rng.random() < 0.5:
            sql += f" LIMIT {1 + rng.randrange(10)}"
    return sql


def sql_strategy(database: Database):
    """A ``hypothesis`` strategy over :func:`generate_query` outputs.

    Requires the optional ``hypothesis`` dev dependency; shrinking
    happens on the generator seed, so failures minimize naturally.
    """
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - dev-only dependency
        raise ReproError(
            "sql_strategy requires the 'hypothesis' dev dependency"
        ) from exc
    import random as _random

    return st.builds(
        lambda seed: generate_query(database, _random.Random(seed)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


# -- corruption-based off-distribution source --------------------------------


def corrupted_sql(example: Example, database: Database, rng) -> str | None:
    """A realistic *wrong* query: ``example``'s intent under the error model."""
    if example.intent is None:
        return None
    from repro.datagen.sql_render import render_intent_sql
    from repro.llm.corruption import CorruptionContext, CorruptionSampler, error_rates
    from repro.llm.prompt import PromptFeatures
    from repro.llm.registry import get_profile

    context = CorruptionContext(
        schema=database.schema,
        database=database,
        profile=get_profile("starcoder-1b"),
        features=PromptFeatures(),
        temperature=0.8,
    )
    sampler = CorruptionSampler(context, rng)
    try:
        intent = sampler.apply(example.intent, error_rates(context, example.intent))
        return render_intent_sql(intent, database.schema)
    except ReproError:
        return None


# -- the harness -------------------------------------------------------------


class DifferentialFuzzer:
    """Runs the three oracle families over seeded SQL streams.

    ``datasets`` supplies both the databases and the gold/intent corpus;
    build them with :func:`build_fuzz_datasets` (or pass any
    ``datagen``-built :class:`Dataset`).
    """

    def __init__(
        self,
        datasets: list[Dataset],
        seed: int = 42,
        max_divergences: int = 25,
    ) -> None:
        if not datasets:
            raise ValueError("DifferentialFuzzer needs at least one dataset")
        self.datasets = datasets
        self.seed = seed
        self.max_divergences = max_divergences
        self._pools: list[tuple[Database, list[Example]]] = []
        for dataset in datasets:
            by_db: dict[str, list[Example]] = {}
            for example in dataset.examples:
                by_db.setdefault(example.db_id, []).append(example)
            for db_id, examples in sorted(by_db.items()):
                self._pools.append((dataset.database(db_id), examples))

    # -- oracle families ------------------------------------------------

    def check_round_trip(
        self, sql: str, database: Database, report: FuzzReport
    ) -> None:
        """Family 1: print/parse idempotence + execution equivalence."""
        try:
            statement = parse_select(sql)
        except SQLError:
            report.skipped += 1
            return
        printed = to_sql(statement)

        report.count(FAMILY_ROUND_TRIP)
        try:
            reprinted = to_sql(parse_select(printed))
        except SQLError as exc:
            self._diverge(
                report, FAMILY_ROUND_TRIP, "reparse", sql, printed,
                f"printed SQL no longer parses: {exc}", database.db_id,
            )
            return
        if reprinted != printed:
            self._diverge(
                report, FAMILY_ROUND_TRIP, "idempotence", printed, reprinted,
                "parse -> to_sql is not a fixed point", database.db_id,
            )
            return

        report.count(FAMILY_ROUND_TRIP)
        original = execute_sql(database, sql)
        normalized = execute_sql(database, printed)
        ordered = bool(statement.order_by)
        if not _execution_equivalent(original, normalized, ordered):
            self._diverge(
                report, FAMILY_ROUND_TRIP, "execution-equivalence", sql, printed,
                _execution_diff(original, normalized), database.db_id,
                minimize_on=database,
            )

    def check_metamorphic_em(
        self, sql: str, database: Database, report: FuzzReport
    ) -> None:
        """Family 2: EM reflexivity/symmetry, invariances, variances."""
        try:
            statement = parse_select(sql)
        except SQLError:
            report.skipped += 1
            return

        report.count(FAMILY_METAMORPHIC_EM)
        if not exact_match(sql, sql):
            self._diverge(
                report, FAMILY_METAMORPHIC_EM, "reflexivity", sql, sql,
                "exact_match(q, q) is False", database.db_id,
            )
            return

        invariants = [
            ("alias-rename", rename_aliases(statement)),
            ("join-operand-flip", flip_join_operands(statement)),
            ("comparison-mirror", mirror_comparisons(statement)),
        ]
        for name, variant in invariants:
            variant_sql = to_sql(variant)
            report.count(FAMILY_METAMORPHIC_EM)
            forward = exact_match(sql, variant_sql)
            backward = exact_match(variant_sql, sql)
            if forward != backward:
                self._diverge(
                    report, FAMILY_METAMORPHIC_EM, f"symmetry/{name}", sql,
                    variant_sql, "exact_match is asymmetric", database.db_id,
                )
            elif not forward:
                self._diverge(
                    report, FAMILY_METAMORPHIC_EM, f"invariance/{name}", sql,
                    variant_sql,
                    f"semantics-preserving transform '{name}' broke EM",
                    database.db_id,
                )

        variants = [("duplicate-select-item", duplicate_select_item(statement))]
        variants.extend(clause_deletions(statement))
        for name, variant in variants:
            variant_sql = to_sql(variant)
            if variant_sql == to_sql(statement):
                continue
            report.count(FAMILY_METAMORPHIC_EM)
            if exact_match(sql, variant_sql):
                self._diverge(
                    report, FAMILY_METAMORPHIC_EM, f"variance/{name}", sql,
                    variant_sql,
                    f"semantics-changing transform '{name}' left EM True",
                    database.db_id,
                )

    def check_executor(
        self,
        sql: str,
        other_sql: str,
        database: Database,
        report: FuzzReport,
    ) -> None:
        """Family 3: results_match symmetry, reorder stability, truncation."""
        result = execute_sql(database, sql)
        other = execute_sql(database, other_sql)

        report.count(FAMILY_EXECUTOR)
        for ordered in (False, True):
            forward = results_match(result, other, order_matters=ordered)
            backward = results_match(other, result, order_matters=ordered)
            if forward != backward:
                self._diverge(
                    report, FAMILY_EXECUTOR, "symmetry", sql, other_sql,
                    f"results_match asymmetric (order_matters={ordered})",
                    database.db_id,
                )

        if result.ok and len(result.rows) > 1:
            report.count(FAMILY_EXECUTOR)
            reordered = ExecutionResult(
                rows=list(reversed(result.rows)), sql=result.sql
            )
            if not results_match(result, reordered, order_matters=False):
                self._diverge(
                    report, FAMILY_EXECUTOR, "reorder-stability", sql, sql,
                    "unordered comparison is sensitive to row order",
                    database.db_id,
                )

        if result.ok and other.ok and len(result.rows) > 1 and len(other.rows) > 1:
            report.count(FAMILY_EXECUTOR)
            capped = execute_sql(database, sql, max_rows=1)
            capped_other = execute_sql(database, other_sql, max_rows=1)
            if capped.ok and not capped.truncated:
                self._diverge(
                    report, FAMILY_EXECUTOR, "truncation-flag", sql, "",
                    "row-capped execution did not set truncated", database.db_id,
                )
            elif results_match(capped, capped_other):
                self._diverge(
                    report, FAMILY_EXECUTOR, "truncation-equate", sql, other_sql,
                    "two silently truncated results compared as equal",
                    database.db_id,
                )

    # -- drivers --------------------------------------------------------

    def check_gold_corpus(self, report: FuzzReport) -> None:
        """Round-trip + EM oracles over every gold query of every dataset.

        This is the end-to-end assertion that ``normalize_sql`` stays
        execution-equivalent on the benchmarks the paper's metrics run on.
        """
        seen: set[tuple[str, str]] = set()
        for database, examples in self._pools:
            for example in examples:
                key = (example.db_id, example.gold_sql)
                if key in seen:
                    continue
                seen.add(key)
                self.check_round_trip(example.gold_sql, database, report)
                self.check_metamorphic_em(example.gold_sql, database, report)
                if len(report.divergences) >= self.max_divergences:
                    return

    def run(self, seeds: int = 200, include_gold_corpus: bool = True) -> FuzzReport:
        """Run the full harness: gold corpus plus ``seeds`` fuzz rounds."""
        report = FuzzReport(seeds=seeds)
        if include_gold_corpus:
            self.check_gold_corpus(report)
        for index in range(seeds):
            if len(report.divergences) >= self.max_divergences:
                break
            rng = derive_rng(self.seed, "fuzz-sqlkit", index)
            database, examples = self._pools[rng.randrange(len(self._pools))]
            sql = self._draw_sql(examples, database, rng)
            if sql is None:
                report.skipped += 1
                continue
            self.check_round_trip(sql, database, report)
            self.check_metamorphic_em(sql, database, report)
            other = self._draw_sql(examples, database, rng)
            if other is not None:
                self.check_executor(sql, other, database, report)
        return report

    def _draw_sql(self, examples: list[Example], database: Database, rng) -> str | None:
        roll = rng.random()
        example = examples[rng.randrange(len(examples))]
        if roll < 0.35:
            return example.gold_sql
        if roll < 0.65:
            corrupted = corrupted_sql(example, database, rng)
            return corrupted if corrupted is not None else example.gold_sql
        return generate_query(database, rng)

    # -- divergence handling --------------------------------------------

    def _diverge(
        self,
        report: FuzzReport,
        family: str,
        oracle: str,
        sql: str,
        counterpart: str,
        detail: str,
        db_id: str,
        minimize_on: Database | None = None,
    ) -> None:
        if minimize_on is not None:
            sql = minimize_failure(
                sql,
                lambda candidate: not _normalize_preserves_execution(
                    candidate, minimize_on
                ),
            )
        report.divergences.append(
            Divergence(
                family=family,
                oracle=oracle,
                sql=sql,
                counterpart=counterpart,
                detail=detail,
                db_id=db_id,
            )
        )


def _execution_equivalent(
    original: ExecutionResult, normalized: ExecutionResult, ordered: bool
) -> bool:
    if original.ok != normalized.ok:
        return False
    if not original.ok:
        return True
    if original.truncated != normalized.truncated:
        return False
    if original.truncated:
        # Both are identical-length prefixes of the same plan's output;
        # compare them literally (results_match refuses truncated pairs).
        return original.rows == normalized.rows
    return results_match(original, normalized, order_matters=ordered) and results_match(
        normalized, original, order_matters=ordered
    )


def _execution_diff(original: ExecutionResult, normalized: ExecutionResult) -> str:
    if original.ok != normalized.ok:
        failing = normalized if original.ok else original
        return f"normalize_sql changed execution outcome: {failing.error}"
    return (
        "normalize_sql changed the result set "
        f"({len(original.rows)} rows vs {len(normalized.rows)} rows)"
    )


def _normalize_preserves_execution(sql: str, database: Database) -> bool:
    try:
        statement = parse_select(sql)
        printed = to_sql(statement)
    except SQLError:
        return True  # unparseable candidates are vacuously fine
    original = execute_sql(database, sql)
    normalized = execute_sql(database, printed)
    return _execution_equivalent(original, normalized, bool(statement.order_by))


def minimize_failure(sql: str, still_fails) -> str:
    """Greedy clause-level shrink: smallest variant where ``still_fails``.

    ``still_fails(candidate_sql) -> bool`` re-runs the oracle.  The
    original ``sql`` is returned unchanged when no reduction reproduces
    the failure (or when it does not parse).
    """
    try:
        current = parse_select(sql)
    except SQLError:
        return sql
    if not still_fails(to_sql(current)):
        return sql
    changed = True
    while changed:
        changed = False
        for candidate in _reductions(current):
            candidate_sql = to_sql(candidate)
            try:
                if still_fails(candidate_sql):
                    current = candidate
                    changed = True
                    break
            except Exception:
                continue
    return to_sql(current)


def _reductions(statement: SelectStatement) -> list[SelectStatement]:
    """Single-step structural reductions, roughly largest-first."""
    candidates: list[SelectStatement] = []

    def clone() -> SelectStatement:
        copied = copy.deepcopy(statement)
        candidates.append(copied)
        return copied

    if statement.set_operation is not None:
        clone().set_operation = None
    if statement.from_clause is not None and statement.from_clause.joins:
        reduced = clone()
        reduced.from_clause.joins = reduced.from_clause.joins[:-1]
    if statement.where is not None:
        clone().where = None
        for part in getattr(statement.where, "operands", []):
            clone().where = copy.deepcopy(part)
    if statement.having is not None:
        clone().having = None
    if statement.group_by:
        reduced = clone()
        reduced.group_by = []
        reduced.having = None
    if statement.order_by:
        clone().order_by = []
    if statement.limit is not None:
        clone().limit = None
    if len(statement.select_items) > 1:
        clone().select_items = copy.deepcopy(statement.select_items[:1])
    elif statement.select_items and not isinstance(
        statement.select_items[0].expr, (Star, ColumnRef, Literal)
    ):
        # Collapse a complex lone projection (CASE, function, arithmetic).
        clone().select_items = [SelectItem(expr=Star())]
    for index, item in enumerate(statement.select_items):
        if isinstance(item.expr, LikeExpr) and item.expr.escape is not None:
            reduced = clone()
            reduced.select_items[index].expr.escape = None
    return candidates


# -- corpus / entry-point helpers --------------------------------------------


def build_fuzz_datasets(
    benchmark: str = "both", scale: float = 0.08, seed: int = 42
) -> list[Dataset]:
    """Small spider-like / bird-like benchmarks for the harness to chew on."""
    from repro.datagen.benchmark import (
        bird_like_config,
        build_benchmark,
        spider_like_config,
    )

    configs = {
        "spider": [spider_like_config(scale=scale, seed=seed)],
        "bird": [bird_like_config(scale=scale, seed=seed + 1)],
    }
    configs["both"] = configs["spider"] + configs["bird"]
    try:
        chosen = configs[benchmark]
    except KeyError as exc:
        raise ValueError(f"unknown benchmark {benchmark!r}") from exc
    return [build_benchmark(config) for config in chosen]


def run_fuzz(
    seeds: int = 200,
    benchmark: str = "both",
    scale: float = 0.08,
    seed: int = 42,
    include_gold_corpus: bool = True,
    max_divergences: int = 25,
) -> FuzzReport:
    """Build the fuzz corpus, run the harness, and return the report."""
    datasets = build_fuzz_datasets(benchmark=benchmark, scale=scale, seed=seed)
    try:
        fuzzer = DifferentialFuzzer(
            datasets, seed=seed, max_divergences=max_divergences
        )
        return fuzzer.run(seeds=seeds, include_gold_corpus=include_gold_corpus)
    finally:
        for dataset in datasets:
            dataset.close()
