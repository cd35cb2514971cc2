"""Self-repair quickstart: taxonomy, rule fixes, pattern-store replay.

Walks the post-execution repair stage (docs/PIPELINE.md) end to end on a
small synthetic Spider-like benchmark:

1. classify representative execution failures into the typed
   :class:`repro.modules.repair.RepairClass` taxonomy;
2. hand a deliberately broken candidate to :func:`run_repair` and watch
   the deterministic rule fixes recover it with zero LM cost;
3. replay the same failure: the learned pattern store answers instead
   of re-repairing;
4. run a repair-enabled zoo method over the dev split under tracing and
   print the ``repair_attempts`` / ``repair_recovered`` counters the
   observability layer collects.

Run with: ``PYTHONPATH=src python examples/repair_quickstart.py``
(see docs/PIPELINE.md for the full design-space reference).
"""

from repro import build_benchmark, spider_like_config
from repro.dbengine.executor import execute_sql
from repro.llm.model import GenerationCandidate
from repro.methods.zoo import build_method, with_repair
from repro.modules.repair import (
    RepairPatternStore,
    classify_execution_failure,
    run_repair,
)
from repro.obs import tracing


def main() -> None:
    dataset = build_benchmark(spider_like_config(scale=0.05, seed=42))
    example = dataset.dev_examples[0]
    database = dataset.database(example.db_id)
    table = database.schema.tables[0].name

    # 1. The failure taxonomy: execute broken SQL, classify the outcome.
    print("## Failure taxonomy")
    for label, sql in [
        ("syntax error", f"SELECT * FROM {table} WHERE"),
        ("missing table", "SELECT * FROM no_such_relation"),
        ("missing column", f"SELECT not_a_column FROM {table}"),
        ("healthy query", f"SELECT * FROM {table}"),
    ]:
        outcome = classify_execution_failure(execute_sql(database, sql))
        print(f"  {label:15s} -> {outcome.value if outcome else 'no repair needed'}")

    # 2. Rule fixes: a classic FORM/FROM typo is repaired deterministically
    # (no LM draws), verified by real execution before being accepted.
    print("\n## Rule-based repair")
    method = with_repair(build_method("C3SQL", seed=42), mode="rules", budget=2)
    method.prepare(dataset)
    store = RepairPatternStore()
    broken = GenerationCandidate(sql=f"SELECT * FORM {table}", output_tokens=8)
    outcome = run_repair(
        broken,
        database,
        sampler=lambda draw, temperature: broken,  # rules mode never draws
        config=method.config,
        store=store,
        prompt_text=example.question,
    )
    print(f"  error class: {outcome.error_class.value}")
    print(f"  recovered:   {outcome.recovered} (source={outcome.source},"
          f" attempts={outcome.attempts}, llm_calls={outcome.llm_calls})")
    print(f"  repaired SQL: {outcome.final.sql}")

    # 3. The pattern store: repeating the same failure replays the learned
    # correction (hits go up, nothing is recomputed or re-billed afresh).
    replay = run_repair(
        broken,
        database,
        sampler=lambda draw, temperature: broken,
        config=method.config,
        store=store,
        prompt_text=example.question,
    )
    print(f"\n## Pattern-store replay\n  pattern_hit={replay.pattern_hit}"
          f" same_sql={replay.final.sql == outcome.final.sql}"
          f" store={store.stats()}")

    # 4. The full pipeline: a repair-enabled method under tracing.  The
    # repair stage executes each final candidate and repairs failures;
    # the span counters feed stage_breakdown / report-run.
    print("\n## Traced repair-enabled evaluation")
    lm_method = with_repair(build_method("C3SQL", seed=42), mode="pattern_lm")
    lm_method.prepare(dataset)
    with tracing() as tracer:
        for ex in dataset.dev_examples:
            db = dataset.database(ex.db_id)
            with tracer.example(lm_method.name, ex.example_id):
                lm_method.predict(ex, db)
        spans = tracer.drain()
    stages = [s for sp in spans for s in sp.stages]
    attempts = sum(s.counters.get("repair_attempts", 0) for s in stages)
    recovered = sum(s.counters.get("repair_recovered", 0) for s in stages)
    entered = sum(
        1 for sp in spans for s in sp.stages if s.stage == "repair"
    )
    print(f"  examples={len(spans)} repair_spans={entered}"
          f" repair_attempts={attempts} repair_recovered={recovered}")
    print(f"  method store: {lm_method._repair_store.stats()}")

    dataset.close()


if __name__ == "__main__":
    main()
