"""Request streams for the serving workloads, generated from the seeds.

The key universe (every served method over every distinct dev question)
and the popularity order of its keys depend only on the dataset, so the
offline reference and the set-up warm-up are the same for every
workload seed; the seed draws the requests themselves.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Key:
    method: str
    db_id: str
    question: str
    example_id: str


def key_universe(dataset, methods: list[str]) -> list[Key]:
    """Every ``(method, dev question)`` pair, resolved as the engine resolves it."""
    from repro.serve.engine import question_index
    from repro.utils.text import normalize_question

    index = question_index(dataset)
    seen: set[tuple[str, str]] = set()
    questions = []
    for example in dataset.dev_examples:
        ident = (example.db_id, normalize_question(example.question))
        if ident not in seen:
            seen.add(ident)
            questions.append((example.db_id, example.question, index[ident].example_id))
    return [
        Key(method, db_id, question, example_id)
        for method in methods
        for db_id, question, example_id in questions
    ]


def popularity_order(keys: list[Key]) -> list[Key]:
    """A fixed, dataset-derived rank order, uncorrelated with dataset order."""
    return sorted(
        keys,
        key=lambda k: hashlib.sha256(
            f"{k.method}\t{k.db_id}\t{k.question}".encode()
        ).hexdigest(),
    )


def zipf_bursts(
    keys: list[Key], zipf_s: float, bursts: int, size: int, seed: int
) -> list[list[Key]]:
    """``bursts`` lists of ``size`` keys drawn with Zipf(``zipf_s``) popularity."""
    ranked = popularity_order(keys)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranked))]
    cumulative = list(itertools.accumulate(weights))
    rng = random.Random(f"zipf-bursts:{seed}")
    total = cumulative[-1]
    return [
        [ranked[bisect.bisect_left(cumulative, rng.random() * total)] for _ in range(size)]
        for _ in range(bursts)
    ]


def uniform_rounds(
    keys: list[Key], passes: int, rounds_per_pass: int, clients: int, seed: int
) -> list[list[list[Key]]]:
    """Each pass sends every key once in a shuffled order, over several rounds.

    Returns the rounds in order, each as one share of keys per client.
    """
    rng = random.Random(f"uniform-rounds:{seed}")
    plan = []
    for _ in range(passes):
        order = list(keys)
        rng.shuffle(order)
        for part in range(rounds_per_pass):
            chunk = order[part::rounds_per_pass]
            plan.append([chunk[c::clients] for c in range(clients)])
    return plan


def neutral_write(database, row: int) -> str:
    """A write that bumps ``data_version`` and leaves every row's content unchanged."""
    table = database.schema.tables[0]
    column = table.columns[-1].name
    rows = max(database.row_count(table.name), 1)
    return (
        f'UPDATE "{table.name}" SET "{column}" = "{column}"'
        f" WHERE rowid = {row % rows + 1}"
    )
