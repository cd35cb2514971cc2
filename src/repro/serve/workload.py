"""Seeded, Zipf-skewed request workloads for serving tests and demos.

Real NL2SQL traffic is heavily repeated — a few popular questions
dominate — which is exactly what in-flight coalescing exploits.
:func:`build_workload` draws requests over a capped set of distinct dev
examples with Zipf-distributed popularity, deterministically from the
spec's seed via :func:`~repro.utils.rng.derive_rng`: the same spec over
the same dataset always yields the same request sequence, so benchmark
counters (coalesce hits, distinct keys) are exact gates, not
statistical ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datagen.benchmark import Dataset
from repro.errors import ServeError
from repro.serve.engine import ServeRequest
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic serving workload."""

    requests: int = 200
    methods: tuple[str, ...] = ("SuperSQL",)
    distinct_examples: int = 32
    zipf_s: float = 1.1
    seed: int = 7


def build_workload(dataset: Dataset, spec: WorkloadSpec) -> list[ServeRequest]:
    """Draw ``spec.requests`` requests over the dataset's dev split.

    Popularity rank ``r`` (0-based) gets weight ``1 / (r + 1)**zipf_s``;
    which example holds which rank is itself a seeded shuffle, so skew
    is not correlated with dataset order.  Methods round-robin over
    ``spec.methods`` per distinct example, keeping each ``(method,
    db_id, question)`` key's popularity intact.

    The distinct examples are the first ``spec.distinct_examples`` of
    the dev split in dataset order, which is grouped by database: a
    small count draws from few databases (from one, when it is no more
    than the first database's dev examples).
    """
    if spec.requests <= 0:
        raise ServeError("workload needs a positive request count")
    examples = list(dataset.dev_examples[: max(spec.distinct_examples, 1)])
    if not examples:
        raise ServeError(f"dataset {dataset.name!r} has no dev examples to serve")
    rng = derive_rng(spec.seed, "serve-workload", dataset.name, spec.requests)
    rng.shuffle(examples)
    weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(examples))]
    requests = []
    for _ in range(spec.requests):
        index = rng.choices(range(len(examples)), weights=weights, k=1)[0]
        example = examples[index]
        method = spec.methods[index % len(spec.methods)]
        requests.append(
            ServeRequest(method=method, db_id=example.db_id, question=example.question)
        )
    return requests
