"""Benchmark assembly: databases + (NL, SQL) examples + splits.

``build_benchmark`` materializes a full synthetic benchmark in the image
of Spider or BIRD: per-domain databases (train/dev splits), populated
SQLite contents, and (NL, SQL) examples sampled from the intent grammar
with a shape mix matched to the target hardness distribution, plus NL
paraphrase variants for query-variance testing.  :meth:`Dataset.image`
and :meth:`Dataset.from_image` copy a built (or since written) dataset
into another process without building it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.domains import get_domain
from repro.datagen.intent_gen import IntentSampler
from repro.datagen.intents import IntentShape, QueryIntent
from repro.datagen.nl_render import render_intent_nl
from repro.datagen.paraphrase import paraphrase_question
from repro.datagen.populate import populate_database
from repro.datagen.schema_gen import generate_schema
from repro.datagen.sql_render import render_intent_sql
from repro.dbengine.database import Database, DatabaseImage
from repro.dbengine.executor import execute_sql
from repro.errors import DataGenerationError
from repro.sqlkit.hardness import BirdDifficulty, Hardness, classify_bird_difficulty, classify_hardness
from repro.utils.rng import derive_rng

# Shape mix approximating Spider-dev's hardness distribution.
SPIDER_SHAPE_WEIGHTS: dict[IntentShape, float] = {
    IntentShape.PROJECT: 0.22,
    IntentShape.AGG: 0.16,
    IntentShape.GROUP_AGG: 0.14,
    IntentShape.ORDER_TOP: 0.12,
    IntentShape.JOIN_PROJECT: 0.12,
    IntentShape.JOIN_GROUP: 0.08,
    IntentShape.SUBQUERY_CMP_AGG: 0.04,
    IntentShape.SUBQUERY_IN: 0.03,
    IntentShape.SUBQUERY_NOT_IN: 0.03,
    IntentShape.EXTREME: 0.03,
    IntentShape.SET_OP: 0.03,
}

# BIRD skews markedly harder: more joins and subqueries.
BIRD_SHAPE_WEIGHTS: dict[IntentShape, float] = {
    IntentShape.PROJECT: 0.14,
    IntentShape.AGG: 0.12,
    IntentShape.GROUP_AGG: 0.12,
    IntentShape.ORDER_TOP: 0.10,
    IntentShape.JOIN_PROJECT: 0.16,
    IntentShape.JOIN_GROUP: 0.12,
    IntentShape.SUBQUERY_CMP_AGG: 0.07,
    IntentShape.SUBQUERY_IN: 0.05,
    IntentShape.SUBQUERY_NOT_IN: 0.04,
    IntentShape.EXTREME: 0.04,
    IntentShape.SET_OP: 0.04,
}

# Spider train-set databases per domain (paper Fig. 9(b): College,
# Competition, and Transportation are the data-rich domains).
SPIDER_TRAIN_DB_COUNTS: dict[str, int] = {
    "college": 10, "competition": 8, "transportation": 7, "sports": 5,
    "flights": 4, "music": 4, "movies": 4, "restaurants": 3, "hotels": 3,
    "healthcare": 3, "banking": 3, "retail": 3, "insurance": 2,
    "library": 2, "museums": 2, "parks": 2, "real_estate": 2,
    "automotive": 2, "energy": 2, "agriculture": 2, "weather": 2,
    "gaming": 2, "social_media": 2, "ecommerce": 2, "logistics": 2,
    "telecom": 1, "government": 1, "nonprofit": 1, "science_lab": 1,
    "publishing": 1, "pets": 0, "hr": 0, "events": 0,
}

# Spider dev-set databases per domain (20 total; includes domains with no
# training databases so Exp-4's crossover is observable).
SPIDER_DEV_DB_COUNTS: dict[str, int] = {
    "college": 2, "competition": 2, "transportation": 2, "sports": 1,
    "flights": 1, "music": 1, "movies": 1, "restaurants": 1, "banking": 1,
    "retail": 1, "library": 1, "museums": 1, "gaming": 1, "weather": 1,
    "pets": 1, "hr": 1, "events": 1, "telecom": 1,
}

BIRD_DEV_DB_COUNTS: dict[str, int] = {
    "banking": 2, "healthcare": 2, "retail": 1, "ecommerce": 1,
    "logistics": 1, "energy": 1, "publishing": 1, "social_media": 1,
    "science_lab": 1,
}


@dataclass(frozen=True)
class Example:
    """One (NL, SQL) evaluation example."""

    example_id: str
    db_id: str
    domain: str
    question: str
    gold_sql: str
    hardness: Hardness
    bird_difficulty: BirdDifficulty
    split: str                      # "train" | "dev"
    variant_group: str              # shared by NL variants of one gold SQL
    variant_style: str = "canonical"
    linguistic_difficulty: int = 0  # number of hard rewrites in the phrasing
    intent: QueryIntent | None = None


@dataclass(frozen=True)
class DatasetImage:
    """A picklable copy of a :class:`Dataset`: its examples, recipe and
    build versions plus one :class:`DatabaseImage` per database."""

    name: str
    examples: list[Example]
    databases: dict[str, DatabaseImage]
    config: "BenchmarkConfig | None"
    built_versions: dict[str, int]


@dataclass
class Dataset:
    """A built benchmark: databases plus train/dev examples."""

    name: str
    examples: list[Example] = field(default_factory=list)
    databases: dict[str, Database] = field(default_factory=dict)
    # The recipe this dataset was built from (set by build_benchmark).
    # The result cache keys on it, which is sound only while as_built().
    config: "BenchmarkConfig | None" = None
    # Each database's data_version when build_benchmark returned (set only
    # there); a later write bumps the live version past it.
    built_versions: dict[str, int] = field(default_factory=dict)

    def image(self) -> DatasetImage:
        """A :class:`DatasetImage` of the current content (writes included)."""
        return DatasetImage(
            name=self.name,
            examples=list(self.examples),
            databases={db_id: database.image() for db_id, database in self.databases.items()},
            config=self.config,
            built_versions=dict(self.built_versions),
        )

    @classmethod
    def from_image(cls, image: DatasetImage) -> "Dataset":
        """A dataset whose databases hold exactly ``image``'s content and versions."""
        return cls(
            name=image.name,
            examples=list(image.examples),
            databases={
                db_id: Database.from_image(database)
                for db_id, database in image.databases.items()
            },
            config=image.config,
            built_versions=dict(image.built_versions),
        )

    def as_built(self) -> bool:
        """True while ``config`` rebuilds exactly this dataset's content.

        That holds from ``build_benchmark`` until the first write to any
        database (``Database.apply_write``, ``mark_mutated``).  The result
        cache keys on ``config``, so it requires it.
        """
        return self.config is not None and self.built_versions == {
            db_id: database.data_version for db_id, database in self.databases.items()
        }

    def fingerprint(self) -> str:
        """Stable identity of this dataset's build recipe across processes.

        Hashes the full recipe (name, seed, scale-derived counts, shape
        weights); it identifies the content only while :meth:`as_built`
        holds.
        """
        from repro.utils.rng import stable_hash

        if self.config is None:
            raise DataGenerationError(f"dataset {self.name!r} has no build recipe")
        return f"{stable_hash('benchmark-config', repr(self.config)):016x}"

    def database(self, db_id: str) -> Database:
        try:
            return self.databases[db_id]
        except KeyError as exc:
            raise DataGenerationError(f"unknown database {db_id!r}") from exc

    def split(self, name: str) -> list[Example]:
        return [example for example in self.examples if example.split == name]

    @property
    def train_examples(self) -> list[Example]:
        return self.split("train")

    @property
    def dev_examples(self) -> list[Example]:
        return self.split("dev")

    def schemas(self, split: str | None = None) -> list:
        db_ids = {
            example.db_id for example in self.examples
            if split is None or example.split == split
        }
        return [self.databases[db_id].schema for db_id in sorted(db_ids)]

    def variant_groups(self, split: str = "dev") -> dict[str, list[Example]]:
        """Group examples by shared gold SQL (for QVT)."""
        groups: dict[str, list[Example]] = {}
        for example in self.split(split):
            groups.setdefault(example.variant_group, []).append(example)
        return groups

    def close(self) -> None:
        for database in self.databases.values():
            database.close()


@dataclass(frozen=True)
class BenchmarkConfig:
    """Parameters of one synthetic benchmark build."""

    name: str
    seed: int = 42
    train_db_counts: dict[str, int] = field(default_factory=dict)
    dev_db_counts: dict[str, int] = field(default_factory=dict)
    examples_per_train_db: int = 12
    examples_per_dev_db: int = 16
    rows_per_table: int = 60
    wide_schemas: bool = False
    shape_weights: dict[IntentShape, float] = field(default_factory=dict)
    variant_rate: float = 0.45       # fraction of dev groups with NL variants
    variants_per_question: int = 2
    require_nonempty_results: bool = True
    ambient_difficulty: float = 0.0


def spider_like_config(scale: float = 1.0, seed: int = 42) -> BenchmarkConfig:
    """Spider-like benchmark config; ``scale`` shrinks example counts."""
    return BenchmarkConfig(
        name="spider-like",
        seed=seed,
        train_db_counts=dict(SPIDER_TRAIN_DB_COUNTS),
        dev_db_counts=dict(SPIDER_DEV_DB_COUNTS),
        examples_per_train_db=max(2, round(24 * scale)),
        examples_per_dev_db=max(3, round(26 * scale)),
        rows_per_table=50,
        wide_schemas=False,
        shape_weights=dict(SPIDER_SHAPE_WEIGHTS),
    )


def bird_like_config(scale: float = 1.0, seed: int = 43) -> BenchmarkConfig:
    """BIRD-like benchmark config: wider schemas, harder shape mix."""
    return BenchmarkConfig(
        name="bird-like",
        seed=seed,
        train_db_counts={name: 3 for name in BIRD_DEV_DB_COUNTS},
        dev_db_counts=dict(BIRD_DEV_DB_COUNTS),
        examples_per_train_db=max(2, round(40 * scale)),
        examples_per_dev_db=max(3, round(24 * scale)),
        rows_per_table=90,
        wide_schemas=True,
        shape_weights=dict(BIRD_SHAPE_WEIGHTS),
        variant_rate=0.1,  # BIRD has few NL variants per SQL (paper Exp-3)
        ambient_difficulty=1.0,
    )


def spider_realistic_config(scale: float = 1.0, seed: int = 44) -> BenchmarkConfig:
    """Spider-Realistic analogue: every dev question is a paraphrase.

    Deng et al. (2021) rewrote Spider's dev questions to drop explicit
    column mentions; we approximate the same pressure by paraphrasing
    every question (high variant rate) so that surface forms diverge
    maximally from the canonical templates.
    """
    config = spider_like_config(scale=scale, seed=seed)
    return BenchmarkConfig(
        name="spider-realistic-like",
        seed=seed,
        train_db_counts=config.train_db_counts,
        dev_db_counts=config.dev_db_counts,
        examples_per_train_db=config.examples_per_train_db,
        examples_per_dev_db=config.examples_per_dev_db,
        rows_per_table=config.rows_per_table,
        shape_weights=config.shape_weights,
        variant_rate=1.0,
        variants_per_question=2,
    )


def kaggle_dbqa_config(scale: float = 1.0, seed: int = 45) -> BenchmarkConfig:
    """KaggleDBQA analogue: few real-world databases, no in-domain training.

    KaggleDBQA evaluates parsers on 8 web-scraped databases with no
    training split, stressing zero-shot generalization; we mirror that
    with a dev-only benchmark over eight domains unseen at training time.
    """
    return BenchmarkConfig(
        name="kaggledbqa-like",
        seed=seed,
        train_db_counts={},
        dev_db_counts={
            "weather": 1, "pets": 1, "hr": 1, "events": 1,
            "nonprofit": 1, "government": 1, "science_lab": 1, "publishing": 1,
        },
        examples_per_train_db=0,
        examples_per_dev_db=max(3, round(34 * scale)),
        rows_per_table=70,
        shape_weights=dict(SPIDER_SHAPE_WEIGHTS),
        variant_rate=0.3,
    )


def _weighted_shapes(config: BenchmarkConfig, rng, count: int) -> list[IntentShape]:
    weights_map = config.shape_weights or SPIDER_SHAPE_WEIGHTS
    shapes = list(weights_map)
    weights = [weights_map[shape] for shape in shapes]
    return rng.choices(shapes, weights=weights, k=count)


def _build_database(
    config: BenchmarkConfig, domain_name: str, db_index: int
) -> Database:
    domain = get_domain(domain_name)
    schema = generate_schema(
        domain, db_index, seed=config.seed, wide=config.wide_schemas
    )
    schema.ambient_difficulty = config.ambient_difficulty
    database = Database(schema)
    populate_database(
        database, domain, rows_per_table=config.rows_per_table, seed=config.seed
    )
    return database


def _gold_is_usable(database: Database, sql: str, require_rows: bool) -> bool:
    result = execute_sql(database, sql)
    if not result.ok:
        return False
    if require_rows and not result.rows:
        return False
    return len(result.rows) < 5_000


def _make_examples(
    config: BenchmarkConfig,
    database: Database,
    domain_name: str,
    split: str,
    count: int,
) -> list[Example]:
    rng = derive_rng(config.seed, "examples", database.db_id, split)
    sampler = IntentSampler(database, rng)
    examples: list[Example] = []
    shapes = _weighted_shapes(config, rng, count * 3)
    shape_index = 0
    attempts = 0
    while len(examples) < count and attempts < count * 12:
        attempts += 1
        if shape_index >= len(shapes):
            shapes.extend(_weighted_shapes(config, rng, count))
        shape = shapes[shape_index]
        shape_index += 1
        try:
            intent = sampler.sample(shape)
            gold_sql = render_intent_sql(intent, database.schema)
            question = render_intent_nl(intent, database.schema)
        except DataGenerationError:
            continue
        if not _gold_is_usable(database, gold_sql, config.require_nonempty_results):
            continue
        index = len(examples)
        group = f"{database.db_id}-{split}-{index}"
        base = Example(
            example_id=f"{group}-0",
            db_id=database.db_id,
            domain=domain_name,
            question=question,
            gold_sql=gold_sql,
            hardness=classify_hardness(gold_sql),
            bird_difficulty=classify_bird_difficulty(gold_sql),
            split=split,
            variant_group=group,
            intent=intent,
        )
        examples.append(base)
        if rng.random() < config.variant_rate:
            variants = paraphrase_question(
                question,
                count=config.variants_per_question,
                seed=config.seed,
                key=group,
            )
            for v_index, variant in enumerate(variants, start=1):
                examples.append(
                    Example(
                        example_id=f"{group}-{v_index}",
                        db_id=database.db_id,
                        domain=domain_name,
                        question=variant.text,
                        gold_sql=gold_sql,
                        hardness=base.hardness,
                        bird_difficulty=base.bird_difficulty,
                        split=split,
                        variant_group=group,
                        variant_style=variant.style,
                        linguistic_difficulty=variant.difficulty,
                        intent=intent,
                    )
                )
    return examples


def build_benchmark(config: BenchmarkConfig) -> Dataset:
    """Build the full benchmark described by ``config``."""
    dataset = Dataset(name=config.name, config=config)
    # Dev databases use distinct indices from train databases so dev
    # schemas are unseen during fine-tuning (cross-database evaluation, as
    # in Spider).
    for domain_name, dev_count in config.dev_db_counts.items():
        for db_index in range(dev_count):
            database = _build_database(config, domain_name, 100 + db_index)
            dataset.databases[database.db_id] = database
            dataset.examples.extend(
                _make_examples(
                    config, database, domain_name, "dev", config.examples_per_dev_db
                )
            )
    for domain_name, train_count in config.train_db_counts.items():
        for db_index in range(train_count):
            database = _build_database(config, domain_name, db_index)
            dataset.databases[database.db_id] = database
            dataset.examples.extend(
                _make_examples(
                    config, database, domain_name, "train", config.examples_per_train_db
                )
            )
    if not dataset.examples:
        raise DataGenerationError(f"benchmark {config.name!r} produced no examples")
    dataset.built_versions = {
        db_id: database.data_version for db_id, database in dataset.databases.items()
    }
    return dataset
