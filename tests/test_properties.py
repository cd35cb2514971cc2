"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.sqlkit.exact_match import exact_match
from repro.sqlkit.features import extract_features
from repro.sqlkit.hardness import classify_hardness
from repro.sqlkit.parser import parse_select
from repro.sqlkit.printer import normalize_sql, render_literal, to_sql
from repro.sqlkit.tokenizer import tokenize, unquote
from repro.utils.rng import derive_rng, stable_hash
from repro.utils.text import jaccard, levenshtein, normalized_similarity, tokenize_words

# -- strategies ---------------------------------------------------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s not in {
        "select", "from", "where", "group", "by", "having", "order", "limit",
        "join", "on", "as", "and", "or", "not", "in", "like", "between", "is",
        "null", "exists", "union", "intersect", "except", "all", "asc", "desc",
        "case", "when", "then", "else", "end", "cast", "distinct", "inner",
        "left", "right", "outer", "full", "cross", "offset",
        "count", "sum", "avg", "min", "max", "abs", "round", "length", "iif",
        "strftime",
    }
)
safe_strings = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _-"),
    max_size=20,
)
literals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda f: round(f, 3)),
    safe_strings,
)
comparison_ops = st.sampled_from(["=", "!=", ">", "<", ">=", "<="])


@st.composite
def simple_queries(draw):
    """Generate random-but-valid SQL text from structural choices."""
    table = draw(identifiers)
    columns = draw(st.lists(identifiers, min_size=1, max_size=3, unique=True))
    sql = "SELECT " + ", ".join(columns) + f" FROM {table}"
    if draw(st.booleans()):
        conditions = []
        for __ in range(draw(st.integers(1, 3))):
            col = draw(identifiers)
            op = draw(comparison_ops)
            value = draw(literals)
            conditions.append(f"{col} {op} {render_literal(value)}")
        connector = draw(st.sampled_from([" AND ", " OR "]))
        sql += " WHERE " + connector.join(conditions)
    if draw(st.booleans()):
        sql += f" GROUP BY {draw(identifiers)}"
        if draw(st.booleans()):
            sql += f" HAVING COUNT(*) > {draw(st.integers(0, 9))}"
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        sql += f" ORDER BY {draw(identifiers)} {direction}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(1, 50))}"
    return sql


# -- utils properties -----------------------------------------------------------


def levenshtein_reference(a: str, b: str) -> int:
    """The O(n*m) dynamic-programming edit distance (reference oracle)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


# Few-letter alphabets make long strings that share many characters, so the
# bit-parallel carries travel far; the astral characters cover non-BMP text.
_edit_texts = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="ab c\u00e9\U0001f600\U00010348", min_size=50, max_size=160),
)


class TestRngProperties:
    @given(st.integers(), st.text(max_size=30))
    def test_stable_hash_deterministic(self, seed, key):
        assert stable_hash(seed, key) == stable_hash(seed, key)

    @given(st.integers(0, 2**31), st.text(max_size=10))
    def test_derived_streams_repeatable(self, seed, key):
        assert derive_rng(seed, key).random() == derive_rng(seed, key).random()


class TestTextProperties:
    @given(st.text(max_size=40), st.text(max_size=40))
    def test_levenshtein_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=30))
    def test_levenshtein_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(st.text(max_size=25), st.text(max_size=25), st.text(max_size=25))
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @settings(max_examples=300)
    @given(_edit_texts, _edit_texts)
    @example("x" * 70 + "\U0001f600", "\U0001f600" + "x" * 69)
    @example("ab" * 40, "ba" * 41)
    def test_levenshtein_matches_reference(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @given(st.text(max_size=40), st.text(max_size=40))
    @example("İ", "")  # lowers to two code points
    def test_normalized_similarity_bounded(self, a, b):
        assert 0.0 <= normalized_similarity(a, b) <= 1.0

    @given(st.lists(st.text(max_size=8)), st.lists(st.text(max_size=8)))
    def test_jaccard_bounded_and_symmetric(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0
        assert jaccard(a, b) == jaccard(b, a)

    @given(st.text(max_size=60))
    def test_tokenize_words_lowercase(self, text):
        for token in tokenize_words(text):
            assert token == token.lower()


# -- sqlkit properties --------------------------------------------------------------


class TestSqlProperties:
    @settings(max_examples=120)
    @given(simple_queries())
    def test_parse_print_round_trip_is_fixed_point(self, sql):
        once = normalize_sql(sql)
        assert normalize_sql(once) == once

    @settings(max_examples=120)
    @given(simple_queries())
    def test_exact_match_reflexive(self, sql):
        assert exact_match(sql, sql)
        assert exact_match(sql, sql, compare_values=True)

    @settings(max_examples=100)
    @given(simple_queries())
    def test_em_invariant_under_normalization(self, sql):
        assert exact_match(normalize_sql(sql), sql)

    @settings(max_examples=100)
    @given(simple_queries())
    def test_features_and_hardness_total(self, sql):
        features = extract_features(sql)
        assert features.num_joins >= 0
        assert features.num_logical_connectors >= 0
        classify_hardness(sql)  # must not raise

    @settings(max_examples=100)
    @given(simple_queries())
    def test_tokenizer_covers_printer_output(self, sql):
        tokens = tokenize(to_sql(parse_select(sql)))
        assert tokens[-1].value == ""

    @given(safe_strings)
    def test_literal_render_unquote_round_trip(self, value):
        rendered = render_literal(value)
        assert unquote(rendered) == value

    @settings(max_examples=60)
    @given(simple_queries(), simple_queries())
    def test_exact_match_symmetric(self, a, b):
        assert exact_match(a, b) == exact_match(b, a)


# -- paraphrase/lexicon properties -----------------------------------------------


class TestLexiconProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
    def test_normalize_idempotent(self, text):
        from repro.nlu.lexicon import Lexicon
        lexicon = Lexicon.full()
        once = lexicon.normalize(text)
        assert lexicon.normalize(once) == once
