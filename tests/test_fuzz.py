"""Differential fuzz: the incremental pruning against the plain specification.

Random small prefix tables and random mixes of all 8 constraint types.  The
solver's exhaustive enumeration must equal the brute-force oracle, and
``can_extend`` must accept every proper prefix of every oracle solution.
Constraint parameters come from one target sentence that the table ends, so
many instances have solutions and the pruning bounds are tight.  Keyword
sets are drawn from its words, which come in case pairs, so sets often
overlap across constraints or differ only by case.  The same instances check
that the prefetch hints of all three searches name exactly the prompts they
then ask for, in the order they ask for them.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencp import (
    CharCountExact,
    ForbiddenChars,
    KeywordSeparation,
    LMParams,
    MandatoryKeywords,
    MaxWordLen,
    PositionLexical,
    SolveOptions,
    StartsWith,
    TableLM,
    TaskSpec,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    can_extend,
    parse_ordering,
    render_prefix,
    render_sentence,
    solve_all,
)

MAX_DEPTH = 6
MAX_FANOUT = 4
MAX_NODES = 24  # prefixes that get children; keeps one example to a few ms
VOCAB = ("cat", "Cat", "sun", "Sun", "beach", "Beach", "a", "of", "sky", "run", "to", "glass")


def _table(rng):
    """A prefix table of depth <= 6 and fan-out <= 4, with "." at random nodes."""
    table = {}
    budget = MAX_NODES

    def grow(words):
        nonlocal budget
        children = []
        if len(words) < MAX_DEPTH and budget > 0:
            budget -= 1
            children = rng.sample(VOCAB, rng.randint(0, MAX_FANOUT))
        entries = list(children)
        if words and rng.random() < 0.5:
            entries.insert(rng.randint(0, len(entries)), ".")
        if entries:
            table[render_prefix(words)] = [(w, 0.5 / 2**i) for i, w in enumerate(entries)]
        for word in children:
            grow(words + [word])

    grow([])
    return table


# grown from one drawn seed: drawing every node through hypothesis made
# generation cost several times the search itself
tables = st.integers(0, 2**32 - 1).map(lambda seed: _table(random.Random(seed)))


def _sentences(table):
    """Content words of every path after which the table offers "."."""
    return [prefix.split(" ") for prefix, entries in table.items()
            if any(word == "." for word, _ in entries)]


@st.composite
def instances(draw):
    """A table, 0-3 constraints of any of the 8 types, k and require_period."""
    table = draw(tables)
    require_period = draw(st.booleans())
    target = draw(st.sampled_from(_sentences(table) or [["cat"]]))
    n = len(target)
    word = st.sampled_from(target)

    def keywords():
        if draw(st.booleans()):
            w = draw(word)
            return {w.lower(), w.capitalize()}
        return draw(st.lists(word, min_size=1, max_size=2))

    def constraint(kind):
        if kind == 0:
            length = len(render_sentence(target + ["."] if require_period else target))
            return CharCountExact(draw(st.just(length) | st.integers(2, 30)))
        if kind == 1:
            lo = draw(st.integers(1, n))
            return WordCountRange(lo, draw(st.sampled_from((None, n)) | st.integers(lo, MAX_DEPTH)))
        if kind == 2:
            return MaxWordLen(draw(st.integers(1, 6)))
        if kind == 3:
            i = draw(st.integers(1, n))
            return PositionLexical(i, draw(st.just(target[i - 1]) | word))
        if kind == 4:
            return MandatoryKeywords(keywords())
        if kind == 5:
            return KeywordSeparation(keywords(), draw(st.integers(1, 3)))
        if kind == 6:
            return ForbiddenChars(draw(st.text(alphabet="aeiouyt", min_size=1, max_size=2)))
        return StartsWith(target[: draw(st.integers(1, n))])

    constraints = [constraint(kind) for kind in draw(st.lists(st.integers(0, 7), max_size=3))]
    return table, constraints, draw(st.integers(1, MAX_FANOUT)), require_period


BEACH = {"": [("beach", 0.5)], "beach": [(".", 0.5)]}


def _content_words(sentence, require_period):
    return (sentence[:-1] if require_period else sentence).split(" ")


@settings(max_examples=400)
@given(instances())
@example((BEACH, [MandatoryKeywords({"beach", "Beach"}), CharCountExact(6)], 1, True))
def test_exhaustive_search_equals_oracle(instance):
    table, constraints, k, require_period = instance
    lm = TableLM(table)
    task = TaskSpec(
        name="fuzz", constraints=constraints, lm_params=LMParams(k=k), require_period=require_period
    )
    oracle = brute_force_oracle(task, lm, depth_cap=MAX_DEPTH)
    searched = [s.sentence for s in solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))]
    assert sorted(searched) == sorted(oracle)
    for sentence in oracle:
        words = _content_words(sentence, require_period)
        for i in range(len(words)):
            assert can_extend(words[:i], task.constraints), (sentence, words[:i])


@pytest.mark.parametrize(
    "constraints",
    [
        (MandatoryKeywords({"beach"}), MandatoryKeywords({"beach"}), WordCountRange(1, 1)),
        (MandatoryKeywords({"beach", "Beach"}), WordCountRange(1, 1)),
        (MandatoryKeywords({"beach", "Beach"}), CharCountExact(6)),
    ],
    ids=["repeated-constraint", "case-variants-word-cap", "case-variants-char-cap"],
)
def test_missing_keywords_are_counted_once(constraints):
    task = TaskSpec(name="beach", constraints=constraints, lm_params=LMParams(k=1))
    lm = TableLM(BEACH)
    assert can_extend([], constraints)
    assert [s.sentence for s in solve_all(task, lm)] == ["beach."]
    assert brute_force_oracle(task, lm, depth_cap=2) == {"beach."}


class HintedTableLM(TableLM):
    """Records, in order, the prompt batches announced through prefetch and the prompts asked."""

    def __init__(self, table):
        super().__init__(table)
        self.log = []

    def prefetch(self, sentences, params, k=None):
        k = params.k if k is None else k
        self.log.append(("hint", [(s, k) for s in sentences]))

    def predict(self, sentence, params, k=None):
        self.log.append(("ask", (sentence, params.k if k is None else k)))
        return super().predict(sentence, params, k)

    def prompts(self, kind):
        if kind == "hint":
            return {key for what, batch in self.log if what == "hint" for key in batch}
        return {key for what, key in self.log if what == "ask"}

    def batches_follow_visit_order(self):
        """Whether each batch's prompts are next asked in the order they were announced."""
        for i, (what, batch) in enumerate(self.log):
            if what != "hint":
                continue
            members, order = set(batch), []
            for later, key in self.log[i + 1:]:
                if later == "ask" and key in members and key not in order:
                    order.append(key)
            if order != batch:
                return False
        return True


@settings(max_examples=400)
@given(instances())
def test_prefetch_hints_are_the_prompts_exhaustive_searches_ask(instance):
    table, constraints, k, require_period = instance
    task = TaskSpec(
        name="fuzz", constraints=constraints, lm_params=LMParams(k=k), require_period=require_period
    )
    searches = (
        lambda lm: solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH)),
        # Short words first: the visit order differs from the backend's ranking.
        lambda lm: solve_all(
            task, lm, SolveOptions(max_variables=MAX_DEPTH, ordering=parse_ordering("char-target"))
        ),
        lambda lm: brute_force_oracle(task, lm, depth_cap=MAX_DEPTH),
        lambda lm: beam_search(task, lm, max_words=MAX_DEPTH),
    )
    for search in searches:
        lm = HintedTableLM(table)
        search(lm)
        hinted, asked = lm.prompts("hint"), lm.prompts("ask")
        assert hinted <= asked  # nothing fetched that the search does not use
        assert asked - hinted <= {("", k)}  # only the root is asked unannounced
        assert lm.batches_follow_visit_order()
