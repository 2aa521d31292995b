import copy
import dataclasses
import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencp import (
    Domain,
    SolutionRecord,
    SolverModel,
    WordCandidate,
    render_prefix,
    TaskSpec,
    render_sentence,
    summarize,
    variability,
)
from gencp.model import has_whitespace


class TestRenderSentence:
    def test_plain_words(self):
        assert render_sentence(["The", "little", "boy", "is"]) == "The little boy is"

    def test_single_word(self):
        assert render_sentence(["A"]) == "A"

    def test_trailing_period_attaches(self):
        words = ["The", "new", "year", "is", "here", "and", "we", "are",
                 "ready", "to", "make", "the", "next", "step", "."]
        assert render_sentence(words) == "The new year is here and we are ready to make the next step."

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty sentence"):
            render_sentence([])

    def test_prefix_of_nothing(self):
        assert render_prefix([]) == ""
        assert render_prefix(["A"]) == "A"


class TestVariability:
    def test_single_position(self):
        a = "The little boy is".split()
        b = "The little cat is".split()
        assert variability(a, b) == 1

    def test_reordered(self):
        assert variability("My name is John".split(), "John is my name".split()) == 4

    def test_identical(self):
        words = ["same", "words", "here"]
        assert variability(words, words) == 0

    def test_length_mismatch_counts(self):
        assert variability(["a", "b", "c"], ["a"]) == 2
        assert variability(["a"], ["a", "b", "c"]) == 2


# every whitespace character, and letters that casefold or combine unusually
WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
TEXT = st.text(alphabet=st.sampled_from(WHITESPACE + ["a", "\u00df", "\u0307", "\u200b", "."]))


class TestHasWhitespace:
    def test_a_code_point_has_whitespace_exactly_when_it_is_space(self):
        assert [ch for ch in map(chr, range(sys.maxunicode + 1))
                if has_whitespace(ch) != ch.isspace()] == []

    @settings(max_examples=300)
    @given(TEXT)
    def test_equals_the_per_character_scan(self, text):
        assert has_whitespace(text) == any(ch.isspace() for ch in text)


class TestWordCandidate:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WordCandidate("", -1.0)

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            WordCandidate("two words", -1.0)

    def test_rejects_positive_logprob(self):
        with pytest.raises(ValueError):
            WordCandidate("ok", 0.5)

    def test_holds_no_instance_dict(self):
        assert not hasattr(WordCandidate("ok", -1.0), "__dict__")

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            WordCandidate("ok", -1.0).text = "no"

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    def test_copies_equal_the_original(self, clone):
        cand = WordCandidate("ok", -1.5)
        twin = clone(cand)
        assert twin == cand and hash(twin) == hash(cand)
        assert repr(twin) == "WordCandidate(text='ok', logprob=-1.5)"


class TestDomain:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Domain([WordCandidate("a", -1.0), WordCandidate("a", -2.0)])

    def test_cursor_bounds(self):
        with pytest.raises(ValueError):
            Domain([WordCandidate("a", -1.0)], cursor=1)

    def test_emptiness(self):
        assert (Domain().values, Domain().cursor) == ([], None)
        assert Domain([WordCandidate("a", -1.0)]).values


EMPTY_TASK = TaskSpec(name="empty", constraints=())


def _cands(*pairs):
    return [WordCandidate(text, lp) for text, lp in pairs]


def _assigned_model(words):
    model = SolverModel.from_seed(words, summarize((), EMPTY_TASK))
    return model


class TestCurrentSentence:
    def test_two_words(self):
        assert _assigned_model(["A", "man"]).current_sentence() == "A man"

    def test_empty_model(self):
        assert SolverModel(summarize((), EMPTY_TASK)).current_sentence() == ""

    def test_single_seed(self):
        assert _assigned_model(["The"]).current_sentence() == "The"


def _fresh_level(model, values):
    """Append a domain of the given (text, logprob) values, assigned its first value."""
    model.add_variable(Domain(_cands(*values)))
    model.assign(0)


class TestTrail:
    """The stack of domains is the trail: each cursor marks the values tried."""

    def test_failed_backtrack_leaves_no_variable(self):
        root = summarize((), EMPTY_TASK)
        model = SolverModel.from_seed(["A", "man"], root)
        _fresh_level(model, [("drinks", -0.7)])
        assert model.backtrack() is False  # no value is left untried
        assert (model.domains, model.words, model.summaries) == ([], [], [root])
        assert model.stats.backtracks == 0

    def test_stack_discipline(self):
        model = SolverModel(summarize((), EMPTY_TASK))
        _fresh_level(model, [("a", -0.1), ("b", -0.5)])
        _fresh_level(model, [("x", -0.2), ("y", -0.9)])
        _fresh_level(model, [("z", -0.3)])
        # first backtrack lands on v2's next value, second on v1's
        assert model.backtrack()
        assert [d.cursor for d in model.domains] == [0, 1]
        assert model.backtrack()
        assert [d.cursor for d in model.domains] == [1]
        assert model.words == ["b"]

    def test_backtrack_empty_trail(self):
        assert SolverModel(summarize((), EMPTY_TASK)).backtrack() is False

    def test_exhausted_level_pops_further(self):
        # hand enumeration: x1 in {a, b}, x2 in {x, y, z}; repeated backtracking
        # must visit (a,x) (a,y) (a,z) (b,x) (b,y) (b,z) and then fail
        visits = []
        model = SolverModel(summarize((), EMPTY_TASK))
        _fresh_level(model, [("a", -0.1), ("b", -0.7)])
        level2 = [("x", -0.2), ("y", -0.4), ("z", -0.8)]
        _fresh_level(model, level2)
        visits.append(tuple(model.words))
        while True:
            if not model.backtrack():
                break
            if len(model.domains) == 1:
                _fresh_level(model, level2)
            visits.append(tuple(model.words))
        assert visits == [
            ("a", "x"), ("a", "y"), ("a", "z"),
            ("b", "x"), ("b", "y"), ("b", "z"),
        ]

    def test_no_assignment_revisited(self):
        # corollary of the visit-order check above, kept separate for clarity
        model = SolverModel(summarize((), EMPTY_TASK))
        _fresh_level(model, [("a", -0.1), ("b", -0.7), ("c", -1.1)])
        seen = {tuple(model.words)}
        while model.backtrack():
            assignment = tuple(model.words)
            assert assignment not in seen
            seen.add(assignment)
        assert seen == {("a",), ("b",), ("c",)}

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_backtracking_visits_the_product_order(self, widths):
        # Regrowing the same levels after every backtrack enumerates them as
        # itertools.product does, each landing counted once.
        levels = [[(f"w{i}v{j}", -1.0) for j in range(width)] for i, width in enumerate(widths)]
        model = SolverModel(summarize((), EMPTY_TASK))
        visits = []
        while True:
            while len(model.domains) < len(levels):
                _fresh_level(model, levels[len(model.domains)])
            visits.append(tuple(model.words))
            if not model.backtrack():
                break
        product = list(itertools.product(*([text for text, _ in level] for level in levels)))
        assert visits == product
        assert model.stats.backtracks == len(product) - 1
        assert (model.domains, model.words, len(model.summaries)) == ([], [], 1)


class TestBacktrackTo:
    def _sentence_model(self, words, alternatives):
        model = SolverModel(summarize((), EMPTY_TASK))
        for i, word in enumerate(words):
            cands = [(word, -0.1)] + alternatives.get(i + 1, [])
            model.add_variable(Domain(_cands(*cands)))
            model.assign(0)
        return model

    def test_deletes_tail_and_changes_target(self):
        words = ["I", "like", "to", "swim", "in", "the", "summer"]
        model = self._sentence_model(words, {2: [("want", -0.9)]})
        assert model.backtrack_to(2) is True
        assert [d.current().text for d in model.domains] == ["I", "want"]
        assert model.words == ["I", "want"]

    def test_singleton_target_fails(self):
        model = self._sentence_model(["The", "cat"], {})
        assert model.backtrack_to(1) is False

    def test_nothing_to_delete(self):
        model = self._sentence_model(["The", "cat"], {})
        with pytest.raises(ValueError, match="nothing to delete"):
            model.backtrack_to(2)

    def test_falls_through_when_target_exhausted(self):
        model = self._sentence_model(["I", "like", "tea"], {1: [("We", -0.8)]})
        # x2 has no alternative, so the jump lands on x1 instead
        assert model.backtrack_to(2) is True
        assert [d.current().text for d in model.domains] == ["We"]


class CopyingStack:
    """Reference model: every move builds a new list of (values, cursor) pairs."""

    def __init__(self):
        self.domains = []

    def add(self, texts):
        self.domains = self.domains + [(texts, None)]

    def assign(self, cursor):
        self.domains = self.domains[:-1] + [(self.domains[-1][0], cursor)]

    def backtrack(self):
        for depth in range(len(self.domains), 0, -1):
            texts, cursor = self.domains[depth - 1]
            nxt = 0 if cursor is None else cursor + 1
            if nxt < len(texts):
                self.domains = self.domains[:depth - 1] + [(texts, nxt)]
                return True
        self.domains = []
        return False

    def backtrack_to(self, n):
        self.domains = self.domains[:n]
        return self.backtrack()


def _words_from_cursors(model):
    words = []
    for domain in model.domains:
        if domain.cursor is None:
            break
        words.append(domain.current().text)
    return words


# (operation, argument) pairs; "add" and "assign" are drawn twice as often
_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "assign", "assign", "backtrack", "backtrack_to"]),
        st.integers(0, 3),
    ),
    max_size=30,
)


class TestIncrementalState:
    @settings(max_examples=300)
    @given(st.integers(0, 3), _steps)
    def test_matches_copying_trail(self, seed_len, steps):
        seed = [f"s{i}" for i in range(seed_len)]
        root = summarize((), EMPTY_TASK)
        model, ref = SolverModel.from_seed(seed, root), CopyingStack()
        for word in seed:
            ref.add((word,))
            ref.assign(0)

        def check():
            assert model.words == _words_from_cursors(model)
            assert [s.count for s in model.summaries] == list(range(len(model.words) + 1))
            assert model.summaries[0] is root
            assert [
                (tuple(c.text for c in d.values), d.cursor) for d in model.domains
            ] == ref.domains

        for step, arg in steps:
            newest_assigned = not model.domains or model.domains[-1].cursor is not None
            if step == "add" and newest_assigned:
                texts = tuple(f"w{len(model.domains)}v{i}" for i in range(arg))
                model.add_variable(Domain(_cands(*((t, -1.0) for t in texts))))
                ref.add(texts)
            elif step == "assign" and model.domains and model.domains[-1].values:
                cursor = arg % len(model.domains[-1])
                model.assign(cursor)
                ref.assign(cursor)
            elif step == "backtrack":
                assert model.backtrack() == ref.backtrack()
            elif step == "backtrack_to" and len(model.domains) > 1:
                n = 1 + arg % (len(model.domains) - 1)
                assert model.backtrack_to(n) == ref.backtrack_to(n)
            check()
        # each landing moves a cursor forward, so this ends with no domain left
        while model.backtrack():
            assert ref.backtrack()
            check()
        assert not ref.backtrack()
        check()
        assert model.domains == []


class TestContainsEmptyVariable:
    def test_empty_generated_domain(self):
        model = _assigned_model(["A", "boy"])
        model.add_variable(Domain())  # as after a failed prediction
        assert (model.domains[-1].values, model.domains[-1].cursor) == ([], None)

    def test_fresh_model_with_values(self):
        model = _assigned_model(["A"])
        model.add_variable(Domain(_cands(("man", -0.5))))
        assert model.domains[-1].values

    def test_fully_filtered_domain(self):
        from gencp import ForbiddenChars

        task = TaskSpec(name="t", constraints=(ForbiddenChars("e"),), require_period=False)
        model = _assigned_model(["A"])
        cands = _cands(("the", -0.3), ("he", -0.9))
        domain = Domain(summarize(["A"], task).window(cands, len(cands)))
        assert model.add_variable(domain) is domain
        assert (model.domains[-1].values, model.domains[-1].cursor) == ([], None)


class TestLeftToRightInvariant:
    def test_assignment_prefix_is_contiguous(self):
        model = _assigned_model(["A", "man"])
        model.add_variable(Domain(_cands(("drinks", -0.4))))
        # last position unassigned; all earlier ones assigned
        assert model.words == ["A", "man"]
        assert all(d.cursor is not None for d in model.domains[:-1])


class TestSolutionRecord:
    def test_roundtrip(self):
        rec = SolutionRecord(words=("A", "man", "."), ppl=2.0, discovered_at=0.1)
        assert rec.sentence == "A man."
