import ast
import inspect
import itertools
import json
import random
import sys
import textwrap
import unicodedata
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import gencp.constraints as cst
from gencp import (
    BUILTIN_TASK_NAMES,
    CharCountExact,
    ForbiddenChars,
    KeywordSeparation,
    LMParams,
    MandatoryKeywords,
    MaxWordLen,
    PositionLexical,
    StartsWith,
    TableLM,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    builtin_task,
    check_complete,
    load_task_file,
    only_words,
    SolveOptions,
    beam_search,
    render_prefix,
    solve_all,
    summarize,
    word_valid,
)
from gencp.constraints import Constraint

from conftest import random_table


def _cands(*pairs):
    return [WordCandidate(text, lp) for text, lp in pairs]


def _task(*constraints, require_period=True, seed=()):
    return TaskSpec(
        name="t", constraints=tuple(constraints), seed=seed,
        lm_params=LMParams(k=3), require_period=require_period,
    )


class TestWordValid:
    def test_forbidden_char_hits(self):
        assert word_valid("house", (ForbiddenChars("e"),)) is False

    def test_forbidden_char_misses(self):
        assert word_valid("man", (ForbiddenChars("e"),)) is True

    def test_word_length(self):
        assert word_valid("version", (MaxWordLen(6),)) is False
        assert word_valid("short", (MaxWordLen(6),)) is True

    def test_word_length_at_the_limit(self):
        """The specification's word test and the window's agree at the limit."""
        admits = summarize((), _task(MaxWordLen(6))).admits
        assert word_valid("planet", (MaxWordLen(6),)) is admits("planet") is True
        assert word_valid("planets", (MaxWordLen(6),)) is admits("planets") is False

    def test_forbidden_char_at_either_end(self):
        admits = summarize((), _task(ForbiddenChars("e"))).admits
        assert word_valid("egg", (ForbiddenChars("e"),)) is admits("egg") is False
        assert word_valid("she", (ForbiddenChars("e"),)) is admits("she") is False
        assert word_valid("tram", (ForbiddenChars("e"),)) is admits("tram") is True

    def test_position_independent(self):
        constraints = (PositionLexical(3, "soft"), WordCountRange(2, 5))
        assert word_valid("anything", constraints) is True

    def test_empty_word_errors(self):
        with pytest.raises(ValueError):
            word_valid("", ())


class TestOnlyWords:
    def test_drops_fragments_and_symbols(self):
        cands = _cands(("man", -0.1), ("##ing", -0.2), ("$", -0.3), ("a1", -0.3), ("42", -0.3),
                       ("boy", -0.4))
        assert [c.text for c in only_words(cands)] == ["man", "boy"]

    def test_empty_input(self):
        assert only_words([]) == []

    def test_keeps_internal_apostrophe(self):
        cands = _cands(("don't", -0.1))
        assert [c.text for c in only_words(cands)] == ["don't"]

    def test_period_only_when_scanning_for_end(self):
        cands = _cands((".", -0.1), ("ok", -0.2))
        assert [c.text for c in only_words(cands)] == ["ok"]

    def test_rejects_edge_hyphens(self):
        cands = _cands(("-dash", -0.1), ("dash-", -0.2), ("re-do", -0.3))
        assert [c.text for c in only_words(cands)] == ["re-do"]


class TestFilterDomain:
    """``PrefixSummary.window`` over a whole answer, k its length: the prefix tests alone."""

    def test_forbidden_chars(self):
        task = _task(ForbiddenChars("e"), require_period=False)
        cands = _cands(("man", -0.1), ("house", -0.2), ("boy", -0.3))
        out = summarize(["A"], task).window(cands, len(cands))
        assert [c.text for c in out] == ["man", "boy"]

    def test_character_budget(self):
        task = _task(CharCountExact(60), require_period=False)
        partial = ["a" * 58]
        cands = _cands(("extraordinary", -0.1), ("x", -0.2))
        out = summarize(partial, task).window(cands, len(cands))
        assert [c.text for c in out] == ["x"]  # 58 + 1 + 1 = 60 fits

    def test_period_reservation(self):
        task = _task(CharCountExact(60), require_period=True)
        partial = ["a" * 58]
        cands = _cands(("x", -0.2))
        # 58 + 1 + 1 = 60 would leave no room for the final period
        out = summarize(partial, task).window(cands, len(cands))
        assert out == []

    def test_positional_pin(self):
        task = _task(PositionLexical(3, "soft"), require_period=False)
        cands = _cands(("soft", -2.3), ("hard", -0.1))
        out = summarize(["the", "very"], task).window(cands, len(cands))
        assert [c.text for c in out] == ["soft"]

    def test_word_count_ceiling(self):
        task = _task(WordCountRange(1, 2), require_period=False)
        cands = _cands(("more", -0.1))
        out = summarize(["one", "two"], task).window(cands, len(cands))
        assert out == []

    def test_keyword_separation(self):
        task = _task(KeywordSeparation({"soft", "math"}, 3), require_period=False)
        cands = _cands(("math", -0.1), ("sand", -0.2))
        out = summarize(["soft", "and"], task).window(cands, len(cands))
        assert [c.text for c in out] == ["sand"]
        short = summarize(["soft", "a", "b"], task).window(cands, len(cands))  # two words between, one too few
        assert [c.text for c in short] == ["sand"]
        out2 = summarize(["soft", "a", "b", "c"], task).window(cands, len(cands))
        assert [c.text for c in out2] == ["math", "sand"]

    def test_preserves_order_and_is_idempotent(self):
        task = _task(ForbiddenChars("q"), require_period=False)
        cands = _cands(("zed", -0.5), ("abc", -0.1), ("quk", -0.2))
        summary = summarize(["go"], task)
        once = summary.window(cands, len(cands))
        twice = summary.window(once, len(once))
        assert [c.text for c in once] == ["zed", "abc"]
        assert [c.text for c in twice] == [c.text for c in once]

    def test_contracting(self):
        task = _task(MaxWordLen(4), require_period=False)
        cands = _cands(("abcde", -0.1), ("ab", -0.2))
        out = summarize([], task).window(cands, len(cands))
        assert set(c.text for c in out) <= set(c.text for c in cands)

    def test_every_word_valid_candidate_counts_toward_k(self):
        # "cat" is the first word-valid candidate and the pin rejects it, so
        # at k = 1 the window ends there, before "soft"
        task = _task(PositionLexical(1, "soft"), require_period=False)
        cands = _cands(("cat", -0.1), ("soft", -0.2))
        assert summarize([], task).window(cands, 1) == []
        assert [c.text for c in summarize([], task).window(cands, 2)] == ["soft"]


@pytest.mark.parametrize("search", ["solve_all", "beam_search"])
def test_searches_call_no_word_valid(search, monkeypatch):
    """The window tests each candidate by the task's word-length cap and forbidden set.

    ``word_valid``, which asks the clauses themselves, is the oracle's and
    the seed check's, so a search that called it would share it with the
    oracle it is checked against.
    """
    task = TaskSpec(name="t", constraints=(MaxWordLen(5), ForbiddenChars("q"), WordCountRange(1, 4)),
                    lm_params=LMParams(k=2), require_period=True)
    lm = random_table(random.Random(5), depth=5)
    called = []
    monkeypatch.setattr(cst, "word_valid", lambda word, constraints: called.append(word) or True)
    if search == "solve_all":
        assert solve_all(task, lm, SolveOptions(max_variables=5))
    else:
        assert beam_search(task, lm, k=2)[0]
    assert called == []


def test_a_summary_carries_the_prompt_that_renders_its_words():
    """Each push joins its word to the prompt with one space, none before the first, as ``render_prefix`` does."""
    for require_period in (True, False):
        task = _task(MandatoryKeywords({"beach"}), CharCountExact(60), require_period=require_period)
        summary, words = summarize((), task), []
        assert summary.prompt == ""
        for word in ("U.S.", "don't", "well-known", "Beach"):
            summary = summary.push(word)
            words.append(word)
            assert summary.prompt == render_prefix(words), (require_period, words)
        assert summary.prompt == "U.S. don't well-known Beach"


def test_char_count_admits_the_word_that_reaches_n_exactly():
    """The child's length is the prompt, a space unless the word is the first, the word and the period reserve."""
    for require_period in (False, True):
        reserve = 1 if require_period else 0
        task = _task(CharCountExact(10), require_period=require_period)
        root, after = summarize([], task), summarize(["abcd"], task)
        assert root.admits("a" * (10 - reserve)), require_period
        assert not root.admits("a" * (11 - reserve)), require_period
        assert after.admits("b" * (5 - reserve)), require_period  # after "abcd "
        assert not after.admits("b" * (6 - reserve)), require_period


def can_extend(words, constraints):
    """``PrefixSummary.can_extend`` of the words under the constraints, no period required."""
    return summarize(words, _task(*constraints, require_period=False)).can_extend()


class TestCanExtend:
    def test_over_character_budget(self):
        assert can_extend(["a" * 61], (CharCountExact(60),)) is False

    def test_word_count_headroom(self):
        partial = [f"w{i}" for i in range(9)]
        assert can_extend(partial, (WordCountRange(10, 15),)) is True

    def test_missed_positional_pin(self):
        partial = [f"w{i}" for i in range(14)]
        constraints = (PositionLexical(10, "math"), MandatoryKeywords({"math"}))
        assert can_extend(partial, constraints) is False

    def test_keywords_must_fit_word_budget(self):
        constraints = (WordCountRange(1, 3), MandatoryKeywords({"soft", "beach", "math"}))
        assert can_extend(["hello", "there"], constraints) is False
        assert can_extend(["soft"], constraints) is True

    def test_keywords_must_fit_char_budget(self):
        constraints = (CharCountExact(12), MandatoryKeywords({"mathematics"}),)
        assert can_extend(["tiny", "word"], constraints) is False

    def test_existing_violations_are_fatal(self):
        assert can_extend(["house"], (ForbiddenChars("e"),)) is False
        assert can_extend(["seventy"], (MaxWordLen(3),)) is False
        assert can_extend(["soft", "math"], (KeywordSeparation({"soft", "math"}, 3),)) is False

    def test_at_word_ceiling(self):
        assert can_extend(["a", "b"], (WordCountRange(1, 2),)) is False


def test_listed_multi_folds_are_what_casefolding_every_code_point_finds():
    assert unicodedata.unidata_version != "14.0.0" or cst._multi_folds() is cst._MULTI_FOLDS_14
    scanned = {f for f in map(str.casefold, map(chr, range(sys.maxunicode + 1))) if len(f) > 1}
    assert cst._multi_folds() == scanned


DEMO_SENTENCE_1 = "The following is an article by the author of the above book."
DEMO_SENTENCE_2 = "The first time you see the movie version of your book on TV."


def _words_of(sentence):
    return sentence[:-1].split(" ") + ["."]


class TestCheckComplete:
    def test_first_reference_sentence(self):
        task = builtin_task("demo-60")
        words = _words_of(DEMO_SENTENCE_1)
        assert len(words) - 1 == 12
        assert check_complete(words, task) is True

    def test_second_reference_sentence(self):
        task = builtin_task("demo-60")
        words = _words_of(DEMO_SENTENCE_2)
        assert len(words) - 1 == 13
        assert check_complete(words, task) is True

    def test_off_by_one_character_count(self):
        task = _task(StartsWith(("The",)), WordCountRange(10, 15), CharCountExact(61))
        assert check_complete(_words_of(DEMO_SENTENCE_1), task) is False

    def test_missing_period_when_required(self):
        task = _task(WordCountRange(1, 5))
        assert check_complete(["hi", "there"], task) is False
        assert check_complete(["hi", "there", "."], task) is True

    def test_keywords_case_insensitive(self):
        task = _task(MandatoryKeywords({"soft"}), require_period=False)
        assert check_complete(["Soft", "words"], task) is True

    def test_positional_pin_is_case_sensitive(self):
        task = _task(PositionLexical(1, "the"), require_period=False)
        assert check_complete(["The", "cat"], task) is False

    def test_separation_violation(self):
        task = _task(KeywordSeparation({"soft", "math"}, 3), require_period=False)
        assert check_complete(["soft", "x", "math"], task) is False
        assert check_complete(["soft", "x", "y", "z", "math"], task) is True
        assert check_complete(["Soft", "x", "MATH"], task) is False

    def test_a_wrong_word_count_renders_nothing_in_any_order(self, monkeypatch):
        """The O(1) clauses run first: a sentence of the wrong word count is never rendered."""
        rendered = []
        monkeypatch.setattr(cst, "render_sentence", lambda words: rendered.append(words) or "")
        constraints = (CharCountExact(20), WordCountRange(5, 5), MandatoryKeywords({"soft"}),
                       PositionLexical(1, "The"))
        for order in itertools.permutations(constraints):
            task = _task(*order)
            assert check_complete(["The", "soft", "cat", "."], task) is False
        assert rendered == []
        assert check_complete(["The", "soft", "cat", "sat", "down", "."], _task(*constraints)) is False
        assert len(rendered) == 1

    def test_word_length_is_checked_on_every_word(self):
        task = _task(MaxWordLen(3), require_period=False)
        assert check_complete(["ab", "abcd"], task) is False
        assert check_complete(["abc", "ab"], task) is True

    def test_forbidden_chars_are_checked_on_every_word(self):
        task = _task(ForbiddenChars("z"), require_period=False)
        assert check_complete(["ab", "az"], task) is False
        assert check_complete(["ab", "ba"], task) is True


_TYPES = (CharCountExact, WordCountRange, MaxWordLen, PositionLexical, MandatoryKeywords,
          KeywordSeparation, ForbiddenChars, StartsWith)
# the summary and every pruning datum a type can give, so a new one is barred from ``holds`` too;
# ``scans`` and ``per_word`` describe the clause, for the specification
_PRUNING_NAMES = {"PrefixSummary", "_Rules", "seen"} | {
    name for name in vars(cst.Constraint) if not name.startswith("_")} - {"scans", "per_word"}


SCOPE_WORDS = ("a", "bb", "ccc")


def small_scope_constraints():
    """Every constraint whose parameters range over the boundaries the words {a, bb, ccc} make, 64 in all."""
    pairs = list(itertools.combinations(SCOPE_WORDS, 2))
    return (
        [CharCountExact(n) for n in range(1, 14)]
        + [WordCountRange(lo, hi) for lo in (1, 2, 3) for hi in (*range(lo, 4), None)]
        + [MaxWordLen(limit) for limit in (1, 2, 3)]
        + [PositionLexical(position, w) for position in (1, 2, 3) for w in SCOPE_WORDS]
        + [MandatoryKeywords(ws) for ws in [(w,) for w in SCOPE_WORDS] + pairs]
        + [KeywordSeparation(ws, gap) for ws in pairs for gap in (1, 2)]
        + [ForbiddenChars(chars) for chars in ("a", "b", "c", "ab", "ac", "bc")]
        + [StartsWith(ws) for n in (1, 2) for ws in itertools.product(SCOPE_WORDS, repeat=n)]
    )


def test_per_word_clauses_hold_word_by_word_at_small_scope():
    """A ``per_word`` clause holds of a sentence exactly when it holds of each word alone.

    Over every per-word constraint of the small scope and every sentence of
    1-3 words over {a, bb, ccc}; and ``word_valid``, which asks the clause,
    admits a word exactly when the window's data test does.
    """
    constraints = [c for c in small_scope_constraints() if c.per_word]
    assert Counter(map(type, constraints)) == {MaxWordLen: 3, ForbiddenChars: 6}
    sentences = [p for n in (1, 2, 3) for p in itertools.product(SCOPE_WORDS, repeat=n)]
    for c in constraints:
        for content in sentences:
            alone = all(c.holds((w,), (w,)) for w in content)
            assert c.holds((*content, "."), content) == alone, (c, content)
        admits = summarize((), _task(c)).admits
        for w in SCOPE_WORDS:
            assert word_valid(w, (c,)) == admits(w), (c, w)


def test_complete_equals_check_complete_at_small_scope():
    """``complete()`` of every prefix of 0-3 words over {a, bb, ccc} equals ``check_complete``.

    Under every pair of the small scope's constraints, with and without the
    period: the floors, the pins and the required keywords answer as the specification does.
    """
    constraints = small_scope_constraints()
    assert len(constraints) == len(set(constraints)) == 64
    prefixes = [list(p) for n in range(4) for p in itertools.product(SCOPE_WORDS, repeat=n)]
    mismatches = []
    for pair in itertools.combinations(constraints, 2):
        for period in (True, False):
            task = _task(*pair, require_period=period)
            for words in prefixes:
                if summarize(words, task).complete() != check_complete(words + ["."] * period, task):
                    mismatches.append((pair, period, words))
    assert (len(mismatches), mismatches[:3]) == (0, [])


class _Needs(Constraint):
    """A test-only type that names its keyword in ``required_words`` and nowhere else."""

    scans = True

    def __init__(self, word):
        self.word = word

    required_words = property(lambda self: (self.word,))

    def holds(self, words, content):
        return self.word in content


class _Apart(Constraint):
    """A test-only type that names its keywords in ``separations`` and nowhere else."""

    scans = True

    def __init__(self, words, min_gap):
        self.words, self.min_gap = frozenset(words), min_gap

    separations = property(lambda self: ((self.words, self.min_gap),))

    def holds(self, words, content):
        hits = [j for j, w in enumerate(content) if w in self.words]
        return all(b - a - 1 >= self.min_gap for a, b in zip(hits, hits[1:]))


def test_a_keyword_named_once_is_tracked():
    """A type that names a keyword only as required, or only as separated, has it tracked all the same.

    The summary records where every required and every separated keyword
    stands, so under either type ``complete()`` equals ``check_complete``
    after each prefix of 0-3 words over {a, bb, ccc}, the window rejects the
    word a gap forbids, and the solver emits only sentences that pass
    ``check_complete``.
    """
    prefixes = [list(p) for n in range(4) for p in itertools.product(SCOPE_WORDS, repeat=n)]
    constraints = [_Needs(w) for w in SCOPE_WORDS] + [
        _Apart(ws, gap) for ws in itertools.combinations(SCOPE_WORDS, 2) for gap in (1, 2)]
    for c in constraints:
        task = _task(c)
        for words in prefixes:
            assert summarize(words, task).complete() == check_complete(words + ["."], task), (c, words)
    gap = _task(_Apart(("x", "y"), 1))
    assert summarize(["x"], gap).window(_cands(("y", -0.1), ("z", -0.2)), 2) == _cands(("z", -0.2))
    lm = TableLM({"": [("x", 0.9)], "x": [("y", 0.9)], "x y": [(".", 0.9)]})
    for task, expected in ((gap, []), (_task(_Needs("y")), ["x y."])):
        records = solve_all(task, lm, SolveOptions(max_variables=3))
        assert [r.sentence for r in records] == expected
        assert all(check_complete(r.words, task) for r in records)


def test_every_cap_is_a_number():
    """A clause that sets no cap gives ``sys.maxsize``, so the pruning merges and tests the caps with no None test."""
    constraints = small_scope_constraints()
    assert {type(c) for c in constraints} == set(_TYPES)
    assert [(c, name) for c in constraints for name in ("word_cap", "char_cap", "word_len_cap")
            if type(getattr(c, name)) is not int] == []
    assert WordCountRange(2).word_cap == CharCountExact(5).word_cap == sys.maxsize


# The admits_next hooks that the caps, the pins and the gaps replaced, as the five types defined them,
# except that the gap's finds the keywords in the prompt, not in ``seen``, so it also checks ``seen``.
def _char_count_next(self, prefix, word):
    space = 1 if prefix.count else 0  # none before the first word
    return len(prefix.prompt) + space + len(word) + prefix.rules.reserve <= self.n


def _word_count_next(self, prefix, word):
    return self.hi is None or prefix.count < self.hi


def _position_next(self, prefix, word):
    return prefix.count + 1 != self.position or word == self.word


def _starts_with_next(self, prefix, word):
    return prefix.count >= len(self.prefix) or word == self.prefix[prefix.count]


def _separation_next(self, prefix, word):
    keywords = {w.casefold() for w in self.words}
    if word.casefold() not in keywords:
        return True
    hits = [j for j, w in enumerate(prefix.prompt.split(), 1) if w.casefold() in keywords]
    return not hits or prefix.count - hits[-1] >= self.min_gap


_REMOVED_NEXT = {CharCountExact: _char_count_next, WordCountRange: _word_count_next,
                 PositionLexical: _position_next, StartsWith: _starts_with_next,
                 KeywordSeparation: _separation_next}


def _reference_admits(summary, word, constraints):
    """``summary.admits(word)`` as each constraint's word test and its removed hook; the other types admit."""
    return word_valid(word, constraints) and all(
        type(c) not in _REMOVED_NEXT or _REMOVED_NEXT[type(c)](c, summary, word) for c in constraints)


def test_caps_and_pins_admit_what_the_removed_hooks_did_at_small_scope():
    """``admits`` and ``window`` equal the hooks they replace, two pins at one position or two gaps on one word included.

    Under every pair of the small scope's constraints, with and without the
    period, after every prefix of 0-3 words over {a, bb, ccc}: each next word
    alone, and the window of a ranked answer that offers "." first and every
    word, at each k.
    """
    constraints = small_scope_constraints()
    pairs = list(itertools.combinations(constraints, 2))
    assert (PositionLexical(1, "bb"), StartsWith(("a",))) in pairs  # two words pinned at position 1
    assert (KeywordSeparation(("a", "bb"), 1), KeywordSeparation(("a", "ccc"), 2)) in pairs  # "a" has two gaps
    raw = _cands((".", -0.1), ("ccc", -0.2), ("a", -0.3), ("bb", -0.4))
    mismatches, checks = [], 0
    for pair in pairs:
        for period in (True, False):
            task = _task(*pair, require_period=period)
            level = [((), summarize((), task))]
            for _ in range(4):
                for words, summary in level:
                    for word in SCOPE_WORDS:
                        checks += 1
                        if summary.admits(word) != _reference_admits(summary, word, pair):
                            mismatches.append((pair, period, words, word))
                    for k in (1, 2, 3):
                        checks += 1
                        valid = [c for c in only_words(raw) if word_valid(c.text, pair)][:k]
                        expected = [c for c in valid if _reference_admits(summary, c.text, pair)]
                        if summary.window(raw, k) != expected:
                            mismatches.append((pair, period, words, k))
                level = [(words + (w,), summary.push(w)) for words, summary in level for w in SCOPE_WORDS]
    assert checks == 2016 * 2 * 40 * 6
    assert (len(mismatches), mismatches[:3]) == (0, [])


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
def test_each_type_carries_its_clause_and_schema(cls):
    assert {"holds", "schema"} <= vars(cls).keys()
    assert cls.scans == (cls in (CharCountExact, MaxWordLen, ForbiddenChars, MandatoryKeywords,
                                 KeywordSeparation))
    assert cls.per_word == (cls in (MaxWordLen, ForbiddenChars))


def test_no_type_has_a_pruning_hook():
    """A constraint is its fields, its clause and its pruning data: ``holds`` is the one public method of any type."""
    def methods(cls):
        return {name for name, value in vars(cls).items() if inspect.isfunction(value) and not name.startswith("_")}
    assert methods(Constraint) == set()
    assert {cls.__name__: methods(cls) for cls in _TYPES} == {cls.__name__: {"holds"} for cls in _TYPES}


def test_every_per_word_type_gives_its_word_test_as_data():
    """The window tests words by ``word_len_cap`` and ``forbidden`` alone, so a per-word type gives one of them."""
    assert [cls for cls in _TYPES if cls.per_word and not {"word_len_cap", "forbidden"} & vars(cls).keys()] == []


def test_the_task_file_types_are_the_classes_schemas():
    assert cst._CONSTRAINT_TYPES == {cls.schema[0]: cls for cls in _TYPES}
    assert sorted(cst._CONSTRAINT_TYPES) == [
        "char_count_exact", "forbidden_chars", "keyword_separation", "mandatory_keywords",
        "max_word_len", "position_lexical", "starts_with", "word_count_range",
    ]


@pytest.mark.parametrize("clause", [cls.holds for cls in _TYPES] + [word_valid],
                         ids=[cls.__name__ for cls in _TYPES] + ["word_valid"])
def test_no_clause_reads_the_pruning(clause):
    """``check_complete`` and ``word_valid`` are the specification the pruning is tested against, so they read none of it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(clause)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & _PRUNING_NAMES == set()


class TestBuiltinTask:
    def test_sent_1(self):
        assert builtin_task("sent-1").constraints == (CharCountExact(82),)

    def test_sent_2(self):
        constraints = builtin_task("sent-2").constraints
        assert WordCountRange(10, 10) in constraints
        assert PositionLexical(3, "soft") in constraints
        assert PositionLexical(7, "soft") in constraints
        assert PositionLexical(10, "math") in constraints

    def test_sent_3_limits_word_length(self):
        constraints = builtin_task("sent-3").constraints
        assert MaxWordLen(6) in constraints
        assert WordCountRange(20, None) in constraints

    def test_sent_4_and_star(self):
        plain = builtin_task("sent-4").constraints
        starred = builtin_task("sent-4*").constraints
        assert MandatoryKeywords({"soft", "beach", "math"}) in plain
        assert KeywordSeparation({"soft", "beach", "math"}, 3) in starred

    def test_demo_60(self):
        task = builtin_task("demo-60")
        assert task.seed == ("The",)
        assert StartsWith(("The",)) in task.constraints
        assert WordCountRange(10, 15) in task.constraints
        assert CharCountExact(60) in task.constraints
        assert task.ordering == "char-target:10"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError) as err:
            builtin_task("sent-9")
        for name in BUILTIN_TASK_NAMES:
            assert name in str(err.value)


class TestTaskSpec:
    def test_seed_must_be_valid(self):
        with pytest.raises(ValueError, match="seed word"):
            TaskSpec(name="bad", constraints=(ForbiddenChars("e"),), seed=("The",))

    def test_the_period_is_no_seed_word(self):
        """A seed "." would make the period a content word; words with a dot in them stay valid."""
        with pytest.raises(ValueError, match="seed word '.' is the final period"):
            TaskSpec(name="bad", constraints=(WordCountRange(1, 4),), seed=(".",), require_period=False)
        for seed in (("a.",), ("U.S.", "go"), ("a", "b.")):
            assert TaskSpec(name="ok", constraints=(WordCountRange(1, 4),), seed=seed).seed == seed

    def test_ordering_must_be_known(self):
        with pytest.raises(ValueError, match="unknown ordering 'bogus'; expected probability"):
            TaskSpec(name="bad", constraints=(), ordering="bogus")

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            CharCountExact(0)
        with pytest.raises(ValueError):
            WordCountRange(5, 2)
        with pytest.raises(ValueError):
            KeywordSeparation({"a"}, 0)


class TestTaskFile:
    def _write(self, tmp_path, payload):
        path = tmp_path / "task.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_full_roundtrip(self, tmp_path):
        payload = {
            "constraints": [
                {"type": "starts_with", "prefix": ["The"]},
                {"type": "word_count_range", "lo": 10, "hi": 15},
                {"type": "char_count_exact", "n": 60},
            ],
            "seed": ["The"],
            "k": 10,
            "temperature": 0.8,
            "require_period": True,
            "ordering": "char-target:10",
            "backtrack_to": 2,
        }
        task = load_task_file(self._write(tmp_path, payload))
        assert task.name == "task"
        assert task.seed == ("The",)
        assert task.lm_params.k == 10
        assert task.backtrack_to == 2
        assert CharCountExact(60) in task.constraints

    def test_name_is_the_path_stem(self, tmp_path):
        # the stem drops the last suffix only when a dot stands inside the name
        for filename, name in [("task.json", "task"), ("a.b.json", "a.b"), ("x.", "x."), ("..json", "."),
                               (".json", ".json"), ("plain", "plain")]:
            path = tmp_path / filename
            path.write_text("{}", encoding="utf-8")
            assert load_task_file(str(path)).name == name == Path(path).stem

    def test_unknown_top_level_key(self, tmp_path):
        path = self._write(tmp_path, {"constraints": [], "surprise": 1})
        with pytest.raises(ValueError, match="unknown keys"):
            load_task_file(path)

    def test_unknown_constraint_type(self, tmp_path):
        path = self._write(tmp_path, {"constraints": [{"type": "rhymes_with", "word": "cat"}]})
        with pytest.raises(ValueError, match="unknown constraint type"):
            load_task_file(path)

    def test_unknown_constraint_field(self, tmp_path):
        path = self._write(tmp_path, {"constraints": [{"type": "char_count_exact", "n": 5, "x": 1}]})
        with pytest.raises(ValueError, match="unknown keys"):
            load_task_file(path)

    def test_missing_constraint_field(self, tmp_path):
        path = self._write(tmp_path, {"constraints": [{"type": "max_word_len"}]})
        with pytest.raises(ValueError, match="missing"):
            load_task_file(path)

    def test_every_type_loads_as_built_and_rejects_a_wrong_field_type(self, tmp_path):
        payload = {"constraints": [
            {"type": "char_count_exact", "n": 60},
            {"type": "word_count_range", "lo": 2, "hi": 9},
            {"type": "max_word_len", "limit": 7},
            {"type": "position_lexical", "position": 3, "word": "soft"},
            {"type": "mandatory_keywords", "words": ["soft", "Math"]},
            {"type": "keyword_separation", "words": ["soft", "Math"], "min_gap": 2},
            {"type": "forbidden_chars", "chars": "qxz"},
            {"type": "starts_with", "prefix": ["The", "soft"]},
        ]}
        assert load_task_file(self._write(tmp_path, payload)).constraints == (
            CharCountExact(60), WordCountRange(2, 9), MaxWordLen(7), PositionLexical(3, "soft"),
            MandatoryKeywords({"soft", "Math"}), KeywordSeparation({"soft", "Math"}, 2),
            ForbiddenChars("qxz"), StartsWith(("The", "soft")),
        )
        wrong = [
            ({"type": "position_lexical", "position": "3", "word": "soft"},
             "'position_lexical' constraint: 'position' must be an integer, got '3'"),
            ({"type": "keyword_separation", "words": ["soft", ""], "min_gap": 2},
             "'keyword_separation' constraint: 'words' must be a list of non-empty strings,"
             " got ['soft', '']"),
            ({"type": "forbidden_chars", "chars": ["q"]},
             "'forbidden_chars' constraint: 'chars' must be a string, got ['q']"),
        ]
        for entry, message in wrong:
            with pytest.raises(ValueError) as err:
                load_task_file(self._write(tmp_path, {"constraints": [entry]}))
            assert str(err.value) == message

    def test_unbounded_word_count(self, tmp_path):
        path = self._write(tmp_path, {"constraints": [{"type": "word_count_range", "lo": 20}]})
        task = load_task_file(path)
        assert WordCountRange(20, None) in task.constraints


class TestFilterSoundness:
    def test_removed_words_lead_nowhere(self):
        # brute force: whenever filtering drops a word, no completion of
        # partial+word (over the raw table, unfiltered) may check out complete
        rng = random.Random(20240901)
        tasks = [
            _task(CharCountExact(16)),
            _task(ForbiddenChars("e"), WordCountRange(1, 4)),
            _task(WordCountRange(2, 3), MandatoryKeywords({"sun"})),
        ]
        for trial in range(6):
            lm = random_table(rng, depth=5, branching=3, period_prob=0.7)
            task = tasks[trial % len(tasks)]
            params = task.lm_params

            def completions(words, depth):
                yield list(words)
                if depth == 0:
                    return
                for cand in lm.predict(render_prefix(words), replace(params, k=3)):
                    if cand.text == ".":
                        continue
                    yield from completions(words + [cand.text], depth - 1)

            def check_node(words, depth):
                raw = lm.predict(render_prefix(words), replace(params, k=3))
                cands = only_words(raw)
                kept = {c.text for c in summarize(words, task).window(cands, len(cands))}
                for cand in cands:
                    if cand.text in kept:
                        continue
                    for completion in completions(words + [cand.text], 5 - len(words) - 1):
                        final = completion + ["."] if task.require_period else completion
                        assert not check_complete(final, task), (
                            f"{cand.text!r} was filtered at {words} but {completion} completes"
                        )
                if depth == 0:
                    return
                for cand in cands:
                    check_node(words + [cand.text], depth - 1)

            check_node([], 3)

    def test_complete_implies_extendable_prefixes(self):
        task = builtin_task("demo-60")
        words = _words_of(DEMO_SENTENCE_1)
        content = words[:-1]
        assert check_complete(words, task)
        for i in range(len(content)):
            assert summarize(content[:i], task).can_extend()
