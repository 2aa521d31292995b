import copy
import dataclasses
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gencp.solver
from gencp import (
    ForbiddenChars,
    LMParams,
    SolutionRecord,
    SolveOptions,
    TableLM,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    check_complete,
    render_prefix,
    render_sentence,
    run_search,
    solve,
    solve_all,
    summarize,
    variability,
)
from gencp.lm import ranked_period
from gencp.model import has_whitespace
from gencp.solver import generate_variable

from conftest import PromptLog, random_table


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

    def test_rejects_a_nan_logprob(self):
        with pytest.raises(ValueError, match="logprob must be <= 0"):
            WordCandidate("x", float("nan"))

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


EMPTY_TASK = TaskSpec(name="empty", constraints=())


def _cands(*pairs):
    return [WordCandidate(text, lp) for text, lp in pairs]


def _task(*constraints, seed=(), k=3):
    return TaskSpec(name="t", constraints=constraints, seed=seed, lm_params=LMParams(k=k))


def _levels(levels):
    """A table whose prefixes of i words offer level i's words in order, and "." after the last level."""
    table = {}
    for depth, level in enumerate(levels + [["."]]):
        for prefix in itertools.product(*levels[:depth]):
            table[render_prefix(prefix)] = [(word, 0.5 / 2**i) for i, word in enumerate(level)]
    return TableLM(table)


def _sentences(records):
    return [r.sentence for r in records]


class TestDomain:
    """A domain is the list ``generate_variable`` makes of a node's answer."""

    def test_rejects_duplicates(self):
        # no answer repeats a word (``test_lm.py::test_no_backend_answers_a_word_twice``),
        # so neither does a domain drawn from it
        with pytest.raises(ValueError, match="duplicate"):
            TableLM({"": [("a", 0.5), ("a", 0.2)]})

    def test_emptiness(self, fig_lm, fig_task):
        """An empty domain ("A boy" has no answer) counts as made and is a dead end: one backtrack lands on "man"."""
        lm = PromptLog(fig_lm)
        outcome = run_search(fig_task, lm, SolveOptions(max_solutions=1))
        assert lm.prompts[:3] == ["A", "A boy", "A man"]
        assert (outcome.stats.lm_calls, outcome.stats.backtracks) == (4, 1)


class TestCurrentSentence:
    """The search asks about the seed's rendering first, as its root prompt."""

    def _first_prompt(self, seed):
        lm = PromptLog(TableLM({}))
        run_search(_task(seed=seed), lm)
        return lm.prompts

    def test_two_words(self):
        assert self._first_prompt(("A", "man")) == ["A man"]

    def test_empty_model(self):
        assert self._first_prompt(()) == [""]

    def test_single_seed(self):
        assert self._first_prompt(("The",)) == ["The"]


class TestTrail:
    """The frames are the trail: each cursor marks the values its variable has tried."""

    def test_failed_backtrack_leaves_no_variable(self):
        lm = PromptLog(TableLM({"A man": [("drinks", 0.5)]}))
        outcome = run_search(_task(seed=("A", "man")), lm)
        # "drinks" leads nowhere and no value is left untried: the search ends
        assert (outcome.solutions, lm.prompts) == ([], ["A man", "A man drinks"])
        assert (outcome.stats.backtracks, outcome.stats.lm_calls) == (0, 2)

    def test_stack_discipline(self):
        lm = PromptLog(TableLM({"": [("a", 0.5), ("b", 0.2)], "a": [("x", 0.5), ("y", 0.2)],
                                "a x": [("z", 0.5)]}))
        outcome = run_search(_task(), lm)
        # the first backtrack lands on x2's next value, the second on x1's
        assert lm.prompts == ["", "a", "a x", "a x z", "a y", "b"]
        assert outcome.stats.backtracks == 2

    def test_backtrack_empty_trail(self):
        lm = PromptLog(TableLM({}))
        outcome = run_search(_task(), lm)
        assert (outcome.solutions, lm.prompts, outcome.stats.backtracks) == ([], [""], 0)

    def test_exhausted_level_pops_further(self):
        # x1 in {a, b}, x2 in {x, y, z}: the solutions come in the order
        # (a,x) (a,y) (a,z) (b,x) (b,y) (b,z), each reached with its own word count
        lm = _levels([["a", "b"], ["x", "y", "z"]])
        outcome = run_search(_task(WordCountRange(2, 2)), lm, exhaustive=True)
        assert _sentences(outcome.solutions) == ["a x.", "a y.", "a z.", "b x.", "b y.", "b z."]
        assert outcome.stats.backtracks == 5

    def test_no_assignment_revisited(self):
        lm = PromptLog(_levels([["a", "b", "c"]]))
        assert _sentences(solve_all(_task(), lm)) == ["a.", "b.", "c."]
        assert lm.prompts == ["", "a", "b", "c"]

    @settings(max_examples=100)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_backtracking_visits_the_product_order(self, widths):
        # Every variable offers the same values below each prefix, so the
        # search lands on them as itertools.product enumerates them.
        levels = [["abcd"[i] * (j + 1) for j in range(width)] for i, width in enumerate(widths)]
        outcome = run_search(_task(k=3), _levels(levels), exhaustive=True)
        product = list(itertools.product(*levels))
        assert [r.words[:-1] for r in outcome.solutions] == product
        assert outcome.stats.backtracks == len(product) - 1


class TestBacktrackTo:
    def test_deletes_tail_and_changes_target(self):
        words = ["I", "like", "to", "swim", "in", "the", "summer"]
        table = {render_prefix(words[:n]): [(words[n], 0.5)] for n in range(len(words))}
        table.update({render_prefix(words): [(".", 1.0)], "I": [("like", 0.5), ("want", 0.3)],
                      "I want": [("tea", 0.5)], "I want tea": [(".", 1.0)]})
        lm = PromptLog(TableLM(table))
        outcome = run_search(_task(), lm, SolveOptions(backtrack_to=2))
        assert _sentences(outcome.solutions) == ["I like to swim in the summer.", "I want tea."]
        assert lm.prompts[len(words) + 1:] == ["I want", "I want tea"]
        assert outcome.stats.backtracks == 1

    def test_singleton_target_fails(self):
        # x1 has no value left, so jumping to it ends the search before "The dog."
        lm = _levels([["The"], ["cat", "dog"]])
        assert _sentences(solve(_task(), lm, SolveOptions(backtrack_to=1))) == ["The cat."]

    def test_nothing_to_delete(self):
        # a target at the solution's last position backtracks chronologically
        lm = _levels([["The"], ["cat", "dog"]])
        assert _sentences(solve(_task(), lm, SolveOptions(backtrack_to=2))) == ["The cat.", "The dog."]

    def test_falls_through_when_target_exhausted(self):
        lm = TableLM({"": [("I", 0.5), ("We", 0.3)], "I": [("like", 0.5)], "I like": [("tea", 0.5)],
                      "I like tea": [(".", 1.0)], "We": [("go", 0.5)], "We go": [(".", 1.0)]})
        # x2 has no alternative, so the jump lands on x1 instead
        assert _sentences(solve(_task(), lm, SolveOptions(backtrack_to=2))) == ["I like tea.", "We go."]

    def test_a_target_inside_the_seed_ends_the_search(self):
        lm = _levels([["A"], ["man"], ["drinks", "eats"], ["milk", "tea"]])
        task = _task(seed=("A", "man"))
        assert len(solve_all(task, lm)) == 4
        assert _sentences(solve(task, lm, SolveOptions(backtrack_to=1))) == ["A man drinks milk."]


def _copying_search(task, lm, opts):
    """The search loop on copied state: (solution words, prompts asked, backtracks).

    Every move builds a new tuple of (values, cursor) frames, and each node's
    words, summary and prompt are made from scratch, so nothing carries over
    from one node to the next.
    """
    period = ["."] if task.require_period else []
    seed = tuple(task.seed)
    frames, found, asked, backtracks = (), [], [], 0
    while True:
        words = seed + tuple(values[cursor].text for values, cursor in frames)
        summary = summarize(words, task)
        grows = len(words) < opts.max_variables and summary.can_extend()
        whole = check_complete(list(words) + period, task)
        raw = None
        if (grows or whole) if task.require_period else (grows and not whole):
            asked.append(render_prefix(words))
            raw = lm.predict(render_prefix(words), task.lm_params)
        if whole and (not task.require_period or ranked_period(raw, task.lm_params.k) is not None):
            found.append(words + tuple(period))
            if len(found) == opts.max_solutions:
                break
            if opts.backtrack_to is not None and opts.backtrack_to < len(words):
                frames = frames[:max(opts.backtrack_to - len(seed), 0)]
        elif grows:
            values = generate_variable(summary, raw, task)
            if values:
                frames = frames + ((values, 0),)
                continue
        while frames and frames[-1][1] + 1 == len(frames[-1][0]):
            frames = frames[:-1]
        if not frames:
            break
        frames = frames[:-1] + ((frames[-1][0], frames[-1][1] + 1),)
        backtracks += 1
    return found, asked, backtracks


class TestIncrementalState:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from([None, 1, 2, 3]),
           st.sampled_from([None, 1, 3]), st.booleans())
    # a jump target inside a two-word seed, below two variables
    @example(draw=1, seed_len=2, jump_to=1, cap=None, require_period=True)
    def test_matches_copying_trail(self, draw, seed_len, jump_to, cap, require_period):
        rng = random.Random(draw)
        seed = tuple(rng.sample(["at", "in", "up"], seed_len))
        lm = random_table(rng, seed_words=seed, depth=4, branching=3, period_prob=0.6)
        task = TaskSpec(name="t", constraints=(WordCountRange(2, 4), ForbiddenChars("o")), seed=seed,
                        lm_params=LMParams(k=2), require_period=require_period)
        opts = SolveOptions(max_solutions=cap, backtrack_to=jump_to, max_variables=6)
        log = PromptLog(lm)
        outcome = run_search(task, log, opts)
        found, asked, backtracks = _copying_search(task, lm, opts)
        assert [r.words for r in outcome.solutions] == found
        assert (log.prompts, outcome.stats.backtracks) == (asked, backtracks)


class TestContainsEmptyVariable:
    def test_empty_generated_domain(self):
        # as after a failed prediction
        assert generate_variable(summarize(["A", "boy"], EMPTY_TASK), [], EMPTY_TASK) == []

    def test_fresh_model_with_values(self):
        raw = _cands(("man", -0.5))
        assert generate_variable(summarize(["A"], EMPTY_TASK), raw, EMPTY_TASK) == raw

    def test_fully_filtered_domain(self):
        task = TaskSpec(name="t", constraints=(ForbiddenChars("e"),), require_period=False)
        raw = _cands(("the", -0.3), ("he", -0.9))
        assert generate_variable(summarize(["A"], task), raw, task) == []


class TestLeftToRightInvariant:
    def test_assignment_prefix_is_contiguous(self, monkeypatch, fig_lm, fig_task):
        """Each node's prompt renders exactly the words its summary counts, the seed's first."""
        counts = []
        grows = gencp.solver._grows
        monkeypatch.setattr(gencp.solver, "_grows",
                            lambda summary, cap: counts.append(summary.count) or grows(summary, cap))
        lm = PromptLog(fig_lm)
        run_search(fig_task, lm, SolveOptions(max_variables=8), exhaustive=True)
        assert [len(prompt.split(" ")) for prompt in lm.prompts] == counts == [1, 2, 2, 3, 4, 3]
        assert all(prompt.startswith("A") for prompt in lm.prompts)


class TestSolutionRecord:
    def test_roundtrip(self):
        rec = SolutionRecord(words=("A", "man", "."), ppl=2.0, discovered_at=0.1)
        assert rec.sentence == "A man."
