import io
import itertools
import math
import random
import re
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencp import (
    LMParams,
    LanguageModel,
    NGramLM,
    RemoteLM,
    SolveOptions,
    TableLM,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    beam_search,
    perplexity,
    predicts_period,
    render_prefix,
    sequence_logprob,
    solve_all,
    tokenize,
    train_ngram,
)
from gencp.lm import MAX_NGRAM_ORDER, PROB_FLOOR, _as_candidate, _rank

PARAMS = LMParams(k=3)

SCORING_PARAMS = LMParams(k=2, oversample=2)
SCORING_VOCAB = ("a", "an", "the", "cat", "Cat", "sat", "on", "mat", "U.S.", "'s", "3rd", "-")

TABLE_PREFIXES = ("", "a", "a cat", "the U.S.", "Cat 's")
TABLE_VOCAB = ("a", "b", "cat", "Cat", "the", "U.S.", "'s", ".")

FIG4_TABLE = {
    "": [("A", 1.0)],
    "A": [("man", 0.5), ("house", 0.3), ("boy", 0.2)],
}


class TestLMParams:
    def test_defaults_are_valid(self):
        LMParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"top_k": 0},
            {"top_p": 0.0},
            {"top_p": 1.5},
            {"temperature": 0.0},
            {"oversample": 0},
            {"k": 50, "top_k": 10, "oversample": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LMParams(**kwargs)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_rejects_a_non_finite_temperature(self, temperature):
        # NaN passes a plain "<= 0" test; a remote backend would then send it as bare NaN
        message = f"^temperature must be a finite number > 0, got {temperature!r}$"
        with pytest.raises(ValueError, match=message):
            LMParams(temperature=temperature)


class TestTableLM:
    def test_ranked_by_probability(self):
        lm = TableLM(FIG4_TABLE)
        assert [c.text for c in lm.predict("A", replace(PARAMS, k=3))] == ["man", "house", "boy"]

    def test_unknown_prefix_is_empty(self):
        assert TableLM(FIG4_TABLE).predict("A boy", PARAMS) == []

    def test_truncates_to_k_times_oversample(self):
        table = {"": [(f"w{i:02d}", 0.9 / 2 ** (i + 1)) for i in range(12)]}
        lm = TableLM(table)
        params = LMParams(k=2, oversample=2)
        assert len(lm.predict("", params)) == 4

    def test_ties_break_lexicographically(self):
        lm = TableLM({"": [("zebra", 0.3), ("apple", 0.3), ("mango", 0.3)]})
        assert [c.text for c in lm.predict("", PARAMS)] == ["apple", "mango", "zebra"]

    def test_rejects_oversubscribed_prefix(self):
        with pytest.raises(ValueError, match="sum"):
            TableLM({"": [("a", 0.7), ("b", 0.6)]})

    def test_rejects_duplicate_words(self):
        with pytest.raises(ValueError, match="duplicate word 'a' under prefix ''"):
            TableLM({"": [("a", 0.3), ("a", 0.2)]})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TableLM({"": [("a", 0.0)]})
        with pytest.raises(ValueError):
            TableLM({"": [("a", 1.2)]})

    def test_accepts_candidates_directly(self):
        lm = TableLM({"": [WordCandidate("a", math.log(0.5))]})
        assert lm.predict("", PARAMS)[0].logprob == math.log(0.5)

    @pytest.mark.parametrize("entries, answer", [
        ([("a", 0.5)], [WordCandidate("a", math.log(0.5))]),
        ([WordCandidate("a", -0.75)], [WordCandidate("a", -0.75)]),
        ([], []),
    ], ids=["pair", "candidate", "empty"])
    def test_a_prefix_with_one_entry_or_none_loads_its_candidates(self, entries, answer):
        lm = TableLM({"x": entries})
        assert lm.predict("x", PARAMS) == answer
        assert all(type(c) is WordCandidate for c in lm.predict("x", PARAMS))
        assert lm.conditional_logprob("x", "a", PARAMS) == (answer[0].logprob if answer else None)

    def test_a_caller_changing_its_lists_changes_no_answer(self):
        table = {"": [("a", 0.5), ("b", 0.25)], "a": [WordCandidate("c", -0.5)], "b": [("d", 1.0)]}
        lm = TableLM(table)

        def answers():
            return [(lm.predict(p, PARAMS), [lm.conditional_logprob(p, w, PARAMS) for w in "abcdz"])
                    for p in table]

        before = answers()
        for entries in table.values():
            entries.append(("z", 0.01))
            entries[0] = ("z", 0.02)
        assert answers() == before

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("\tThe\t1.0\nThe\tcat\t0.6\nThe\tdog\t0.3\n", encoding="utf-8")
        lm = TableLM.from_file(path)
        assert [c.text for c in lm.predict("", PARAMS)] == ["The"]
        assert [c.text for c in lm.predict("The", PARAMS)] == ["cat", "dog"]

    def test_file_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("just one field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 tab-separated"):
            TableLM.from_file(path)

    def test_file_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.tbl"
        path.write_text("\ta\t0.2\n\ta\t0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate") as err:
            TableLM.from_file(path)
        assert str(err.value) == f"{path}: duplicate word 'a' under prefix ''"

    @pytest.mark.parametrize("text, message", [
        # line 1 is read before line 2 is; the whole file was once parsed first
        ("\ta\t1.5\njust one field\n", "1: probability for 'a' must be in (0, 1], got 1.5"),
        ("\ta\t0.5\n\n\t\t0.2\n", "3: candidate text is empty"),
        ("\ta b\t0.2\n\ta\t0.0\n", "1: candidate text contains whitespace: 'a b'"),
    ], ids=["first-bad-line", "empty", "whitespace"])
    def test_file_names_the_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "bad.tbl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
            TableLM.from_file(path)

    @pytest.mark.parametrize("entries, message", [
        ([("a", 0.7), ("b", 0.6)], "probabilities under prefix 'x y' sum to 1.300000 > 1"),
        ([("a", 0.3), ("b", 0.1), ("a", 0.2)], "duplicate word 'a' under prefix 'x y'"),
    ], ids=["sum", "duplicate"])
    def test_file_and_dict_reject_a_prefix_alike(self, tmp_path, entries, message):
        path = tmp_path / "bad.tbl"
        path.write_text("\tx\t1.0\n" + "".join(f"x y\t{w}\t{p}\n" for w, p in entries),
                        encoding="utf-8")
        with pytest.raises(ValueError) as from_dict:
            TableLM({"": [("x", 1.0)], "x y": entries})
        with pytest.raises(ValueError) as from_file:
            TableLM.from_file(path)
        assert str(from_dict.value) == message
        assert str(from_file.value) == f"{path}: {message}"

    def test_file_loads_as_the_dict_constructor_on_random_tables(self, tmp_path):
        rng = random.Random(25)
        path = tmp_path / "t.tbl"
        for _ in range(200):
            table = {}
            for prefix in rng.sample(TABLE_PREFIXES, rng.randint(1, len(TABLE_PREFIXES))):
                words = rng.sample(TABLE_VOCAB, rng.choice((1, 1, 2, 3, len(TABLE_VOCAB))))
                weights = [rng.randint(1, 2) for _ in words]  # equal weights tie
                table[prefix] = list(zip(words, weights))
            entries = _probabilities(table)
            lines = [f"{prefix}\t{word}\t{prob!r}" for prefix in entries for word, prob in entries[prefix]]
            rng.shuffle(lines)
            lines[rng.randrange(len(lines)):0] = [""] * rng.randint(0, 2)
            assert _loads_alike(path, lines, entries)

    @settings(derandomize=True)
    @given(st.data())
    def test_file_loads_as_the_dict_constructor(self, tmp_path_factory, data):
        prefixes = data.draw(st.lists(st.sampled_from(TABLE_PREFIXES), min_size=1, unique=True))
        table = {}
        for prefix in prefixes:
            words = data.draw(st.lists(st.sampled_from(TABLE_VOCAB), min_size=1, unique=True))
            weights = data.draw(st.lists(st.integers(1, 3), min_size=len(words), max_size=len(words)))
            table[prefix] = list(zip(words, weights))
        entries = _probabilities(table)
        lines = data.draw(st.permutations(
            [f"{prefix}\t{word}\t{prob!r}" for prefix in entries for word, prob in entries[prefix]]
            + [""] * data.draw(st.integers(0, 2))))
        assert _loads_alike(tmp_path_factory.mktemp("tables") / "t.tbl", lines, entries)

    def test_file_ranks_only_the_prefixes_with_several_entries(self, tmp_path, monkeypatch):
        ranked = []

        def counting(candidates):
            candidates = list(candidates)
            ranked.append(sorted(c.text for c in candidates))
            return _rank(candidates)

        monkeypatch.setattr("gencp.lm._rank", counting)
        path = tmp_path / "t.tbl"
        path.write_text("\ta\t1.0\na\tb\t0.5\na b\t.\t0.25\n", encoding="utf-8")
        TableLM.from_file(path)
        assert ranked == []
        path.write_text("\ta\t0.5\n\tb\t0.5\na\tc\t1.0\nb\tc\t0.2\nb\td\t0.3\nb\te\t0.1\n",
                        encoding="utf-8")
        lm = TableLM.from_file(path)
        assert sorted(ranked) == [["a", "b"], ["c", "d", "e"]]
        assert [c.text for c in lm.predict("b", PARAMS)] == ["d", "c", "e"]

    def test_file_loads_in_linear_time(self, tmp_path):
        n = 20_000
        path = tmp_path / "wide.tbl"
        path.write_text("".join(f"\tw{i}\t{0.5 / n}\n" for i in range(n)), encoding="utf-8")
        started = time.perf_counter()
        lm = TableLM.from_file(path)
        # A file of 20,000 words under one prefix loads in about 0.1 s on a
        # 2-vCPU host; a scan of the prefix's words for each line took 14 s.
        assert time.perf_counter() - started < 2.0
        assert lm.conditional_logprob("", f"w{n - 1}", PARAMS) == math.log(0.5 / n)

    def test_determinism(self):
        lm = TableLM(FIG4_TABLE)
        assert lm.predict("A", PARAMS) == lm.predict("A", PARAMS)

    @given(st.data())
    def test_scores_every_word_as_the_lookup_dict_did(self, data):
        """``conditional_logprob`` equals the ``{word: logprob}`` dict TableLM once kept per prefix.

        Some prefixes offer more words than a ``predict`` window holds
        (k x oversample = 4 here), and every word is scored, also one ranked
        past the window.
        """
        window = SCORING_PARAMS.k * SCORING_PARAMS.oversample
        paths = data.draw(st.lists(st.lists(st.sampled_from(SCORING_VOCAB), max_size=3),
                                   min_size=1, max_size=6, unique_by=render_prefix))
        table = {}
        for i, words in enumerate(paths):
            offered = data.draw(st.lists(st.sampled_from(SCORING_VOCAB + (".",)), unique=True,
                                         min_size=window + 1 if i == 0 else 1, max_size=window + 5))
            weights = data.draw(st.lists(st.integers(1, 4), min_size=len(offered),
                                         max_size=len(offered)))
            table[render_prefix(words)] = [
                (word, 0.99 * w / sum(weights)) for word, w in zip(offered, weights)]
        lm = TableLM(table)
        for words in paths:
            ranked = _rank(_as_candidate(e) for e in table[render_prefix(words)])
            lookup = {c.text: c.logprob for c in ranked}  # the reference
            for word in lookup:
                assert lm.conditional_logprob(render_prefix(words), word, SCORING_PARAMS) == lookup[word]
            for word in set(SCORING_VOCAB) - lookup.keys():
                assert lm.conditional_logprob(render_prefix(words), word, SCORING_PARAMS) is None
        unknown = [w for w in SCORING_VOCAB if w not in table]
        assert all(lm.conditional_logprob(w, "a", SCORING_PARAMS) is None for w in unknown)


def _probabilities(weighted):
    """``weighted``'s entries, each weight turned into its share of 0.99 under its prefix."""
    return {prefix: [(word, 0.99 * w / sum(w for _, w in entries)) for word, w in entries]
            for prefix, entries in weighted.items()}


def _loads_alike(path, lines, table):
    """Whether ``lines``, written to ``path``, load to the lists ``TableLM(table)`` holds."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return TableLM.from_file(path)._table == TableLM(table)._table


def _unreadable_hint():
    raise AssertionError("the prefetch hint was iterated")
    yield


class TestPrefetchHint:
    def test_local_backends_never_iterate_the_hint(self):
        for lm in (TableLM(FIG4_TABLE), train_ngram("the cat sat .", order=1)):
            lm.prefetch(_unreadable_hint(), PARAMS)
            lm.prefetch(_unreadable_hint(), replace(PARAMS, k=1))
            lm.cancel_prefetch()


class TestScoringDefault:
    """``conditional_logprob`` reads a word from the answer ``predict`` gives the same prompt.

    The table and the n-gram model hold more than their answers and score
    also the words ranked past them; ``remote:`` knows only its answers.
    """

    # A window of 4 candidates, at k=2 as at k=1 with the default
    # oversample; "e" ranks 5th at the root.
    TABLE = {
        "": [("a", 0.3), ("b", 0.25), ("c", 0.2), ("d", 0.15), ("e", 0.05)],
        "e": [(".", 0.5)],
    }
    CORPUS = "a b a c . d e . b a . c a a e ."
    PARAMS = LMParams(k=2, oversample=2)
    WIDE = LMParams(k=10)
    BACKENDS = ["table", "ngram-0", "ngram-1", "remote"]

    @pytest.fixture
    def make(self, stub_server):
        """Builds the backend a test names; closes the remote clients afterwards."""
        clients = []

        def make(name):
            if name == "table":
                return TableLM(self.TABLE)
            if name.startswith("ngram"):
                return train_ngram(self.CORPUS, order=1, smoothing=float(name[-1]))
            clients.append(RemoteLM(stub_server(self.TABLE).url))
            return clients[-1]

        yield make
        for lm in clients:
            lm.close()

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("prompt", ["", "e", "b", "zzz"], ids=["root", "e", "b", "unknown"])
    def test_each_candidate_scores_its_own_logprob(self, make, name, prompt):
        lm = make(name)
        for cand in lm.predict(prompt, self.PARAMS):
            assert lm.conditional_logprob(prompt, cand.text, self.PARAMS) == cand.logprob
        assert lm.conditional_logprob(prompt, "zzz", self.PARAMS) is None

    @pytest.mark.parametrize("name", BACKENDS)
    def test_a_word_past_the_answer_is_scored_by_local_backends_alone(self, make, name):
        lm = make(name)
        answer = lm.predict("", self.PARAMS)
        past = lm.predict("", self.WIDE)[len(answer):]
        assert past
        for cand in past:
            got = lm.conditional_logprob("", cand.text, self.PARAMS)
            assert got == (None if name == "remote" else cand.logprob)

    @pytest.mark.parametrize("name, ppl", [("table", 6.32), ("remote", 141_421.36)])
    def test_a_seed_word_past_the_answer_costs_remote_the_floor(self, make, name, ppl):
        """Seed ("e",): sqrt(1 / (0.05 * 0.5)) from the table, sqrt(1 / (1e-10 * 0.5)) from the server."""
        lm = make(name)
        task = TaskSpec(name="seeded", constraints=(WordCountRange(1, 2),), seed=("e",),
                        lm_params=LMParams(k=1))
        for records in (solve_all(task, lm), beam_search(task, lm)[0]):
            assert [(r.sentence, round(r.ppl, 2)) for r in records] == [("e.", ppl)]


class TestSequenceLogProb:
    def test_hand_computed_chain(self):
        lm = TableLM(FIG4_TABLE)
        # P(A|"") = 1.0, P(man|"A") = 0.5
        assert sequence_logprob(lm, ["A", "man"], PARAMS) == pytest.approx(math.log(0.5))

    def test_certain_word_scores_zero(self):
        lm = TableLM({"": [("A", 1.0)]})
        assert sequence_logprob(lm, ["A"], PARAMS) == 0.0

    def test_unknown_word_hits_floor(self):
        lm = TableLM(FIG4_TABLE)
        got = sequence_logprob(lm, ["zzz"], PARAMS)
        assert got == pytest.approx(math.log(PROB_FLOOR))

    def test_empty_sequence_errors(self):
        with pytest.raises(ValueError, match="empty"):
            sequence_logprob(TableLM(FIG4_TABLE), [], PARAMS)

    def test_scores_each_word_after_its_rendered_prefix_in_word_order(self):
        """Every word list over {"a", "bb", "."} up to 5 words, "." also inside it."""

        def score(sentence, word):
            return None if word == "bb" and len(sentence) % 3 == 0 else -(len(sentence) + 1) / 7

        class Recording(LanguageModel):
            def conditional_logprob(self, sentence, word, params):
                asked.append(sentence)
                return score(sentence, word)

        for n in range(1, 6):
            for words in itertools.product(("a", "bb", "."), repeat=n):
                asked = []
                got = sequence_logprob(Recording(), words, PARAMS)
                prompts = [render_prefix(words[:i]) for i in range(n)]
                assert asked == prompts
                expected = 0.0  # the reference: every prefix rendered anew, summed in word order
                for prompt, word in zip(prompts, words):
                    lp = score(prompt, word)
                    expected += math.log(PROB_FLOOR) if lp is None else lp
                assert got == expected


class TestPerplexity:
    def test_uniform_binary_chain(self):
        table = {"": [("a", 0.5), ("b", 0.5)], "a": [("a", 0.5), ("b", 0.5)],
                 "a b": [("a", 0.5), ("b", 0.5)]}
        lm = TableLM(table)
        assert perplexity(lm, ["a"], PARAMS) == pytest.approx(2.0)
        assert perplexity(lm, ["a", "b"], PARAMS) == pytest.approx(2.0)

    def test_mixed_conditionals(self):
        lm = TableLM({"": [("a", 1.0)], "a": [("b", 0.25), ("c", 0.75)]})
        # (1 / (1.0 * 0.25)) ** (1/2) = 2
        assert perplexity(lm, ["a", "b"], PARAMS) == pytest.approx(2.0)

    def test_certain_sequence_is_one(self):
        lm = TableLM({"": [("a", 1.0)], "a": [("b", 1.0)]})
        assert perplexity(lm, ["a", "b"], PARAMS) == pytest.approx(1.0)

    def test_matches_definition(self):
        lm = TableLM(FIG4_TABLE)
        words = ["A", "man"]
        n = len(words)
        assert perplexity(lm, words, PARAMS) == math.exp(-sequence_logprob(lm, words, PARAMS) / n)


class TestPredictsPeriod:
    def test_no_period_in_answer(self):
        assert predicts_period(TableLM(FIG4_TABLE), "A", PARAMS) is False

    def test_period_present(self):
        lm = TableLM({"done": [(".", 1.0)]})
        assert predicts_period(lm, "done", PARAMS) is True

    def test_period_outside_top_k(self):
        lm = TableLM({"x": [("more", 0.6), (".", 0.4)]})
        assert predicts_period(lm, "x", LMParams(k=1)) is False
        assert predicts_period(lm, "x", LMParams(k=2)) is True

    def test_empty_sentence_errors(self):
        with pytest.raises(ValueError):
            predicts_period(TableLM(FIG4_TABLE), "", PARAMS)


class TestTokenize:
    def test_words_and_periods(self):
        assert tokenize("A man, his dog. End.") == ["A", "man", "his", "dog", ".", "End", "."]

    def test_keeps_internal_marks(self):
        assert tokenize("don't re-do") == ["don't", "re-do"]


class TestTrainNGram:
    def test_observed_bigram_is_certain(self):
        lm = train_ngram("a b a b", order=1, smoothing=0.0)
        assert lm.conditional_logprob("a", "b", PARAMS) == pytest.approx(0.0)

    def test_laplace_unseen_pair(self):
        # vocab {a, b}; context "a" seen twice; unseen continuation gets 1/(2+2)
        lm = train_ngram("a b a b", order=1, smoothing=1.0)
        assert lm.conditional_logprob("a", "a", PARAMS) == pytest.approx(math.log(1 / 4))
        assert lm.conditional_logprob("a", "b", PARAMS) == pytest.approx(math.log(3 / 4))

    def test_single_word_corpus_has_unigram_only(self):
        lm = train_ngram("hello", order=1)
        assert lm._counts[1] == {}
        assert [c.text for c in lm.predict("", PARAMS)] == ["hello"]

    def test_uniform_vocabulary(self):
        lm = train_ngram("a b c d", order=1, smoothing=1.0)
        cands = lm.predict("", LMParams(k=4))
        assert len(cands) == 4
        for cand in cands:
            assert cand.logprob == pytest.approx(math.log(0.25))

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_ngram("   \n", order=1)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            train_ngram("a b", order=0)

    def test_accepts_stream(self):
        lm = train_ngram(io.StringIO("a b a b"), order=1, smoothing=0.0)
        assert lm.conditional_logprob("a", "b", PARAMS) == pytest.approx(0.0)

    def test_conditionals_sum_to_one(self):
        lm = train_ngram("the cat sat on the mat . the dog ran .", order=2, smoothing=0.5)
        for context in ([], ["the"], ["the", "cat"], ["unseen", "pair"]):
            dist = lm._distribution(context)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_word_is_absent(self):
        lm = train_ngram("a b a b", order=1, smoothing=1.0)
        assert lm.conditional_logprob("a", "zzz", PARAMS) is None

    def test_determinism(self):
        a = train_ngram("the cat sat . the cat ran .", order=2)
        b = train_ngram("the cat sat . the cat ran .", order=2)
        assert a.predict("the cat", PARAMS) == b.predict("the cat", PARAMS)

    def test_search_scores_equal_rescoring_after_a_multi_token_seed(self):
        # "U.S." is four tokens; predict conditions on them, and so must
        # conditional_logprob, or the rescoring disagrees with the search.
        lm = train_ngram("the U.S. cat ran . the dog sat . U.S. dog ran . a cat sat .", order=2)
        task = TaskSpec(name="us", constraints=(WordCountRange(2, 3),), seed=("U.S.",),
                        lm_params=PARAMS, require_period=True)
        records = solve_all(task, lm, SolveOptions(max_variables=4))
        assert len(records) == 3
        for record in records:
            assert record.ppl == perplexity(lm, record.words, PARAMS)

    def test_tables_are_bounded_by_the_corpus_not_the_order(self):
        corpus = "the cat sat . the dog sat ."
        contexts = ([], ["the"], ["the", "cat"], "the cat sat . the dog sat . the".split(),
                    "a b c d e f g h i j".split())
        for smoothing in (0.0, 1.0):
            # 8 tokens, so no context is longer than 8 words and order 9 already holds them all
            reference = train_ngram(corpus, order=9, smoothing=smoothing)
            tracemalloc.start()
            try:
                trained = train_ngram(corpus, order=MAX_NGRAM_ORDER, smoothing=smoothing)
                loaded = NGramLM.from_dict({**reference.to_dict(), "order": 10**5})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000  # a table per context length up to the order would take ~13 MB
            for lm in (trained, loaded):
                for context in contexts:
                    assert lm._distribution(context) == reference._distribution(context), context

    @pytest.mark.parametrize("order", [0, MAX_NGRAM_ORDER + 1, 10**9])
    def test_order_outside_the_cap_is_rejected(self, order):
        # a few tokens, so that training at a huge order is quick where the cap is missing
        message = f"^order must be between 1 and {MAX_NGRAM_ORDER}, got {order}$"
        with pytest.raises(ValueError, match=message):
            train_ngram("the cat sat .", order=order)

    def test_order_at_the_cap_trains(self):
        assert train_ngram("the cat sat .", order=MAX_NGRAM_ORDER).order == MAX_NGRAM_ORDER

    @pytest.mark.parametrize("counts, i", [
        ([[1, ["a"], [["b", 2]]], [1, ["a"], [["a", 1]]]], 1),
        ([[1, ["a"], [["b", 2], ["a", 1], ["b", 1]]]], 0),
    ], ids=["context", "word"])
    def test_from_dict_rejects_an_entry_listed_twice(self, counts, i):
        # Kept, the last count would win while the context's total added both.
        data = {"format": "gencp-ngram", "order": 1, "smoothing": 0.0, "vocabulary": ["a", "b"],
                "counts": [[0, [], [["a", 3], ["b", 2]]], *counts]}
        with pytest.raises(ValueError, match=rf"^n-gram model field 'counts\[{i + 1}\]' must be "):
            NGramLM.from_dict(data)

    @pytest.mark.parametrize("edit, field", [
        (lambda data: data["vocabulary"].append("a"), "vocabulary"),
        (lambda data: data["vocabulary"].append(""), "vocabulary"),
        (lambda data: data["vocabulary"].append("d e"), "vocabulary"),
        (lambda data: data["counts"][1][2].append(["z", 1]), "counts[1]"),
    ], ids=["repeated-word", "empty-word", "whitespace-word", "word-outside-the-vocabulary"])
    def test_from_dict_rejects_what_training_never_writes(self, edit, field):
        # Loaded, a repeated word or a count outside the vocabulary leaves the
        # answers summing to less than 1, and an empty word fails the first predict.
        data = train_ngram("a b . a c .", 1).to_dict()
        assert NGramLM.from_dict(data).to_dict() == data
        edit(data)
        with pytest.raises(ValueError, match=rf"^n-gram model field '{re.escape(field)}' must be "):
            NGramLM.from_dict(data)

    def test_save_load_roundtrip(self, tmp_path):
        lm = train_ngram("the cat sat on the mat .", order=2, smoothing=0.5)
        path = tmp_path / "model.json"
        lm.save(path)
        loaded = NGramLM.load(path)
        assert loaded.predict("the cat", PARAMS) == lm.predict("the cat", PARAMS)
        assert loaded.vocabulary == lm.vocabulary


class TestLoadBackend:
    def test_table_form(self, tmp_path):
        from gencp import TableLM, load_backend

        path = tmp_path / "t.tbl"
        path.write_text("\tgo\t1.0\n", encoding="utf-8")
        lm = load_backend(f"table:{path}")
        assert isinstance(lm, TableLM)

    def test_ngram_corpus_form(self, tmp_path):
        from gencp import load_backend

        path = tmp_path / "c.txt"
        path.write_text("a b a b", encoding="utf-8")
        lm = load_backend(f"ngram:{path},1")
        assert lm.order == 1
        assert lm.conditional_logprob("a", "b", PARAMS) is not None

    def test_ngram_model_form(self, tmp_path):
        from gencp import load_backend

        model = train_ngram("a b a b", order=1)
        path = tmp_path / "m.json"
        model.save(path)
        lm = load_backend(f"ngram:{path}")
        assert lm.vocabulary == model.vocabulary

    def test_remote_form(self):
        from gencp import RemoteLM, load_backend

        lm = load_backend("remote:http://127.0.0.1:8080/completion")
        assert isinstance(lm, RemoteLM)
        assert lm.endpoint == "http://127.0.0.1:8080/completion"

    def test_rejects_malformed_specs(self):
        from gencp import load_backend

        with pytest.raises(ValueError):
            load_backend("nonsense")
        with pytest.raises(ValueError):
            load_backend("carrier:x")
        with pytest.raises(ValueError, match="ngram spec"):
            load_backend("ngram:no-order-here")

    @pytest.mark.parametrize("endpoint", [
        "localhost:8080", "127.0.0.1:8080/completion", "/completion", "ftp://host/completion",
        "http://", "http:///completion", "http://host:port/completion", "http://host/a b",
    ])
    def test_rejects_malformed_remote_endpoints(self, endpoint):
        from gencp import load_backend

        with pytest.raises(ValueError, match=f"'remote:{endpoint}'"):
            load_backend(f"remote:{endpoint}")


def test_no_backend_answers_a_word_twice(tmp_path):
    """No answer repeats a word (``LanguageModel.predict``), so no domain the search makes of one does."""
    from gencp.remote import _candidates, _extract

    table = {"": [("the", 0.3), ("cat", 0.2), ("The", 0.1)], "the": [("cat", 0.5), (".", 0.4)]}
    path = tmp_path / "words.tbl"
    path.write_text("".join(f"{prefix}\t{word}\t{prob}\n" for prefix, entries in table.items()
                            for word, prob in entries), encoding="utf-8")
    ngram = train_ngram("the cat sat . the cat ran . a cat sat .", order=2)
    answers = [lm.predict(prompt, PARAMS) for lm in (TableLM(table), TableLM.from_file(path))
               for prompt in table]
    answers += [ngram.predict(prompt, PARAMS) for prompt in ("", "the", "the cat")]
    # " the" and "the" are two tokens of the server that spell one word
    probs = [{"token": " the", "prob": 0.3}, {"token": "the", "prob": 0.2},
             {"token": " cat", "prob": 0.1}, {"token": "cat", "prob": 0.05}]
    remote = _candidates(_extract({"completion_probabilities": [{"probs": probs}]}), 4)
    assert [c.text for c in remote] == ["the", "cat"]
    for answer in answers + [remote]:
        words = [c.text for c in answer]
        assert words and len(words) == len(set(words))
