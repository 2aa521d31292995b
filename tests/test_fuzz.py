"""Differential fuzz: the incremental pruning against the plain specification.

Random small prefix tables and random mixes of all 8 constraint types, with
0-2 seed words along a table path.  The solver's exhaustive enumeration must
equal the brute-force oracle, and ``can_extend`` must accept every proper
prefix of every oracle solution.  Constraint parameters come from one target
sentence that the table ends, so many instances have solutions and the
pruning bounds are tight.  Keyword sets are drawn from its words, which come
in case pairs ("strasse" and "Straße" fold alike but differ in length), so
sets often overlap across constraints or differ only by case.  The same
instances check that the prefetch hints of all three searches, with the
hints their expansions disclose, name exactly the prompts they then ask
for, in the order they ask for them, and that beam search at any width
announces and asks each prompt at the wider of its width and k.  At every
node of exhaustive, capped and jump-back searches below seeds that may
break a constraint, under a task that requires a period and one that does
not, the prefix summary the search reads is checked against ``can_extend``
rebuilt by rescanning the prefix and against ``check_complete``.  On the
same instances, the perplexity the searches sum along their path equals
the backend's rescoring exactly, and two metamorphic relations hold: a
solution at k, or a proper prefix of it, is a solution at k + 1, and beam
search at the task's width finds a subset of exhaustive search.  Served through the stub server, the same tables give
the same outputs from ``RemoteLM`` as from ``TableLM``, also where
fragments put a word at the last rank a request asks for, and every search
asks the backend about each prompt once.  ``check_complete`` itself equals
its first, one-pass form, kept here as the reference, in every order of the
constraints, and the candidate window of ``generate_variable`` and
``expand_beams`` equals the pipeline first written, kept here likewise, on
ranked answers that mix words with fragments, numerals and punctuation.
Beam search's whole output, its solutions with their perplexities and its
bad outputs, equals a plain reference that rescans every prefix, at small
scope: every pair of ``tests/test_constraints.py``'s small-scope
constraints on a full tree over {a, bb, ccc}.
"""

import itertools
import math
import random
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gencp.constraints as cst
import gencp.solver
from gencp import (
    Beam,
    CharCountExact,
    ForbiddenChars,
    HaltingMode,
    KeywordSeparation,
    LMParams,
    MandatoryKeywords,
    MaxWordLen,
    PositionLexical,
    RemoteLM,
    SolveOptions,
    StartsWith,
    TableLM,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    check_complete,
    expand_beams,
    only_words,
    order_candidates,
    perplexity,
    render_prefix,
    render_sentence,
    run_search,
    sequence_logprob,
    solve,
    solve_all,
    summarize,
    word_valid,
)
from gencp.constraints import fold_length
from gencp.lm import ranked_period
from gencp.solver import generate_variable

from conftest import PromptLog
from test_constraints import SCOPE_WORDS, small_scope_constraints

MAX_DEPTH = 6
MAX_FANOUT = 4
MAX_NODES = 24  # prefixes that get children; keeps one example to a few ms
VOCAB = ("cat", "Cat", "sun", "Sun", "beach", "Beach", "a", "of", "sky", "run", "to", "glass",
         "strasse", "Straße")


def _table(rng, root=()):
    """A prefix table of depth <= 6 and fan-out <= 4 below ``root``, with "." at random nodes."""
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

    grow(list(root))
    return table


# grown from one drawn seed: drawing every node through hypothesis made
# generation cost several times the search itself
tables = st.integers(0, 2**32 - 1).map(lambda seed: _table(random.Random(seed)))


def _sentences(table):
    """Content words of every path after which the table offers "."."""
    return [prefix.split(" ") for prefix, entries in table.items()
            if any(word == "." for word, _ in entries)]


def _constraints(draw, target, require_period):
    """0-3 constraints of any of the 8 types, with parameters taken from the target words."""
    n = len(target)
    word = st.sampled_from(target)

    def keywords():
        form = draw(st.integers(0, 2))
        if form == 2:
            return draw(st.lists(word, min_size=1, max_size=2))
        w = draw(word)
        # casefolding can lengthen a word: "Straße" gives the keyword "strasse"
        return {w.lower(), w.capitalize()} if form == 0 else {w.casefold()}

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

    return [constraint(kind) for kind in draw(st.lists(st.integers(0, 7), max_size=3))]


def _path(table, rng, length):
    """Up to ``length`` words along a random path of the table."""
    words = []
    while len(words) < length:
        children = [w for w, _ in table.get(render_prefix(words), ()) if w != "."]
        if not children:
            break
        words.append(rng.choice(children))
    return words


@st.composite
def instances(draw):
    """A table, 0-3 constraints, k, require_period and a seed of 0-2 words.

    The seed follows a table path and may break StartsWith, PositionLexical
    or a separation; a seed with a word that ``TaskSpec`` refuses is dropped.
    """
    table = draw(tables)
    require_period = draw(st.booleans())
    target = draw(st.sampled_from(_sentences(table) or [["cat"]]))
    constraints = _constraints(draw, target, require_period)
    seed = _path(table, random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 2)))
    if not all(word_valid(w, constraints) for w in seed):
        seed = []
    return table, constraints, draw(st.integers(1, MAX_FANOUT)), require_period, tuple(seed)


BEACH = {"": [("beach", 0.5)], "beach": [(".", 0.5)]}
# "a Straße" has 8 characters; the keyword "strasse" alone has 7
STRASSE = {"": [("a", 0.5)], "a": [("Straße", 0.5)]}


@settings(max_examples=400)
@given(instances())
@example((BEACH, [MandatoryKeywords({"beach", "Beach"}), CharCountExact(6)], 1, True, ()))
@example((STRASSE, [MandatoryKeywords({"strasse"}), CharCountExact(8)], 1, False, ()))
def test_exhaustive_search_equals_oracle(instance):
    table, constraints, k, require_period, seed = instance
    lm = TableLM(table)
    task = TaskSpec(
        name="fuzz", constraints=constraints, seed=seed, lm_params=LMParams(k=k),
        require_period=require_period,
    )
    oracle = brute_force_oracle(task, lm, depth_cap=MAX_DEPTH)
    searched = solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))
    assert sorted(s.sentence for s in searched) == sorted(oracle)
    assert {s.sentence: s.words for s in searched} == oracle
    for sentence, words in oracle.items():
        content = words[:-1] if require_period else words
        for i in range(len(content)):
            assert summarize(content[:i], task).can_extend(), (sentence, content[:i])


def _fuzz_task(constraints, k, require_period, seed):
    return TaskSpec(
        name="fuzz", constraints=constraints, seed=seed, lm_params=LMParams(k=k),
        require_period=require_period,
    )


@settings(max_examples=400)
@given(instances())
def test_solution_scores_are_the_backend_rescoring(instance):
    """Scores summed along the search path equal ``perplexity``, float for float."""
    table, constraints, k, require_period, seed = instance
    lm = TableLM(table)
    task = _fuzz_task(constraints, k, require_period, seed)
    records = solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))
    records += solve_all(replace(task, ordering="char-target:2"), lm, SolveOptions(max_variables=MAX_DEPTH))
    records += beam_search(task, lm, max_words=MAX_DEPTH)[0]
    records += beam_search(task, lm, k=k + 1, max_words=MAX_DEPTH)[0]
    for r in records:
        assert r.ppl == perplexity(lm, list(r.words), task.lm_params), r.sentence


@settings(max_examples=400)
@given(instances())
def test_larger_k_keeps_each_solution_or_a_prefix_of_it(instance):
    """Every solution at k, or a proper prefix of it, is a solution at k + 1.

    Not that every solution survives: "." sits at random ranks here, so at
    k + 1 the period check may finish a branch at a shorter prefix.
    """
    table, constraints, k, require_period, seed = instance
    lm = TableLM(table)
    found = {}
    for width in (k, k + 1):
        task = _fuzz_task(constraints, width, require_period, seed)
        found[width] = {r.words for r in solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))}
    end = ["."] if require_period else []
    for words in found[k]:
        content = [w for w in words if w != "."]
        prefixes = {tuple(content[:i] + end) for i in range(1, len(content) + 1)}
        assert prefixes & found[k + 1], words


@settings(max_examples=400)
@given(instances())
def test_beam_search_at_the_task_width_finds_a_subset_of_exhaustive_search(instance):
    table, constraints, k, require_period, seed = instance
    lm = TableLM(table)
    task = _fuzz_task(constraints, k, require_period, seed)
    beamed, _bad = beam_search(task, lm, max_words=MAX_DEPTH)
    searched = solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))
    assert {r.sentence for r in beamed} <= {r.sentence for r in searched}


def test_keyword_is_charged_its_shortest_folding_spelling():
    constraints = (MandatoryKeywords({"strasse"}), CharCountExact(8))
    task = TaskSpec(name="strasse", constraints=constraints, require_period=False)
    lm = TableLM(STRASSE)
    assert "\ufb06raße".casefold() == "strasse"  # the ligature "\ufb06" folds to "st"
    assert fold_length("strasse") == 5
    assert fold_length("beach") == 5
    assert summarize(["a"], task).can_extend()
    assert brute_force_oracle(task, lm, depth_cap=2) == {"a Straße": ("a", "Straße")}
    assert [s.sentence for s in solve_all(task, lm)] == ["a Straße"]


# the words of VOCAB that casefold alike, each word's own spelling included
SPELLINGS = {w: tuple(v for v in VOCAB if v.casefold() == w.casefold()) for w in VOCAB}


@settings(max_examples=400)
@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4), st.data())
def test_keywords_fit_an_exact_count_in_any_case_spelling(words, data):
    """An exact count taken from a case-variant spelling of the drawn words.

    The keywords come from the words as drawn, the sentence and its count
    from a respelling ("strasse" as "Straße", "cat" as "Cat"), so a keyword
    may fold to more characters than the word that matches it.  The search
    must still find the sentence, as the oracle does.  Under the instance
    draw above this needs four independent draws to line up, and 2,000
    instances never did.
    """
    spelled = [data.draw(st.sampled_from(SPELLINGS[w])) for w in words]
    end = ["."] if data.draw(st.booleans()) else []
    keywords = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=2))
    sentence = render_sentence(spelled + end)
    task = TaskSpec(
        name="spelling", constraints=(MandatoryKeywords(keywords), CharCountExact(len(sentence))),
        lm_params=LMParams(k=1), require_period=bool(end),
    )
    lm = TableLM({render_prefix(spelled[:i]): [(w, 0.5)] for i, w in enumerate(spelled + end)})
    assert brute_force_oracle(task, lm, depth_cap=len(words)) == {sentence: (*spelled, *end)}
    assert [s.sentence for s in solve_all(task, lm)] == [sentence]


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
    assert summarize([], task).can_extend()
    assert [s.sentence for s in solve_all(task, lm)] == ["beach."]
    assert brute_force_oracle(task, lm, depth_cap=2) == {"beach.": ("beach", ".")}


def _one_pass_check_complete(words, task):
    """``check_complete`` as first written: one pass over the constraints in the task's order."""
    words = list(words)
    if not words:
        return False
    if task.require_period and words[-1] != ".":
        return False
    content = words[:-1] if words[-1] == "." else words
    if not content:
        return False
    sentence = render_sentence(words)
    for c in task.constraints:
        if isinstance(c, CharCountExact):
            if len(sentence) != c.n:
                return False
        elif isinstance(c, WordCountRange):
            if len(content) < c.lo or (c.hi is not None and len(content) > c.hi):
                return False
        elif isinstance(c, MaxWordLen):
            if any(len(w) > c.limit for w in content):
                return False
        elif isinstance(c, PositionLexical):
            if c.position > len(content) or content[c.position - 1] != c.word:
                return False
        elif isinstance(c, MandatoryKeywords):
            present = {w.casefold() for w in content}
            if any(w.casefold() not in present for w in c.words):
                return False
        elif isinstance(c, KeywordSeparation):
            lowered = {w.casefold() for w in c.words}
            hits = [j for j, w in enumerate(content, start=1) if w.casefold() in lowered]
            if any(b - a - 1 < c.min_gap for a, b in zip(hits, hits[1:])):
                return False
        elif isinstance(c, ForbiddenChars):
            if any(ch in c.chars for w in content for ch in w):
                return False
        elif isinstance(c, StartsWith):
            if tuple(content[: len(c.prefix)]) != c.prefix:
                return False
    return True


@settings(max_examples=500)
@given(st.data())
def test_check_complete_equals_the_one_pass_reference_in_any_constraint_order(data):
    """``check_complete`` against its one-pass form, over shuffled mixes of all 8 types.

    The words are the target the constraints were drawn from, a case
    respelling of it, or other words of VOCAB, with or without a final ".",
    so every clause both passes and fails.  Permuting the constraints never
    changes the answer.
    """
    target = data.draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=MAX_DEPTH))
    require_period = data.draw(st.booleans())
    constraints = [c for _ in range(2) for c in _constraints(data.draw, target, require_period)]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(constraints)
    respelled = [rng.choice(SPELLINGS[w]) for w in target]
    other = rng.choices(VOCAB, k=rng.randint(0, MAX_DEPTH))
    words = rng.choice((target, respelled, other)) + rng.choice(([], ["."]))
    task = TaskSpec(name="reference", constraints=constraints, require_period=require_period)
    expected = _one_pass_check_complete(words, task)
    assert check_complete(words, task) == expected
    for order in (constraints[::-1], rng.sample(constraints, len(constraints))):
        assert check_complete(words, replace(task, constraints=order)) == expected


class HintedTableLM(TableLM):
    """Records, in order, the prompt batches announced through prefetch and the prompts asked.

    Each hint's expansion is followed at once with the table's own answer,
    and its hints are recorded as one more batch, depth first, as a backend
    that fetched every announced prompt at once would see them.
    ``announcements`` counts the calls made by a search, not by an
    expansion, and ``disclosed`` collects the prompts of the first one and
    of every batch its expansions disclose.
    """

    def __init__(self, table):
        super().__init__(table)
        self.log = []
        self.disclosed = set()
        self.announcements = 0
        self._following = 0

    def prefetch(self, hints, params):
        hints = [(h, None) if isinstance(h, str) else h for h in hints]
        batch = [(s, params.k) for s, _ in hints]
        self.log.append(("hint", batch))
        self.announcements += not self._following
        if self.announcements == 1:
            self.disclosed.update(batch)
        self._following += 1
        for sentence, expand in hints:
            if expand is not None:
                self.prefetch(expand(TableLM.predict(self, sentence, params)), params)
        self._following -= 1

    def predict(self, sentence, params):
        self.log.append(("ask", (sentence, params.k)))
        return super().predict(sentence, params)

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
    """The hints, expansions followed, are the prompts asked, in visit order.

    The solver and the oracle announce once, the root's hint, and its
    expansions disclose every prompt they ask, the root included, so a
    backend that follows expansions fetches the whole tree ahead of the
    search.  Beam search announces each level's prompts, all but the root's.
    """
    table, constraints, k, require_period, seed = instance
    task = TaskSpec(
        name="fuzz", constraints=constraints, seed=seed, lm_params=LMParams(k=k),
        require_period=require_period,
    )
    cap = MAX_DEPTH - 2  # below the tables' depth, so that the cap cuts branches
    searches = (
        lambda lm: beam_search(task, lm, max_words=MAX_DEPTH),
        lambda lm: solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH)),
        # Short words first: the visit order differs from the backend's ranking.
        lambda lm: solve_all(replace(task, ordering="char-target"), lm, SolveOptions(max_variables=MAX_DEPTH)),
        lambda lm: solve_all(task, lm, SolveOptions(max_variables=cap)),
        lambda lm: brute_force_oracle(task, lm, depth_cap=MAX_DEPTH),
        lambda lm: brute_force_oracle(task, lm, depth_cap=cap),
    )
    root = (render_prefix(seed), k)
    for search in searches:
        lm = HintedTableLM(table)
        search(lm)
        hinted, asked = lm.prompts("hint"), lm.prompts("ask")
        assert lm.batches_follow_visit_order()
        if search is searches[0]:  # beam search's hints carry no expansion
            assert hinted <= asked  # nothing fetched that the search does not use
            assert asked - hinted <= {root}  # only the root is asked unannounced
        else:
            assert lm.announcements == 1 or not asked
            assert hinted == asked == lm.disclosed


@settings(max_examples=400)
@given(instances())
def test_beam_hints_cover_every_ask_of_a_prompt_at_other_widths(instance):
    """Beam search wider or narrower than k asks and announces every prompt at ``max(width, k)``.

    The period check reads the first k of that answer and the expansion the
    first ``width``, so one answer per prompt serves both, and every prompt
    but the root's is announced before it is asked.
    """
    table, constraints, k, require_period, seed = instance
    task = _fuzz_task(constraints, k, require_period, seed)
    for width in (k + 1, max(1, k - 1)):
        lm = HintedTableLM(table)
        beam_search(task, lm, k=width, max_words=MAX_DEPTH)
        hinted, asked = lm.prompts("hint"), lm.prompts("ask")
        assert {n for _, n in hinted | asked} <= {max(width, k)}
        assert hinted <= asked
        announced = set()
        for what, entry in lm.log:
            if what == "hint":
                announced.update(entry)
            elif entry[0] != render_prefix(seed):
                assert entry in announced, (width, entry)


def _words_pass(words, constraints, reserve):
    """Whether every word passes its own tests where it stands, by rescanning the prefix."""
    n, length = len(words), len(render_prefix(words))
    for c in constraints:
        if isinstance(c, CharCountExact) and length + reserve > c.n:
            return False
        if isinstance(c, WordCountRange) and c.hi is not None and n > c.hi:
            return False
        if isinstance(c, MaxWordLen) and any(len(w) > c.limit for w in words):
            return False
        if isinstance(c, ForbiddenChars) and any(ch in c.chars for w in words for ch in w):
            return False
        if isinstance(c, PositionLexical) and n >= c.position and words[c.position - 1] != c.word:
            return False
        if isinstance(c, StartsWith) and any(w != p for w, p in zip(words, c.prefix)):
            return False
        if isinstance(c, KeywordSeparation):
            keys = {k.casefold() for k in c.words}
            hits = [j for j, w in enumerate(words) if w.casefold() in keys]
            if any(b - a - 1 < c.min_gap for a, b in zip(hits, hits[1:])):
                return False
    return True


def _rescanned_can_extend(words, constraints, reserve):
    """``can_extend`` written as rescans of the whole prefix, with no summary; ``reserve`` is the task's."""
    if not _words_pass(words, constraints, reserve):
        return False
    n, length = len(words), len(render_prefix(words))
    missing = {k.casefold() for c in constraints if isinstance(c, MandatoryKeywords)
               for k in c.words} - {w.casefold() for w in words}
    word_caps = [c.hi for c in constraints if isinstance(c, WordCountRange) and c.hi is not None]
    if word_caps and (n >= min(word_caps) or n + len(missing) > min(word_caps)):
        return False
    char_caps = [c.n for c in constraints if isinstance(c, CharCountExact)]
    if char_caps and missing:
        needed = sum(fold_length(k) + 1 for k in missing) - (0 if words else 1)
        return length + needed <= min(char_caps)
    return True


def _reference_beam_search(task, lm, k, mode, max_words):
    """Beam search of width ``k`` as its docstrings state it, with no summary: each test rescans the prefix.

    Each step checks every beam for a solution through ``check_complete`` and
    the period among the first task k of its answer, halts at the first
    solution in ``FIRST_SOLUTION`` mode, reports the beams of ``max_words``
    words as bad, then extends every other beam by the first ``k`` valid
    words of its answer that still pass where they stand and can still grow
    or end a sentence, reports a beam with none as bad, and keeps the ``k``
    best of the pool by (-cumulative log-probability, prompt).  Returns
    ((sentence, ppl) pairs, bad outputs).
    """
    params, constraints = task.lm_params, task.constraints
    ask = replace(params, k=max(k, params.k))
    reserve = 1 if task.require_period else 0
    period = ["."] * reserve
    seed = list(task.seed)
    if not (_rescanned_can_extend(seed, constraints, reserve) or check_complete(seed + period, task)):
        return [], [render_prefix(seed)]
    beams = [(seed, sequence_logprob(lm, seed, params) if seed else 0.0)]
    solutions, bad = [], []
    while beams:
        survivors = []
        for words, cum in beams:
            end = None
            if check_complete(words + period, task):
                end = ranked_period(lm.predict(render_prefix(words), ask), params.k) if reserve else 0.0
            if end is None:
                survivors.append((words, cum))
            else:
                solutions.append((render_sentence(words + period), math.exp(-(cum + end) / len(words + period))))
        if mode is HaltingMode.FIRST_SOLUTION and len(survivors) < len(beams):
            return solutions, bad + [render_prefix(words) for words, _ in survivors]
        bad += [render_prefix(words) for words, _ in survivors if len(words) >= max_words]
        pool = []
        for words, cum in survivors:
            if len(words) >= max_words:
                continue
            raw = lm.predict(render_prefix(words), ask)[: k * params.oversample]
            valid = [c for c in only_words(raw) if word_valid(c.text, constraints)][:k]
            children = [(words + [c.text], cum + c.logprob) for c in valid]
            children = [(w, s) for w, s in children if _words_pass(w, constraints, reserve) and (
                _rescanned_can_extend(w, constraints, reserve) or check_complete(w + period, task))]
            if not children:
                bad.append(render_prefix(words))
            pool += children
        pool.sort(key=lambda b: (-b[1], render_prefix(b[0])))
        beams = pool[:k]
    return solutions, bad


def _scope_tree():
    """Every prefix of 0-3 words over {a, bb, ccc} offers ".", a, bb and ccc in a seeded order.

    The probabilities are 0.4, 0.3, 0.2 and 0.1, so cumulative scores tie
    across beams, and "." ranks anywhere from first to last.
    """
    rng = random.Random(15)
    table = {}
    for n in range(4):
        for words in itertools.product(SCOPE_WORDS, repeat=n):
            offered = [".", *SCOPE_WORDS]
            rng.shuffle(offered)
            table[render_prefix(words)] = list(zip(offered, (0.4, 0.3, 0.2, 0.1)))
    return TableLM(table)


def test_beam_search_equals_the_plain_reference_at_small_scope():
    """Beam search's solutions, their perplexities and its bad outputs equal the plain reference's.

    Under every pair of the small scope's constraints on the {a, bb, ccc}
    tree, with and without the period, at widths k - 1, k and k + 1 (k = 2,
    one raw candidate per unit of width) and in both halting modes.
    """
    lm = _scope_tree()
    pairs = list(itertools.combinations(small_scope_constraints(), 2))
    mismatches, solved = [], 0
    for pair in pairs:
        for period in (True, False):
            task = TaskSpec(name="scope", constraints=pair, lm_params=LMParams(k=2, oversample=1),
                            require_period=period)
            for width in (1, 2, 3):
                for mode in HaltingMode:
                    found, bad = beam_search(task, lm, k=width, mode=mode, max_words=3)
                    got = ([(r.sentence, r.ppl) for r in found], bad)
                    if got != _reference_beam_search(task, lm, width, mode, 3):
                        mismatches.append((pair, period, width, mode))
                    solved += bool(found)
    assert (len(mismatches), mismatches[:3]) == (0, [])
    assert solved > len(pairs)  # the sweep is not vacuous


def _check_summary(words, summary, task):
    """A node's summary against one rebuilt from scratch, the rescans and ``check_complete``."""
    reserve = 1 if task.require_period else 0
    scratch = summarize(words, task)
    assert (summary.count, summary.prompt, summary.failed, summary.seen) == (
        scratch.count, scratch.prompt, scratch.failed, scratch.seen)
    assert summary.can_extend() == _rescanned_can_extend(words, task.constraints, reserve)
    assert summary.complete() == check_complete(words + ["."] * reserve, task)
    if not summary.failed:
        kept = summary.window([WordCandidate(w, -1.0) for w in VOCAB], len(VOCAB))
        assert [c.text for c in kept] == [
            w for w in VOCAB if _words_pass(words + [w], task.constraints, reserve)]


def _nodes(task, table, opts, exhaustive):
    """The (words, summary) of every node of a ``run_search`` run, in visit order.

    ``_grows`` runs once per node, first thing, on the summary the search
    reads there.  Every node is made to ask the backend, which moves the
    search nowhere else (a node it would not ask neither grows nor finishes
    a sentence either way), so each node's prompt names its words.
    """
    summaries = []
    grows = gencp.solver._grows
    lm = PromptLog(TableLM(table))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gencp.solver, "_grows",
                        lambda summary, cap: summaries.append(summary) or grows(summary, cap))
        patched.setattr(gencp.solver, "_asks", lambda summary, grows, task: True)
        run_search(task, lm, opts, exhaustive)
    assert len(lm.prompts) == len(summaries)
    return [(prompt.split(" ") if prompt else [], summary)
            for prompt, summary in zip(lm.prompts, summaries)]


@st.composite
def _summary_cases(draw):
    """A table below a seed of 0-2 words that offers a target's words, constraints drawn from the target, a jump target.

    The seed is drawn apart from the constraints, so it may break
    StartsWith, PositionLexical, a separation or a length cap; a seed word
    that ``TaskSpec`` refuses is dropped.  The target's path after the seed
    is grafted onto the table, "." after it, so the search often meets the
    constraints' bounds.
    """
    target = draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=MAX_DEPTH))
    constraints = _constraints(draw, target, True)
    seed = [w for w in draw(st.lists(st.sampled_from(VOCAB), max_size=2)) if word_valid(w, constraints)]
    table = _table(random.Random(draw(st.integers(0, 2**32 - 1))), seed)
    path = list(seed)
    for word in target + ["."]:
        entries = table.setdefault(render_prefix(path), [])
        if all(w != word for w, _ in entries):
            entries.insert(draw(st.integers(0, len(entries))), (word, 0.0))
        path.append(word)
    table = {prefix: [(w, 0.5 / 2**i) for i, (w, _) in enumerate(entries)]
             for prefix, entries in table.items()}
    return table, constraints, tuple(seed), draw(st.integers(1, 3))


# a keyword exactly min_gap words after the last one
SUN_A_SUN = {"": [("sun", 0.5)], "sun": [("a", 0.5)], "sun a": [("sun", 0.5)], "sun a sun": [(".", 0.5)]}


@settings(max_examples=300)
@given(_summary_cases())
@example((SUN_A_SUN, [KeywordSeparation({"sun"}, 1)], (), 1))
def test_model_summaries_match_the_specification(case):
    """Every node's summary, in exhaustive, capped and jump-back runs, with and without a required period."""
    table, constraints, seed, jump_to = case
    runs = ((SolveOptions(max_variables=MAX_DEPTH + 2), True),
            (SolveOptions(max_solutions=2, max_variables=MAX_DEPTH + 2), False),
            (SolveOptions(max_solutions=3, backtrack_to=jump_to, max_variables=MAX_DEPTH + 2), False))
    for require_period in (True, False):
        task = TaskSpec(name="summary", constraints=constraints, seed=seed,
                        lm_params=LMParams(k=MAX_FANOUT), require_period=require_period)
        for opts, exhaustive in runs:
            nodes = _nodes(task, table, opts, exhaustive)
            assert nodes[0][0] == list(seed)
            for words, summary in nodes:
                _check_summary(words, summary, task)


def _records(records):
    return [(r.sentence, r.words, r.ppl) for r in records]


def _beam_outputs(task, lm, width=None):
    found, bad = beam_search(task, lm, k=width, max_words=MAX_DEPTH)
    return _records(found), bad


EQUIVALENT_SEARCHES = {
    "solve_all": lambda task, lm: _records(solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))),
    "solve_all char-target": lambda task, lm: _records(solve_all(
        replace(task, ordering="char-target"), lm, SolveOptions(max_variables=MAX_DEPTH))),
    "solve capped jump-back": lambda task, lm: _records(solve(task, lm, SolveOptions(
        max_variables=MAX_DEPTH, max_solutions=2, backtrack_to=1))),
    "oracle": lambda task, lm: brute_force_oracle(task, lm, depth_cap=MAX_DEPTH),
    "beam": _beam_outputs,
    # narrower and wider than k: each beam's period check and expansion read
    # one answer, asked at the wider of the two widths
    "beam k-1": lambda task, lm: _beam_outputs(task, lm, max(1, task.lm_params.k - 1)),
    "beam k+1": lambda task, lm: _beam_outputs(task, lm, task.lm_params.k + 1),
}


# sub-word tokens, which the window drops and no search expands; 15 of them put
# a table's only word at rank 16, the last a request at k = 4 asks for
FRAGMENTS = ("'s", "3rd", "-", "U.S.", "'re", "2nd", "'ll", "1st", "e.g.", "--", "4th", "'d",
             "i.e.", "5th", "6th")


def _fragmented(drawn):
    """The instance with fragments ranked ahead of a word under about half its prefixes.

    Under such a prefix, enough fragments go right before its min(k, words)-th
    word that this word ranks k x oversample, the last token a request at the
    task's k asks for, so a client that drops that token loses a child the
    table offers.  The seed's prefixes keep their answers, and the seed ends
    before a word ranked past that last token, so ``remote:`` scores each
    seed word as the table does.  The entries get 0.5 / 2**i again, in their
    new order.
    """
    (table, constraints, k, require_period, seed), choice = drawn
    rng = random.Random(choice)
    last = k * LMParams().oversample
    for i, word in enumerate(seed):
        if [w for w, _ in table[render_prefix(seed[:i])]].index(word) >= last:
            seed = seed[:i]
            break
    scoring = {render_prefix(seed[:i]) for i in range(len(seed))}
    mapped = {}
    for prefix, entries in table.items():
        words = [w for w, _ in entries]
        content = [i for i, w in enumerate(words) if w != "."]
        if content and prefix not in scoring and rng.random() < 0.5:
            at = content[min(k, len(content)) - 1]
            words[at:at] = FRAGMENTS[: last - 1 - at]
        mapped[prefix] = [(w, 0.5 / 2**i) for i, w in enumerate(words)]
    return mapped, constraints, k, require_period, seed


@settings(max_examples=200)
@given(st.tuples(instances(), st.integers(0, 2**32 - 1)).map(_fragmented))
def test_remote_backend_over_the_stub_equals_the_table(module_stub, instance):
    """``remote:`` over the stub server finds what ``TableLM`` finds, with one POST per prompt.

    The stub serves the instance's table, each prompt's tokens in the
    table's order, which is the order of falling probability, as a server
    ranks them.  The tables give the entries of a prefix distinct
    probabilities (0.5 / 2**i), so no tokens tie at a width cut: the window
    a beam narrower than k reads from the wider answer is the answer at its
    own width.  Fragments ranked ahead of some prefixes' words put a word at
    the last rank a request asks for (``_fragmented``).  Each search runs on
    a fresh client, so its prefetches, their expansions and the memo all
    take part, and the stub must see each prompt the search asks exactly
    once, and no other prompt but the seed's prefixes, which scoring the
    seed asks.
    """
    table, constraints, k, require_period, seed = instance
    task = _fuzz_task(constraints, k, require_period, seed)
    scoring = {render_prefix(seed[:i]) for i in range(len(seed))}
    for name, search in EQUIVALENT_SEARCHES.items():
        local = HintedTableLM(table)
        expected = search(task, local)
        module_stub.serve(table)
        with closing(RemoteLM(module_stub.url)) as remote:
            assert search(task, remote) == expected, name
        asked = {sentence for sentence, _ in local.prompts("ask")}
        assert set(module_stub.counts.values()) <= {1}, name
        assert asked <= set(module_stub.counts) <= asked | scoring, name


@settings(max_examples=400)
@given(instances())
def test_searches_ask_each_prompt_once(instance):
    """Every search sends each (prompt, width) to ``predict`` once.

    A node's period check and its children, or a beam's, are read from one
    answer, so no backend, memoizing or not, pays twice for a node.
    """
    table, constraints, k, require_period, seed = instance
    task = _fuzz_task(constraints, k, require_period, seed)
    for name, search in EQUIVALENT_SEARCHES.items():
        lm = HintedTableLM(table)
        search(task, lm)
        asked = [key for what, key in lm.log if what == "ask"]
        assert len(asked) == len(set(asked)), name


def _old_looks_like_word(text):
    """``_looks_like_word`` as it was before its ``isalpha`` fast path."""
    pieces = text.replace("'", "-").split("-")
    return all(piece and piece.isalpha() for piece in pieces)


def _reference_window(raw, constraints, k):
    """The window as first written: ``only_words``, ``word_valid`` over all constraints, then ``[:k]``."""
    words = [cand for cand in raw if _old_looks_like_word(cand.text)]
    return [c for c in words if word_valid(c.text, constraints)][:k]


def _reference_filter_domain(summary, domain):
    """Drop the candidates that cannot follow the prefix that ``summary`` describes.

    A survivor is valid on its own (``word_valid``) and admitted at the next
    position by every constraint, one character kept for the final period
    when the summary's task requires one.  Survivor order is preserved.
    """
    return [cand for cand in domain if summary.admits(cand.text)]


def _reference_node_domain(words, summary, raw, task):
    """``generate_variable`` as first written: the window, ordered, then filtered."""
    window = _reference_window(raw, task.constraints, task.lm_params.k)
    ordered = order_candidates(window, task.pivot, len(words) + 1)
    return _reference_filter_domain(summary, ordered)


def _reference_extensions(beam, task, k):
    """The (words, cum_logprob, prompt) of a beam's extensions, from its answer, as ``expand_beams`` made them."""
    params = task.lm_params
    raw = beam.answer[: k * params.oversample] if max(k, params.k) > k else beam.answer
    summary = beam.summary
    found = []
    for cand in _reference_window(raw, task.constraints, k):
        if not summary.admits(cand.text):
            continue
        child = summary.push(cand.text, admitted=True)
        if child.can_extend() or child.complete():
            words = beam.words + (cand.text,)
            found.append((words, beam.cum_logprob + cand.logprob, render_prefix(words)))
    return found


# plain words, and texts that only some of the window's tests reject
WINDOW_TEXTS = ("cat", "Sun", "beach", "a", "of", "sky", "soft", "glass", "Straße", "re-do",
                "don't", "'s", "-", "3rd", "U.S.", ".", "кот", "λόγος", "猫", "x-", "rock'n'roll",
                "e-mail", "--", "7", "the", "To", "mathematics")


@st.composite
def windows(draw):
    """A prefix, a ranked answer longer than ``k * oversample``, and a task of any constraint types."""
    k = draw(st.integers(1, 4))
    oversample = draw(st.integers(1, 3))
    texts = draw(st.lists(st.sampled_from(WINDOW_TEXTS), unique=True,
                          min_size=k * oversample + 1, max_size=len(WINDOW_TEXTS)))
    raw = [WordCandidate(t, -0.25 * (i + 1)) for i, t in enumerate(texts)]
    prefix = draw(st.lists(st.sampled_from(WINDOW_TEXTS[:10]), max_size=3))
    require_period = draw(st.booleans())
    target = prefix + draw(st.lists(st.sampled_from(texts), min_size=1, max_size=3))
    constraints = _constraints(draw, target, require_period)
    params = LMParams(k=k, top_k=k * oversample, oversample=oversample)
    task = TaskSpec(name="window", constraints=draw(st.permutations(constraints)),
                    lm_params=params, require_period=require_period,
                    ordering=draw(st.sampled_from(("probability", "char-target", "char-target:2"))))
    return prefix, raw, task


@settings(max_examples=300)
@given(windows())
def test_window_equals_the_reference_pipeline(window):
    """``generate_variable`` and ``expand_beams`` take the same candidates as the pipeline first written.

    That pipeline tested every candidate against every constraint, with
    ``_looks_like_word`` in its first form, and kept the first k.  Today's
    tests each candidate by the task's word-length cap and forbidden set.
    """
    prefix, raw, task = window
    summary = summarize(prefix, task)
    got = generate_variable(summary, raw, task)
    assert got == _reference_node_domain(prefix, summary, raw, task)
    k = task.lm_params.k
    for width in {max(1, k - 1), k, k + 1}:
        beam = Beam(tuple(prefix), -1.0, summary, answer=raw)
        expected = sorted(_reference_extensions(beam, task, width), key=lambda e: (-e[1], e[0]))
        survivors, dead = expand_beams([beam], None, task, width)
        assert [(b.words, b.cum_logprob, b.summary.prompt) for b in survivors] == expected[:width]
        assert dead == ([] if expected else [beam])


@given(st.text(alphabet=st.sampled_from("ab'-3 \t\nßкλ猫.")))
def test_looks_like_word_equals_its_first_form(text):
    assert cst._looks_like_word(text) == _old_looks_like_word(text)
