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
for, in the order they ask for them, and that
beam search at a width other than k first announces each prompt at the
widest width it then asks for it.  Random push, backtrack and jump-back
sequences on a ``SolverModel`` check its prefix summaries against
``can_extend`` rebuilt by rescanning the prefix and against
``check_complete``.  On the same instances, the perplexity the
searches sum along their path equals the backend's rescoring exactly, and
two metamorphic relations hold: a solution at k, or a proper prefix of it,
is a solution at k + 1, and beam search at the task's width finds a subset
of exhaustive search.  Served through the stub server, the same tables give
the same outputs from ``RemoteLM`` as from ``TableLM``, and the solver and
the oracle ask the backend about each prompt once.
"""

import random
from contextlib import closing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencp import (
    CharCountExact,
    Domain,
    ForbiddenChars,
    KeywordSeparation,
    LMParams,
    MandatoryKeywords,
    MaxWordLen,
    PositionLexical,
    RemoteLM,
    SolveOptions,
    SolverModel,
    StartsWith,
    TableLM,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    can_extend,
    check_complete,
    filter_domain,
    parse_ordering,
    perplexity,
    render_prefix,
    render_sentence,
    solve,
    solve_all,
    summarize,
    word_valid,
)
from gencp.constraints import fold_length

MAX_DEPTH = 6
MAX_FANOUT = 4
MAX_NODES = 24  # prefixes that get children; keeps one example to a few ms
VOCAB = ("cat", "Cat", "sun", "Sun", "beach", "Beach", "a", "of", "sky", "run", "to", "glass",
         "strasse", "Straße")


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


def _content_words(sentence, require_period):
    return (sentence[:-1] if require_period else sentence).split(" ")


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
    searched = [s.sentence for s in solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))]
    assert sorted(searched) == sorted(oracle)
    for sentence in oracle:
        words = _content_words(sentence, require_period)
        for i in range(len(words)):
            assert can_extend(words[:i], task.constraints), (sentence, words[:i])


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
    records += solve_all(task, lm, SolveOptions(
        max_variables=MAX_DEPTH, ordering=parse_ordering("char-target:2")))
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
    assert can_extend(["a"], constraints)
    assert brute_force_oracle(task, lm, depth_cap=2) == {"a Straße"}
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
    assert brute_force_oracle(task, lm, depth_cap=len(words)) == {sentence}
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
    assert can_extend([], constraints)
    assert [s.sentence for s in solve_all(task, lm)] == ["beach."]
    assert brute_force_oracle(task, lm, depth_cap=2) == {"beach."}


class HintedTableLM(TableLM):
    """Records, in order, the prompt batches announced through prefetch and the prompts asked.

    Each hint's expansion is followed at once with the table's own answer,
    and its hints are recorded as one more batch, depth first, as a backend
    that fetched every announced prompt at once would see them.
    ``disclosed`` collects the prompts of the first announcement and of
    every batch its expansions disclose.
    """

    def __init__(self, table):
        super().__init__(table)
        self.log = []
        self.disclosed = set()
        self._announcements = 0
        self._following = 0

    def prefetch(self, hints, params, k=None):
        k = params.k if k is None else k
        hints = [(h, None) if isinstance(h, str) else h for h in hints]
        batch = [(s, k) for s, _ in hints]
        self.log.append(("hint", batch))
        self._announcements += not self._following
        if self._announcements == 1:
            self.disclosed.update(batch)
        self._following += 1
        for sentence, expand in hints:
            if expand is not None:
                self.prefetch(expand(TableLM.predict(self, sentence, params, k)), params, k)
        self._following -= 1

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
    """The hints, expansions followed, are every prompt asked but the root, in visit order.

    The solver's and the oracle's first announcement alone discloses them
    all, so a backend that follows expansions fetches the whole tree ahead
    of the search.
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
        lambda lm: solve_all(
            task, lm, SolveOptions(max_variables=MAX_DEPTH, ordering=parse_ordering("char-target"))
        ),
        lambda lm: solve_all(task, lm, SolveOptions(max_variables=cap)),
        lambda lm: brute_force_oracle(task, lm, depth_cap=MAX_DEPTH),
        lambda lm: brute_force_oracle(task, lm, depth_cap=cap),
    )
    root = (render_prefix(seed), k)
    for search in searches:
        lm = HintedTableLM(table)
        search(lm)
        hinted, asked = lm.prompts("hint"), lm.prompts("ask")
        assert hinted <= asked  # nothing fetched that the search does not use
        assert asked - hinted <= {root}  # only the root is asked unannounced
        assert lm.batches_follow_visit_order()
        if search is not searches[0]:  # beam search's hints carry no expansion
            assert lm.disclosed == asked - {root}


@settings(max_examples=400)
@given(instances())
def test_beam_hints_cover_every_ask_of_a_prompt_at_other_widths(instance):
    """A beam wider or narrower than k first announces each prompt at its widest ask.

    The period check asks at the task's k and the expansion at the beam's
    width; when the first announcement covers both, a memo of the widest
    response POSTs each prompt once.
    """
    table, constraints, k, require_period, seed = instance
    task = _fuzz_task(constraints, k, require_period, seed)
    for width in (k + 1, max(1, k - 1)):
        lm = HintedTableLM(table)
        beam_search(task, lm, k=width, max_words=MAX_DEPTH)
        hinted, asked = lm.prompts("hint"), lm.prompts("ask")
        assert {s for s, _ in hinted} <= {s for s, _ in asked}
        first_hint = {}
        for what, entry in lm.log:
            if what == "hint":
                for sentence, n in entry:
                    first_hint.setdefault(sentence, n)
            elif entry[0] != render_prefix(seed):
                sentence, n = entry
                assert first_hint.get(sentence, 0) >= n, (width, sentence, n)


def _words_pass(words, constraints, reserve=0):
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


def _rescanned_can_extend(words, constraints):
    """``can_extend`` written as rescans of the whole prefix, with no summary."""
    if not _words_pass(words, constraints):
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


# ("push", i, width): a variable whose domain is width words from position i of
# the target followed by VOCAB, filtered and assigned as the solver does;
# ("next", ...): backtrack; ("jump", i, ...): backtrack_to
_moves = st.lists(
    st.tuples(st.sampled_from(["push", "push", "next", "jump"]),
              st.integers(0, len(VOCAB) - 1), st.integers(1, 3)),
    max_size=12,
)


@settings(max_examples=400)
@given(st.data(), st.lists(st.sampled_from(VOCAB), max_size=2), _moves)
def test_model_summaries_match_the_specification(data, seed, moves):
    target = data.draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=MAX_DEPTH))
    constraints = _constraints(data.draw, target, True)
    tasks = {reserve: TaskSpec(name="summary", constraints=constraints, require_period=bool(reserve))
             for reserve in (0, 1)}
    # seed words are never filtered, so they may break any constraint
    model = SolverModel.from_seed(seed, summarize((), constraints))

    def check():
        words, summary = model.words, model.summary
        scratch = summarize(words, constraints)
        assert (summary.count, summary.length, summary.failed, summary.seen) == (
            scratch.count, scratch.length, scratch.failed, scratch.seen)
        assert summary.can_extend() == _rescanned_can_extend(words, constraints) == can_extend(
            words, constraints)
        for reserve, task in tasks.items():
            assert summary.complete(reserve) == check_complete(words + ["."] * reserve, task)

    check()
    for move, i, width in moves:
        if move == "push" and len(model.words) == len(model.variables):
            words = (target + list(VOCAB))[i:i + width]
            cands = Domain([WordCandidate(w, -1.0) for w in dict.fromkeys(words)])
            domain = filter_domain(model.words, cands, constraints, tasks[1], model.summary)
            if not model.summary.failed:
                assert [c.text for c in domain.values] == [
                    c.text for c in cands.values if _words_pass(model.words + [c.text], constraints, 1)]
            if domain.values:
                model.add_variable().domain = domain
                model.assign(0)
        elif move == "next":
            model.backtrack()
        elif move == "jump" and len(model.variables) > 1:
            model.backtrack_to(1 + i % (len(model.variables) - 1))
        check()


def _records(records):
    return [(r.sentence, r.words, r.ppl) for r in records]


def _beam_outputs(task, lm, width=None):
    found, bad = beam_search(task, lm, k=width, max_words=MAX_DEPTH)
    return _records(found), bad


EQUIVALENT_SEARCHES = {
    "solve_all": lambda task, lm: _records(solve_all(task, lm, SolveOptions(max_variables=MAX_DEPTH))),
    "solve_all char-target": lambda task, lm: _records(solve_all(task, lm, SolveOptions(
        max_variables=MAX_DEPTH, ordering=parse_ordering("char-target")))),
    "solve capped jump-back": lambda task, lm: _records(solve(task, lm, SolveOptions(
        max_variables=MAX_DEPTH, max_solutions=2, backtrack_to=1))),
    "oracle": lambda task, lm: brute_force_oracle(task, lm, depth_cap=MAX_DEPTH),
    "beam": _beam_outputs,
    # narrower and wider than k, so the width rule serves each period check
    # and expansion from one response
    "beam k-1": lambda task, lm: _beam_outputs(task, lm, max(1, task.lm_params.k - 1)),
    "beam k+1": lambda task, lm: _beam_outputs(task, lm, task.lm_params.k + 1),
}


@settings(max_examples=200)
@given(instances())
def test_remote_backend_over_the_stub_equals_the_table(module_stub, instance):
    """``remote:`` over the stub server finds what ``TableLM`` finds, with one POST per prompt.

    The stub serves the instance's table, each prompt's tokens in the
    table's order, which is the order of falling probability, as a server
    ranks them.  The tables give the entries of a prefix distinct
    probabilities (0.5 / 2**i), so no tokens tie at a width cut and the
    width rule's documented exception cannot apply.  Each search runs on a
    fresh client, so its prefetches, their expansions and the memo all take
    part, and the stub must see each prompt the search asks exactly once,
    and no other prompt but the seed's prefixes, which scoring the seed asks.
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
    """The solver and the oracle send each (prompt, width) to ``predict`` once.

    A node's period check and its children are read from one answer, so no
    backend, memoizing or not, pays twice for a node.  Beam search asks a
    beam's prompt for its period check and again for its expansion.
    """
    table, constraints, k, require_period, seed = instance
    task = _fuzz_task(constraints, k, require_period, seed)
    for name, search in EQUIVALENT_SEARCHES.items():
        if name.startswith("beam"):
            continue
        lm = HintedTableLM(table)
        search(task, lm)
        asked = [key for what, key in lm.log if what == "ask"]
        assert len(asked) == len(set(asked)), name
