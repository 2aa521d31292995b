import random

import pytest

import gencp.constraints
from gencp import (
    CharCountExact,
    ForbiddenChars,
    KeywordSeparation,
    LanguageModel,
    LMParams,
    MandatoryKeywords,
    MaxWordLen,
    Ordering,
    PositionLexical,
    SolveOptions,
    SolverModel,
    StartsWith,
    TableLM,
    RunConfig,
    TaskSpec,
    WordCandidate,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    builtin_task,
    check_complete,
    parse_ordering,
    perplexity,
    run_search,
    solve,
    solve_all,
    summarize,
    variability,
    with_k,
)
from gencp.solver import (
    completes,
    generate_variable,
    order_candidates,
)

from conftest import random_table


def _cands(*pairs):
    return [WordCandidate(text, lp) for text, lp in pairs]


PROBABILITY = Ordering("probability")


def _simple_task(**kwargs):
    defaults = dict(
        name="t", constraints=(), seed=(), lm_params=LMParams(k=3), require_period=True
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


class TestGenerateVariable:
    def test_seeded_model_starts_with_singleton(self):
        model = SolverModel.from_seed(["The"], summarize((), ()))
        assert len(model.variables) == 1
        assert [c.text for c in model.variables[0].domain.values] == ["The"]
        assert model.variables[0].domain.cursor == 0

    def test_appends_with_empty_domain(self):
        model = SolverModel.from_seed(["A", "man"], summarize((), ()))
        var = generate_variable(model, [], _simple_task(), PROBABILITY)
        assert var.index == 3
        assert (var.domain.values, var.domain.cursor) == ([], None)

    def test_cap_forces_backtrack_not_crash(self, fig_lm):
        task = _simple_task(constraints=(ForbiddenChars("e"),), seed=("A",))
        sols = solve(task, fig_lm, SolveOptions(max_variables=3))
        assert sols == []  # nothing completes within three words


class TestGenerateDomain:
    def test_raw_predictions_become_domain(self, fig_lm):
        model = SolverModel.from_seed(["A"], summarize((), ()))
        task = _simple_task(seed=("A",))
        domain = generate_variable(model, fig_lm.predict("A", task.lm_params), task, PROBABILITY).domain
        assert [c.text for c in domain.values] == ["boy", "man", "house"]
        assert model.stats.lm_calls == 1

    def test_invalid_words_do_not_consume_slots(self):
        # 8 raw candidates, 5 valid, k=5: all five valid words are kept
        table = {"": [("ok", 0.3), ("##a", 0.2), ("$", 0.15), ("fine", 0.1),
                      ("good", 0.05), ("-x", 0.04), ("nice", 0.02), ("warm", 0.01)]}
        lm = TableLM(table)
        task = _simple_task(lm_params=LMParams(k=5))
        model = SolverModel(summarize((), ()))
        domain = generate_variable(model, lm.predict(model.current_sentence(), task.lm_params),
                                   task, PROBABILITY).domain
        assert [c.text for c in domain.values] == ["ok", "fine", "good", "nice", "warm"]

    def test_unknown_prefix_yields_empty_domain(self, fig_lm):
        model = SolverModel.from_seed(["A", "boy"], summarize((), ()))
        task = _simple_task()
        domain = generate_variable(model, fig_lm.predict("A boy", task.lm_params), task,
                                   PROBABILITY).domain
        assert domain.values == []
        assert model.variables[-1].domain.cursor is None

    def test_keeps_at_most_k(self):
        words = ["apple", "berry", "cedar", "dates", "elder", "figs", "grape", "holly"]
        table = {"": [(w, 0.5 / 2**i) for i, w in enumerate(words)]}
        task = _simple_task(lm_params=LMParams(k=5))
        model = SolverModel(summarize((), ()))
        domain = generate_variable(model, TableLM(table).predict("", task.lm_params), task,
                                   PROBABILITY).domain
        assert [c.text for c in domain.values] == words[:5]


class TestGenerateConstraints:
    def test_filters_new_domain(self):
        task = _simple_task(constraints=(ForbiddenChars("e"),), seed=("A",))
        model = SolverModel.from_seed(["A"], summarize((), task.constraints))
        lm = TableLM({"A": [("man", 0.4), ("house", 0.3), ("boy", 0.2)]})
        domain = generate_variable(model, lm.predict(model.current_sentence(), task.lm_params),
                                   task, PROBABILITY).domain
        assert [c.text for c in domain.values] == ["man", "boy"]

    def test_no_applicable_constraint_keeps_domain(self):
        task = _simple_task()
        model = SolverModel.from_seed(["A"], summarize((), task.constraints))
        lm = TableLM({"A": [("man", 0.5), ("boy", 0.3)]})
        domain = generate_variable(model, lm.predict(model.current_sentence(), task.lm_params),
                                   task, PROBABILITY).domain
        assert [c.text for c in domain.values] == ["man", "boy"]


class TestOrdering:
    def test_char_target_before_pivot_prefers_long(self):
        cands = _cands(("a", -0.1), ("the", -0.2), ("wonderful", -0.3))
        ordering = Ordering("char-target", pivot=10)
        out = order_candidates(cands, ordering, 3)
        assert [c.text for c in out] == ["wonderful", "the", "a"]

    def test_char_target_at_pivot_prefers_short(self):
        cands = _cands(("a", -0.1), ("the", -0.2), ("wonderful", -0.3))
        ordering = Ordering("char-target", pivot=10)
        out = order_candidates(cands, ordering, 10)
        assert [c.text for c in out] == ["a", "the", "wonderful"]

    def test_probability_keeps_backend_order(self):
        cands = _cands(("zig", -0.1), ("alpha", -0.2))
        out = order_candidates(cands, Ordering("probability"), 1)
        assert [c.text for c in out] == ["zig", "alpha"]

    def test_ppl_ordering_matches_probability_on_tables(self, fig_lm):
        cands = fig_lm.predict("A", LMParams(k=3))
        out = order_candidates(cands, parse_ordering("ppl"), 2)
        assert [c.text for c in out] == ["boy", "man", "house"]

    def test_length_ties_break_lexicographically(self):
        cands = _cands(("new", -0.1), ("New", -0.2))
        out = order_candidates(cands, Ordering("char-target", 10), 2)
        assert [c.text for c in out] == ["New", "new"]

    def test_search_tries_values_in_the_given_order(self):
        lm = TableLM({"": [("We", 1.0)], "We": [("go", 0.5), ("wander", 0.4)],
                      "We go": [(".", 1.0)], "We wander": [(".", 1.0)]})
        task = _simple_task(constraints=(WordCountRange(2, 2),))

        def first(ordering):
            opts = SolveOptions(max_solutions=1, ordering=parse_ordering(ordering))
            return solve(task, lm, opts)[0].sentence

        assert first("probability") == "We go."
        assert first("char-target") == "We wander."  # longer words first before the pivot

    def test_parse_ordering(self):
        assert parse_ordering("probability") == Ordering("probability")
        assert parse_ordering("ppl") == Ordering("probability")
        assert parse_ordering("char-target") == Ordering("char-target", 10)
        assert parse_ordering("char-target:7") == Ordering("char-target", 7)
        with pytest.raises(ValueError):
            parse_ordering("alphabetical")


class TestBooleanPredicate:
    def _model_with(self, words, root):
        return SolverModel.from_seed(words, root)

    def _completes(self, model, lm, task):
        """``completes`` on the backend's answer for the model's words."""
        return completes(model.summary, lm.predict(model.current_sentence(), task.lm_params), task)

    def test_all_conjuncts_hold(self):
        task = _simple_task(constraints=(WordCountRange(2, 3),))
        lm = TableLM({"up down": [(".", 1.0)]})
        model = self._model_with(["up", "down"], summarize((), task.constraints))
        assert self._completes(model, lm, task) is not None

    def test_word_window_not_reached(self):
        task = _simple_task(constraints=(WordCountRange(3, 4),))
        lm = TableLM({"up down": [(".", 1.0)]})
        model = self._model_with(["up", "down"], summarize((), task.constraints))
        assert self._completes(model, lm, task) is None

    def test_period_not_predicted(self):
        task = _simple_task(constraints=(WordCountRange(2, 3),))
        lm = TableLM({"up down": [("more", 1.0)]})
        model = self._model_with(["up", "down"], summarize((), task.constraints))
        assert self._completes(model, lm, task) is None

    def test_exact_char_count_with_reserved_period(self):
        from gencp import CharCountExact

        # "ab cd" is 5 chars; with the period that is 6
        task = _simple_task(constraints=(WordCountRange(1, 4), CharCountExact(6)))
        lm = TableLM({"ab cd": [(".", 1.0)], "ab": [("cd", 1.0)]})
        model = self._model_with(["ab", "cd"], summarize((), task.constraints))
        assert self._completes(model, lm, task) is not None
        model_short = self._model_with(["ab"], summarize((), task.constraints))
        assert self._completes(model_short, lm, task) is None


class TestSolve:
    def test_walkthrough_backtracks_to_second_value(self, fig_lm, fig_task):
        outcome = run_search(fig_task, fig_lm, SolveOptions(max_solutions=1, max_variables=8))
        assert [s.sentence for s in outcome.solutions] == ["A man drinks milk."]
        assert outcome.stats.backtracks == 1  # boy -> man
        assert outcome.solutions[0].words == ("A", "man", "drinks", "milk", ".")

    def test_unsatisfiable_terminates_empty(self):
        lm = TableLM({"": [("see", 1.0)], "see": [("them", 0.9)]})
        task = _simple_task(constraints=(ForbiddenChars("e"),))
        assert solve(task, lm, SolveOptions(max_variables=5)) == []

    def test_every_output_checks_complete(self, two_word_task):
        rng = random.Random(7)
        for _ in range(10):
            lm = random_table(rng, depth=4, branching=3, period_prob=0.6)
            for record in solve_all(two_word_task, lm, SolveOptions(max_variables=4)):
                assert check_complete(list(record.words), two_word_task)

    def test_max_solutions_cap(self):
        lm = TableLM({
            "": [("We", 1.0)],
            "We": [("run", 0.5), ("eat", 0.3), ("nap", 0.1)],
            "We run": [(".", 1.0)], "We eat": [(".", 1.0)], "We nap": [(".", 1.0)],
        })
        task = _simple_task(constraints=(WordCountRange(2, 2),), lm_params=LMParams(k=3))
        sols = solve(task, lm, SolveOptions(max_solutions=2, max_variables=4))
        assert [s.sentence for s in sols] == ["We run.", "We eat."]

    def test_no_solution_longer_than_cap(self):
        rng = random.Random(13)
        task = _simple_task(constraints=(WordCountRange(1, None),), lm_params=LMParams(k=2))
        lm = random_table(rng, depth=6, branching=2, period_prob=0.8)
        for record in solve_all(task, lm, SolveOptions(max_variables=4)):
            assert len(record.words) - 1 <= 4

    def test_time_budget_stops(self, two_word_task):
        rng = random.Random(3)
        lm = random_table(rng, depth=5, branching=3)
        sols = solve(two_word_task, lm, SolveOptions(time_budget=0.0, max_variables=5))
        assert sols == []

    def test_seed_longer_than_cap_rejected(self, fig_lm):
        task = _simple_task(seed=("A",))
        with pytest.raises(ValueError, match="max_variables"):
            solve(task, fig_lm, SolveOptions(max_variables=1))


class TestInputBounds:
    """Out-of-range run parameters raise ValueError before the backend is asked."""

    @pytest.mark.parametrize("fields, message", [
        ({"time_budget": -1.0}, "time budget"),
        ({"time_budget": float("nan")}, "time budget"),
        ({"backtrack_to": 0}, "backtrack_to"),
    ], ids=["negative-budget", "nan-budget", "backtrack-to-0"])
    def test_solve_options(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SolveOptions(**fields)

    def test_beam_search_and_oracle(self):
        task = _simple_task(seed=("A",))
        lm = TableLM({})  # answers nothing, so only the checks can raise
        with pytest.raises(ValueError, match="max_words"):
            beam_search(task, lm, max_words=1)
        with pytest.raises(ValueError, match="depth_cap"):
            brute_force_oracle(task, lm, depth_cap=1)
        for budget in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="time budget"):
                beam_search(task, lm, time_budget=budget)
            with pytest.raises(ValueError, match="time budget"):
                brute_force_oracle(task, lm, depth_cap=2, time_budget=budget)
            with pytest.raises(ValueError, match="time budget"):
                RunConfig(tasks=("demo-60",), lm_spec="table:x", k_values=(1,),
                          methods=("gencp",), time_budget=budget)
        assert beam_search(task, lm, max_words=2) == ([], ["A"])
        assert brute_force_oracle(task, lm, depth_cap=2) == set()


class TestBacktrackToVariability:
    LM = {
        "": [("We", 1.0)],
        "We": [("like", 0.5), ("hate", 0.4)],
        "We like": [("tea", 0.6), ("jam", 0.3)],
        "We hate": [("war", 0.9)],
        "We like tea": [(".", 1.0)],
        "We like jam": [(".", 1.0)],
        "We hate war": [(".", 1.0)],
    }

    def _task(self):
        return _simple_task(constraints=(WordCountRange(3, 3),), lm_params=LMParams(k=3))

    def test_consecutive_solutions_diverge_at_target(self):
        sols = solve(self._task(), TableLM(self.LM),
                     SolveOptions(backtrack_to=2, max_variables=5))
        sentences = [s.sentence for s in sols]
        assert sentences == ["We like tea.", "We hate war."]  # jam is skipped by the jump
        for a, b in zip(sols, sols[1:]):
            assert a.words[0] == b.words[0]
            assert a.words[1] != b.words[1]

    def test_plain_backtracking_keeps_all(self):
        sols = solve_all(self._task(), TableLM(self.LM), SolveOptions(max_variables=5))
        assert [s.sentence for s in sols] == ["We like tea.", "We like jam.", "We hate war."]

    def test_next_solution_shares_prefix_before_target(self):
        sols = solve(self._task(), TableLM(self.LM),
                     SolveOptions(backtrack_to=2, max_variables=5))
        assert variability(sols[0].words[:1], sols[1].words[:1]) == 0
        assert sols[0].words[1] != sols[1].words[1]


class TestSolveAll:
    def _enumerate_by_hand(self, table, task, depth):
        # direct recursive enumeration, minimal-solution semantics
        from gencp import only_words, predicts_period, render_prefix, render_sentence, word_valid

        lm = TableLM(table)
        params = task.lm_params
        out = []

        def predicate(words):
            final = words + ["."] if task.require_period else words
            return check_complete(final, task) and predicts_period(
                lm, render_sentence(words), params
            )

        def walk(words):
            if words and predicate(words):
                out.append(render_sentence(words + ["."]))
                return
            if len(words) >= depth:
                return
            raw = lm.predict(render_prefix(words), params)
            for cand in [c for c in only_words(raw) if word_valid(c.text, task.constraints)][: params.k]:
                walk(words + [cand.text])

        walk([])
        return set(out)

    def test_matches_direct_enumeration(self):
        rng = random.Random(99)
        task = _simple_task(constraints=(WordCountRange(1, 4),), lm_params=LMParams(k=3))
        for _ in range(5):
            lm_table = {}
            lm = random_table(rng, depth=5, branching=3, period_prob=0.6)
            got = {s.sentence for s in solve_all(task, lm, SolveOptions(max_variables=5))}
            expected = set()
            # reuse the same backend object; enumerate directly
            from gencp import only_words, predicts_period, render_prefix, render_sentence, word_valid

            def predicate(words):
                final = words + ["."]
                return check_complete(final, task) and predicts_period(
                    lm, render_sentence(words), task.lm_params
                )

            def walk(words):
                if words and predicate(words):
                    expected.add(render_sentence(words + ["."]))
                    return
                if len(words) >= 5:
                    return
                raw = lm.predict(render_prefix(words), task.lm_params)
                valid = [c for c in only_words(raw) if word_valid(c.text, task.constraints)]
                for cand in valid[: task.lm_params.k]:
                    walk(words + [cand.text])

            walk([])
            assert got == expected

    def test_k_monotonicity_on_fixed_tree(self):
        rng = random.Random(41)
        lm = random_table(rng, depth=5, branching=5, period_prob=0.5)
        task = _simple_task(constraints=(WordCountRange(1, 4),))
        previous = set()
        for k in (1, 2, 3, 5):
            from gencp import with_k

            sols = {s.sentence for s in solve_all(with_k(task, k), lm, SolveOptions(max_variables=5))}
            assert previous <= sols
            previous = sols

    def test_unsatisfiable_is_empty(self):
        lm = TableLM({"": [("see", 1.0)]})
        task = _simple_task(constraints=(ForbiddenChars("e"),))
        assert solve_all(task, lm, SolveOptions(max_variables=3)) == []

    def test_duplicate_sentences_not_emitted(self):
        rng = random.Random(5)
        task = _simple_task(constraints=(WordCountRange(1, 4),))
        for _ in range(5):
            lm = random_table(rng, depth=5, branching=3, period_prob=0.7)
            sentences = [s.sentence for s in solve_all(task, lm, SolveOptions(max_variables=5))]
            assert len(sentences) == len(set(sentences))


class TestStatsAccounting:
    def test_backtracks_count_successful_calls(self, fig_lm, fig_task, monkeypatch):
        true_returns = 0
        original = SolverModel.backtrack

        def counting(self):
            nonlocal true_returns
            result = original(self)
            if result:
                true_returns += 1
            return result

        monkeypatch.setattr(SolverModel, "backtrack", counting)
        outcome = run_search(fig_task, fig_lm, SolveOptions(max_variables=8))
        assert outcome.stats.backtracks == true_returns

    def test_lm_calls_count_domain_generations(self, fig_lm, fig_task):
        outcome = run_search(fig_task, fig_lm, SolveOptions(max_solutions=1, max_variables=8))
        # domains generated: x2("A"), x3("A boy") empty, x3("A man"), x4("A man drinks")
        assert outcome.stats.lm_calls == 4


class _PromptLog(LanguageModel):
    """A backend that logs every prompt ``predict`` is asked, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def predict(self, sentence, params, k=None):
        self.prompts.append(sentence)
        return self.inner.predict(sentence, params, k)

    def conditional_logprob(self, prefix_words, word, params):
        return self.inner.conditional_logprob(prefix_words, word, params)


class TestVisitOrder:
    """The order in which the search asks the backend and backtracks."""

    def test_exhaustive_walkthrough(self, fig_lm, fig_task):
        lm = _PromptLog(fig_lm)
        outcome = run_search(fig_task, lm, SolveOptions(max_variables=8), exhaustive=True)
        # A prefix is asked once, for its period check and its next words;
        # a finished sentence grows no further.
        assert lm.prompts == ["A", "A boy", "A man", "A man drinks", "A man drinks milk", "A man and"]
        assert outcome.stats.backtracks == 2

    def test_capped_jump_back_demo(self, fixtures_dir):
        lm = _PromptLog(TableLM.from_file(fixtures_dir / "demo60.tbl"))
        task = with_k(builtin_task("demo-60"), 10)
        outcome = run_search(task, lm, SolveOptions(max_solutions=4, backtrack_to=2))
        sentences = [
            "The following is an article by the author of the above book.",
            "The first time you see the movie version of your book on TV.",
            "The New York Times has an article on the new book by Tim Wu.",
            "The new year is here and we are ready to make the next step.",
        ]
        assert [s.sentence for s in outcome.solutions] == sentences
        # The longest second word is tried first and leads nowhere; then each
        # solution's prefixes are asked once, the last for its period check.
        expected = ["The", "The extraordinarily"]
        for sentence in sentences:
            words = sentence[:-1].split(" ")
            expected += [" ".join(words[:n]) for n in range(2, len(words) + 1)]
        assert lm.prompts == expected
        assert outcome.stats.backtracks == 4


def _deep_chains(depth=40):
    """Four chains of ``depth`` words under all 8 constraint types, each a solution.

    The chains branch at positions 2 and 3; the keywords and the pinned word
    sit at fixed positions, and every other word is three equal letters.
    """
    fixed = {1: "Go", 7: "sun", 12: "sea", 16: "pin"}
    letters = "abcdefghijklmnoprstuvwy"
    table = {}
    for chain in range(4):
        branch = {2: chain >> 1}  # which chains share the word at a position
        words = [fixed.get(p) or letters[(7 * p + 5 * branch.get(p, chain)) % 23] * 3
                 for p in range(1, depth + 1)]
        for p, word in enumerate(words + ["."]):
            entries = table.setdefault(" ".join(words[:p]), [])
            if all(w != word for w, _ in entries):
                entries.append((word, 0.4))
    length = len(" ".join(words)) + 1
    constraints = (
        StartsWith(("Go",)), MaxWordLen(6), ForbiddenChars("qxz"),
        KeywordSeparation({"sun", "sea"}, 4), MandatoryKeywords({"sun", "Sea"}),
        PositionLexical(16, "pin"), CharCountExact(length), WordCountRange(depth, depth),
    )
    task = TaskSpec(name="chains", constraints=constraints, seed=("Go",), lm_params=LMParams(k=3))
    return TableLM(table), task


def test_searches_never_rescan_the_prefix(monkeypatch):
    """Per-node work stays O(1) in the depth: the searches read prefix summaries."""
    lm, task = _deep_chains()
    rebuild = gencp.constraints.summarize

    def refuse(words, task):
        raise AssertionError("check_complete rescans the whole prefix")

    def seed_only(words, constraints):
        assert len(words) <= len(task.seed), "a summary was rebuilt from the whole prefix"
        return rebuild(words, constraints)

    with monkeypatch.context() as patched:
        patched.setattr(gencp.constraints, "check_complete", refuse)
        patched.setattr(gencp.constraints, "summarize", seed_only)
        solved = solve_all(task, lm, SolveOptions(max_variables=48))
        beamed, _bad = beam_search(task, lm, k=3, max_words=48)
    assert len(solved) == 4 and 1 <= len(beamed) <= 3
    assert all(check_complete(s.words, task) for s in solved + beamed)


def test_searches_score_solutions_without_the_backend(monkeypatch):
    """Solutions are scored from the candidates the search assigned, the seed aside."""
    lm, task = _deep_chains()
    asked = lm.conditional_logprob

    def seed_only(prefix_words, word, params):
        assert len(prefix_words) < len(task.seed), f"rescored {word!r} after {prefix_words}"
        return asked(prefix_words, word, params)

    with monkeypatch.context() as patched:
        patched.setattr(lm, "conditional_logprob", seed_only)
        solved = solve_all(task, lm, SolveOptions(max_variables=48))
        jumped = solve(task, lm, SolveOptions(max_solutions=3, backtrack_to=2, max_variables=48))
        beamed, _bad = beam_search(task, lm, k=3, max_words=48)
    assert len(solved) == 4 and len(jumped) == 2 and 1 <= len(beamed) <= 3
    for record in solved + jumped + beamed:
        assert record.ppl == perplexity(lm, list(record.words), task.lm_params)
