import math
import random

import pytest

from gencp import (
    Beam,
    CharCountExact,
    ForbiddenChars,
    HaltingMode,
    LMParams,
    MandatoryKeywords,
    TableLM,
    TaskSpec,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    check_complete,
    expand_beams,
    render_prefix,
    satisfaction_rate,
    sequence_logprob,
    summarize,
    with_k,
)

from conftest import PromptLog, random_table


def _task(*constraints, k=2, require_period=True):
    return TaskSpec(
        name="t", constraints=tuple(constraints), seed=(),
        lm_params=LMParams(k=k), require_period=require_period,
    )


class TestExpandBeams:
    TABLE = {
        "up": [("one", 0.6), ("two", 0.4)],
        "down": [("six", 0.7), ("ten", 0.3)],
    }

    def test_pooled_top_k(self):
        lm = TableLM(self.TABLE)
        task = _task(WordCountRange(1, 4))
        beams = [
            Beam(("up",), math.log(0.5), summarize(("up",), task)),
            Beam(("down",), math.log(0.5), summarize(("down",), task)),
        ]
        kept, dead = expand_beams(beams, lm, task, k=2)
        assert dead == []
        # cumulative scores: down six (.35), up one (.30), down ten (.15), up two (.20)
        assert [b.words for b in kept] == [("down", "six"), ("up", "one")]

    def test_beam_without_extensions_dies(self):
        lm = TableLM(self.TABLE)
        task = _task(WordCountRange(1, 4))
        beams = [Beam(("sideways",), math.log(0.5), summarize(("sideways",), task))]
        kept, dead = expand_beams(beams, lm, task, k=2)
        assert kept == []
        assert [b.words for b in dead] == [("sideways",)]

    def test_infeasible_extensions_dropped_before_cut(self):
        # the char budget kills the high-probability long word, so the short
        # one survives even though it would lose the pooled ranking
        lm = TableLM({"ab": [("elephants", 0.9), ("cd", 0.1)]})
        task = _task(CharCountExact(6), WordCountRange(1, 3))
        beams = [Beam(("ab",), math.log(1.0), summarize(("ab",), task))]
        kept, dead = expand_beams(beams, lm, task, k=2)
        assert [b.words for b in kept] == [("ab", "cd")]
        assert dead == []

    def test_complete_extensions_survive_at_word_ceiling(self):
        lm = TableLM({"ab": [("cd", 0.9)]})
        task = _task(WordCountRange(2, 2))
        beams = [Beam(("ab",), 0.0, summarize(("ab",), task))]
        kept, dead = expand_beams(beams, lm, task, k=2)
        assert [b.words for b in kept] == [("ab", "cd")]

    def test_period_character_stays_reserved(self):
        # "a xyz" and "b cde" fill all 5 characters and leave none for the period
        lm = TableLM({
            "": [("a", 0.5), ("b", 0.4)],
            "a": [("xyz", 0.3), ("xy", 0.2)],
            "b": [("cde", 0.9)],
            "a xy": [(".", 0.9)],
            "a xyz": [(".", 0.9)],
            "b cde": [(".", 0.9)],
        })
        task = _task(CharCountExact(5), k=2)
        sols, bad = beam_search(task, lm)
        assert [s.sentence for s in sols] == ["a xy."]
        assert bad == ["b"]
        assert brute_force_oracle(task, lm, depth_cap=3).keys() == {"a xy."}

    def test_tie_break_on_rendered_text(self):
        lm = TableLM({"go": [("beta", 0.5), ("alfa", 0.5)]})
        task = _task(WordCountRange(1, 3))
        beams = [Beam(("go",), 0.0, summarize(("go",), task))]
        kept, _ = expand_beams(beams, lm, task, k=1)
        assert [b.words for b in kept] == [("go", "alfa")]

    def test_tie_across_beams_breaks_on_rendered_text(self):
        # equal scores from two beams: the pool's order, not the beams', decides
        lm = TableLM({"up": [("on", 0.5)], "at": [("on", 0.5)]})
        task = _task(WordCountRange(1, 3))
        beams = [Beam((w,), 0.0, summarize((w,), task)) for w in ("up", "at")]
        kept, _ = expand_beams(beams, lm, task, k=1)
        assert [b.words for b in kept] == [("at", "on")]

    def test_each_beam_carries_its_rendered_prompt(self):
        """A child's prompt is its parent's plus one word, with no space before a first word."""
        rng = random.Random(5)
        for seed in ((), ("so", "we")):
            lm = random_table(rng, seed_words=seed, depth=len(seed) + 4, branching=4, period_prob=0.3)
            for k in (1, 2, 3):
                task = TaskSpec(name="t", constraints=(WordCountRange(1, 8),), seed=seed,
                                lm_params=LMParams(k=2), require_period=True)
                beams = [Beam(seed, 0.0, summarize(seed, task))]
                for _ in range(4):
                    beams, dead = expand_beams(beams, lm, task, k)
                    assert beams, (seed, k)
                    for beam in beams + dead:
                        assert beam.summary.prompt == render_prefix(beam.words)


class TestBeamSearch:
    def test_a_dead_seed_beam_is_never_asked_about(self):
        """A seed after which the required period no longer fits ends the search before any ask."""
        lm = PromptLog(TableLM({"ab": [("c", 0.5), (".", 0.4)]}))
        task = TaskSpec(name="t", constraints=(CharCountExact(2),), seed=("ab",),
                        lm_params=LMParams(k=2), require_period=True)
        assert beam_search(task, lm) == ([], ["ab"])
        assert lm.prompts == []

    def test_greedy_path_found_at_k1(self):
        lm = TableLM({
            "": [("We", 1.0)],
            "We": [("run", 0.9), ("eat", 0.1)],
            "We run": [(".", 1.0)],
        })
        task = _task(WordCountRange(2, 2), k=1)
        sols, bad = beam_search(task, lm, k=1)
        assert [s.sentence for s in sols] == ["We run."]
        assert bad == []

    def test_beam_narrower_than_k_takes_words_from_its_own_window(self):
        # The root is asked at the task's k=2, for 8 candidates; a width-1
        # beam reads only the first 4, which hold no allowed word.
        lm = TableLM({
            "": [("qa", 0.2), ("qb", 0.2), ("qc", 0.2), ("qd", 0.2), ("fine", 0.1)],
            "fine": [(".", 0.9)],
        })
        task = _task(ForbiddenChars("q"), WordCountRange(1, 3), k=2)
        assert beam_search(task, lm, k=1) == ([], [""])
        assert [s.sentence for s in beam_search(task, lm, k=2)[0]] == ["fine."]

    def test_a_narrow_beam_asks_at_the_task_k(self):
        widths = []

        class WidthLog(TableLM):
            def predict(self, sentence, params):
                widths.append((sentence, params.k))
                return super().predict(sentence, params)

        lm = WidthLog({"": [("fine", 0.5)], "fine": [(".", 0.9)]})
        task = _task(WordCountRange(1, 3), k=2)
        assert [s.sentence for s in beam_search(task, lm, k=1)[0]] == ["fine."]
        assert widths == [("", 2), ("fine", 2)]  # the expansion, then the period check

    def test_a_beam_wider_than_top_k_times_oversample_is_refused_before_any_ask(self):
        lm = PromptLog(TableLM({"": [("fine", 0.5)], "fine": [(".", 0.9)]}))
        task = _task(WordCountRange(1, 3))  # top_k 40 and oversample 4 allow a width of 160
        assert [s.sentence for s in beam_search(task, lm, k=160)[0]] == ["fine."]
        lm.prompts.clear()
        with pytest.raises(ValueError, match=r"^k exceeds top_k \* oversample$"):
            beam_search(task, lm, k=161)
        assert lm.prompts == []

    def test_a_beam_that_is_not_a_solution_is_expanded_from_its_period_check_answer(self):
        # "fine" ends a sentence but "." ranks below k = 1; its children come
        # from the answer its period check asked for
        lm = PromptLog(TableLM({
            "": [("fine", 0.5)],
            "fine": [("more", 0.6), (".", 0.3)],
            "fine more": [(".", 0.9)],
        }))
        task = _task(WordCountRange(1, 2), k=1)
        assert [s.sentence for s in beam_search(task, lm, k=1)[0]] == ["fine more."]
        assert lm.prompts == ["", "fine", "fine more"]

    def test_rank_displacement_loses_solution(self, fixtures_dir):
        lm = TableLM.from_file(fixtures_dir / "bs_miss.tbl")
        task = _task(WordCountRange(2, 2), k=2)
        oracle = brute_force_oracle(task, lm, depth_cap=4)
        assert oracle.keys() == {"My cat."}
        sols, bad = beam_search(task, lm, k=2)
        assert sols == []
        assert len(bad) >= 1

    def test_larger_k_can_find_fewer(self, fixtures_dir):
        lm = TableLM.from_file(fixtures_dir / "bs_k_shift.tbl")
        base = _task(WordCountRange(2, 2), k=5)
        assert brute_force_oracle(base, lm, depth_cap=4).keys() == {"it was."}
        sols5, _ = beam_search(base, lm, k=5)
        sols6, _ = beam_search(with_k(base, 6), lm, k=6)
        assert [s.sentence for s in sols5] == ["it was."]
        assert sols6 == []

    def test_first_solution_halts_with_leftovers(self):
        lm = TableLM({
            "": [("We", 1.0)],
            "We": [("run", 0.6), ("eat", 0.4)],
            "We run": [(".", 1.0)],
            "We eat": [("pie", 1.0)],
            "We eat pie": [(".", 1.0)],
        })
        task = _task(WordCountRange(2, 3), k=2)
        sols, bad = beam_search(task, lm, k=2, mode=HaltingMode.FIRST_SOLUTION)
        assert [s.sentence for s in sols] == ["We run."]
        assert bad == ["We eat"]

    def test_all_solutions_continues_with_survivors(self):
        lm = TableLM({
            "": [("We", 1.0)],
            "We": [("run", 0.6), ("eat", 0.4)],
            "We run": [(".", 1.0)],
            "We eat": [("pie", 1.0)],
            "We eat pie": [(".", 1.0)],
        })
        task = _task(WordCountRange(2, 3), k=2)
        sols, bad = beam_search(task, lm, k=2, mode=HaltingMode.ALL_SOLUTIONS)
        assert sorted(s.sentence for s in sols) == ["We eat pie.", "We run."]
        assert bad == []

    def test_a_whole_beam_among_unfinished_ones_is_a_solution_at_its_step(self):
        """A step checks each beam that ends a sentence, also when the other beams do not end one."""
        lm = TableLM({
            "": [("go", 0.6), ("stop", 0.4)],
            "go": [("stop", 0.7), (".", 0.2)],
            "stop": [(".", 0.9)],
            "go stop": [(".", 0.9)],
        })
        sols, bad = beam_search(_task(MandatoryKeywords(("stop",))), lm)
        assert ([s.sentence for s in sols], bad) == (["stop.", "go stop."], [])

    def test_unsatisfiable_all_beams_go_bad(self):
        lm = TableLM({
            "": [("up", 0.6), ("at", 0.4)],
            "up": [("we", 1.0)],
            "at": [("it", 1.0)],
        })
        task = _task(WordCountRange(3, 3), k=2)
        sols, bad = beam_search(task, lm, k=2)
        assert sols == []
        assert sorted(bad) == ["at it", "up we"]

    def test_width_bound_holds_each_step(self):
        rng = random.Random(11)
        lm = random_table(rng, depth=5, branching=4, period_prob=0.4)
        task = _task(WordCountRange(1, 4), k=3)
        beams = [Beam((), 0.0, summarize((), task))]
        for _ in range(4):
            survivors = [b for b in beams if not b.summary.complete()]
            beams, _dead = expand_beams(survivors, lm, task, k=3)
            assert len(beams) <= 3
            if not beams:
                break

    def test_scores_match_sequence_logprob(self):
        rng = random.Random(23)
        lm = random_table(rng, depth=4, branching=3, period_prob=0.3)
        task = _task(WordCountRange(1, 3), k=3)
        params = task.lm_params
        beams = [Beam((), 0.0, summarize((), task))]
        for _ in range(3):
            beams, _dead = expand_beams(beams, lm, task, k=3)
            for beam in beams:
                assert beam.cum_logprob == sequence_logprob(lm, list(beam.words), params)
            if not beams:
                break

    def test_outputs_partition_cleanly(self):
        from gencp import predicts_period

        rng = random.Random(31)
        task = _task(WordCountRange(2, 3), k=3)
        for _ in range(5):
            lm = random_table(rng, depth=5, branching=3, period_prob=0.5)
            sols, bad = beam_search(task, lm, k=3)
            for record in sols:
                assert check_complete(list(record.words), task)
            for sentence in bad:
                words = sentence.split(" ") if sentence else []
                # a bad output fails the constraints or the end-of-sentence signal
                structurally_ok = bool(words) and check_complete(words + ["."], task)
                assert not structurally_ok or not predicts_period(lm, sentence, task.lm_params)
                assert sentence not in {s.sentence for s in sols}

    def test_max_words_cap_turns_beams_bad(self):
        lm = TableLM({
            "": [("go", 1.0)],
            "go": [("go2", 1.0)],
        })
        task = _task(WordCountRange(5, 9), k=1)
        sols, bad = beam_search(task, lm, k=1, max_words=1)
        assert sols == []
        assert bad == ["go"]

    def test_bad_outputs_render_their_own_beams(self):
        """Each of the four kinds of bad output is its beam's words, rendered as the backend is asked."""
        table = {
            "": [("We", 1.0)],
            "We": [("all", 1.0)],
            "We all": [("run", 0.6), ("eat", 0.4)],
            "We all run": [(".", 1.0)],
            "We all eat": [("pie", 1.0)],
        }
        # a dead beam: "We all eat" has no word the task still admits
        lm = PromptLog(TableLM(table))
        task = _task(WordCountRange(3, 3), k=2)
        sols, bad = beam_search(task, lm, k=2)
        assert [s.sentence for s in sols] == ["We all run."]
        assert bad == ["We all eat"]
        assert lm.prompts == ["", "We", "We all", "We all run", "We all eat"]
        # the max_words cut: a beam of max_words words is not expanded
        lm = PromptLog(TableLM(table))
        sols, bad = beam_search(_task(WordCountRange(4, 4), k=1), lm, k=1, max_words=2)
        assert (sols, bad) == ([], ["We all"])
        assert lm.prompts == ["", "We"]
        # the leftovers at a first-solution halt, below a seed of two words
        lm = PromptLog(TableLM(table))
        task = TaskSpec(name="t", constraints=(WordCountRange(3, 4),), seed=("We", "all"),
                        lm_params=LMParams(k=2), require_period=True)
        sols, bad = beam_search(task, lm, k=2, mode=HaltingMode.FIRST_SOLUTION)
        assert [s.sentence for s in sols] == ["We all run."]
        assert bad == ["We all eat"]
        assert lm.prompts == ["We all", "We all run", "We all eat"]
        # the beams alive when the budget runs out
        lm = PromptLog(TableLM(table))
        assert beam_search(task, lm, k=2, time_budget=0.0) == ([], ["We all"])
        assert lm.prompts == []

    def test_budget_expiry_flags_leftovers(self):
        lm = TableLM({
            "": [("We", 1.0)],
            "We": [("run", 0.9)],
            "We run": [("far", 1.0)],
        })
        task = _task(WordCountRange(3, 3), k=1)
        sols, bad = beam_search(task, lm, k=1, time_budget=0.0)
        assert sols == []
        assert bad == [""]


class TestSatisfactionRate:
    def test_all_good(self):
        assert satisfaction_rate([1] * 5, []) == 100.0

    def test_one_in_ten(self):
        assert satisfaction_rate([1], [1] * 9) == 10.0

    def test_none_good(self):
        assert satisfaction_rate([], [1] * 5) == 0.0

    def test_no_outputs_is_undefined(self):
        assert satisfaction_rate([], []) is None
