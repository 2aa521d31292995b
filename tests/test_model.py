import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencp import (
    Domain,
    SolutionRecord,
    SolverModel,
    WordCandidate,
    render_prefix,
    render_sentence,
    variability,
)


def state_fingerprint(model):
    return (
        tuple((v.index, tuple(c.text for c in v.domain.values), v.domain.cursor) for v in model.variables),
    )


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


class TestDomain:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Domain([WordCandidate("a", -1.0), WordCandidate("a", -2.0)])

    def test_cursor_bounds(self):
        with pytest.raises(ValueError):
            Domain([WordCandidate("a", -1.0)], cursor=1)

    def test_emptiness(self):
        assert Domain().is_empty()
        assert not Domain([WordCandidate("a", -1.0)]).is_empty()


def _cands(*pairs):
    return [WordCandidate(text, lp) for text, lp in pairs]


def _assigned_model(words):
    model = SolverModel.from_seed(words)
    return model


class TestCurrentSentence:
    def test_two_words(self):
        assert _assigned_model(["A", "man"]).current_sentence() == "A man"

    def test_empty_model(self):
        assert SolverModel().current_sentence() == ""

    def test_single_seed(self):
        assert _assigned_model(["The"]).current_sentence() == "The"


class TestTrail:
    def test_save_then_mutate_then_restore(self):
        model = _assigned_model(["A", "man"])
        before = state_fingerprint(model)
        model.save_state()
        var = model.add_variable()
        var.domain = Domain(_cands(("drinks", -0.7), ("and", -1.2)))
        var.domain = Domain(var.domain.values[:1])  # filtering
        assert model.backtrack() is False  # seed values have no alternatives
        assert state_fingerprint(model) == before

    def test_stack_discipline(self):
        model = SolverModel()
        v1 = model.add_variable()
        v1.domain = Domain(_cands(("a", -0.1), ("b", -0.5)), cursor=0)
        model.save_state()
        v2 = model.add_variable()
        v2.domain = Domain(_cands(("x", -0.2), ("y", -0.9)), cursor=0)
        depth2 = state_fingerprint(model)
        model.save_state()
        v3 = model.add_variable()
        v3.domain = Domain(_cands(("z", -0.3)), cursor=0)
        # first backtrack lands on v2's next value, second on v1's
        assert model.backtrack()
        assert [v.index for v in model.variables] == [1, 2]
        assert model.variables[1].domain.cursor == 1
        assert model.backtrack()
        assert [v.index for v in model.variables] == [1]
        assert model.variables[0].domain.cursor == 1
        assert depth2[0][0][0] == 1  # sanity on the fingerprint shape

    def test_backtrack_empty_trail(self):
        assert SolverModel().backtrack() is False

    def test_trail_depth_never_exceeds_variables(self):
        model = SolverModel()
        for i in range(3):
            var = model.add_variable()
            var.domain = Domain(_cands((f"w{i}", -0.5), (f"v{i}", -1.0)), cursor=0)
            model.save_state()
            assert len(model.trail) <= len(model.variables)

    def test_exhausted_level_pops_further(self):
        # hand enumeration: x1 in {a, b}, x2 in {x, y, z}; repeated backtracking
        # must visit (a,x) (a,y) (a,z) (b,x) (b,y) (b,z) and then fail
        visits = []

        def fresh_level(model, values):
            var = model.add_variable()
            var.domain = Domain(_cands(*values))
            model.save_state()
            model.assign(0)

        model = SolverModel()
        fresh_level(model, [("a", -0.1), ("b", -0.7)])
        level2 = [("x", -0.2), ("y", -0.4), ("z", -0.8)]
        fresh_level(model, level2)
        visits.append(tuple(model.assigned_words()))
        while True:
            if not model.backtrack():
                break
            model.save_state()
            if len(model.variables) == 1:
                fresh_level(model, level2)
            visits.append(tuple(model.assigned_words()))
        assert visits == [
            ("a", "x"), ("a", "y"), ("a", "z"),
            ("b", "x"), ("b", "y"), ("b", "z"),
        ]

    def test_no_assignment_revisited(self):
        # corollary of the visit-order check above, kept separate for clarity
        model = SolverModel()
        var = model.add_variable()
        var.domain = Domain(_cands(("a", -0.1), ("b", -0.7), ("c", -1.1)))
        model.save_state()
        model.assign(0)
        seen = {tuple(model.assigned_words())}
        while model.backtrack():
            model.save_state()
            assignment = tuple(model.assigned_words())
            assert assignment not in seen
            seen.add(assignment)
        assert seen == {("a",), ("b",), ("c",)}


class TestBacktrackTo:
    def _sentence_model(self, words, alternatives):
        model = SolverModel()
        for i, word in enumerate(words):
            var = model.add_variable()
            cands = [(word, -0.1)] + alternatives.get(i + 1, [])
            var.domain = Domain(_cands(*cands))
            model.save_state()
            model.assign(0)
        return model

    def test_deletes_tail_and_changes_target(self):
        words = ["I", "like", "to", "swim", "in", "the", "summer"]
        model = self._sentence_model(words, {2: [("want", -0.9)]})
        assert model.backtrack_to(2) is True
        assert [v.assigned_word for v in model.variables] == ["I", "want"]
        assert len(model.trail) == 1  # the level-2 snapshot was consumed by the jump

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
        assert [v.assigned_word for v in model.variables] == ["We"]


class CopyingTrail:
    """Reference trail: each save copies every (values, cursor) pair."""

    def __init__(self):
        self.domains = []
        self.trail = []

    def add(self, texts):
        self.domains.append((texts, None))

    def assign(self, cursor):
        self.domains[-1] = (self.domains[-1][0], cursor)

    def save(self):
        self.trail.append(list(self.domains))

    def backtrack(self):
        while self.trail:
            snap = self.trail.pop()
            tried = self.domains[len(snap) - 1][1]
            self.domains = list(snap)
            nxt = 0 if tried is None else tried + 1
            if nxt < len(self.domains[-1][0]):
                self.assign(nxt)
                return True
        return False

    def backtrack_to(self, n):
        del self.domains[n:]
        while self.trail and len(self.trail[-1]) > n:
            self.trail.pop()
        return self.backtrack()


def _words_from_cursors(model):
    words = []
    for var in model.variables:
        if var.domain.cursor is None:
            break
        words.append(var.domain.values[var.domain.cursor].text)
    return words


# (operation, argument) pairs; "add" and "assign" are drawn twice as often
_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "assign", "assign", "save", "backtrack", "backtrack_to"]),
        st.integers(0, 3),
    ),
    max_size=30,
)


class TestIncrementalState:
    @settings(max_examples=300)
    @given(st.integers(0, 3), _steps)
    def test_matches_copying_trail(self, seed_len, steps):
        # seed words are assigned without trail entries, as in the search
        seed = [f"s{i}" for i in range(seed_len)]
        model, ref = SolverModel.from_seed(seed), CopyingTrail()
        for word in seed:
            ref.add((word,))
            ref.assign(0)

        def check():
            assert model.assigned_words() == _words_from_cursors(model)
            assert [
                (tuple(c.text for c in v.domain.values), v.domain.cursor) for v in model.variables
            ] == ref.domains
            assert len(model.trail) == len(ref.trail)

        for step, arg in steps:
            if step == "add":
                texts = tuple(f"w{len(model.variables)}v{i}" for i in range(arg))
                model.add_variable().domain = Domain(_cands(*((t, -1.0) for t in texts)))
                ref.add(texts)
            elif step == "save" and model.variables:
                model.save_state()
                ref.save()
            elif step == "assign" and model.variables and model.variables[-1].domain.values:
                choices = [*range(len(model.variables[-1].domain)), None]
                cursor = choices[arg % len(choices)]
                model.assign(cursor)
                ref.assign(cursor)
            elif step == "backtrack":
                assert model.backtrack() == ref.backtrack()
            elif step == "backtrack_to" and len(model.variables) > 1:
                n = 1 + arg % (len(model.variables) - 1)
                assert model.backtrack_to(n) == ref.backtrack_to(n)
            check()
        # each landing consumes a trail entry, so this ends; the last pop
        # restores the cursor at the lowest saved level
        while model.backtrack():
            assert ref.backtrack()
            check()
        assert not ref.backtrack()
        check()


class TestContainsEmptyVariable:
    def test_empty_generated_domain(self):
        model = _assigned_model(["A", "boy"])
        model.add_variable()  # empty domain, as after a failed prediction
        assert model.contains_empty_variable()

    def test_fresh_model_with_values(self):
        model = _assigned_model(["A"])
        var = model.add_variable()
        var.domain = Domain(_cands(("man", -0.5)))
        assert not model.contains_empty_variable()

    def test_fully_filtered_domain(self):
        from gencp import ForbiddenChars, TaskSpec, filter_domain

        task = TaskSpec(name="t", constraints=(ForbiddenChars("e"),), require_period=False)
        model = _assigned_model(["A"])
        var = model.add_variable()
        var.domain = Domain(_cands(("the", -0.3), ("he", -0.9)))
        var.domain = filter_domain(["A"], var.domain, task.constraints, task)
        assert model.contains_empty_variable()


class TestLeftToRightInvariant:
    def test_assignment_prefix_is_contiguous(self):
        model = _assigned_model(["A", "man"])
        var = model.add_variable()
        var.domain = Domain(_cands(("drinks", -0.4)))
        # last variable unassigned; all earlier ones assigned
        assert model.assigned_words() == ["A", "man"]
        assert all(v.domain.cursor is not None for v in model.variables[:-1])


class TestSolutionRecord:
    def test_rendering_must_match(self):
        with pytest.raises(ValueError):
            SolutionRecord(words=("A", "man"), sentence="wrong", ppl=1.0, discovered_at=0.0)

    def test_roundtrip(self):
        rec = SolutionRecord(words=("A", "man", "."), sentence="A man.", ppl=2.0, discovered_at=0.1)
        assert rec.sentence == "A man."
