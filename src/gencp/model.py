"""Core search state: word variables, their candidate domains, and the undo trail.

The search assigns sentence positions left to right, so every variable but the
newest is assigned.  After a save at level n the search only moves the cursor
of x_n and appends deeper variables, so one trail entry (the variable count
and x_n's cursor) undoes it all.  Backtracking also advances the deepest
surviving variable to its next untried value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class WordCandidate:
    """One predicted surface word with its natural-log probability."""

    text: str
    logprob: float

    def __post_init__(self):
        if not self.text:
            raise ValueError("candidate text is empty")
        if any(ch.isspace() for ch in self.text):
            raise ValueError(f"candidate text contains whitespace: {self.text!r}")
        if self.logprob > 0.0:
            raise ValueError(f"logprob must be <= 0, got {self.logprob}")


class Domain:
    """Ordered candidate words for one sentence position.

    ``cursor`` is the index of the currently assigned value (``None`` when
    unassigned).  Values before the cursor have already been tried and
    rejected at the current trail level.
    """

    __slots__ = ("values", "cursor")

    def __init__(self, values=(), cursor=None):
        values = list(values)
        seen = set()
        for cand in values:
            if cand.text in seen:
                raise ValueError(f"duplicate candidate {cand.text!r} in domain")
            seen.add(cand.text)
        if cursor is not None and not 0 <= cursor < len(values):
            raise ValueError("cursor out of range")
        self.values = values
        self.cursor = cursor

    def current(self):
        """The assigned candidate, or None when unassigned."""
        if self.cursor is None:
            return None
        return self.values[self.cursor]

    def is_empty(self):
        """True when there is nothing assigned and nothing left to try."""
        return self.cursor is None and not self.values

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        texts = [c.text for c in self.values]
        return f"Domain({texts}, cursor={self.cursor})"


class Variable:
    """One sentence position (1-based index) and its candidate domain."""

    __slots__ = ("index", "domain")

    def __init__(self, index, domain=None):
        if index < 1:
            raise ValueError("variable index must be >= 1")
        self.index = index
        self.domain = domain if domain is not None else Domain()

    @property
    def assigned_word(self):
        cand = self.domain.current()
        return cand.text if cand is not None else None

    def __repr__(self):
        return f"Variable(x{self.index}={self.assigned_word!r}, {self.domain!r})"


@dataclass
class SearchStats:
    backtracks: int = 0
    lm_calls: int = 0


@dataclass(frozen=True)
class SavedState:
    """One trail entry: the variable count n and x_n's cursor at the save.

    Variables before x_n neither move nor change their domains until this
    entry is popped, and variables after it are deleted, so these two values
    restore the whole model.
    """

    num_variables: int
    cursor: int | None


@dataclass(frozen=True)
class SolutionRecord:
    """A finished sentence: its words, rendering, perplexity, and discovery time."""

    words: tuple
    sentence: str
    ppl: float
    discovered_at: float

    def __post_init__(self):
        if self.sentence != render_sentence(self.words):
            raise ValueError("sentence does not match the rendering of words")


class SolverModel:
    """Mutable search state: variables, trail, counters.

    ``words`` holds the assigned words, kept in step by ``assign``, through
    which every cursor move goes.  Confined to a single search; never share
    one instance across threads.
    """

    def __init__(self):
        self.variables = []
        self.words = []
        self.trail = []
        self.stats = SearchStats()

    @classmethod
    def from_seed(cls, seed_words):
        """Model whose first variables are pinned to the given words."""
        model = cls()
        for word in seed_words:
            model.add_variable().domain = Domain([WordCandidate(word, 0.0)])
            model.assign(0)
        return model

    def add_variable(self):
        """Append the next sentence-position variable with an empty domain."""
        var = Variable(len(self.variables) + 1)
        self.variables.append(var)
        return var

    def assign(self, cursor):
        """Set the newest variable's cursor (None unassigns it) and update ``words``."""
        var = self.variables[-1]
        var.domain.cursor = cursor
        del self.words[var.index - 1:]
        if cursor is not None and len(self.words) == var.index - 1:
            self.words.append(var.domain.values[cursor].text)

    def assigned_words(self):
        """Words assigned so far, stopping at the first unassigned variable."""
        return list(self.words)

    def current_sentence(self):
        """Rendering of the assigned words; empty string for an empty model."""
        return render_prefix(self.words)

    def contains_empty_variable(self):
        """True when the newest variable has no value; every earlier one is assigned."""
        return bool(self.variables) and self.variables[-1].domain.is_empty()

    def save_state(self):
        """Push a trail entry; later mutations are undoable to this point."""
        snap = SavedState(len(self.variables), self.variables[-1].domain.cursor)
        self.trail.append(snap)
        return snap

    def backtrack(self):
        """Undo to the most recent trail entry and try the next value there.

        Pops trail levels until one still has an untried value; deeper
        variables are deleted along the way.  Returns False when the trail
        is exhausted.
        """
        while self.trail:
            snap = self.trail.pop()
            del self.variables[snap.num_variables:]
            domain = self.variables[-1].domain
            nxt = 0 if domain.cursor is None else domain.cursor + 1
            if nxt < len(domain.values):
                self.assign(nxt)
                self.stats.backtracks += 1
                return True
            self.assign(snap.cursor)
        return False

    def backtrack_to(self, n):
        """Delete variables after position n, then backtrack landing at x_n.

        Returns False when no untried value remains at or above x_n.
        """
        if n < 1:
            raise ValueError("backtrack target must be >= 1")
        if n >= len(self.variables):
            raise ValueError("nothing to delete")
        del self.variables[n:]
        del self.words[n:]
        while self.trail and self.trail[-1].num_variables > n:
            self.trail.pop()
        return self.backtrack()


def render_sentence(words):
    """Words joined by single spaces; a final "." attaches to the last word."""
    words = list(words)
    if not words:
        raise ValueError("empty sentence")
    if words[-1] == "." and len(words) > 1:
        return " ".join(words[:-1]) + "."
    return " ".join(words)


def render_prefix(words):
    """Like render_sentence, but the empty prefix renders as ""."""
    words = list(words)
    return render_sentence(words) if words else ""


_GAP = object()


def variability(a, b):
    """Number of positions where two word sequences disagree.

    Positions beyond the shorter sequence each count as a difference.
    """
    return sum(
        1 for x, y in itertools.zip_longest(a, b, fillvalue=_GAP) if x != y
    )
