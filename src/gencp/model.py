"""Core search state: word variables and their candidate domains.

The search assigns sentence positions left to right, so every variable but the
newest is assigned.  A variable and its domain are made when the search
reaches its position, and nothing narrows a domain afterwards, so the stack
of variables is the whole backtracking state: each domain's cursor marks the
values already tried, and backtracking deletes the exhausted variables and
advances the deepest one left to its next value.  Beside the assigned words
the model keeps one prefix summary per prefix (see
``gencp.constraints.PrefixSummary``); cutting the word list back cuts the
summaries back with it.
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
    unassigned).  Values before the cursor have already been tried.
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
    lm_calls: int = 0  # domain fetches; period checks and scoring call the backend too


@dataclass(frozen=True)
class SolutionRecord:
    """A finished sentence: its words, rendering, perplexity, and discovery time.

    ``ppl`` is ``exp(-logprob / len(words))``, with the final "." among the
    words.  The solver and beam search sum ``logprob`` from the candidates
    they chose (see ``gencp.solver.make_record``), so it needs no call to
    the backend beyond scoring the seed.
    """

    words: tuple
    sentence: str
    ppl: float
    discovered_at: float

    def __post_init__(self):
        if self.sentence != render_sentence(self.words):
            raise ValueError("sentence does not match the rendering of words")


class SolverModel:
    """Mutable search state: variables, counters.

    ``words`` holds the assigned words, kept in step by ``assign``, through
    which every cursor move goes.  ``root`` is the summary of the empty
    prefix; ``summaries`` holds the summary of every prefix of ``words``,
    ``root`` first, and ``summary`` is the last of them.  Confined to a
    single search; never share one instance across threads.
    """

    def __init__(self, root):
        self.variables = []
        self.words = []
        self.summaries = [root]
        self.stats = SearchStats()

    @classmethod
    def from_seed(cls, seed_words, root):
        """Model whose first variables each hold one given word as their only value."""
        model = cls(root)
        for word in seed_words:
            model.add_variable(Domain([WordCandidate(word, 0.0)]))
            model.assign(0, admitted=False)
        return model

    def add_variable(self, domain=None):
        """Append the next sentence-position variable, its domain empty when not given.

        Every variable must be assigned.
        """
        var = Variable(len(self.variables) + 1, domain)
        self.variables.append(var)
        return var

    @property
    def summary(self):
        """Summary of the assigned words."""
        return self.summaries[-1]

    def assign(self, cursor, admitted=True):
        """Assign the newest variable its value at ``cursor``; update ``words`` and ``summaries``.

        Every earlier variable must be assigned.  ``admitted`` says that
        ``filter_domain`` admitted the variable's values after the words
        before it (see ``PrefixSummary.push``).
        """
        var = self.variables[-1]
        var.domain.cursor = cursor
        word = var.domain.values[cursor].text
        del self.words[var.index - 1:]
        del self.summaries[var.index:]
        self.words.append(word)
        self.summaries.append(self.summaries[-1].push(word, admitted))

    def current_sentence(self):
        """Rendering of the assigned words; empty string for an empty model."""
        return render_prefix(self.words)

    def backtrack(self):
        """Move the deepest variable that has an untried value to its next value.

        The variables after it, whose values are all tried, are deleted with
        their words and summaries.  Returns False, with no variable left,
        when no variable has an untried value.
        """
        while self.variables:
            var = self.variables[-1]
            nxt = 0 if var.domain.cursor is None else var.domain.cursor + 1
            if nxt < len(var.domain.values):
                self.assign(nxt)
                self.stats.backtracks += 1
                return True
            self.variables.pop()
            del self.words[var.index - 1:]
            del self.summaries[var.index:]
        return False

    def backtrack_to(self, n):
        """Delete the variables after position n, then backtrack.

        Returns False when no untried value remains at or above x_n.
        """
        if n < 1:
            raise ValueError("backtrack target must be >= 1")
        if n >= len(self.variables):
            raise ValueError("nothing to delete")
        del self.variables[n:]
        del self.words[n:]
        del self.summaries[n + 1:]
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
