"""Core search state: the candidate domains of the sentence positions.

The search assigns sentence positions, its variables, left to right, so
every position but the newest is assigned.  A position's domain is made when
the search reaches it, and nothing narrows a domain afterwards, so the stack
of domains is the whole backtracking state: each domain's cursor marks the
values already tried, and backtracking deletes the exhausted domains and
advances the deepest one left to its next value.  Beside the assigned words
the model keeps one prefix summary per prefix (see
``gencp.constraints.PrefixSummary``); cutting the word list back cuts the
summaries back with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


def has_whitespace(text):
    """``any(ch.isspace() for ch in text)``, at C speed."""
    return bool(text) and text.split() != [text]


@dataclass(frozen=True, slots=True)
class WordCandidate:
    """One predicted surface word with its natural-log probability; slotted, so it has no ``__dict__``."""

    text: str
    logprob: float

    def __post_init__(self):
        if not self.text:
            raise ValueError("candidate text is empty")
        if has_whitespace(self.text):
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


@dataclass
class SearchStats:
    backtracks: int = 0
    lm_calls: int = 0  # domains made, each from its node's one answer; leaves and scoring ask too


@dataclass(frozen=True)
class SolutionRecord:
    """A finished sentence: its words, perplexity, and discovery time.

    The words are the solution, the final "." among them when the task
    requires one; ``sentence`` only renders them.  ``ppl`` is
    ``exp(-logprob / len(words))``.  The solver and beam search sum
    ``logprob`` from the candidates they chose (see
    ``gencp.solver.make_record``), so it needs no call to the backend beyond
    scoring the seed.
    """

    words: tuple
    ppl: float
    discovered_at: float

    @property
    def sentence(self):
        """The words rendered by ``render_sentence``."""
        return render_sentence(self.words)


class SolverModel:
    """Mutable search state: one domain per sentence position, counters.

    ``domains[i]`` is position i+1's.  ``words`` holds the assigned words,
    kept in step by ``assign``, through which every cursor move goes.
    ``root`` is the summary of the empty prefix; ``summaries`` holds the
    summary of every prefix of ``words``, ``root`` first, and ``summary``
    is the last of them.  Confined to a single search; never share one
    instance across threads.
    """

    def __init__(self, root):
        self.domains = []
        self.words = []
        self.summaries = [root]
        self.stats = SearchStats()

    @classmethod
    def from_seed(cls, seed_words, root):
        """Model whose first positions each hold one given word as their only value."""
        model = cls(root)
        for word in seed_words:
            model.add_variable(Domain([WordCandidate(word, 0.0)]))
            model.assign(0, admitted=False)
        return model

    def add_variable(self, domain):
        """Append and return ``domain``, the next position's; every earlier position must be assigned."""
        self.domains.append(domain)
        return domain

    @property
    def summary(self):
        """Summary of the assigned words."""
        return self.summaries[-1]

    def _cut(self, n):
        """Keep the first ``n`` words and the summaries of their prefixes."""
        del self.words[n:]
        del self.summaries[n + 1:]

    def assign(self, cursor, admitted=True):
        """Assign the newest position its value at ``cursor``; update ``words`` and ``summaries``.

        Every earlier position must be assigned.  ``admitted`` says that
        ``PrefixSummary.window`` admitted the domain's values after the
        words before it (see ``PrefixSummary.push``).
        """
        domain = self.domains[-1]
        domain.cursor = cursor
        word = domain.values[cursor].text
        self._cut(len(self.domains) - 1)
        self.words.append(word)
        self.summaries.append(self.summaries[-1].push(word, admitted))

    def current_sentence(self):
        """Rendering of the assigned words; empty string for an empty model."""
        return render_prefix(self.words)

    def backtrack(self):
        """Move the deepest position that has an untried value to its next value.

        The positions after it, whose values are all tried, are deleted with
        their words and summaries.  Returns False, with no position left,
        when no position has an untried value.
        """
        while self.domains:
            domain = self.domains[-1]
            nxt = 0 if domain.cursor is None else domain.cursor + 1
            if nxt < len(domain.values):
                self.assign(nxt)
                self.stats.backtracks += 1
                return True
            self.domains.pop()
            self._cut(len(self.domains))
        return False

    def backtrack_to(self, n):
        """Delete the positions after position n, then backtrack.

        Returns False when no untried value remains at or above x_n.
        """
        if n < 1:
            raise ValueError("backtrack target must be >= 1")
        if n >= len(self.domains):
            raise ValueError("nothing to delete")
        del self.domains[n:]
        self._cut(n)
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
    return render_sentence(words) if words else ""


_GAP = object()


def variability(a, b):
    """Number of positions where two word sequences disagree.

    Positions beyond the shorter sequence each count as a difference.
    """
    return sum(
        1 for x, y in itertools.zip_longest(a, b, fillvalue=_GAP) if x != y
    )
