"""The values the searches share: candidate words, counters, solution records.

A sentence position is a variable, and its domain is a list of
``WordCandidate`` values, each a predicted word with its log-probability.
The solver keeps its backtracking state, a stack of domains with their
cursors, in ``gencp.solver.run_search`` itself.  ``SearchStats`` counts what
a search did, and ``SolutionRecord`` holds a finished sentence; the
renderers turn word lists into sentences and prompts, and ``variability``
compares two solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


def has_whitespace(text):
    """``any(ch.isspace() for ch in text)``, at C speed."""
    return bool(text) and text.split() != [text]


@dataclass(frozen=True, slots=True, init=False)
class WordCandidate:
    """A predicted surface word and its natural-log probability, checked and set in one ``__init__`` frame; slotted."""

    text: str
    logprob: float

    def __init__(self, text, logprob):
        if not text:
            raise ValueError("candidate text is empty")
        if has_whitespace(text):
            raise ValueError(f"candidate text contains whitespace: {text!r}")
        if not logprob <= 0.0:  # NaN included
            raise ValueError(f"logprob must be <= 0, got {logprob}")
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "logprob", logprob)


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
