"""Generate-and-backtrack search with LM-predicted word domains.

The search creates each variable, its domain and its constraints when it
reaches that sentence position, in one loop of three steps that read one
backend answer per node, with every variable assigned between steps:

- check: when the assigned words finish a sentence, record it, then
  backtrack, or jump back to an optional target so that later solutions
  diverge early;
- grow: otherwise, when the prefix can still lead to a solution below the
  variable cap, create the next variable, whose domain ``generate_variable``
  makes (of the backend's first k valid words, the ones the constraints
  admit after the prefix, ordered), and assign its first value;
- backtrack: otherwise, move to the next untried value of the deepest
  variable that has one; stop when none is left.

The loop walks one explicit stack, as the oracle does.  A frame holds the
domain of one position after the seed and the cursor of its assigned value;
the values before the cursor have been tried, and nothing narrows a domain
once it is made, so the frames are the whole backtracking state.  Beside
them the loop keeps the ``PrefixSummary`` of each prefix, which carries the
prompt that renders it, a child's being its parent's plus one word, so a
node costs the same at any depth.  A solution's words are read off the frames.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import constraints as cst
from .lm import TransportError, ranked_period, sequence_logprob
from .model import SearchStats, SolutionRecord


class SearchAborted(RuntimeError):
    """The backend failed mid-search; carries whatever was found so far."""

    def __init__(self, message, solutions=()):
        super().__init__(message)
        self.solutions = list(solutions)


def order_candidates(candidates, pivot, var_index):
    """Order a domain by a task's ``pivot`` (see ``parse_ordering``); ties always break lexicographically."""
    candidates = list(candidates)
    if pivot is None:
        return candidates
    if var_index < pivot:
        return sorted(candidates, key=lambda c: (-len(c.text), c.text))
    return sorted(candidates, key=lambda c: (len(c.text), c.text))


def check_time_budget(seconds):
    """Reject a wall-clock budget that is negative or NaN; None means no budget."""
    if seconds is not None and not seconds >= 0:
        raise ValueError(f"time budget must be >= 0 seconds, got {seconds}")


@dataclass(frozen=True)
class SolveOptions:
    """Run-level knobs; backtrack_to defaults to the task's own, and the task alone sets the ordering."""

    max_solutions: int | None = None
    time_budget: float | None = None
    backtrack_to: int | None = None
    max_variables: int = 64

    def __post_init__(self):
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be >= 1")
        if self.max_variables < 1:
            raise ValueError("max_variables must be >= 1")
        if self.backtrack_to is not None and self.backtrack_to < 1:
            raise ValueError("backtrack_to must be >= 1")
        check_time_budget(self.time_budget)


def generate_variable(summary, raw, task):
    """The domain of the variable after the words that ``summary`` describes, from the backend's answer ``raw``.

    The node step that beam search shares, ``summary.window``: of the first
    k word-valid predictions, the ones the constraints admit after the
    prefix; then ordered as the task's ``ordering`` says, read from its
    ``pivot``.  The window keeps rank order, and ordering sorts on a total
    key, so ordering before or after the prefix tests gives the same
    domain.  No value repeats, as no backend answers a word twice (see
    ``LanguageModel.predict``): ``TableLM`` checks each prefix's entries
    (``_checked``), ``RemoteLM``'s ``_candidates`` keys its answer by word
    and ``NGramLM`` ranks a dict over its vocabulary.
    """
    return order_candidates(summary.window(raw, task.lm_params.k), task.pivot, summary.count + 1)


def completes(summary, raw, task):
    """Solution predicate shared by the solver and beam search.

    The content words (no trailing ".") whose ``PrefixSummary`` is
    ``summary`` satisfy every constraint, and, when the task requires a
    period, "." ranks among the first k of ``raw``, the backend's answer for
    them, or None when none was asked.  Returns ln P("." | words) from that
    answer, or 0.0 when no period is required, and None when the words are
    not a solution.
    """
    if (task.require_period and raw is None) or not summary.complete():
        return None
    return ranked_period(raw, task.lm_params.k) if task.require_period else 0.0


def make_record(words, logprob, end, task, started):
    """Solution record for content ``words``, timed from perf_counter value ``started``.

    ``logprob`` is the sum of the words' conditional log-probabilities, added
    left to right from 0.0, and ``end`` is what ``completes`` returned for
    them.  The perplexity is computed as ``perplexity`` computes it, so it
    equals the backend's rescoring whenever the backend scores each word
    as its ranking did.
    """
    final = tuple(words) + (".",) if task.require_period else tuple(words)
    return SolutionRecord(
        words=final,
        ppl=math.exp(-(logprob + end) / len(final)),
        discovered_at=time.perf_counter() - started,
    )


def _grows(summary, max_variables):
    """Whether the search creates a variable after the prefix that ``summary`` describes."""
    return summary.count < max_variables and summary.can_extend()


def _asks(summary, grows, task):
    """Whether the search asks about a prefix: for its period check, or for the children it ``grows``."""
    if task.require_period:
        return grows or summary.complete()
    return grows and not summary.complete()


def _hints(summary, task, max_variables):
    """The prefetch hint of the prefix that ``summary`` describes, if the search asks about it.

    Its expansion yields the hints of the children the search asks about, in
    visit order, so the root's hint names every prompt of a run that visits
    them all.  Lazy: a backend ignoring ``prefetch`` pays nothing for it.
    """
    grows = _grows(summary, max_variables)
    if _asks(summary, grows, task):
        args = (summary, grows, task, max_variables)
        yield summary.prompt, functools.partial(_expansion, *args)


def _expansion(summary, grows, task, max_variables, raw):
    """The hints below the prefix that ``summary`` describes, given its answer ``raw``; none at a leaf or a solution."""
    if not grows or completes(summary, raw, task) is not None:
        return
    for cand in generate_variable(summary, raw, task):
        yield from _hints(summary.push(cand.text, admitted=True), task, max_variables)


@dataclass
class SearchOutcome:
    solutions: list
    stats: SearchStats


def run_search(task, lm, options=None, exhaustive=False):
    """Run the search loop; returns solutions plus the search counters.

    ``exhaustive`` disables the solution cap and the jump-back target so the
    whole k-truncated tree is enumerated.
    """
    opts = options if options is not None else SolveOptions()
    if opts.max_variables < len(task.seed) + 1:
        raise ValueError("max_variables must exceed the seed length")
    if exhaustive:
        max_solutions = None
        jump_to = None
    else:
        max_solutions = opts.max_solutions
        jump_to = opts.backtrack_to if opts.backtrack_to is not None else task.backtrack_to

    # A capped or jump-back search may never come back for a word's
    # siblings, so only a search that visits them all announces them.
    enumerating = max_solutions is None and jump_to is None

    # Seed positions hold no frame: each has its one word, which no window
    # admitted, so a seed word may break a constraint.
    summaries = [cst.summarize(task.seed, task)]  # [i]: of the seed and the values of the first i frames
    base = len(task.seed)
    frames = []  # [domain, cursor] of each position after the seed
    stats = SearchStats()
    seed_logprob = None  # the seed's score, asked of the backend at the first solution
    solutions = []
    started = time.perf_counter()

    try:
        if enumerating:
            hints = _hints(summaries[-1], task, opts.max_variables)
            lm.prefetch(hints, task.lm_params)
        while opts.time_budget is None or time.perf_counter() - started <= opts.time_budget:
            # Every variable is assigned here.
            summary = summaries[-1]
            grows = _grows(summary, opts.max_variables)
            asked = _asks(summary, grows, task)
            raw = lm.predict(summary.prompt, task.lm_params) if asked else None
            end = completes(summary, raw, task)
            domain = None
            if end is not None:  # check: the words finish a sentence
                if seed_logprob is None:
                    seed_logprob = sequence_logprob(lm, task.seed, task.lm_params) if task.seed else 0.0
                # The frames hold the values after the seed: add their words and scores to the seed's.
                logprob, words = seed_logprob, list(task.seed)
                for values, cursor in frames:
                    logprob += values[cursor].logprob
                    words.append(values[cursor].text)
                solutions.append(make_record(words, logprob, end, task, started))
                if max_solutions is not None and len(solutions) >= max_solutions:
                    break
                if jump_to is not None and 1 <= jump_to < summary.count:
                    # keep positions 1..jump_to; the backtrack below cuts the summaries to match
                    del frames[max(jump_to - base, 0):]
            elif grows:  # grow: a new variable at its first value
                stats.lm_calls += 1
                domain = generate_variable(summary, raw, task)
            if domain:
                frames.append([domain, 0])
            else:  # backtrack: the next untried value of the deepest variable that has one
                while frames and frames[-1][1] + 1 == len(frames[-1][0]):
                    frames.pop()
                if not frames:
                    break
                frames[-1][1] += 1
                stats.backtracks += 1
                del summaries[len(frames):]  # keep those of the prefixes before that variable
            values, cursor = frames[-1]
            summaries.append(summaries[-1].push(values[cursor].text, admitted=True))
    except TransportError as exc:
        raise SearchAborted(str(exc), solutions) from exc
    finally:
        lm.cancel_prefetch()
    return SearchOutcome(solutions=solutions, stats=stats)


def solve(task, lm, options=None):
    """Solutions in discovery order, stopping at the configured caps."""
    return run_search(task, lm, options).solutions


def solve_all(task, lm, options=None):
    """Every distinct solution in the k-truncated tree (chronological backtracking only)."""
    return run_search(task, lm, options, exhaustive=True).solutions
