"""Generate-and-backtrack search with LM-predicted word domains.

The search creates each variable, its domain and its constraints when it
reaches that sentence position, in one loop of three steps that read one
backend answer per node, with every variable assigned between steps:

- check: when the assigned words finish a sentence, record it, then
  backtrack, or jump back to an optional target so that later solutions
  diverge early;
- grow: otherwise, when the prefix can still lead to a solution below the
  variable cap, create the next variable through ``generate_variable`` (of
  the backend's first k valid words, the ones the constraints admit after
  the prefix, ordered) and assign its first value;
- backtrack: otherwise, move to the next untried value of the deepest
  variable that has one; stop when none is left.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import constraints as cst
from .lm import TransportError, ranked_period, sequence_logprob
from .model import Domain, SearchStats, SolutionRecord, SolverModel, render_prefix


class SearchAborted(RuntimeError):
    """The backend failed mid-search; carries whatever was found so far."""

    def __init__(self, message, solutions=(), stats=None):
        super().__init__(message)
        self.solutions = list(solutions)
        self.stats = stats


def order_candidates(candidates, ordering, var_index):
    """Apply an ordering strategy; ties always break lexicographically."""
    candidates = list(candidates)
    if ordering.kind == "probability":
        return candidates
    if var_index < ordering.pivot:
        return sorted(candidates, key=lambda c: (-len(c.text), c.text))
    return sorted(candidates, key=lambda c: (len(c.text), c.text))


def check_time_budget(seconds):
    """Reject a wall-clock budget that is negative or NaN; None means no budget."""
    if seconds is not None and not seconds >= 0:
        raise ValueError(f"time budget must be >= 0 seconds, got {seconds}")


@dataclass(frozen=True)
class SolveOptions:
    """Run-level knobs; ordering/backtrack_to default to the task's own."""

    max_solutions: int | None = None
    time_budget: float | None = None
    ordering: cst.Ordering | None = None
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


def node_domain(summary, raw, task, ordering):
    """The domain after the words that ``summary`` describes, from the backend's answer ``raw``.

    The node step that beam search shares, ``summary.window``: of the first
    k word-valid predictions, the ones the constraints admit after the
    prefix; then ordered.  The window keeps rank order, and ordering sorts
    on a total key, so ordering before or after the prefix tests gives the
    same domain.
    """
    return Domain(order_candidates(summary.window(raw, task.lm_params.k), ordering, summary.count + 1))


def generate_variable(model, raw, task, ordering):
    """Append and return the next sentence position's domain: the ``node_domain`` of the answer ``raw``."""
    model.stats.lm_calls += 1
    return model.add_variable(node_domain(model.summary, raw, task, ordering))


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


def _hints(words, summary, task, ordering, max_variables):
    """The prefetch hint of ``words``, whose summary is ``summary``, if the search asks about them.

    Its expansion yields the hints of the children the search asks about, in
    visit order, so the root's hint names every prompt of a run that visits
    them all.  Lazy: a backend ignoring ``prefetch`` pays nothing for it.
    """
    grows = _grows(summary, max_variables)
    if _asks(summary, grows, task):
        args = (words, summary, grows, task, ordering, max_variables)
        yield render_prefix(words), functools.partial(_expansion, *args)


def _expansion(words, summary, grows, task, ordering, max_variables, raw):
    """The hints below ``words`` given the answer ``raw``; none at a leaf or a solution."""
    if not grows or completes(summary, raw, task) is not None:
        return
    for cand in node_domain(summary, raw, task, ordering).values:
        child = summary.push(cand.text, admitted=True)
        yield from _hints(words + [cand.text], child, task, ordering, max_variables)


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
    ordering = opts.ordering if opts.ordering is not None else cst.parse_ordering(task.ordering)
    if exhaustive:
        max_solutions = None
        jump_to = None
    else:
        max_solutions = opts.max_solutions
        jump_to = opts.backtrack_to if opts.backtrack_to is not None else task.backtrack_to

    # A capped or jump-back search may never come back for a word's
    # siblings, so only a search that visits them all announces them.
    enumerating = max_solutions is None and jump_to is None

    model = SolverModel.from_seed(task.seed, cst.summarize((), task))
    seed_logprob = None  # the seed's score, asked of the backend at the first solution
    solutions = []
    started = time.perf_counter()

    try:
        if enumerating:
            hints = _hints(list(task.seed), model.summary, task, ordering, opts.max_variables)
            lm.prefetch(hints, task.lm_params)
        while opts.time_budget is None or time.perf_counter() - started <= opts.time_budget:
            # Every variable is assigned here.
            words, summary = model.words, model.summary
            grows = _grows(summary, opts.max_variables)
            asked = _asks(summary, grows, task)
            raw = lm.predict(model.current_sentence(), task.lm_params) if asked else None
            end = completes(summary, raw, task)
            if end is not None:  # check: the words finish a sentence
                if seed_logprob is None:
                    seed_logprob = sequence_logprob(lm, task.seed, task.lm_params) if task.seed else 0.0
                # Seed domains hold placeholder scores: add the later candidates' to the seed's.
                logprob = seed_logprob
                for domain in model.domains[len(task.seed):]:
                    logprob += domain.current().logprob
                solutions.append(make_record(words, logprob, end, task, started))
                if max_solutions is not None and len(solutions) >= max_solutions:
                    break
                if jump_to is not None and 1 <= jump_to < len(model.domains):
                    moved = model.backtrack_to(jump_to)
                else:
                    moved = model.backtrack()
            else:
                if grows:  # grow: a new variable at its first value
                    if generate_variable(model, raw, task, ordering).values:
                        model.assign(0)
                        continue
                moved = model.backtrack()  # backtrack out of a dead end
            if not moved:
                break
    except TransportError as exc:
        raise SearchAborted(str(exc), solutions, model.stats) from exc
    finally:
        lm.cancel_prefetch()
    return SearchOutcome(solutions=solutions, stats=model.stats)


def solve(task, lm, options=None):
    """Solutions in discovery order, stopping at the configured caps."""
    return run_search(task, lm, options).solutions


def solve_all(task, lm, options=None):
    """Every distinct solution in the k-truncated tree (chronological backtracking only)."""
    return run_search(task, lm, options, exhaustive=True).solutions
