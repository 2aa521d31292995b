"""Generate-and-backtrack search with LM-predicted word domains.

The search creates each variable, its domain and its constraints when it
reaches that sentence position, in one loop of three steps that read one
backend answer per node, with every variable assigned between steps:

- check: when the assigned words finish a sentence, record it, then
  backtrack, or jump back to an optional target so that later solutions
  diverge early;
- grow: otherwise, when the prefix can still lead to a solution below the
  variable cap, create the next variable through ``generate_variable`` (the
  backend's first k valid words, ordered, then filtered against the
  constraints and the prefix) and assign its first value;
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
from .model import Domain, SearchStats, SolutionRecord, SolverModel, render_sentence


class SearchAborted(RuntimeError):
    """The backend failed mid-search; carries whatever was found so far."""

    def __init__(self, message, solutions=(), stats=None):
        super().__init__(message)
        self.solutions = list(solutions)
        self.stats = stats


@dataclass(frozen=True)
class Ordering:
    """How a freshly created domain is ordered before values are tried.

    ``probability`` keeps the backend ranking.  ``char-target`` tries longer
    words first for variables before ``pivot`` and shorter words first from
    the pivot on, which steers exact-character tasks toward their target
    length.
    """

    kind: str
    pivot: int = 10

    def __post_init__(self):
        if self.kind not in ("probability", "char-target"):
            raise ValueError(f"unknown ordering {self.kind!r}")
        if self.pivot < 1:
            raise ValueError("pivot must be >= 1")


def parse_ordering(name):
    """Parse "probability", "ppl", "char-target" or "char-target:<pivot>".

    "ppl" is an alias of "probability": every candidate extends the same
    prefix, so ascending perplexity is the backend's own ranking.
    """
    if name in ("probability", "ppl"):
        return Ordering("probability")
    if name == "char-target":
        return Ordering("char-target")
    if name.startswith("char-target:"):
        return Ordering("char-target", int(name.split(":", 1)[1]))
    raise ValueError(
        f"unknown ordering {name!r}; expected probability, ppl or char-target[:pivot]"
    )


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
    ordering: Ordering | None = None
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


def node_domain(words, summary, raw, task, ordering):
    """The domain after ``words``, whose summary is ``summary``, from the backend's answer ``raw``.

    The node's one candidate pipeline: the first k word-valid predictions,
    ordered, then filtered against the constraints and the prefix.
    Filtering keeps order, and ordering sorts on a total key, so the two
    steps commute.
    """
    window = cst.valid_words(raw, task.constraints, task.lm_params.k)
    ordered = Domain(order_candidates(window, ordering, len(words) + 1))
    return cst.filter_domain(words, ordered, task.constraints, task, summary, word_tested=True)


def generate_variable(model, raw, task, ordering):
    """Append the next sentence-position variable with the ``node_domain`` of the answer ``raw``."""
    model.stats.lm_calls += 1
    return model.add_variable(node_domain(model.words, model.summary, raw, task, ordering))


def completes(summary, raw, task):
    """Solution predicate shared by the solver and beam search.

    The content words (no trailing ".") whose ``PrefixSummary`` is
    ``summary`` satisfy every constraint, and, when the task requires a
    period, "." ranks among the first k of ``raw``, the backend's answer for
    them, or None when none was asked.  Returns ln P("." | words) from that
    answer, or 0.0 when no period is required, and None when the words are
    not a solution.
    """
    if not task.require_period:
        return 0.0 if summary.complete(0) else None
    if raw is None or not summary.complete(1):
        return None
    return ranked_period(raw, task.lm_params.k)


def make_record(words, logprob, end, task, started):
    """Solution record for content ``words``, timed from perf_counter value ``started``.

    ``logprob`` is the sum of the words' conditional log-probabilities, added
    left to right from 0.0, and ``end`` is what ``completes`` returned for
    them.  The perplexity is computed as ``perplexity`` computes it, so it
    equals the backend's rescoring whenever the backend scores each word
    as its ranking did.
    """
    final = list(words) + ["."] if task.require_period else list(words)
    return SolutionRecord(
        words=tuple(final),
        sentence=render_sentence(final),
        ppl=math.exp(-(logprob + end) / len(final)),
        discovered_at=time.perf_counter() - started,
    )


def _grows(summary, max_variables):
    """Whether the search creates a variable after the prefix that ``summary`` describes."""
    return summary.count < max_variables and summary.can_extend()


def _asks(summary, grows, task):
    """Whether the search asks about a prefix: for its period check, or for the children it ``grows``."""
    if task.require_period:
        return grows or summary.complete(1)
    return grows and not summary.complete(0)


def _queried_children(words, summary, domain, task, ordering, max_variables):
    """Prefetch hints for the children of ``words`` that the search will ask the backend about.

    Each hint carries the child's ``_expansion``.  Lazy, so that a backend
    ignoring ``prefetch`` pays nothing for it.
    """
    for cand in domain.values:
        child = summary.push(cand.text, admitted=True)
        grows = _grows(child, max_variables)
        if _asks(child, grows, task):
            child_words = words + [cand.text]
            args = (child_words, child, grows, task, ordering, max_variables)
            yield render_sentence(child_words), functools.partial(_expansion, *args)


def _expansion(words, summary, grows, task, ordering, max_variables, raw):
    """The hints the search announces at ``words`` given the answer ``raw``; none at a leaf."""
    if not grows or completes(summary, raw, task) is not None:
        return ()
    domain = node_domain(words, summary, raw, task, ordering)
    return _queried_children(words, summary, domain, task, ordering, max_variables)


def _path_logprob(model, seed_logprob, n_seed):
    """The model's words scored from the candidates the search assigned.

    ``seed_logprob`` scores the first ``n_seed`` words, which the model
    holds with a placeholder log-probability; the assigned candidates of
    the later variables are added to it left to right.
    """
    total = seed_logprob
    for var in model.variables[n_seed:]:
        total += var.domain.current().logprob
    return total


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
    ordering = opts.ordering if opts.ordering is not None else parse_ordering(task.ordering)
    if exhaustive:
        max_solutions = None
        jump_to = None
    else:
        max_solutions = opts.max_solutions
        jump_to = opts.backtrack_to if opts.backtrack_to is not None else task.backtrack_to

    # A capped or jump-back search may never come back for a word's
    # siblings, so only a search that visits them all announces them.
    enumerating = max_solutions is None and jump_to is None

    model = SolverModel.from_seed(task.seed, cst.summarize((), task.constraints))
    seed_logprob = None  # the seed's score, asked of the backend at the first solution
    solutions = []
    started = time.perf_counter()

    try:
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
                logprob = _path_logprob(model, seed_logprob, len(task.seed))
                solutions.append(make_record(words, logprob, end, task, started))
                if max_solutions is not None and len(solutions) >= max_solutions:
                    break
                if jump_to is not None and 1 <= jump_to < len(model.variables):
                    moved = model.backtrack_to(jump_to)
                else:
                    moved = model.backtrack()
            else:
                if grows:  # grow: a new variable at its first value
                    domain = generate_variable(model, raw, task, ordering).domain
                    if enumerating:
                        # Announced in the order the search visits them.
                        lm.prefetch(
                            _queried_children(
                                list(words), summary, domain, task, ordering, opts.max_variables
                            ),
                            task.lm_params,
                        )
                    if domain.values:
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
