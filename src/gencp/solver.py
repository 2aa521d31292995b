"""Generate-and-backtrack search with LM-predicted word domains.

The loop grows the sentence one variable at a time: create a variable, fill
its domain from the language model, filter it against the constraints, order
it, snapshot, assign, and test the solution predicate.  Dead ends backtrack
chronologically; an optional jump-back target forces later solutions to
diverge early.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import constraints as cst
from .lm import TransportError, period_logprob, sequence_logprob
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


def generate_variable(model):
    """Append the next sentence-position variable with an empty domain."""
    return model.add_variable()


def generate_domain(model, lm, task):
    """Fill the newest variable with the first k valid predictions."""
    params = task.lm_params
    raw = lm.predict(model.current_sentence(), params)
    valid = [c for c in cst.only_words(raw) if cst.word_valid(c.text, task.constraints)]
    model.variables[-1].domain = Domain(valid[: params.k])
    model.stats.lm_calls += 1
    return model.variables[-1].domain


def generate_constraints(model, task, word_tested=False):
    """Filter the newest domain against the task constraints and the prefix.

    ``word_tested`` says the domain holds only words that passed
    ``word_valid``, as ``generate_domain`` leaves it.
    """
    var = model.variables[-1]
    var.domain = cst.filter_domain(
        model.words, var.domain, task.constraints, task, _summary(model, task), word_tested
    )
    return var.domain


def apply_helping(model, ordering):
    """Order the newest unassigned domain (implicit-constraint handling)."""
    if not model.variables:
        return
    var = model.variables[-1]
    if var.domain.cursor is not None:
        return
    var.domain = Domain(order_candidates(var.domain.values, ordering, var.index))


def propagate(model):
    """Assign the first value of the newest domain.

    The domain was already filtered against the same prefix when the
    variable was created, so nothing is re-filtered here.  A variable whose
    value was already chosen by a backtrack is left alone.
    """
    if not model.variables:
        return
    var = model.variables[-1]
    if var.domain.cursor is None and var.domain.values:
        model.assign(0)


def completes(words, summary, lm, task):
    """Solution predicate shared by the solver and beam search.

    The content ``words`` (no trailing "."), whose ``PrefixSummary`` is
    ``summary``, satisfy every constraint, and, when the task requires a
    period, the LM ranks "." among its next words.  Returns the
    log-probability of the sentence's end, ln P("." | words) from that same
    ranking or 0.0 when no period is required, and None when ``words`` are
    not a solution.
    """
    if not summary.complete(1 if task.require_period else 0):
        return None
    if not task.require_period:
        return 0.0
    return period_logprob(lm, render_sentence(words), task.lm_params)


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


def _queried_children(words, summary, domain, task, max_variables):
    """Rendered children of ``words`` that the search will ask the backend about.

    A child is asked for its next words when it can still grow below
    ``max_variables``, and for its period check when it completes
    structurally.  Lazy, so that a backend ignoring ``prefetch`` pays nothing
    for it.
    """
    for cand in domain.values:
        child = summary.push(cand.text, admitted=True)
        grows = child.count < max_variables and child.can_extend()
        if task.require_period:
            queried = grows or child.complete(1)
        else:
            queried = grows and not child.complete(0)
        if queried:
            yield render_sentence(words + [cand.text])


def _summary(model, task):
    """The model's summary of its words, built from them when the model keeps none."""
    summary = model.summary
    return summary if summary is not None else cst.summarize(model.words, task.constraints)


def is_solution(model, lm, task):
    """Whether every variable is assigned and the words form a solution."""
    words = model.words
    return (bool(words) and len(words) == len(model.variables)
            and completes(words, _summary(model, task), lm, task) is not None)


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
    parent = None  # (words, summary) of the newest domain's prefix, when its children are announced

    model = SolverModel.from_seed(task.seed, cst.summarize((), task.constraints))
    seed_logprob = None  # the seed's score, asked of the backend at the first solution
    solutions = []
    seen = set()
    started = time.perf_counter()

    def out_of_budget():
        return opts.time_budget is not None and time.perf_counter() - started > opts.time_budget

    state = "help" if model.variables else "generate"
    try:
        while not out_of_budget():
            if state == "generate":
                words, summary = model.words, model.summary
                if len(model.variables) >= opts.max_variables or not summary.can_extend():
                    state = "backtrack"
                    continue
                generate_variable(model)
                generate_domain(model, lm, task)
                generate_constraints(model, task, word_tested=True)
                parent = (list(words), summary) if enumerating else None
                state = "help"
            elif state == "help":
                apply_helping(model, ordering)
                if parent is not None:
                    # Announced in the order the search visits them.
                    domain = model.variables[-1].domain
                    lm.prefetch(
                        _queried_children(*parent, domain, task, opts.max_variables),
                        task.lm_params,
                    )
                state = "backtrack" if model.contains_empty_variable() else "save"
            elif state == "save":
                model.save_state()
                state = "propagate"
            elif state == "propagate":
                propagate(model)
                state = "backtrack" if model.contains_empty_variable() else "check"
            elif state == "check":
                # every variable is assigned here, so ``completes`` is ``is_solution``
                end = completes(model.words, model.summary, lm, task)
                if end is None:
                    state = "generate"
                    continue
                if seed_logprob is None:
                    seed = task.seed
                    seed_logprob = sequence_logprob(lm, seed, task.lm_params) if seed else 0.0
                logprob = _path_logprob(model, seed_logprob, len(task.seed))
                record = make_record(model.words, logprob, end, task, started)
                if record.sentence not in seen:
                    seen.add(record.sentence)
                    solutions.append(record)
                if max_solutions is not None and len(solutions) >= max_solutions:
                    break
                if jump_to is not None and 1 <= jump_to < len(model.variables):
                    moved = model.backtrack_to(jump_to)
                else:
                    moved = model.backtrack()
                if not moved:
                    break
                state = "save"
            else:  # backtrack
                if not model.backtrack():
                    break
                state = "save"
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
