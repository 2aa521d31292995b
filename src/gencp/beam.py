"""Width-k beam decoding under the same LM, constraints, and solution predicate.

Each step fetches up to k valid words per beam, pools the k*k extensions,
drops the ones that can no longer lead anywhere, and keeps the k highest by
cumulative log-probability.  A needed word ranked below the cut is gone for
good, which is exactly the failure mode the backtracking search avoids.
A beam's ``PrefixSummary`` carries its prompt, so a child's is its
parent's plus one word, as in the solver and the oracle: a step costs the
same at any depth.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

from . import constraints as cst
from .lm import sequence_logprob
from .solver import check_time_budget, completes, make_record


class HaltingMode(enum.Enum):
    FIRST_SOLUTION = "first"
    ALL_SOLUTIONS = "all"


@dataclass(slots=True)
class Beam:
    """A candidate word sequence, its cumulative log-probability and its ``PrefixSummary``.

    ``summary.prompt`` renders the words, the text the backend is asked
    about.  ``answer`` is the backend's answer for it once a period check
    asked for it, else None; the beam's expansion reads it rather than ask again.
    """

    words: tuple
    cum_logprob: float
    summary: cst.PrefixSummary = field(compare=False, repr=False)
    answer: list = field(default=None, compare=False, repr=False)


def expand_beams(beams, lm, task, k):
    """One decoding step over all beams.

    Returns (survivors, dead): the k best feasible extensions, and the input
    beams that had no feasible extension at all.  An extension is feasible
    when it can still grow or already is a finished sentence structurally.
    A beam's words come from the first ``k * oversample`` of its answer; one
    that holds none is asked with the task's params, ``k`` in place of theirs
    where the beam is wider, so that a search asks each prompt at one width.
    """
    params = ask = task.lm_params
    extensions = []
    dead = []
    for beam in beams:
        raw = beam.answer
        if raw is None:
            if k > ask.k:
                ask = replace(params, k=k)
            raw = lm.predict(beam.summary.prompt, ask)
        if params.k > k:
            raw = raw[: k * params.oversample]
        words, cum, summary = beam.words, beam.cum_logprob, beam.summary
        before = len(extensions)
        # the solver's node step, unordered: the pool below is ranked by probability
        for cand in summary.window(raw, k):
            child = summary.push(cand.text, admitted=True)
            if child.can_extend() or child.complete():
                extensions.append(Beam(words + (cand.text,), cum + cand.logprob, child))
        if len(extensions) == before:
            dead.append(beam)
    # The extensions of one step are equally long and share the seed, and
    # the words after it hold only letters, "'" and "-", all above the space
    # that joins them, so comparing the prompts orders ties as the word tuples.
    extensions.sort(key=lambda b: (-b.cum_logprob, b.summary.prompt))
    return extensions[:k], dead


def beam_search(task, lm, k=None, mode=HaltingMode.ALL_SOLUTIONS, time_budget=None, max_words=64):
    """Run beam decoding from the task seed.

    Returns (solutions, bad_outputs): solution records, and the rendered sentences of
    terminal beams that were not solutions (dead ends, beams of ``max_words`` words, leftovers
    at a first-solution halt, or beams alive when the budget ran out).
    """
    k = task.lm_params.k if k is None else k
    if k < 1:
        raise ValueError("k must be >= 1")
    seed = tuple(task.seed)
    if max_words < len(seed) + 1:
        raise ValueError("max_words must exceed the seed length")
    check_time_budget(time_budget)
    params = task.lm_params
    ask = replace(params, k=k) if k > params.k else params  # the period check still reads the first params.k
    summary = cst.summarize(seed, task)
    if not (summary.can_extend() or summary.complete()):  # the test expand_beams applies to later beams
        return [], [summary.prompt]
    start_cum = sequence_logprob(lm, list(seed), params) if seed else 0.0
    beams = [Beam(seed, start_cum, summary)]
    solutions = []
    bad_outputs = []
    started = time.perf_counter()

    try:
        while beams:
            if time_budget is not None and time.perf_counter() - started > time_budget:
                bad_outputs.extend(b.summary.prompt for b in beams)
                break
            whole = [b for b in beams if b.summary.complete()]
            if whole:  # ``completes`` is None for every other beam
                if task.require_period:  # the period check asks about each beam that ends a sentence
                    lm.prefetch([b.summary.prompt for b in whole], ask)
                    for beam in whole:
                        beam.answer = lm.predict(beam.summary.prompt, ask)
                survivors = []
                for beam in beams:
                    end = completes(beam.summary, beam.answer, task)
                    if end is not None:
                        solutions.append(make_record(beam.words, beam.cum_logprob, end, task, started))
                    else:
                        survivors.append(beam)
                if len(survivors) < len(beams) and mode is HaltingMode.FIRST_SOLUTION:
                    bad_outputs.extend(b.summary.prompt for b in survivors)
                    return solutions, bad_outputs
                beams = survivors
            survivors = []
            for beam in beams:
                if beam.summary.count < max_words:
                    survivors.append(beam)
                else:
                    bad_outputs.append(beam.summary.prompt)
            # Announced after the checks: a beam that turns out a solution is never expanded.
            lm.prefetch([b.summary.prompt for b in survivors if b.answer is None], ask)
            beams, dead = expand_beams(survivors, lm, task, k)
            bad_outputs.extend(b.summary.prompt for b in dead)
    finally:
        lm.cancel_prefetch()
    return solutions, bad_outputs


def satisfaction_rate(solutions, bad_outputs):
    """Percentage of outputs that are solutions; None when there were none."""
    total = len(solutions) + len(bad_outputs)
    if total == 0:
        return None
    return 100.0 * len(solutions) / total
