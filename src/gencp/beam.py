"""Width-k beam decoding under the same LM, constraints, and solution predicate.

Each step fetches up to k valid words per beam, pools the k*k extensions,
drops the ones that can no longer lead anywhere, and keeps the k highest by
cumulative log-probability.  A needed word ranked below the cut is gone for
good, which is exactly the failure mode the backtracking search avoids.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from . import constraints as cst
from .lm import sequence_logprob
from .model import render_prefix, render_sentence
from .solver import check_time_budget, completes, make_record


class HaltingMode(enum.Enum):
    FIRST_SOLUTION = "first"
    ALL_SOLUTIONS = "all"


@dataclass
class Beam:
    """A candidate word sequence, its cumulative log-probability and its ``PrefixSummary``."""

    words: tuple
    cum_logprob: float
    summary: cst.PrefixSummary = field(compare=False, repr=False)
    alive: bool = True


def expand_beams(beams, lm, task, k):
    """One decoding step over all beams.

    Returns (survivors, dead): the k best feasible extensions, and the input
    beams that had no feasible extension at all.  An extension is feasible
    when it can still grow or already is a finished sentence structurally.
    """
    params = task.lm_params
    extensions = []
    dead = []
    reserve = 1 if task.require_period else 0
    for beam in beams:
        raw = lm.predict(render_prefix(beam.words), params, k)
        before = len(extensions)
        for cand in cst.valid_words(raw, task.constraints, k):
            child = beam.summary.push(cand.text, word_tested=True)
            if child.can_extend() or child.complete(reserve):
                extensions.append(
                    Beam(beam.words + (cand.text,), beam.cum_logprob + cand.logprob, child)
                )
        if len(extensions) == before:
            beam.alive = False
            dead.append(beam)
    # The extensions of one step are equally long, and words hold no
    # character below the space that joins them, so comparing the word
    # tuples orders ties as comparing the rendered sentences would.
    extensions.sort(key=lambda b: (-b.cum_logprob, b.words))
    return extensions[:k], dead


def beam_search(task, lm, k=None, mode=HaltingMode.ALL_SOLUTIONS, time_budget=None, max_words=64):
    """Run beam decoding from the task seed.

    Returns (solutions, bad_outputs): solution records, and the rendered
    sentences of terminal beams that were not solutions (dead ends, leftovers
    at a first-solution halt, or beams alive when the budget ran out).
    """
    if k is None:
        k = task.lm_params.k
    if k < 1:
        raise ValueError("k must be >= 1")
    seed = tuple(task.seed)
    if max_words < len(seed) + 1:
        raise ValueError("max_words must exceed the seed length")
    check_time_budget(time_budget)
    params = task.lm_params
    start_cum = sequence_logprob(lm, list(seed), params) if seed else 0.0
    beams = [Beam(seed, start_cum, cst.summarize(seed, task.constraints))]
    solutions = []
    bad_outputs = []
    started = time.perf_counter()

    try:
        while beams:
            if time_budget is not None and time.perf_counter() - started > time_budget:
                bad_outputs.extend(render_prefix(b.words) for b in beams)
                break
            if task.require_period:
                # A beam's period check and its expansion ask the same prompt;
                # announcing the wider of the two serves both with one POST.
                lm.prefetch(
                    (render_sentence(b.words) for b in beams if b.summary.complete(1)),
                    params, max(k, params.k),
                )
            survivors = []
            solved_now = False
            for beam in beams:
                end = completes(beam.words, beam.summary, lm, task)
                if end is not None:
                    solutions.append(make_record(beam.words, beam.cum_logprob, end, task, started))
                    solved_now = True
                else:
                    survivors.append(beam)
            if solved_now and mode is HaltingMode.FIRST_SOLUTION:
                for beam in survivors:
                    beam.alive = False
                    bad_outputs.append(render_prefix(beam.words))
                return solutions, bad_outputs
            overgrown = [b for b in survivors if len(b.words) >= max_words]
            for beam in overgrown:
                beam.alive = False
                bad_outputs.append(render_prefix(beam.words))
            survivors = [b for b in survivors if len(b.words) < max_words]
            lm.prefetch((render_prefix(b.words) for b in survivors), params, k)
            beams, dead = expand_beams(survivors, lm, task, k)
            bad_outputs.extend(render_prefix(b.words) for b in dead)
    finally:
        lm.cancel_prefetch()
    return solutions, bad_outputs


def satisfaction_rate(solutions, bad_outputs):
    """Percentage of outputs that are solutions; None when there were none."""
    total = len(solutions) + len(bad_outputs)
    if total == 0:
        return None
    return 100.0 * len(solutions) / total
