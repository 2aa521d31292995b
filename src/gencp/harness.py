"""Benchmark front end: oracle enumeration, method runs, report serialization."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import logging
import statistics
import sys
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from . import constraints as cst
from .beam import HaltingMode, beam_search, satisfaction_rate
from .lm import TransportError, load_backend, perplexity, ranked_period
from .model import render_prefix, render_sentence, variability
from .solver import SearchAborted, SolveOptions, check_time_budget, parse_ordering, run_search

log = logging.getLogger(__name__)

REPORT_FIELDS = (
    "method",
    "task",
    "k",
    "seconds",
    "n_solutions",
    "sat_pct",
    "n_bad_outputs",
    "n_backtracks",
    "mean_ppl",
    "max_variability",
)

METHODS = ("bs-first", "bs-all", "oracle", "gencp")


@dataclass(frozen=True)
class ReportRow:
    """One benchmark measurement; inapplicable fields are None."""

    method: str
    task: str
    k: int
    seconds: float
    n_solutions: int
    sat_pct: float | None
    n_bad_outputs: int | None
    n_backtracks: int | None
    mean_ppl: float | None
    max_variability: int | None


@dataclass(frozen=True)
class RunConfig:
    """What to run: tasks x k values x methods against one backend."""

    tasks: tuple
    lm_spec: str
    k_values: tuple
    methods: tuple
    max_solutions: int | None = None
    time_budget: float | None = None
    pair_gencp_to_bs: bool = False
    max_variables: int = 64
    ordering: str | None = None
    backtrack_to: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.tasks or not self.k_values or not self.methods:
            raise ValueError("need at least one task, one k, and one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected {METHODS}")
        check_time_budget(self.time_budget)


class OracleLimitError(RuntimeError):
    """The enumeration would exceed the configured node or time budget."""


def brute_force_oracle(task, lm, depth_cap, node_limit=8**8, time_budget=None):
    """Every reachable solution sentence, by direct enumeration.

    Depth-first walk over the top-k valid words per prefix, deliberately
    sharing no machinery with the solver: plain recursion, no SolverModel, no
    domain filtering.  A branch stops at the first prefix that satisfies the
    solution predicate, since nothing past a finished sentence is reachable
    by a search that backtracks on success.  One backend answer per prefix
    serves its period check and its children.  Raises OracleLimitError past
    ``node_limit`` visited prefixes or ``time_budget`` seconds.
    """
    if depth_cap < len(task.seed) + 1:
        raise ValueError("depth_cap must exceed the seed length")
    check_time_budget(time_budget)
    params = task.lm_params
    constraints = task.constraints
    visited = 0
    found = set()
    started = time.perf_counter()

    def finished(words):  # the words finish a sentence, the period check aside
        return bool(words) and cst.check_complete(words + ["."] if task.require_period else words, task)

    def asks(words, whole):
        """Whether the walk asks about ``words``, which ``whole`` says finish a sentence."""
        if task.require_period:
            return whole or len(words) < depth_cap
        return not whole and len(words) < depth_cap

    def children(words, whole, raw):
        """The prefixes the walk visits below ``words``, from its answer ``raw``; None at a solution."""
        if whole and (not task.require_period or ranked_period(raw, params.k) is not None):
            return None
        if len(words) >= depth_cap:
            return []
        valid = [c for c in cst.only_words(raw) if cst.word_valid(c.text, constraints)]
        return [words + [c.text] for c in valid[: params.k]]

    def hints(words, whole, raw):
        """Hints for the children of ``words`` that the walk asks about, each expanding likewise."""
        for child in children(words, whole, raw) or ():
            known = finished(child)
            if asks(child, known):
                yield render_sentence(child), functools.partial(hints, child, known)

    def walk(words):
        nonlocal visited
        visited += 1
        if visited > node_limit:
            raise OracleLimitError(f"enumeration exceeded {node_limit} nodes")
        if time_budget is not None and time.perf_counter() - started > time_budget:
            raise OracleLimitError(f"enumeration exceeded its {time_budget} s time budget")
        whole = finished(words)
        raw = lm.predict(render_prefix(words), params) if asks(words, whole) else None
        below = children(words, whole, raw)
        if below is None:
            found.add(render_sentence(words + ["."] if task.require_period else words))
            return
        lm.prefetch(hints(words, whole, raw), params)
        for child in below:
            walk(child)

    try:
        walk(list(task.seed))
    finally:
        lm.cancel_prefetch()
    return found


def _sentence_words(sentence):
    parts = sentence.split(" ")
    if parts and parts[-1].endswith(".") and parts[-1] != ".":
        parts = parts[:-1] + [parts[-1][:-1], "."]
    return parts


def _content_words(words):
    words = list(words)
    if words and words[-1] == ".":
        return words[:-1]
    return words


def _max_variability(word_lists):
    if len(word_lists) < 2:
        return None
    return max(variability(a, b) for a, b in itertools.combinations(word_lists, 2))


def run_benchmark(config):
    """Wall-clock every (method, task, k) cell and collect the metrics.

    With pairing enabled, the backtracking search is capped at the number of
    solutions beam search found for the same cell (at least one, so a miss
    still shows up as 0 vs 1).  Rows come back sorted; failures are logged
    and leave a zeroed row rather than stopping the run.
    """
    ordered_methods = [m for m in METHODS if m in config.methods]
    rows = []
    with closing(load_backend(config.lm_spec)) as lm:
        for task_name in config.tasks:
            for k in config.k_values:
                task = cst.resolve_task(task_name, k)
                bs_reference = None
                for method in ordered_methods:
                    row = _run_method(method, task, lm, k, config, bs_reference)
                    if config.pair_gencp_to_bs and method.startswith("bs-"):
                        bs_reference = row.n_solutions
                    rows.append(row)
    rows.sort(key=lambda r: (r.task, r.method, r.k))
    return rows


def _run_method(method, task, lm, k, config, bs_reference):
    started = time.perf_counter()
    extra = {"sat_pct": None, "n_bad_outputs": None, "n_backtracks": None}
    try:
        if method == "gencp":
            cap = config.max_solutions
            if bs_reference is not None:
                cap = max(bs_reference, 1)
            opts = SolveOptions(
                max_solutions=cap,
                time_budget=config.time_budget,
                ordering=parse_ordering(config.ordering) if config.ordering else None,
                backtrack_to=config.backtrack_to,
                max_variables=config.max_variables,
            )
            outcome = run_search(task, lm, opts)
            seconds = time.perf_counter() - started
            word_lists = [r.words for r in outcome.solutions]
            ppls = [r.ppl for r in outcome.solutions]
            extra.update(sat_pct=100.0 if ppls else None, n_backtracks=outcome.stats.backtracks)
        elif method in ("bs-first", "bs-all"):
            mode = HaltingMode.FIRST_SOLUTION if method == "bs-first" else HaltingMode.ALL_SOLUTIONS
            records, bad = beam_search(
                task, lm, k=k, mode=mode, time_budget=config.time_budget,
                max_words=config.max_variables,
            )
            seconds = time.perf_counter() - started
            word_lists = [r.words for r in records]
            ppls = [r.ppl for r in records]
            extra.update(sat_pct=satisfaction_rate(records, bad), n_bad_outputs=len(bad))
        elif method == "oracle":
            sentences = sorted(brute_force_oracle(
                task, lm, depth_cap=config.max_variables, time_budget=config.time_budget
            ))
            seconds = time.perf_counter() - started
            word_lists = [_sentence_words(s) for s in sentences]
            ppls = [perplexity(lm, words, task.lm_params) for words in word_lists]
            extra.update(sat_pct=100.0 if sentences else None)
        else:
            raise ValueError(f"unknown method {method!r}")
        return ReportRow(
            method=method,
            task=task.name,
            k=k,
            seconds=seconds,
            n_solutions=len(word_lists),
            mean_ppl=statistics.fmean(ppls) if ppls else None,
            max_variability=_max_variability([_content_words(w) for w in word_lists]),
            **extra,
        )
    except (TransportError, SearchAborted, OracleLimitError) as exc:
        seconds = time.perf_counter() - started
        partial = getattr(exc, "solutions", [])
        log.warning("%s on %s (k=%d) failed after %.2fs: %s", method, task.name, k, seconds, exc)
        return ReportRow(method=method, task=task.name, k=k, seconds=seconds,
                         n_solutions=len(partial), **dict.fromkeys(_OPTIONAL_FIELDS))


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_report(rows, fmt="csv"):
    """Serialize rows to CSV or JSON text (UTF-8 friendly, LF line endings)."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, f)) for f in REPORT_FIELDS])
        return buf.getvalue()
    if fmt == "json":
        payload = [{f: getattr(row, f) for f in REPORT_FIELDS} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(rows, fmt="csv", path=None):
    """Write the report to a file, or stdout when no path is given."""
    text = dumps_report(rows, fmt)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_INT_FIELDS = {"k", "n_solutions", "n_bad_outputs", "n_backtracks", "max_variability"}
_FLOAT_FIELDS = {"seconds", "sat_pct", "mean_ppl"}
_OPTIONAL_FIELDS = {"sat_pct", "n_bad_outputs", "n_backtracks", "mean_ppl", "max_variability"}


def _coerce(field, value):
    if field in _OPTIONAL_FIELDS and (value is None or value == ""):
        return None
    if field in _INT_FIELDS:
        return int(value)
    if field in _FLOAT_FIELDS:
        return float(value)
    return value


def loads_report(text, fmt="csv"):
    """Parse report text back into ReportRow objects."""
    rows = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != list(REPORT_FIELDS):
            raise ValueError("unexpected report header")
        for record in reader:
            if not record:
                continue
            rows.append(ReportRow(**{f: _coerce(f, v) for f, v in zip(REPORT_FIELDS, record)}))
        return rows
    if fmt == "json":
        for obj in json.loads(text):
            rows.append(ReportRow(**{f: _coerce(f, obj.get(f)) for f in REPORT_FIELDS}))
        return rows
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(path, fmt="csv"):
    """Read a report file written by emit_report."""
    return loads_report(Path(path).read_text(encoding="utf-8"), fmt)
