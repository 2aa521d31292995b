"""Benchmark front end: oracle enumeration, method runs, report serialization."""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import sys
import time
from contextlib import closing
from dataclasses import dataclass, fields, replace

from . import constraints as cst
from .beam import HaltingMode, beam_search, satisfaction_rate
from .lm import TransportError, load_backend, perplexity, ranked_period
from .model import render_prefix, variability
from .solver import SearchAborted, SolveOptions, check_time_budget, run_search

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


REPORT_FIELDS = tuple(f.name for f in fields(ReportRow))
_KINDS = {f.name: f.type for f in fields(ReportRow)}  # "int", "float | None", ...: strings, as annotations are here
_OPTIONAL_FIELDS = tuple(name for name, kind in _KINDS.items() if kind.endswith(" | None"))
_JSON_FIELDS = {name: {"int": "int", "float": "number", "str": "str"}[kind.removesuffix(" | None")]
               + "?" * (name in _OPTIONAL_FIELDS) for name, kind in _KINDS.items()}  # as a task file's fields


@dataclass(frozen=True)
class RunConfig:
    """What to run: tasks x k values x methods against one backend, with one set of run options.

    A task is a builtin task name, a JSON task file or a ``TaskSpec``.
    """

    tasks: tuple
    lm_spec: str
    k_values: tuple
    methods: tuple
    options: SolveOptions = SolveOptions()
    pair_gencp_to_bs: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.tasks or not self.k_values or not self.methods:
            raise ValueError("need at least one task, one k, and one method")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected {METHODS}")


class OracleLimitError(RuntimeError):
    """The enumeration would exceed the configured node or time budget."""


def brute_force_oracle(task, lm, depth_cap, node_limit=8**8, time_budget=None):
    """Every reachable solution, by direct enumeration: a dict from each sentence to its words.

    The words are the tuple the walk assigned, the final "." included when
    the task requires one; nothing parses them back out of a sentence.
    Iterating, sorting, counting or testing ``in`` on the dict reads the
    sentences.

    Depth-first walk over the top-k valid words per prefix, deliberately sharing no
    machinery with the solver: its own explicit stack of prefixes, no domains, no prefix
    summaries, and words tested in rank order by the ``per_word`` clauses themselves, up
    to the k-th that passes.  A stack entry carries its rendering, its parent's plus one
    word, and whether the walk asks about it, so a node costs the same at any depth.  A
    branch stops at the first prefix that satisfies the solution predicate, since nothing
    past a finished sentence is reachable by a search that backtracks on success.  One
    backend answer per prefix serves its period check and its children.
    Raises OracleLimitError past ``node_limit`` visited prefixes or
    ``time_budget`` seconds.
    """
    if depth_cap < len(task.seed) + 1:
        raise ValueError("depth_cap must exceed the seed length")
    check_time_budget(time_budget)
    params = task.lm_params
    per_word = [c for c in task.constraints if c.per_word]  # picked once, not for each word
    period = ["."] if task.require_period else []
    found = {}
    started = time.perf_counter()

    def entry(words, prompt):
        """A stack entry: ``words``, rendered as ``prompt``, whether they finish a sentence and whether the walk asks about them."""
        whole = bool(words) and cst.check_complete(words + period, task)
        return words, prompt, whole, task.require_period if whole else len(words) < depth_cap

    def children(words, prompt, whole, raw):
        """The entries the walk visits below ``words``, from its answer ``raw``; None at a solution."""
        if whole and (not task.require_period or ranked_period(raw, params.k) is not None):
            return None
        if len(words) >= depth_cap:
            return []
        below = []
        for cand in cst.only_words(raw):
            word = cand.text
            if cst.word_valid(word, per_word):
                below.append(entry(words + [word], f"{prompt} {word}" if words else word))
                if len(below) == params.k:  # no word past the k-th valid one is tested
                    break
        return below

    def hints(words, prompt, whole, raw):
        """Hints for the children of ``words`` that the walk asks about, each expanding likewise."""
        for child in children(words, prompt, whole, raw) or ():
            if child[3]:
                yield child[1], functools.partial(hints, *child[:3])

    seed = entry(list(task.seed), render_prefix(task.seed))
    stack = [seed]
    visited = 0
    try:
        if seed[3]:  # its hint, expansions followed, names every prompt of the walk
            lm.prefetch([(seed[1], functools.partial(hints, *seed[:3]))], params)
        while stack:
            words, prompt, whole, asked = stack.pop()
            visited += 1
            if visited > node_limit:
                raise OracleLimitError(f"enumeration exceeded {node_limit} nodes")
            if time_budget is not None and time.perf_counter() - started > time_budget:
                raise OracleLimitError(f"enumeration exceeded its {time_budget} s time budget")
            below = children(words, prompt, whole, lm.predict(prompt, params) if asked else None)
            if below is None:
                found[prompt + "." if task.require_period else prompt] = tuple(words + period)
            else:
                stack.extend(reversed(below))  # popped in rank order, as a recursion visits them
    finally:
        lm.cancel_prefetch()
    return found


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
        for spec in config.tasks:
            for k in config.k_values:
                task = cst.resolve_task(spec, k)
                bs_reference = None
                for method in ordered_methods:
                    row = _run_method(method, task, lm, k, config, bs_reference)
                    if config.pair_gencp_to_bs and method.startswith("bs-"):
                        bs_reference = row.n_solutions
                    rows.append(row)
    rows.sort(key=lambda r: (r.task, r.method, r.k))
    return rows


def _run_method(method, task, lm, k, config, bs_reference):
    opts = config.options
    started = time.perf_counter()
    extra = {"sat_pct": None, "n_bad_outputs": None, "n_backtracks": None}
    try:
        if method == "gencp":
            if bs_reference is not None:
                opts = replace(opts, max_solutions=max(bs_reference, 1))
            outcome = run_search(task, lm, opts)
            seconds = time.perf_counter() - started
            word_lists = [r.words for r in outcome.solutions]
            ppls = [r.ppl for r in outcome.solutions]
            extra.update(sat_pct=100.0 if ppls else None, n_backtracks=outcome.stats.backtracks)
        elif method in ("bs-first", "bs-all"):
            records, bad = beam_search(
                task, lm, mode=HaltingMode(method.removeprefix("bs-")),
                time_budget=opts.time_budget, max_words=opts.max_variables,
            )
            seconds = time.perf_counter() - started
            word_lists = [r.words for r in records]
            ppls = [r.ppl for r in records]
            extra.update(sat_pct=satisfaction_rate(records, bad), n_bad_outputs=len(bad))
        elif method == "oracle":
            found = brute_force_oracle(task, lm, depth_cap=opts.max_variables, time_budget=opts.time_budget)
            seconds = time.perf_counter() - started
            word_lists = [found[sentence] for sentence in sorted(found)]
            ppls = [perplexity(lm, words, task.lm_params) for words in word_lists]
            extra.update(sat_pct=100.0 if found else None)
        else:
            raise ValueError(f"unknown method {method!r}")
        return ReportRow(
            method=method,
            task=task.name,
            k=k,
            seconds=seconds,
            n_solutions=len(word_lists),
            mean_ppl=math.fsum(ppls) / len(ppls) if ppls else None,  # as statistics.fmean computes it
            max_variability=_max_variability([w[:-1] if task.require_period else w for w in word_lists]),
            **extra,
        )
    except (TransportError, SearchAborted, OracleLimitError) as exc:
        seconds = time.perf_counter() - started
        partial = getattr(exc, "solutions", [])
        import logging  # here, not at module level: ``import gencp`` loads no logging

        logging.getLogger(__name__).warning("%s on %s (k=%d) failed after %.2fs: %s",
                                            method, task.name, k, seconds, exc)
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
        import csv  # here and in loads_report only: ``import gencp`` loads no csv

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


def _coerce(field, value):
    """The report cell ``value`` as the type ``ReportRow`` annotates ``field`` with; None for an empty optional cell."""
    kind = _KINDS[field]
    if kind.endswith(" | None"):
        if value is None or value == "":
            return None
        kind = kind.removesuffix(" | None")
    parse = {"int": int, "float": float}.get(kind)
    return value if parse is None else parse(value)


def _row(n, cells):
    """The ReportRow of the n-th row's cells, in ``REPORT_FIELDS`` order; ValueError naming the row when they do not fit."""
    if len(cells) != len(REPORT_FIELDS):
        raise ValueError(f"report row {n} has {len(cells)} fields, not {len(REPORT_FIELDS)}")
    try:
        return ReportRow(**{f: _coerce(f, v) for f, v in zip(REPORT_FIELDS, cells)})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"report row {n}: {exc}") from None


def loads_report(text, fmt="csv"):
    """Parse report text back into ReportRow objects; a malformed report raises ValueError."""
    if fmt == "csv":
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != list(REPORT_FIELDS):
            raise ValueError("unexpected report header")
        return [_row(n, record) for n, record in enumerate(filter(None, reader), 1)]
    if fmt == "json":
        try:
            objs = json.loads(text)
        except RecursionError:  # not a ValueError: input nested past the interpreter's limit
            raise ValueError("report JSON nested too deeply") from None
        if not isinstance(objs, list):
            raise ValueError("a JSON report holds a list of rows")
        for n, obj in enumerate(objs, 1):
            if not isinstance(obj, dict) or obj.keys() != set(REPORT_FIELDS):
                raise ValueError(f"report row {n} is not an object with the keys {', '.join(REPORT_FIELDS)}")
            cst._check_fields(f"report row {n}", obj, _JSON_FIELDS)  # _coerce would truncate 1.5 and read "0.5"
        return [_row(n, [obj[f] for f in REPORT_FIELDS]) for n, obj in enumerate(objs, 1)]
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(path, fmt="csv"):
    """Read a report file written by emit_report."""
    with open(path, encoding="utf-8") as fh:
        return loads_report(fh.read(), fmt)
