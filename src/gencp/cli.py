"""Command-line front end.

Subcommands: solve (one backtracking-search run), beam (one beam-search run),
bench (the full comparison grid), oracle (exhaustive enumeration), and
train-ngram.  Exit codes: 0 success, 1 usage error, 2 backend failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import replace

from . import constraints as cst
from .beam import HaltingMode, beam_search, satisfaction_rate
from .harness import (
    OracleLimitError,
    RunConfig,
    brute_force_oracle,
    emit_report,
    run_benchmark,
)
from .lm import TransportError, load_backend, train_ngram
from .solver import SearchAborted, SolveOptions, run_search


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(prog="gencp", description="Constrained sentence generation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True, max_variables=64):
        p.add_argument("--task", required=True, help="builtin task name or JSON task file")
        p.add_argument("--lm", required=True, help="backend: table:PATH | ngram:PATH,ORDER | ngram:MODEL.json | remote:URL")
        if with_k:
            p.add_argument("--k", type=int, help="words requested per LM call (and beam width)")
        p.add_argument("--seed-words", help="comma-separated words overriding the task seed")
        p.add_argument("--time-budget", type=float, help="wall-clock budget in seconds")
        p.add_argument("--max-variables", type=int, default=max_variables)

    def add_search(p):
        p.add_argument("--max-solutions", type=int)
        p.add_argument("--backtrack-to", type=int, help="jump back to this variable after each solution")
        p.add_argument("--ordering", help="probability | ppl (alias of probability) | char-target[:PIVOT]")

    p_solve = sub.add_parser("solve", help="run the backtracking search once")
    add_common(p_solve)
    add_search(p_solve)
    p_solve.add_argument("--all", action="store_true", help="exhaust the search tree")

    p_beam = sub.add_parser("beam", help="run beam search once")
    add_common(p_beam)
    p_beam.add_argument("--mode", choices=["first", "all"], default="all")

    p_bench = sub.add_parser("bench", help="run the method/task/k comparison grid")
    add_common(p_bench, with_k=False)
    p_bench.add_argument("--k", required=True, help="comma-separated k values, e.g. 5,10,20")
    p_bench.add_argument("--method", required=True, help="comma-separated: gencp,bs-first,bs-all,oracle")
    add_search(p_bench)
    p_bench.add_argument("--pair", action="store_true", help="cap the search at beam search's solution count")
    p_bench.add_argument("--out", help="report file (stdout when omitted)")
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")

    p_oracle = sub.add_parser("oracle", help="enumerate every reachable solution")
    add_common(p_oracle, max_variables=10)

    p_train = sub.add_parser("train-ngram", help="train and save an n-gram backend")
    p_train.add_argument("--corpus", required=True, help="UTF-8 plain-text corpus file")
    p_train.add_argument("--order", type=int, required=True)
    p_train.add_argument("--smoothing", type=float, default=1.0)
    p_train.add_argument("--out", required=True, help="model file to write (JSON)")

    return parser


def _load_task(args, k=None):
    task = cst.resolve_task(args.task, k)
    if args.seed_words is not None:
        seed = tuple(w for w in args.seed_words.split(",") if w)
        task = replace(task, seed=seed)
    if getattr(args, "ordering", None):  # solve and bench take --ordering
        task = replace(task, ordering=args.ordering)
    return task


def _solve_options(args):
    return SolveOptions(
        max_solutions=args.max_solutions,
        time_budget=args.time_budget,
        backtrack_to=args.backtrack_to,
        max_variables=args.max_variables,
    )


def _print_records(records):
    for rec in records:
        print(f"{rec.sentence}\tppl={rec.ppl:.4f}")


def _cmd_solve(args):
    task = _load_task(args, args.k)
    opts = _solve_options(args)
    with closing(load_backend(args.lm)) as lm:
        outcome = run_search(task, lm, opts, exhaustive=args.all)
    _print_records(outcome.solutions)
    print(
        f"{len(outcome.solutions)} solution(s), {outcome.stats.backtracks} backtracks, "
        f"{outcome.stats.lm_calls} domain fetches",
        file=sys.stderr,
    )
    return 0


def _cmd_beam(args):
    task = _load_task(args, args.k)
    with closing(load_backend(args.lm)) as lm:
        records, bad = beam_search(
            task, lm, mode=HaltingMode(args.mode), time_budget=args.time_budget,
            max_words=args.max_variables,
        )
    _print_records(records)
    rate = satisfaction_rate(records, bad)
    rate_text = "n/a" if rate is None else f"{rate:.1f}%"
    print(
        f"{len(records)} solution(s), {len(bad)} bad output(s), satisfaction {rate_text}",
        file=sys.stderr,
    )
    return 0


def _cmd_bench(args):
    try:
        k_values = tuple(int(v) for v in args.k.split(",") if v)
    except ValueError:
        raise UsageError(f"bad --k list {args.k!r}") from None
    config = RunConfig(
        tasks=(_load_task(args),),
        lm_spec=args.lm,
        k_values=k_values,
        methods=tuple(m for m in args.method.split(",") if m),
        options=_solve_options(args),
        pair_gencp_to_bs=args.pair,
    )
    rows = run_benchmark(config)
    emit_report(rows, fmt=args.format, path=args.out)
    return 0


def _cmd_oracle(args):
    task = _load_task(args, args.k)
    with closing(load_backend(args.lm)) as lm:
        sentences = sorted(brute_force_oracle(
            task, lm, depth_cap=args.max_variables, time_budget=args.time_budget
        ))
    for sentence in sentences:
        print(sentence)
    print(f"{len(sentences)} solution(s)", file=sys.stderr)
    return 0


def _cmd_train_ngram(args):
    with open(args.corpus, encoding="utf-8") as fh:
        model = train_ngram(fh, args.order, args.smoothing)
    model.save(args.out)
    print(
        f"trained order-{args.order} model over {len(model.vocabulary)} word types -> {args.out}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "beam": _cmd_beam,
    "bench": _cmd_bench,
    "oracle": _cmd_oracle,
    "train-ngram": _cmd_train_ngram,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SearchAborted as exc:
        _print_records(exc.solutions)
        print(f"backend failure: {exc} (partial results above)", file=sys.stderr)
        return 2
    except (TransportError, OracleLimitError) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
