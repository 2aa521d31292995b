"""Constrained sentence generation toolkit.

A backtracking search that creates its variables, word domains, and
constraints on the fly, with domains predicted by a pluggable language-model
backend; a width-k beam-search baseline over the same machinery; and a
benchmark harness comparing the two.
"""

from .beam import Beam, HaltingMode, beam_search, expand_beams, satisfaction_rate
from .constraints import (
    BUILTIN_TASK_NAMES,
    CharCountExact,
    ForbiddenChars,
    KeywordSeparation,
    MandatoryKeywords,
    MaxWordLen,
    PositionLexical,
    PrefixSummary,
    StartsWith,
    TaskSpec,
    WordCountRange,
    builtin_task,
    check_complete,
    load_task_file,
    only_words,
    parse_ordering,
    summarize,
    with_k,
    word_valid,
)
from .harness import (
    METHODS,
    REPORT_FIELDS,
    OracleLimitError,
    ReportRow,
    RunConfig,
    brute_force_oracle,
    dumps_report,
    emit_report,
    loads_report,
    parse_report,
    run_benchmark,
)
from .lm import (
    LMParams,
    LanguageModel,
    NGramLM,
    TableLM,
    TransportError,
    load_backend,
    perplexity,
    predicts_period,
    sequence_logprob,
    tokenize,
    train_ngram,
)
from .model import (
    SearchStats,
    SolutionRecord,
    WordCandidate,
    render_prefix,
    render_sentence,
    variability,
)
from .solver import (
    SearchAborted,
    SearchOutcome,
    SolveOptions,
    generate_variable,
    order_candidates,
    run_search,
    solve,
    solve_all,
)

__version__ = "0.1.0"


def __getattr__(name):
    """``RemoteLM``, from ``gencp.remote``, which loads HTTP, TLS and a thread pool on first use."""
    if name != "RemoteLM":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .remote import RemoteLM
    return RemoteLM
