"""Declarative sentence constraints, word validity, and domain filtering.

Character counts are taken on the rendered sentence, spaces and the final
period included.  Word counts, per-word length limits, and positional pins
apply to content words only; the trailing period is not a word.

Each constraint class carries its own pruning hooks: ``admits_word``,
``admits_next`` and ``admits_end``.  The searches do not rescan a prefix to
apply them.  They keep one ``PrefixSummary`` per prefix (word count,
rendered length, where the keywords stand, whether a word failed its test),
extended by one word at a time, and ``filter_domain``, ``can_extend`` and the
solution predicate read it.  ``check_complete`` is the plain specification
that this pruning is fuzz-tested against.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .lm import LMParams
from .model import Domain, render_sentence


class Constraint:
    """Base of the constraint types: pruning hooks that admit by default.

    ``prefix`` is the ``PrefixSummary`` of the words before ``word`` in
    ``admits_next`` and of the whole sentence in ``admits_end``; ``length``
    is the rendered length with ``word``; ``reserve`` is 1 when a final
    period is required, and a word admitted with it is admitted without.
    ``keywords`` are the casefolded words whose last positions the summary
    records, and the caps and ``required_words`` feed ``can_extend``'s
    lookahead.
    """

    word_cap = None
    char_cap = None
    keywords = ()
    required_words = ()

    def admits_word(self, word):
        """Whether the word, on its own, may appear at all."""
        return True

    def admits_next(self, prefix, word, length, reserve):
        """Whether the word may follow the prefix; no later word undoes a rejection."""
        return True

    def admits_end(self, prefix, reserve):
        """Whether a sentence whose words all passed the tests above may end here."""
        return True


@dataclass(frozen=True)
class CharCountExact(Constraint):
    """Rendered sentence must have exactly n characters."""

    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("character count must be > 0")

    char_cap = property(lambda self: self.n)

    def admits_next(self, prefix, word, length, reserve):
        return length + reserve <= self.n

    def admits_end(self, prefix, reserve):
        return prefix.length + reserve == self.n


@dataclass(frozen=True)
class WordCountRange(Constraint):
    """Content word count must lie in [lo, hi]; hi None means unbounded."""

    lo: int
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError("lo must be >= 1")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError("lo must not exceed hi")

    word_cap = property(lambda self: self.hi)

    def admits_next(self, prefix, word, length, reserve):
        return self.hi is None or prefix.count < self.hi

    def admits_end(self, prefix, reserve):
        return prefix.count >= self.lo


@dataclass(frozen=True)
class MaxWordLen(Constraint):
    """Every content word is at most ``limit`` characters long."""

    limit: int

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("word length limit must be >= 1")

    def admits_word(self, word):
        return len(word) <= self.limit


@dataclass(frozen=True)
class PositionLexical(Constraint):
    """The word at a fixed 1-based position must equal ``word`` exactly."""

    position: int
    word: str

    def __post_init__(self):
        if self.position < 1:
            raise ValueError("position must be >= 1")
        if not self.word:
            raise ValueError("pinned word is empty")

    def admits_next(self, prefix, word, length, reserve):
        return prefix.count + 1 != self.position or word == self.word

    def admits_end(self, prefix, reserve):
        return prefix.count >= self.position


@dataclass(frozen=True)
class MandatoryKeywords(Constraint):
    """Each keyword must appear as a whole word (case-insensitive)."""

    words: frozenset

    def __init__(self, words):
        object.__setattr__(self, "words", frozenset(words))
        object.__setattr__(self, "keywords", frozenset(w.casefold() for w in self.words))
        if not self.words:
            raise ValueError("keyword set is empty")

    required_words = property(lambda self: self.keywords)

    def admits_end(self, prefix, reserve):
        seen = prefix.seen
        return all(w in seen for w in self.keywords)


@dataclass(frozen=True)
class KeywordSeparation(Constraint):
    """Any two keyword occurrences need >= min_gap words strictly between them."""

    words: frozenset
    min_gap: int

    def __init__(self, words, min_gap):
        object.__setattr__(self, "words", frozenset(words))
        object.__setattr__(self, "min_gap", min_gap)
        object.__setattr__(self, "keywords", frozenset(w.casefold() for w in self.words))
        if not self.words:
            raise ValueError("keyword set is empty")
        if self.min_gap < 1:
            raise ValueError("min_gap must be >= 1")

    def admits_next(self, prefix, word, length, reserve):
        if word.casefold() not in self.keywords:
            return True
        seen = prefix.seen
        last = max(seen.get(w, 0) for w in self.keywords)
        return not last or prefix.count - last >= self.min_gap


@dataclass(frozen=True)
class ForbiddenChars(Constraint):
    """No content word may contain any of these characters."""

    chars: frozenset

    def __init__(self, chars):
        object.__setattr__(self, "chars", frozenset(chars))
        if not self.chars:
            raise ValueError("forbidden character set is empty")

    def admits_word(self, word):
        return self.chars.isdisjoint(word)


@dataclass(frozen=True)
class StartsWith(Constraint):
    """The sentence must begin with these exact words."""

    prefix: tuple

    def __init__(self, prefix):
        object.__setattr__(self, "prefix", tuple(prefix))
        if not self.prefix:
            raise ValueError("prefix is empty")

    def admits_next(self, prefix, word, length, reserve):
        return prefix.count >= len(self.prefix) or word == self.prefix[prefix.count]

    def admits_end(self, prefix, reserve):
        return prefix.count >= len(self.prefix)


@dataclass(frozen=True)
class TaskSpec:
    """One full problem instance: constraints, seed words, and LM settings."""

    name: str
    constraints: tuple
    seed: tuple = ()
    lm_params: LMParams = LMParams()
    require_period: bool = True
    ordering: str = "probability"
    backtrack_to: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "seed", tuple(self.seed))
        for word in self.seed:
            if not word_valid(word, self.constraints):
                raise ValueError(f"seed word {word!r} violates the constraints")
        if self.backtrack_to is not None and self.backtrack_to < 1:
            raise ValueError("backtrack_to must be >= 1")


def word_valid(word, constraints):
    """Whether the word, taken on its own, violates no per-word constraint."""
    if not word:
        raise ValueError("empty word")
    for c in constraints:
        if not c.admits_word(word):
            return False
    return True


def _looks_like_word(text):
    pieces = text.replace("'", "-").split("-")
    return all(piece and piece.isalpha() for piece in pieces)


def only_words(candidates):
    """Drop sub-word fragments, symbols, and punctuation, "." among them, from a candidate list."""
    return [cand for cand in candidates if _looks_like_word(cand.text)]


def valid_words(candidates, constraints, k):
    """The first k candidates that are words passing ``word_valid``, in rank order.

    The window from which the solver and beam search take a node's words.
    """
    return [c for c in only_words(candidates) if word_valid(c.text, constraints)][:k]


@functools.lru_cache(maxsize=None)
def _multi_folds():
    """Strings of two or more characters that a single character casefolds to."""
    return frozenset(
        f for f in map(str.casefold, map(chr, range(sys.maxunicode + 1))) if len(f) > 1
    )


@functools.lru_cache(maxsize=None)
def fold_length(key):
    """Length of the shortest string whose ``casefold()`` is ``key``.

    Case folding maps each character on its own, some to two or three
    characters ("ß" to "ss"), so a word can be shorter than the keyword it
    matches; this is the least any spelling of the keyword can cost.
    """
    folds = _multi_folds()
    best = [0]  # best[i]: length of the shortest string that folds to key[:i]
    for i in range(1, len(key) + 1):
        best.append(1 + min(best[j] for j in range(i) if j == i - 1 or key[j:i] in folds))
    return best[-1]


class _Rules:
    """A constraint tuple sorted by the hooks each type overrides, plus the lookahead caps."""

    def __init__(self, constraints):
        def overriding(hook):
            base = getattr(Constraint, hook)
            return tuple(c for c in constraints if getattr(type(c), hook) is not base)

        self.word_tests = overriding("admits_word")
        self.next_tests = overriding("admits_next")
        self.end_tests = overriding("admits_end")
        self.keywords = frozenset(w for c in constraints for w in c.keywords)
        self.required = frozenset(w for c in constraints for w in c.required_words)
        self.word_cap = min((c.word_cap for c in constraints if c.word_cap is not None), default=None)
        self.char_cap = min((c.char_cap for c in constraints if c.char_cap is not None), default=None)


class PrefixSummary:
    """What the pruning needs to know about a prefix of content words.

    ``count`` words render to ``length`` characters; ``failed`` says that
    some word failed ``admits_word`` or ``admits_next`` (with no period
    reserve) where it stands, which no later word can mend; ``seen`` maps
    each tracked keyword (casefolded) to the last position that holds it.
    ``push`` gives the summary one word longer in O(#constraints +
    #keywords), so a search keeps one summary per prefix instead of
    rescanning it.  Summaries are never changed once made and may be shared.
    """

    __slots__ = ("rules", "count", "length", "failed", "seen")

    def __init__(self, rules, count, length, failed, seen):
        self.rules = rules
        self.count = count
        self.length = length
        self.failed = failed
        self.seen = seen

    def push(self, word, admitted=False):
        """Summary of the prefix followed by ``word``.

        ``admitted`` skips every test for a word that ``filter_domain`` or
        beam search already admitted after this prefix.
        """
        rules = self.rules
        count = self.count
        length = self.length + len(word) + 1 if count else len(word)
        failed = self.failed or not (admitted or self.admits(word, length, 0))
        seen = self.seen
        if rules.keywords:
            key = word.casefold()
            if key in rules.keywords:
                seen = {**seen, key: count + 1}
        return PrefixSummary(rules, count + 1, length, failed, seen)

    def admits(self, word, length, reserve, word_tested=False):
        """Whether ``word``, making the prefix ``length`` characters long, may come next.

        ``word_tested`` skips the ``admits_word`` tests, which ``word_valid``
        already passed.
        """
        if not word_tested:
            for c in self.rules.word_tests:
                if not c.admits_word(word):
                    return False
        for c in self.rules.next_tests:
            if not c.admits_next(self, word, length, reserve):
                return False
        return True

    def can_extend(self):
        """Whether some completion with one more word could still satisfy everything.

        Conservative: never rejects a prefix that has a satisfying
        completion.  Besides the word tests, the keywords still missing must
        fit under the tightest word and character caps.  A keyword counts
        once however many constraints or case variants name it, and is
        charged the shortest string that casefolds to it (``fold_length``).
        """
        if self.failed:
            return False
        rules = self.rules
        count = self.count
        word_cap = rules.word_cap
        if word_cap is not None and count >= word_cap:
            return False
        if not rules.required:
            return True
        seen = self.seen
        missing = [w for w in rules.required if w not in seen]
        if not missing:
            return True
        if word_cap is not None and count + len(missing) > word_cap:
            return False
        if rules.char_cap is not None:
            needed = sum(fold_length(w) + 1 for w in missing) - (0 if count else 1)
            if self.length + needed > rules.char_cap:
                return False
        return True

    def complete(self, reserve):
        """Whether the words, with a final period when ``reserve`` is 1, pass ``check_complete``."""
        if self.failed or not self.count:
            return False
        for c in self.rules.end_tests:
            if not c.admits_end(self, reserve):
                return False
        return True


def summarize(words, constraints):
    """The ``PrefixSummary`` of content ``words`` under the constraints, built word by word."""
    summary = PrefixSummary(_Rules(constraints), 0, 0, False, {})
    for word in words:
        summary = summary.push(word)
    return summary


def filter_domain(partial, domain, constraints, task, summary=None, word_tested=False):
    """Drop candidates that cannot sit at position len(partial)+1.

    A survivor is valid on its own (``word_valid``) and admitted at the next
    position by every constraint; one character stays reserved for the final
    period when the task requires one.  Survivor order is preserved, and the
    returned domain is unassigned.  ``summary``, the ``PrefixSummary`` of
    ``partial`` when the caller keeps one, saves rebuilding it.
    ``word_tested`` says every candidate already passed ``word_valid``, so
    only the tests against the prefix run.
    """
    if summary is None:
        summary = summarize(partial, constraints)
    reserve = 1 if task.require_period else 0
    base = summary.length + 1 if summary.count else 0
    return Domain([cand for cand in domain.values
                   if summary.admits(cand.text, base + len(cand.text), reserve, word_tested)])


def can_extend(partial, constraints):
    """Whether some completion of the partial sentence could still satisfy everything.

    See ``PrefixSummary.can_extend``, which the searches call on the
    summaries they keep.
    """
    return summarize(partial, constraints).can_extend()


def check_complete(words, task):
    """Whether a finished word sequence satisfies every constraint of the task.

    ``words`` includes the trailing "." when the task requires one.
    """
    words = list(words)
    if not words:
        return False
    if task.require_period and words[-1] != ".":
        return False
    content = words[:-1] if words[-1] == "." else words
    if not content:
        return False
    sentence = render_sentence(words)
    for c in task.constraints:
        if isinstance(c, CharCountExact):
            if len(sentence) != c.n:
                return False
        elif isinstance(c, WordCountRange):
            if len(content) < c.lo or (c.hi is not None and len(content) > c.hi):
                return False
        elif isinstance(c, MaxWordLen):
            if any(len(w) > c.limit for w in content):
                return False
        elif isinstance(c, PositionLexical):
            if c.position > len(content) or content[c.position - 1] != c.word:
                return False
        elif isinstance(c, MandatoryKeywords):
            present = {w.casefold() for w in content}
            if any(w.casefold() not in present for w in c.words):
                return False
        elif isinstance(c, KeywordSeparation):
            lowered = {w.casefold() for w in c.words}
            hits = [j for j, w in enumerate(content, start=1) if w.casefold() in lowered]
            if any(b - a - 1 < c.min_gap for a, b in zip(hits, hits[1:])):
                return False
        elif isinstance(c, ForbiddenChars):
            if any(ch in c.chars for w in content for ch in w):
                return False
        elif isinstance(c, StartsWith):
            if tuple(content[: len(c.prefix)]) != c.prefix:
                return False
    return True


_KEYWORDS = frozenset({"soft", "beach", "math"})

# name -> constraints; every builtin task requires a period
_BUILTIN_TASKS = {
    "sent-1": (CharCountExact(82),),
    "sent-2": (WordCountRange(10, 10), PositionLexical(3, "soft"), PositionLexical(7, "soft"),
               PositionLexical(10, "math")),
    "sent-3": (WordCountRange(20, None), MaxWordLen(6)),
    "sent-4": (MandatoryKeywords(_KEYWORDS),),
    "sent-4*": (MandatoryKeywords(_KEYWORDS), KeywordSeparation(_KEYWORDS, 3)),
    "demo-60": (StartsWith(("The",)), WordCountRange(10, 15), CharCountExact(60)),
}
BUILTIN_TASK_NAMES = tuple(_BUILTIN_TASKS)


def builtin_task(name, lm_params=None):
    """One of the benchmark tasks by name; see BUILTIN_TASK_NAMES.

    ``demo-60`` is seeded with "The" and orders its domains ``char-target:10``.
    """
    if name not in _BUILTIN_TASKS:
        raise ValueError(f"unknown task {name!r}; expected one of {', '.join(BUILTIN_TASK_NAMES)}")
    demo = name == "demo-60"
    return TaskSpec(
        name=name,
        constraints=_BUILTIN_TASKS[name],
        seed=("The",) if demo else (),
        lm_params=lm_params if lm_params is not None else LMParams(),
        ordering="char-target:10" if demo else "probability",
    )


# JSON field name -> value kind; a trailing "?" makes the field optional
_CONSTRAINT_SCHEMAS = {
    "char_count_exact": (CharCountExact, {"n": "int"}),
    "word_count_range": (WordCountRange, {"lo": "int", "hi": "int?"}),
    "max_word_len": (MaxWordLen, {"limit": "int"}),
    "position_lexical": (PositionLexical, {"position": "int", "word": "str"}),
    "mandatory_keywords": (MandatoryKeywords, {"words": "words"}),
    "keyword_separation": (KeywordSeparation, {"words": "words", "min_gap": "int"}),
    "forbidden_chars": (ForbiddenChars, {"chars": "str"}),
    "starts_with": (StartsWith, {"prefix": "words"}),
}

_TASK_FILE_FIELDS = {
    "constraints": "list", "seed": "words", "k": "int", "top_k": "int", "top_p": "number",
    "temperature": "number", "oversample": "int", "require_period": "bool",
    "ordering": "str", "backtrack_to": "int?",
}

_KINDS = {  # kind -> (accepted JSON types, description)
    "int": (int, "an integer"), "number": ((int, float), "a number"), "str": (str, "a string"),
    "bool": (bool, "true or false"), "list": (list, "a list"),
    "words": (list, "a list of non-empty strings"),
}


def _check_fields(where, obj, fields):
    """Reject present fields of the wrong JSON type; null passes an optional field."""
    for name, kind in fields.items():
        if name not in obj or (obj[name] is None and kind.endswith("?")):
            continue
        value = obj[name]
        kind = kind.rstrip("?")
        types, text = _KINDS[kind]
        ok = isinstance(value, types) and (kind == "bool" or not isinstance(value, bool))
        if kind == "words":
            ok = ok and all(isinstance(w, str) and w for w in value)
        if not ok:
            raise ValueError(f"{where}: {name!r} must be {text}, got {value!r}")


def _parse_constraint(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ValueError(f"constraint entry must be an object with a string 'type': {obj!r}")
    kind = obj["type"]
    if kind not in _CONSTRAINT_SCHEMAS:
        raise ValueError(
            f"unknown constraint type {kind!r}; expected one of {', '.join(sorted(_CONSTRAINT_SCHEMAS))}"
        )
    cls, fields = _CONSTRAINT_SCHEMAS[kind]
    extra = set(obj) - {"type"} - set(fields)
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {kind!r} constraint")
    missing = [f for f, k in fields.items() if f not in obj and not k.endswith("?")]
    if missing:
        raise ValueError(f"constraint {kind!r} is missing {missing}")
    _check_fields(f"{kind!r} constraint", obj, fields)
    return cls(**{f: obj[f] for f in fields if f in obj})


def load_task_file(path):
    """Parse a JSON task file into a TaskSpec; unknown keys and wrong types are rejected."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: task file must hold a JSON object")
    extra = set(data) - set(_TASK_FILE_FIELDS)
    if extra:
        raise ValueError(f"{path}: unknown keys {sorted(extra)}")
    _check_fields(str(path), data, _TASK_FILE_FIELDS)
    constraints = tuple(_parse_constraint(obj) for obj in data.get("constraints", []))
    params = LMParams(
        k=data.get("k", LMParams.k),
        top_k=data.get("top_k", LMParams.top_k),
        top_p=data.get("top_p", LMParams.top_p),
        temperature=data.get("temperature", LMParams.temperature),
        oversample=data.get("oversample", LMParams.oversample),
    )
    return TaskSpec(
        name=path.stem,
        constraints=constraints,
        seed=tuple(data.get("seed", ())),
        lm_params=params,
        require_period=data.get("require_period", True),
        ordering=data.get("ordering", "probability"),
        backtrack_to=data.get("backtrack_to"),
    )


def resolve_task(name, k=None):
    """A builtin task by name, else a JSON task file; k replaced when given."""
    task = builtin_task(name) if name in BUILTIN_TASK_NAMES else load_task_file(name)
    return task if k is None else with_k(task, k)


def with_k(task, k):
    """Copy of the task with the per-call word count replaced."""
    params = task.lm_params
    top_k = max(params.top_k, k)
    return replace(task, lm_params=replace(params, k=k, top_k=top_k))
