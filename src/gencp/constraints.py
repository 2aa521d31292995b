"""Declarative sentence constraints, word validity, and domain filtering.

Character counts are taken on the rendered sentence, spaces and the final
period included.  Word counts, per-word length limits, and positional pins
apply to content words only; the trailing period is not a word.

Each constraint class carries its own pruning: ``admits_word``,
``admits_next`` and ``prefix_ok``, which ``word_valid``, ``filter_domain``
and ``can_extend`` loop over.  ``check_complete`` is the plain specification
that this pruning is fuzz-tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .lm import LMParams
from .model import Domain, render_prefix, render_sentence


class Constraint:
    """Base of the constraint types: pruning hooks that admit by default.

    ``length`` is the rendered length of partial + [word] in ``admits_next``
    and of partial in ``prefix_ok``; ``reserve`` is 1 when a final period is
    required.  The caps and ``required_words`` feed ``can_extend``'s lookahead.
    """

    word_cap = None
    char_cap = None
    required_words = ()

    def admits_word(self, word):
        return True

    def admits_next(self, partial, word, length, reserve):
        return True

    def prefix_ok(self, partial, length):
        return True


@dataclass(frozen=True)
class CharCountExact(Constraint):
    """Rendered sentence must have exactly n characters."""

    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("character count must be > 0")

    char_cap = property(lambda self: self.n)

    def admits_next(self, partial, word, length, reserve):
        return length + reserve <= self.n

    def prefix_ok(self, partial, length):
        return length <= self.n


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

    def admits_next(self, partial, word, length, reserve):
        return self.hi is None or len(partial) < self.hi

    def prefix_ok(self, partial, length):
        return self.hi is None or len(partial) < self.hi


@dataclass(frozen=True)
class MaxWordLen(Constraint):
    """Every content word is at most ``limit`` characters long."""

    limit: int

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("word length limit must be >= 1")

    def admits_word(self, word):
        return len(word) <= self.limit

    def prefix_ok(self, partial, length):
        limit = self.limit
        return not any(len(w) > limit for w in partial)


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

    def admits_next(self, partial, word, length, reserve):
        return len(partial) + 1 != self.position or word == self.word

    def prefix_ok(self, partial, length):
        return self.position > len(partial) or partial[self.position - 1] == self.word


@dataclass(frozen=True)
class MandatoryKeywords(Constraint):
    """Each keyword must appear as a whole word (case-insensitive)."""

    words: frozenset

    def __init__(self, words):
        object.__setattr__(self, "words", frozenset(words))
        if not self.words:
            raise ValueError("keyword set is empty")

    required_words = property(lambda self: self.words)


@dataclass(frozen=True)
class KeywordSeparation(Constraint):
    """Any two keyword occurrences need >= min_gap words strictly between them."""

    words: frozenset
    min_gap: int

    def __init__(self, words, min_gap):
        object.__setattr__(self, "words", frozenset(words))
        object.__setattr__(self, "min_gap", min_gap)
        object.__setattr__(self, "_folded", frozenset(w.casefold() for w in self.words))
        if not self.words:
            raise ValueError("keyword set is empty")
        if self.min_gap < 1:
            raise ValueError("min_gap must be >= 1")

    def admits_next(self, partial, word, length, reserve):
        lowered = self._folded
        if word.casefold() not in lowered:
            return True
        position = len(partial) + 1
        return not any(
            earlier.casefold() in lowered and position - j - 1 < self.min_gap
            for j, earlier in enumerate(partial, start=1)
        )

    def prefix_ok(self, partial, length):
        lowered = self._folded
        hits = [j for j, w in enumerate(partial, start=1) if w.casefold() in lowered]
        return all(b - a - 1 >= self.min_gap for a, b in zip(hits, hits[1:]))


@dataclass(frozen=True)
class ForbiddenChars(Constraint):
    """No content word may contain any of these characters."""

    chars: frozenset

    def __init__(self, chars):
        object.__setattr__(self, "chars", frozenset(chars))
        if not self.chars:
            raise ValueError("forbidden character set is empty")

    def admits_word(self, word):
        return not any(ch in self.chars for ch in word)

    def prefix_ok(self, partial, length):
        chars = self.chars
        return not any(ch in chars for w in partial for ch in w)


@dataclass(frozen=True)
class StartsWith(Constraint):
    """The sentence must begin with these exact words."""

    prefix: tuple

    def __init__(self, prefix):
        object.__setattr__(self, "prefix", tuple(prefix))
        if not self.prefix:
            raise ValueError("prefix is empty")

    def admits_next(self, partial, word, length, reserve):
        return len(partial) >= len(self.prefix) or word == self.prefix[len(partial)]

    def prefix_ok(self, partial, length):
        return all(h == p for h, p in zip(partial, self.prefix))


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


def only_words(candidates, keep_period=False):
    """Drop sub-word fragments, symbols, and punctuation from a candidate list.

    A bare "." is kept only when the caller is scanning for end-of-sentence.
    """
    kept = []
    for cand in candidates:
        if cand.text == ".":
            if keep_period:
                kept.append(cand)
        elif _looks_like_word(cand.text):
            kept.append(cand)
    return kept


def filter_domain(partial, domain, constraints, task):
    """Drop candidates that cannot sit at position len(partial)+1.

    A survivor is valid on its own (``word_valid``) and admitted at the next
    position by every constraint; one character stays reserved for the final
    period when the task requires one.  Survivor order is preserved.
    """
    partial = list(partial)
    reserve = 1 if task.require_period else 0
    current = domain.current()
    survivors = []
    for cand in domain.values:
        word = cand.text
        if not word_valid(word, constraints):
            continue
        length = len(render_sentence(partial + [word]))
        for c in constraints:
            if not c.admits_next(partial, word, length, reserve):
                break
        else:
            survivors.append(cand)
    cursor = None
    if current is not None and current in survivors:
        cursor = survivors.index(current)
    return Domain(survivors, cursor=cursor)


def can_extend(partial, constraints):
    """Whether some completion of the partial sentence could still satisfy everything.

    Conservative: never rejects a prefix that has a satisfying completion.
    Besides each constraint's own ``prefix_ok``, the keywords still missing
    must fit under the tightest word and character caps.  A keyword counts
    once however many constraints or case variants name it, and is charged
    its shortest spelling, since case folding can lengthen a word.
    """
    partial = list(partial)
    length = len(render_prefix(partial))
    for c in constraints:
        if not c.prefix_ok(partial, length):
            return False
    required = [w for c in constraints for w in c.required_words]
    if not required:
        return True
    present = {w.casefold() for w in partial}
    missing = {}  # casefolded keyword -> length of its shortest spelling
    for w in required:
        key = w.casefold()
        if key not in present:
            missing[key] = min(len(w), missing.get(key, len(w)))
    if not missing:
        return True
    word_cap = min((c.word_cap for c in constraints if c.word_cap is not None), default=None)
    if word_cap is not None and len(partial) + len(missing) > word_cap:
        return False
    char_cap = min((c.char_cap for c in constraints if c.char_cap is not None), default=None)
    if char_cap is not None:
        needed = sum(n + 1 for n in missing.values())
        if not partial:
            needed -= 1
        if length + needed > char_cap:
            return False
    return True


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


BUILTIN_TASK_NAMES = ("sent-1", "sent-2", "sent-3", "sent-4", "sent-4*", "demo-60")

_KEYWORDS = frozenset({"soft", "beach", "math"})


def builtin_task(name, lm_params=None):
    """One of the benchmark tasks by name; see BUILTIN_TASK_NAMES."""
    params = lm_params if lm_params is not None else LMParams()
    seed = ()
    ordering = "probability"
    if name == "sent-1":
        constraints = (CharCountExact(82),)
    elif name == "sent-2":
        constraints = (
            WordCountRange(10, 10),
            PositionLexical(3, "soft"),
            PositionLexical(7, "soft"),
            PositionLexical(10, "math"),
        )
    elif name == "sent-3":
        constraints = (WordCountRange(20, None), MaxWordLen(6))
    elif name == "sent-4":
        constraints = (MandatoryKeywords(_KEYWORDS),)
    elif name == "sent-4*":
        constraints = (MandatoryKeywords(_KEYWORDS), KeywordSeparation(_KEYWORDS, 3))
    elif name == "demo-60":
        constraints = (StartsWith(("The",)), WordCountRange(10, 15), CharCountExact(60))
        seed = ("The",)
        ordering = "char-target:10"
    else:
        raise ValueError(
            f"unknown task {name!r}; expected one of {', '.join(BUILTIN_TASK_NAMES)}"
        )
    return TaskSpec(
        name=name,
        constraints=constraints,
        seed=seed,
        lm_params=params,
        require_period=True,
        ordering=ordering,
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
