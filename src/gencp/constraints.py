"""Declarative sentence constraints, word validity, and the node step.

Character counts are taken on the rendered sentence, spaces and the final
period included.  Word counts, per-word length limits, and positional pins
apply to content words only; the trailing period is not a word.

Each constraint class carries its own pruning as data: its floors, caps
(numbers, ``sys.maxsize`` where it sets none), pins, word tests, required
keywords and keyword gaps, and no hook.  The searches do not rescan a
prefix to apply them.  They keep one ``PrefixSummary`` per prefix (word
count, prompt, where the required and the separated keywords last
stand, whether a word failed its test), built by ``summarize`` for one
task, whose period reserve it holds, and extended by one word at a time;
``window``, the node step the solver and beam search share,
``can_extend``, the solution predicate and the backend's asks read it.
``check_complete``, the plain specification the pruning is fuzz-tested
against, asks each type's ``holds``, the O(1) clauses before the scans;
``word_valid``, the oracle's word test, asks the ``per_word`` clauses alone.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import unicodedata
from dataclasses import dataclass, field, fields, replace

from .lm import LMParams
from .model import WordCandidate, has_whitespace, render_sentence


class Constraint:
    """Base of the constraint types: pruning data that admits everything.

    ``word_floor`` (at least 1) and ``char_floor`` are the fewest content
    words and rendered characters, the period included, the clause admits;
    ``word_cap``, ``char_cap`` and ``pins``, (1-based position, word) pairs,
    are the caps and pins ``window`` tests once per node;
    ``word_len_cap`` and ``forbidden``, the longest content word and the
    characters none may hold, are the word tests it makes of each candidate.
    A cap is always a number, ``sys.maxsize`` where the clause sets none.
    A pin at position p is also a floor of p words.  ``required_words`` are
    the casefolded words a sentence must hold, and ``separations``
    (casefolded keywords, min_gap) pairs: ``window`` admits one of those
    keywords only with at least min_gap words since the last of them.  The
    summary records where the required and the separated keywords last stand.
    ``complete`` reads the floors and ``required_words``, and
    ``can_extend``'s lookahead the caps and ``required_words``.  ``holds``,
    the type's clause of ``check_complete``, reads none of these; ``scans``
    marks a clause that reads every word, ``per_word`` one that holds of a
    sentence exactly when it holds of each content word alone, and
    ``schema`` is the task-file type and its field kinds.
    """

    scans = False
    per_word = False
    word_floor = 1
    char_floor = 0
    word_cap = char_cap = word_len_cap = sys.maxsize
    pins = ()
    forbidden = frozenset()
    required_words = ()
    separations = ()


@dataclass(frozen=True)
class CharCountExact(Constraint):
    """Rendered sentence must have exactly n characters."""

    n: int
    schema = ("char_count_exact", {"n": "int"})
    scans = True  # the rendered length reads every word

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("character count must be > 0")

    char_floor = char_cap = property(lambda self: self.n)

    def holds(self, words, content):
        return len(render_sentence(words)) == self.n


@dataclass(frozen=True)
class WordCountRange(Constraint):
    """Content word count must lie in [lo, hi]; hi None means unbounded."""

    lo: int
    hi: int | None = None
    schema = ("word_count_range", {"lo": "int", "hi": "int?"})

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError("lo must be >= 1")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError("lo must not exceed hi")

    word_floor = property(lambda self: self.lo)
    word_cap = property(lambda self: sys.maxsize if self.hi is None else self.hi)

    def holds(self, words, content):
        return self.lo <= len(content) and (self.hi is None or len(content) <= self.hi)


@dataclass(frozen=True)
class MaxWordLen(Constraint):
    """Every content word is at most ``limit`` characters long."""

    limit: int
    schema = ("max_word_len", {"limit": "int"})
    scans = per_word = True

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("word length limit must be >= 1")

    word_len_cap = property(lambda self: self.limit)

    def holds(self, words, content):
        return max(map(len, content)) <= self.limit


@dataclass(frozen=True)
class PositionLexical(Constraint):
    """The word at a fixed 1-based position must equal ``word`` exactly."""

    position: int
    word: str
    schema = ("position_lexical", {"position": "int", "word": "str"})
    pins = property(lambda self: ((self.position, self.word),))

    def __post_init__(self):
        if self.position < 1:
            raise ValueError("position must be >= 1")
        if not self.word:
            raise ValueError("pinned word is empty")

    def holds(self, words, content):
        return self.position <= len(content) and content[self.position - 1] == self.word


@dataclass(frozen=True)
class MandatoryKeywords(Constraint):
    """Each keyword must appear as a whole word (case-insensitive)."""

    words: frozenset
    schema = ("mandatory_keywords", {"words": "words"})
    scans = True

    def __init__(self, words):
        object.__setattr__(self, "words", frozenset(words))
        if not self.words:
            raise ValueError("keyword set is empty")

    required_words = property(lambda self: frozenset(w.casefold() for w in self.words))

    def holds(self, words, content):
        return set(map(str.casefold, self.words)).issubset(map(str.casefold, content))


@dataclass(frozen=True)
class KeywordSeparation(Constraint):
    """Any two keyword occurrences need >= min_gap words strictly between them."""

    words: frozenset
    min_gap: int
    schema = ("keyword_separation", {"words": "words", "min_gap": "int"})
    scans = True

    def __init__(self, words, min_gap):
        object.__setattr__(self, "words", frozenset(words))
        object.__setattr__(self, "min_gap", min_gap)
        if not self.words:
            raise ValueError("keyword set is empty")
        if self.min_gap < 1:
            raise ValueError("min_gap must be >= 1")

    separations = property(lambda self: ((frozenset(w.casefold() for w in self.words), self.min_gap),))

    def holds(self, words, content):
        lowered = set(map(str.casefold, self.words))
        hits = [j for j, w in enumerate(map(str.casefold, content)) if w in lowered]
        return all(b - a - 1 >= self.min_gap for a, b in zip(hits, hits[1:]))


@dataclass(frozen=True)
class ForbiddenChars(Constraint):
    """No content word may contain any of these characters."""

    chars: frozenset
    schema = ("forbidden_chars", {"chars": "str"})
    scans = per_word = True

    def __init__(self, chars):
        object.__setattr__(self, "chars", frozenset(chars))
        if not self.chars:
            raise ValueError("forbidden character set is empty")

    forbidden = property(lambda self: self.chars)

    def holds(self, words, content):
        return self.chars.isdisjoint("".join(content))


@dataclass(frozen=True)
class StartsWith(Constraint):
    """The sentence must begin with these exact words."""

    prefix: tuple
    schema = ("starts_with", {"prefix": "words"})
    pins = property(lambda self: tuple(enumerate(self.prefix, 1)))

    def __init__(self, prefix):
        object.__setattr__(self, "prefix", tuple(prefix))
        if not self.prefix:
            raise ValueError("prefix is empty")

    def holds(self, words, content):
        return tuple(content[: len(self.prefix)]) == self.prefix


def parse_ordering(name):
    """The pivot of "char-target" or "char-target:<pivot>", or None for "probability" and "ppl".

    An ordering says how a freshly created domain is ordered before values
    are tried.  "probability" keeps the backend ranking; "ppl" is an alias
    of it: every candidate extends the same prefix, so ascending perplexity
    is the backend's own ranking.  "char-target" tries longer words first
    for variables before the pivot, 10 unless given, and shorter words first
    from the pivot on, which steers exact-character tasks toward their
    target length.
    """
    if name in ("probability", "ppl"):
        return None
    if name == "char-target":
        return 10
    kind, _, pivot = name.partition(":")
    if kind == "char-target" and pivot.isdecimal() and int(pivot) >= 1:
        return int(pivot)
    raise ValueError(f"unknown ordering {name!r}; expected probability, ppl or char-target[:PIVOT]"
                     " with PIVOT an integer >= 1")


@dataclass(frozen=True)
class TaskSpec:
    """One full problem instance: constraints, seed words, and LM settings.

    ``clauses`` are the constraints in the order ``check_complete`` asks them, the scans last;
    ``pivot`` is what ``parse_ordering`` makes of ``ordering``.
    """

    name: str
    constraints: tuple
    seed: tuple = ()
    lm_params: LMParams = LMParams()
    require_period: bool = True
    ordering: str = "probability"
    backtrack_to: int | None = None
    clauses: tuple = field(init=False, repr=False, compare=False)
    pivot: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "clauses", tuple(sorted(self.constraints, key=lambda c: c.scans)))
        object.__setattr__(self, "seed", tuple(self.seed))
        for word in self.seed:
            if word == ".":  # the period ends a sentence; "a." and "U.S." are words
                raise ValueError("seed word '.' is the final period, not a word")
            if has_whitespace(word):
                raise ValueError(f"seed word {word!r} contains whitespace")
            if not word_valid(word, self.constraints):
                raise ValueError(f"seed word {word!r} violates the constraints")
        if self.backtrack_to is not None and self.backtrack_to < 1:
            raise ValueError("backtrack_to must be >= 1")
        object.__setattr__(self, "pivot", parse_ordering(self.ordering))


def word_valid(word, constraints):
    """Whether the one-word sentence ``word`` satisfies each ``per_word`` clause: the specification's word test."""
    if not word:
        raise ValueError("empty word")
    words = (word,)
    for c in constraints:
        if c.per_word and not c.holds(words, words):
            return False
    return True


def _looks_like_word(text):
    return text.isalpha() or all(
        piece and piece.isalpha() for piece in text.replace("'", "-").split("-"))


def only_words(candidates):
    """Drop sub-word fragments, symbols, and punctuation, "." among them, from a candidate list."""
    return [cand for cand in candidates if _looks_like_word(cand.text)]


# what _multi_folds finds under Unicode 14.0.0, listed to spare casefolding all 1.1M code points
_MULTI_FOLDS_14 = frozenset((
    "aʾ ff ffi ffl fi fl ẖ i̇ ǰ ss st ẗ ẘ ẙ ʼn άι ήι ᾶ ᾶι αι ῆ ῆι ηι ῒ ΐ ῗ ῖ "
    "ῤ ῢ ΰ ῧ ὐ ὒ ὔ ὖ ῦ ῶ ῶι ωι ώι եւ մե մի մխ մն վն ἀι ἁι ἂι ἃι ἄι ἅι ἆι ἇι "
    "ἠι ἡι ἢι ἣι ἤι ἥι ἦι ἧι ὠι ὡι ὢι ὣι ὤι ὥι ὦι ὧι ὰι ὴι ὼι").split())


@functools.lru_cache(maxsize=None)
def _multi_folds():
    """Strings of two or more characters that a single character casefolds to."""
    if unicodedata.unidata_version == "14.0.0":
        return _MULTI_FOLDS_14
    return frozenset(f for f in map(str.casefold, map(chr, range(sys.maxunicode + 1))) if len(f) > 1)


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
    """The largest floors, the least caps, the pins, the word tests, the keywords, the gaps and the period reserve.

    ``forbidden`` is the union of the sets.  A pin at position p raises the word floor to p, since a
    sentence needs p words to hold it.  ``keywords``, those whose last positions the summary
    records, are the required ones and the keys of ``separations``, every separated one.
    """

    def __init__(self, constraints, reserve):
        self.word_len_cap = min((c.word_len_cap for c in constraints), default=sys.maxsize)
        self.forbidden = frozenset().union(*(c.forbidden for c in constraints))
        self.required = frozenset(w for c in constraints for w in c.required_words)
        self.word_cap = min((c.word_cap for c in constraints), default=sys.maxsize)
        self.char_cap = min((c.char_cap for c in constraints), default=sys.maxsize)
        self.pins = {}  # position -> the word pinned there; "" where two pins clash, which no word equals
        for c in constraints:
            for position, word in c.pins:
                self.pins[position] = word if self.pins.get(position, word) == word else ""
        self.word_floor = max([*self.pins, *(c.word_floor for c in constraints)], default=1)
        self.char_floor = max((c.char_floor for c in constraints), default=0)
        self.separations = {}  # keyword -> the (keywords, min_gap) separations that name it
        for c in constraints:
            for keys, gap in c.separations:
                for w in keys:
                    self.separations[w] = self.separations.get(w, ()) + ((keys, gap),)
        self.keywords = self.required | frozenset(self.separations)
        self.reserve = reserve


class PrefixSummary:
    """What the pruning needs to know about a prefix of content words.

    ``count`` words render to ``prompt``, the text a search asks the backend
    about, a child's being its parent's plus one word; ``failed`` says that
    some word failed ``admits``, with the task's period reserve, where it
    stands, which no later word can mend; ``seen`` maps each tracked keyword
    (casefolded) to the last position that holds it.
    ``push`` gives the summary one word longer, testing the word in
    O(#constraints + #keywords) and copying the prompt once, so a search
    keeps one summary per prefix instead of rescanning or rendering it.
    Summaries are never changed once made and may be shared.
    """

    __slots__ = ("rules", "count", "prompt", "failed", "seen")

    def __init__(self, rules, count, prompt, failed, seen):
        self.rules = rules
        self.count = count
        self.prompt = prompt
        self.failed = failed
        self.seen = seen

    def push(self, word, admitted=False):
        """Summary of the prefix followed by ``word``.

        ``admitted`` skips every test for a word that ``window`` already
        admitted after this prefix.
        """
        rules = self.rules
        count = self.count
        prompt = self.prompt + " " + word if count else word
        failed = self.failed or not (admitted or self.admits(word))
        seen = self.seen
        if rules.keywords:
            key = word.casefold()
            if key in rules.keywords:
                seen = {**seen, key: count + 1}
        return PrefixSummary(rules, count + 1, prompt, failed, seen)

    def admits(self, word):
        """Whether ``word`` may come next: the window's test of it, also when it does not look like a word ("U.S.")."""
        return bool(self.window((WordCandidate(word, 0.0),), 1, looks_like_word=bool))

    def window(self, raw, k, looks_like_word=_looks_like_word):
        """The node step: the candidates of the ranked answer ``raw`` that may come next, in rank order.

        One pass over the first k candidates that look like words (see
        ``only_words``; ``admits`` takes any word), are no longer than the
        word-length cap and hold no forbidden character; it stops at the
        k-th.  Of those it keeps the ones that fit the characters left
        under the cap, a required period's kept free, match the word pinned
        next and, if a separated keyword, have at least min_gap words since
        the last keyword of each separation that names it; the room and the
        pin are worked out once per node, and at the word cap it keeps none.
        The solver orders what it keeps into a node's domain, and beam
        search extends a beam by it.
        """
        rules = self.rules
        count = self.count
        if count >= rules.word_cap:
            return []
        room = rules.char_cap - len(self.prompt) - (1 if count else 0) - rules.reserve
        pin = rules.pins.get(count + 1)
        cap, forbidden, separations, seen = rules.word_len_cap, rules.forbidden, rules.separations, self.seen
        kept = []
        for cand in raw:
            if not k:
                break
            word = cand.text
            if looks_like_word(word) and len(word) <= cap and forbidden.isdisjoint(word):
                k -= 1
                if len(word) > room or pin is not None and word != pin:
                    continue
                if separations:
                    gaps = separations.get(word.casefold())
                    if gaps and any(count - seen[w] < gap for keys, gap in gaps for w in keys if w in seen):
                        continue
                kept.append(cand)
        return kept

    def can_extend(self):
        """Whether some completion with one more word could still satisfy everything.

        Conservative: never rejects a prefix that has a satisfying
        completion.  Besides the word tests, the keywords still missing must
        fit under the tightest word and character caps.  A keyword counts
        once however many constraints or case variants name it, and is
        charged the shortest string that casefolds to it (``fold_length``).
        """
        rules = self.rules
        count = self.count
        if self.failed or count >= rules.word_cap:
            return False
        seen = self.seen
        if rules.required <= seen.keys():
            return True
        missing = [w for w in rules.required if w not in seen]
        if count + len(missing) > rules.word_cap:
            return False
        needed = sum(fold_length(w) + 1 for w in missing) - (0 if count else 1)
        return len(self.prompt) + needed <= rules.char_cap

    def complete(self):
        """Whether the words, with the final period when the task requires one, pass ``check_complete``.

        Unless ``failed``, every word passed its tests where it stands, so
        what is left is the floors and the required keywords.
        Those tests kept the rendered length within the character cap, so a
        length at ``CharCountExact``'s floor is its exact count.
        """
        rules = self.rules
        if self.failed or self.count < rules.word_floor:
            return False
        return len(self.prompt) + rules.reserve >= rules.char_floor and rules.required <= self.seen.keys()


def summarize(words, task):
    """The ``PrefixSummary`` of content ``words`` under the task (its constraints and period), built word by word."""
    summary = PrefixSummary(_Rules(task.constraints, 1 if task.require_period else 0), 0, "", False, {})
    for word in words:
        summary = summary.push(word)
    return summary


def check_complete(words, task):
    """Whether a finished word sequence satisfies every constraint of the task.

    ``words`` includes the trailing "." when the task requires one.  Each
    constraint's ``holds`` decides its clause, the O(1) ones (counts,
    positions) before those that read every word (the rendered length among
    them), so a wrong shape costs the same in any order of the constraints.
    """
    words = list(words)
    if not words:
        return False
    if task.require_period and words[-1] != ".":
        return False
    content = words[:-1] if words[-1] == "." else words
    if not content:
        return False
    for c in task.clauses:
        if not c.holds(words, content):
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


_CONSTRAINT_TYPES = {cls.schema[0]: cls for cls in Constraint.__subclasses__()}  # by task-file type

_TASK_FILE_FIELDS = {
    "constraints": "list", "seed": "words", "k": "int", "top_k": "int", "top_p": "number",
    "temperature": "number", "oversample": "int", "require_period": "bool",
    "ordering": "str", "backtrack_to": "int?",
}

_KINDS = {  # kind -> (accepted JSON types, description); a trailing "?" makes a field optional
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
    if kind not in _CONSTRAINT_TYPES:
        raise ValueError(
            f"unknown constraint type {kind!r}; expected one of {', '.join(sorted(_CONSTRAINT_TYPES))}"
        )
    cls = _CONSTRAINT_TYPES[kind]
    fields = cls.schema[1]
    extra = set(obj) - {"type"} - set(fields)
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {kind!r} constraint")
    missing = [f for f, k in fields.items() if f not in obj and not k.endswith("?")]
    if missing:
        raise ValueError(f"constraint {kind!r} is missing {missing}")
    _check_fields(f"{kind!r} constraint", obj, fields)
    return cls(**{f: obj[f] for f in fields if f in obj})


def load_task_file(path):
    """Parse a JSON task file into a TaskSpec; unknown keys and wrong types are rejected.

    A field the file omits takes its default from ``LMParams`` or ``TaskSpec``.
    The task is named after the file, its last suffix dropped, exactly as
    ``pathlib.PurePath.stem`` names it: "x." keeps its dot, and "..json" is named ".".
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # not a ValueError: input nested past the interpreter's limit
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: task file must hold a JSON object")
    extra = set(data) - set(_TASK_FILE_FIELDS)
    if extra:
        raise ValueError(f"{path}: unknown keys {sorted(extra)}")
    _check_fields(str(path), data, _TASK_FILE_FIELDS)
    constraints = tuple(_parse_constraint(obj) for obj in data.pop("constraints", []))
    params = LMParams(**{f.name: data.pop(f.name) for f in fields(LMParams) if f.name in data})
    name = os.path.basename(path)
    dot = name.rfind(".")
    name = name[:dot] if 0 < dot < len(name) - 1 else name
    return TaskSpec(name=name, constraints=constraints, lm_params=params, **data)


def resolve_task(task, k=None):
    """``task`` when it is a TaskSpec, else a builtin task by name, else a JSON task file; k replaced when given."""
    if not isinstance(task, TaskSpec):
        task = builtin_task(task) if task in BUILTIN_TASK_NAMES else load_task_file(task)
    return task if k is None else with_k(task, k)


def with_k(task, k):
    """Copy of the task with the per-call word count replaced."""
    params = task.lm_params
    top_k = max(params.top_k, k)
    return replace(task, lm_params=replace(params, k=k, top_k=top_k))
