"""Next-word prediction backends and sequence scoring.

Every backend answers a ranked candidate list for a prompt, a rendered
prefix, and scores a word after a prompt, by default from that answer.
Rankings must be deterministic within a process run: searches that share a
backend, and the rescoring of their solutions, rely on getting the same
answer for the same prefix.  A search
asks each prefix once; backtracking re-asks nothing.  This module holds the
interface, the table and n-gram backends and ``load_backend``; the client of
a completion server, ``RemoteLM``, is in ``gencp.remote``, which
``load_backend`` imports on the first ``remote:`` spec.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

from .model import WordCandidate, has_whitespace

PROB_FLOOR = 1e-10  # conditional probability charged for words a backend never offered
MAX_NGRAM_ORDER = 10  # training counts each context length up to the order at every token


class TransportError(RuntimeError):
    """A remote backend failed (connection, timeout, HTTP status, malformed payload).

    Retriable: the request had no lasting effect and may be reissued.  The
    client itself resends nothing that raises this: its only resend is the
    silent one of a POST whose reused idle connection the server had closed.
    """


@dataclass(frozen=True)
class LMParams:
    """Sampling parameters shared by all backends.

    ``k``, the words a search wants per call, is the one width a backend is asked at: it
    fetches up to ``k * oversample`` raw candidates so that k survive validity filtering.
    """

    k: int = 10
    top_k: int = 40
    top_p: float = 1.0
    temperature: float = 0.8
    oversample: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number > 0, got {self.temperature!r}")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if self.k > self.top_k * self.oversample:
            raise ValueError("k exceeds top_k * oversample")


class LanguageModel:
    """Interface shared by all backends; every method takes the prompt, a rendered prefix."""

    def predict(self, sentence, params):
        """Ranked next-word candidates for ``sentence`` (a rendered prefix).

        At most ``params.k * params.oversample`` candidates, sorted by descending
        log-probability with lexicographic tie-break on text; no word appears
        twice in an answer, so the search takes a node's domain from it
        unchecked.  An unknown prefix yields an empty list.
        """
        raise NotImplementedError

    def conditional_logprob(self, sentence, word, params):
        """ln P(word | sentence) as ``predict(sentence, params)`` ranks it, or None when that answer lacks it.

        Backends that hold more than their answers override it to score also the words ranked past them.
        """
        return ranked_logprob(self.predict(sentence, params), word)

    def prefetch(self, hints, params):
        """Hint that ``predict(s, params)`` will follow for each prompt s in ``hints``.

        A hint is a prompt, or a (prompt, expansion) pair whose expansion
        maps the prompt's answer to the hints below it.  Hints come in visit
        order, each expansion's before the next hint.  Backends that answer at once ignore them without iterating
        ``hints``, so callers may pass a lazy generator.
        """

    def cancel_prefetch(self):
        """Drop announced predictions that have not started; searches call it on return."""

    def close(self):
        """Release what the backend holds open; it takes no request afterwards."""


def sequence_logprob(lm, words, params):
    """Sum of conditional log-probabilities along the sequence, added in word order.

    Each word is scored after its rendered prefix, built from the one before it; words the backend does
    not offer there are charged the floor probability, so every sequence gets a finite score.
    """
    words = list(words)
    if not words:
        raise ValueError("empty sequence")
    total = 0.0
    floor = math.log(PROB_FLOOR)
    prompt = spaced = ""  # render_prefix(words[:i]) and " ".join(words[:i])
    for i, word in enumerate(words):
        lp = lm.conditional_logprob(prompt, word, params)
        total += floor if lp is None else lp
        if not i:
            prompt = spaced = word
        elif word == ".":  # attaches to the word before only while it ends the prefix
            prompt, spaced = spaced + ".", spaced + " ."
        else:
            prompt = spaced = f"{spaced} {word}"
    return total


def perplexity(lm, words, params):
    """exp(-logprob/n): geometric mean of the inverse conditionals; >= 1 is typical."""
    words = list(words)
    return math.exp(-sequence_logprob(lm, words, params) / len(words))


def ranked_logprob(ranked, word):
    """ln P(word | prefix) from the candidates ``ranked`` for the prefix, or None when none is ``word``."""
    for cand in ranked:
        if cand.text == word:
            return cand.logprob
    return None


def ranked_period(raw, k):
    """ln P("." | prefix) when "." is among the first ``k`` of the ranked answer ``raw``, else None."""
    return ranked_logprob(raw[:k], ".")


def predicts_period(lm, sentence, params):
    """Whether "." ranks among the first k raw candidates after ``sentence``."""
    if not sentence:
        raise ValueError("empty sentence")
    return ranked_period(lm.predict(sentence, params), params.k) is not None


def _rank(candidates):
    return sorted(candidates, key=lambda c: (-c.logprob, c.text))


def _candidate(word, prob):
    """The candidate for ``word`` at probability ``prob``, which must lie in (0, 1]."""
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability for {word!r} must be in (0, 1], got {prob}")
    return WordCandidate(word, math.log(prob))


def _as_candidate(entry):
    return entry if isinstance(entry, WordCandidate) else _candidate(*entry)


def _checked(prefix, candidates):
    """The ``candidates`` offered after ``prefix`` in rank order, once no word repeats and they sum to at most 1."""
    ranked = _rank(candidates)
    if len({c.text for c in ranked}) != len(ranked):
        word = next(text for text, n in Counter(c.text for c in ranked).items() if n > 1)
        raise ValueError(f"duplicate word {word!r} under prefix {prefix!r}")
    total = sum(math.exp(c.logprob) for c in ranked)
    if total > 1.0 + 1e-9:
        raise ValueError(f"probabilities under prefix {prefix!r} sum to {total:.6f} > 1")
    return ranked


class TableLM(LanguageModel):
    """Deterministic backend mapping exact prefix strings to candidate lists.

    The root prefix is the empty string.  Entries may be WordCandidate objects
    or (word, probability) pairs.  Unknown prefixes predict nothing, which
    kills the corresponding search branch.  Each entry is held once, in its
    prefix's ranked list, which ``conditional_logprob`` scans in full, past ``predict``'s window.
    That list is the constructor's own copy, so a caller's later change to its lists reaches no answer;
    only a prefix with several entries is ranked and checked for a repeated word and a sum above 1.
    """

    def __init__(self, table):
        self._table = {}
        for prefix, entries in table.items():
            if len(entries) == 1:
                self._table[prefix] = [_as_candidate(entries[0])]
            else:
                self._table[prefix] = _checked(prefix, [_as_candidate(entry) for entry in entries])

    @classmethod
    def from_file(cls, path):
        """Load the tab-separated table format: ``prefix<TAB>word<TAB>prob``.

        The root prefix is written as an empty first field; blank lines are
        ignored.  One pass builds one checked candidate per line into one list per
        prefix; the first bad line raises, naming its number.  After the last line the
        constructor copies each list, ranking and checking those with several entries, and its error names the file.
        """
        table = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
                prefix, word, prob_text = parts
                try:
                    prob = float(prob_text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad probability {prob_text!r}") from None
                try:
                    table.setdefault(prefix, []).append(_candidate(word, prob))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        try:
            return cls(table)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def predict(self, sentence, params):
        return self._table.get(sentence, [])[: params.k * params.oversample]

    def conditional_logprob(self, sentence, word, params):
        return ranked_logprob(self._table.get(sentence, ()), word)


_TOKEN_RE = re.compile(r"[^\W\d_]+(?:['\-][^\W\d_]+)*|\.")


def tokenize(text):
    """Split text into words (internal apostrophe/hyphen allowed) and periods."""
    return _TOKEN_RE.findall(text)


class NGramLM(LanguageModel):
    """Additively smoothed n-gram backend trained from plain text.

    ``order`` is the context length in words.  ``counts[length]`` maps each
    context of that many words to its continuations' counts, in tables only
    as deep as the corpus reaches; a longer context is unseen, and a
    context's total is the sum of its counts.  Prediction uses the longest
    context, backing off to shorter ones only when smoothing is zero and the
    context was never observed.  ``conditional_logprob`` reads the word from
    the distribution ``predict`` ranks, also past its window.
    """

    def __init__(self, order, smoothing, counts, vocabulary):
        self.order = order
        self.smoothing = smoothing
        self._counts = counts
        self.vocabulary = list(vocabulary)

    def _distribution(self, context_words):
        context_words = list(context_words)
        for length in range(min(self.order, len(context_words)), -1, -1):
            ctx = tuple(context_words[len(context_words) - length:])
            seen = self._counts[length].get(ctx, {}) if length < len(self._counts) else {}
            total = sum(seen.values())
            if total == 0 and self.smoothing == 0.0:
                continue
            denom = total + self.smoothing * len(self.vocabulary)
            dist = {}
            for word in self.vocabulary:
                p = (seen.get(word, 0) + self.smoothing) / denom
                if p > 0.0:
                    dist[word] = p
            return dist
        return {}

    def predict(self, sentence, params):
        dist = self._distribution(tokenize(sentence))
        cands = [WordCandidate(w, math.log(p)) for w, p in dist.items()]
        return _rank(cands)[: params.k * params.oversample]

    def conditional_logprob(self, sentence, word, params):
        p = self._distribution(tokenize(sentence)).get(word)
        return math.log(p) if p else None

    def to_dict(self):
        """JSON-friendly form; see from_dict."""
        entries = []
        for length, by_ctx in enumerate(self._counts):
            for ctx in sorted(by_ctx):
                pairs = sorted(by_ctx[ctx].items())
                entries.append([length, list(ctx), [[w, c] for w, c in pairs]])
        return {
            "format": "gencp-ngram",
            "order": self.order,
            "smoothing": self.smoothing,
            "vocabulary": self.vocabulary,
            "counts": entries,
        }

    @classmethod
    def from_dict(cls, data):
        """Model from the form ``to_dict`` writes; a ValueError names the first bad field."""
        if not isinstance(data, dict) or data.get("format") != "gencp-ngram":
            raise ValueError("not a saved n-gram model")
        order, vocabulary, entries = data.get("order"), data.get("vocabulary"), data.get("counts")
        if type(order) is not int or order < 1:
            raise ValueError(f"n-gram model field 'order' must be an integer >= 1, got {order!r}")
        smoothing = _smoothing(data.get("smoothing"))
        if not (isinstance(vocabulary, list) and vocabulary
                and all(isinstance(w, str) and w and not has_whitespace(w) for w in vocabulary)
                and len(set(vocabulary)) == len(vocabulary)):
            raise ValueError("n-gram model field 'vocabulary' must be a non-empty list of distinct words"
                             ", none empty or holding whitespace")
        if not isinstance(entries, list):
            raise ValueError("n-gram model field 'counts' must be a list")
        counts, known = [{}], set(vocabulary)
        for i, entry in enumerate(entries):
            try:
                length, ctx, pairs = entry
                ctx = tuple(ctx)
                if type(length) is not int or not 0 <= length <= order or len(ctx) != length:
                    raise ValueError
                while len(counts) <= length:  # no deeper than the longest context saved
                    counts.append({})
                if ctx in counts[length]:
                    raise ValueError
                bucket = counts[length][ctx] = {}
                for word, count in pairs:
                    if word not in known or type(count) is not int or count < 1 or word in bucket:
                        raise ValueError
                    bucket[word] = count
            except (TypeError, ValueError):
                bad = (f"must be [length <= {order}, context of that length, [[vocabulary word, count >= 1], ...]]"
                       ", with no word twice and a context no other entry lists")
                raise ValueError(f"n-gram model field 'counts[{i}]' {bad}") from None
        return cls(order, smoothing, counts, vocabulary)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except RecursionError:  # not a ValueError: input nested past the interpreter's limit
                raise ValueError(f"{path}: JSON nested too deeply") from None

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")


def _smoothing(value):
    """``value`` as an additive smoothing constant, which must be a finite number >= 0."""
    if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ValueError(f"smoothing must be a finite number >= 0, got {value!r}")
    return float(value)


def train_ngram(corpus, order, smoothing=1.0):
    """Count-based training over whitespace/punctuation tokenized text.

    ``corpus`` is a string or a readable text stream.  Deterministic given
    identical input.  ``order`` is at most ``MAX_NGRAM_ORDER``.
    """
    if not 1 <= order <= MAX_NGRAM_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_NGRAM_ORDER}, got {order}")
    smoothing = _smoothing(smoothing)
    text = corpus.read() if hasattr(corpus, "read") else corpus
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty corpus")
    depth = min(order, len(tokens))  # no context is longer than the corpus
    counts = [{} for _ in range(depth + 1)]
    for i, token in enumerate(tokens):
        for length in range(0, order + 1):
            if i < length:
                break
            ctx = tuple(tokens[i - length:i])
            bucket = counts[length].setdefault(ctx, {})
            bucket[token] = bucket.get(token, 0) + 1
    vocabulary = sorted(set(tokens))
    return NGramLM(order, smoothing, counts, vocabulary)


def load_backend(spec):
    """Build a backend from a spec string.

    Forms: ``table:<path>`` (tab-separated prefix table),
    ``ngram:<corpus>,<order>`` (train on the fly, additive smoothing 1.0),
    ``ngram:<model.json>`` (saved model), ``remote:<url>``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad backend spec {spec!r}; expected table:..., ngram:... or remote:...")
    if kind == "table":
        return TableLM.from_file(rest)
    if kind == "ngram":
        if rest.endswith(".json"):
            return NGramLM.load(rest)
        path, sep, order = rest.rpartition(",")
        if not sep or not order.isdecimal():
            raise ValueError(f"bad ngram spec {spec!r}; expected ngram:<corpus>,<order>"
                             " with <order> an integer >= 1, or ngram:<model.json>")
        with open(path, encoding="utf-8") as fh:
            return train_ngram(fh, int(order))
    if kind == "remote":
        from .remote import RemoteLM

        try:
            return RemoteLM(rest)
        except ValueError as exc:
            raise ValueError(f"bad backend spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown backend kind {kind!r}")
