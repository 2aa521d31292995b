"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and draws from its own
``random.Random`` seeded with a string, which Python hashes with SHA-512;
nothing is seeded from ``hash()``, which Python salts per process.  The
shapes (tree fan-out, chain depths, corpus size, task set) are fixed; the
seed picks the words, their spellings and the corpus text, so different seeds
give different inputs with about the same amount of search work.

gencp sees only what these functions write: ``.tbl`` prefix tables, a corpus
to train an n-gram model from, and JSON task files in the format of
``gencp.load_task_file``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

CHAIN_DEPTHS = (20, 40, 80)
FAN_LEVELS = 4  # fan-out 3 below the first word: 81 chains
LETTERS = "abcdefghijklmnoprstuvwy"  # "q", "x" and "z" stay free for ForbiddenChars
FORBIDDEN = "qxz"
MAX_WORD_LEN = 7
KEYWORD_POSITIONS = (7, 12)  # 1-based, below the fan-out levels; four words between
PINNED_POSITION = 16

ZIPF_TOKENS = 200_000
ZIPF_TYPES = 10_800  # inventory; about 10k of them occur in 200k tokens
ZIPF_EXPONENT = 1.0
NGRAM_ORDER = 2

REMOTE_FAN_OUT = 3
REMOTE_DEPTH = 4


def _word(rng, length, avoid):
    """A random word of the given length that is not in ``avoid``; adds it there."""
    while True:
        w = "".join(rng.choice(LETTERS) for _ in range(length))
        if w not in avoid:
            avoid.add(w)
            return w


def _render(words):
    """gencp's rendering: words joined by spaces, a final "." attached."""
    if words and words[-1] == ".":
        return " ".join(words[:-1]) + "."
    return " ".join(words)


def _write_task(path, constraints, k, **extra):
    doc = {"constraints": constraints, "k": k, **extra}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def chain_table(seed, depth, out_dir):
    """One deep table: a pinned first word, fan-out 3 for 4 levels, then chains.

    The 81 chains run to ``depth`` words and end in ".".  Every word at a
    given position has the same length, the keywords and the pinned word sit
    at fixed positions in every chain, and no word uses a forbidden letter, so
    all 81 leaves satisfy all 8 constraint types and every node on the way is
    checked against them.  Returns (table path, task path).
    """
    # word lengths are part of the shape: the same for every seed
    shape = random.Random(f"table-deep/lengths/{depth}")
    lengths = [shape.randint(3, MAX_WORD_LEN) for _ in range(depth)]
    rng = random.Random(f"table-deep/{seed}/{depth}")
    reserved = set()
    first = _word(rng, lengths[0], reserved).capitalize()
    keywords = [_word(rng, lengths[p - 1], reserved) for p in KEYWORD_POSITIONS]
    pinned = _word(rng, lengths[PINNED_POSITION - 1], reserved)
    fixed = dict(zip(KEYWORD_POSITIONS, keywords))
    fixed[PINNED_POSITION] = pinned

    rows = [("", first, 1.0)]
    frontier = [[first]]
    for _ in range(FAN_LEVELS):
        nxt = []
        for words in frontier:
            siblings = set(reserved)
            for prob in (0.5, 0.3, 0.15):
                w = _word(rng, lengths[len(words)], siblings)
                rows.append((_render(words), w, prob))
                nxt.append(words + [w])
        frontier = nxt
    for words in frontier:
        while len(words) < depth:
            position = len(words) + 1
            w = fixed.get(position) or _word(rng, lengths[position - 1], set(reserved))
            rows.append((_render(words), w, 0.9))
            words.append(w)
        rows.append((_render(words), ".", 0.95))

    table_path = Path(out_dir) / f"chain-d{depth}.tbl"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{prefix}\t{word}\t{prob!r}\n" for prefix, word, prob in rows)
    n_chars = sum(lengths) + depth  # words, the spaces between them, and "."
    # The constraints every prefix passes come first, so check_complete walks
    # the whole prefix at every node before a count constraint rejects it.
    constraints = [
        {"type": "starts_with", "prefix": [first]},
        {"type": "max_word_len", "limit": MAX_WORD_LEN},
        {"type": "forbidden_chars", "chars": FORBIDDEN},
        {"type": "keyword_separation", "words": keywords,
         "min_gap": KEYWORD_POSITIONS[1] - KEYWORD_POSITIONS[0] - 1},
        {"type": "mandatory_keywords", "words": keywords},
        {"type": "position_lexical", "position": PINNED_POSITION, "word": pinned},
        {"type": "char_count_exact", "n": n_chars},
        {"type": "word_count_range", "lo": depth, "hi": depth},
    ]
    task_path = Path(out_dir) / f"deep-d{depth}.json"
    _write_task(task_path, constraints, k=3, seed=[first])
    return table_path, task_path


def zipf_corpus(seed):
    """About 200k tokens of sentences over a Zipf-ranked synthetic vocabulary.

    Word lengths grow with rank, as in natural text.  Sentences are 4 to 18
    words long and end in ".".
    """
    rng = random.Random(f"ngram-zipf/{seed}")
    taken = set()
    vocab = []
    for rank in range(1, ZIPF_TYPES + 1):
        base = 2 + min(6, rank.bit_length() // 2)
        vocab.append(_word(rng, base + rng.randint(-1, 2), taken))
    cum = list(itertools.accumulate(1.0 / r**ZIPF_EXPONENT for r in range(1, ZIPF_TYPES + 1)))
    total = cum[-1]
    sentences = []
    produced = 0
    while produced < ZIPF_TOKENS:
        n = rng.randint(4, 18)
        words = [vocab[bisect.bisect_left(cum, rng.random() * total)] for _ in range(n)]
        sentences.append(" ".join(words) + ".")
        produced += n + 1
    return " ".join(sentences) + "\n"


def ngram_tasks(out_dir):
    """The fixed word-count and word-length tasks, plus the oracle task."""
    specs = {
        "zipf-words": ([{"type": "word_count_range", "lo": 4, "hi": 6}], 3),
        "zipf-short": ([{"type": "max_word_len", "limit": 5},
                        {"type": "word_count_range", "lo": 5, "hi": 7}], 3),
        "zipf-oracle": ([{"type": "word_count_range", "lo": 2, "hi": 2}], 3),
    }
    paths = {}
    for name, (constraints, k) in specs.items():
        paths[name] = Path(out_dir) / f"{name}.json"
        _write_task(paths[name], constraints, k=k)
    return paths


def remote_table(seed):
    """The stub's table: fan-out 3 to depth 4, "." after every leaf.

    Returns {prefix: [(word, prob), ...]}, each list ranked by probability.
    """
    rng = random.Random(f"remote-latency/{seed}")
    table = {}
    frontier = [[]]
    for _ in range(REMOTE_DEPTH):
        nxt = []
        for words in frontier:
            probs = sorted((rng.uniform(0.05, 0.3) for _ in range(REMOTE_FAN_OUT)), reverse=True)
            siblings = set()
            children = [_word(rng, rng.randint(3, 7), siblings) for _ in probs]
            table[_render(words)] = list(zip(children, probs))
            nxt.extend(words + [w] for w in children)
        frontier = nxt
    for words in frontier:
        table[_render(words)] = [(".", 0.9)]
    return table


def remote_task(out_dir):
    path = Path(out_dir) / "remote-tree.json"
    _write_task(path, [{"type": "word_count_range", "lo": 1, "hi": REMOTE_DEPTH},
                       {"type": "max_word_len", "limit": 7}], k=REMOTE_FAN_OUT)
    return path
