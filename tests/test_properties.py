import math

from hypothesis import given
from hypothesis import strategies as st

from gencp import (
    ForbiddenChars,
    LMParams,
    MaxWordLen,
    TableLM,
    TaskSpec,
    WordCandidate,
    perplexity,
    sequence_logprob,
    summarize,
    train_ngram,
    variability,
)

words_strategy = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=8)


@given(words_strategy, words_strategy)
def test_variability_is_symmetric(a, b):
    assert variability(a, b) == variability(b, a)


@given(words_strategy)
def test_variability_of_identical_sequences_is_zero(a):
    assert variability(a, a) == 0


@given(words_strategy, words_strategy)
def test_variability_bounded_by_longer_length(a, b):
    assert variability(a, b) <= max(len(a), len(b))


domain_strategy = st.lists(
    st.tuples(st.text(alphabet="abcdez", min_size=1, max_size=7), st.floats(-8.0, 0.0)),
    max_size=10,
    unique_by=lambda pair: pair[0],
)


@given(domain_strategy, st.sampled_from(["e", "z", "a"]), st.integers(1, 6))
def test_filter_domain_contracts_and_is_idempotent(pairs, banned, limit):
    task = TaskSpec(
        name="p",
        constraints=(ForbiddenChars(banned), MaxWordLen(limit)),
        require_period=False,
    )
    cands = [WordCandidate(t, lp) for t, lp in pairs]
    summary = summarize(["go"], task)
    once = summary.window(cands, len(cands))
    twice = summary.window(once, len(once))
    texts = [c.text for c in cands]
    once_texts = [c.text for c in once]
    assert [t for t in texts if t in set(once_texts)] == once_texts  # order preserved
    assert set(once_texts) <= set(texts)
    assert [c.text for c in twice] == once_texts


@given(
    st.dictionaries(
        st.sampled_from(["", "a", "a b"]),
        st.lists(
            st.tuples(st.sampled_from(["ab", "cd", "ef", "gh", "ij"]), st.floats(0.01, 0.19)),
            min_size=1,
            max_size=5,
            unique_by=lambda pair: pair[0],
        ),
        min_size=1,
    )
)
def test_table_predictions_are_totally_ordered(table):
    lm = TableLM(table)
    params = LMParams(k=5)
    for prefix in ("", "a", "a b"):
        cands = lm.predict(prefix, params)
        for left, right in zip(cands, cands[1:]):
            assert (-left.logprob, left.text) <= (-right.logprob, right.text)


@given(
    st.lists(st.sampled_from(["ab", "cd", "ef", "gh"]), min_size=1, max_size=6),
    st.integers(1, 2),
    st.floats(0.1, 2.0),
)
def test_perplexity_matches_its_definition(words, order, smoothing):
    lm = train_ngram("ab cd ef gh ab cd . ef gh .", order=order, smoothing=smoothing)
    params = LMParams(k=4)
    n = len(words)
    expected = math.exp(-sequence_logprob(lm, words, params) / n)
    assert perplexity(lm, words, params) == expected


@given(st.integers(1, 3), st.floats(0.1, 3.0), st.lists(st.sampled_from(["ab", "cd", "ef"]), max_size=3))
def test_ngram_conditionals_sum_to_one(order, smoothing, context):
    lm = train_ngram("ab cd ef ab cd . ef ab .", order=order, smoothing=smoothing)
    dist = lm._distribution(context)
    assert abs(sum(dist.values()) - 1.0) <= 1e-9
