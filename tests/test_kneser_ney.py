"""Kneser-Ney language model: normalization, backoff and perplexity."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.errors import ConfigError
from corpusforge.kneser_ney import (
    UNK,
    kn_from_payload,
    kn_payload,
    perplexity,
    train_kn_lm,
)
from corpusforge.textnorm import number_words

from oracles import OracleKneserNey, kn_prob

TRAIN_VOCAB = ("a", "b", "c", "dé", "e", UNK)
QUERY_VOCAB = TRAIN_VOCAB + ("zz", "日本")  # the last two are never trained


def _logprob(lm, tokens):
    """The log-probability of `tokens` as a one-document batch."""
    logprob, = lm.sequence_logprobs(number_words([tokens]))
    return logprob


def _train(tokens, order, include_unk):
    """The model of `tokens`; without include_unk, unless UNK is one of
    them, the model a payload whose vocab leaves out UNK loads as."""
    lm = train_kn_lm([tokens], order=order)
    if include_unk or UNK in tokens:
        return lm
    payload = kn_payload(lm)
    return kn_from_payload({**payload, "vocab": [w for w in payload["vocab"] if w != UNK]})


def _random_tokens(rng, n, vocab=("a", "b", "c", "d", "e")):
    return [rng.choice(vocab) for _ in range(n)]


def test_distributions_sum_to_one():
    rng = random.Random(42)
    tokens = _random_tokens(rng, 400)
    lm = train_kn_lm([tokens], order=3)
    for _ in range(50):
        history = _random_tokens(rng, rng.randint(0, 4),
                                 vocab=("a", "b", "c", "z"))
        total = sum(kn_prob(lm, w, history) for w in lm.vocab)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_unseen_history_backs_off():
    lm = train_kn_lm([list("ababab")], order=3)
    # "zz" was never seen; probability must come from lower orders
    p = kn_prob(lm, "a", ["z", "z"])
    assert 0.0 < p < 1.0
    assert p == kn_prob(lm, "a", [UNK, UNK])


def test_unigram_only_model_is_closed_form():
    # order 1, uniform counts, no unknown token: per-token probability is
    # exactly 1/V so perplexity equals the vocabulary size.
    tokens = ["a", "b", "c", "d"]
    lm = _train(tokens, order=1, include_unk=False)
    assert perplexity(number_words([tokens]), lm) == [pytest.approx(4.0, rel=1e-12)]


def test_perplexity_basics():
    lm = train_kn_lm([list("abcabcabc")], order=2)
    empty, seen, unseen = perplexity(number_words([[], list("abcabc"), ["q", "q", "q"]]), lm)
    assert empty == math.inf
    assert seen < unseen


def test_training_validation():
    with pytest.raises(ConfigError):
        train_kn_lm([["a"]], order=5)
    with pytest.raises(ConfigError, match="no document"):  # 6 tokens, but 3 + 3
        train_kn_lm([list("abc"), list("def")], order=5)
    with pytest.raises(ConfigError, match="discount"):
        kn_from_payload({**kn_payload(train_kn_lm([list("abcdef")], order=2)), "discount": 1.5})
    with pytest.raises(ConfigError):
        train_kn_lm([list("abcdef")], order=0)


def test_payload_roundtrip():
    tokens = list("the cat sat on the mat the cat ran".split())
    lm = train_kn_lm([tokens], order=3)
    restored = kn_from_payload(kn_payload(lm))
    rng = random.Random(5)
    for _ in range(20):
        h = _random_tokens(rng, 2, vocab=("the", "cat", "on", "zzz"))
        w = rng.choice(("the", "cat", "mat", "zzz"))
        assert kn_prob(restored, w, h) == kn_prob(lm, w, h)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_scores_equal_recursive_oracle(order, include_unk, data):
    tokens = data.draw(st.lists(st.sampled_from(TRAIN_VOCAB), min_size=order, max_size=60))
    lm = _train(tokens, order, include_unk)
    payload = kn_payload(lm)
    oracle = OracleKneserNey(payload)
    text = data.draw(st.lists(st.sampled_from(QUERY_VOCAB), max_size=30))
    assert _logprob(lm, text) == oracle.sequence_logprob(text)
    history = data.draw(st.lists(st.sampled_from(QUERY_VOCAB), max_size=7))
    for word in QUERY_VOCAB:
        assert kn_prob(lm, word, history) == oracle.prob(word, history)
    restored = kn_from_payload(payload)
    assert _logprob(restored, text) == _logprob(lm, text)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_grams_are_counted_within_documents(order, data):
    """Raw top-order counts and lower-order continuation counts, counted
    by brute force over each document's own grams, with none spanning two
    documents."""
    docs = data.draw(st.lists(st.lists(st.sampled_from(TRAIN_VOCAB), max_size=12),
                              min_size=1, max_size=5))
    docs.append(data.draw(st.lists(st.sampled_from(TRAIN_VOCAB),
                                   min_size=order, max_size=12)))
    grams = {k: [tuple(doc[i:i + k]) for doc in docs for i in range(len(doc) - k + 1)]
             for k in range(1, order + 1)}
    expected = {str(order): {"\x1f".join(g): n for g, n in Counter(grams[order]).items()}}
    for k in range(1, order):
        left = Counter(g[1:] for g in set(grams[k + 1]))
        expected[str(k)] = {"\x1f".join(g): n for g, n in left.items()}
    counts = kn_payload(train_kn_lm(docs, order=order))["counts"]
    assert counts == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.booleans(),
       st.lists(st.sampled_from(TRAIN_VOCAB), min_size=5, max_size=60))
def test_payload_roundtrips_exactly(order, include_unk, tokens):
    payload = kn_payload(_train(tokens, order, include_unk))
    assert kn_payload(kn_from_payload(payload)) == payload


def test_payload_without_suffix_closure_is_a_config_error():
    payload = kn_payload(train_kn_lm([list("abcab")], order=3))
    # the order-3 history "c a" stays, its order-2 suffix "a" goes
    payload["counts"]["2"] = {k: c for k, c in payload["counts"]["2"].items()
                              if not k.startswith("a\x1f")}
    with pytest.raises(ConfigError, match="suffix-closed"):
        kn_from_payload(payload)


def test_vocabulary_too_large_for_packed_int64_keys():
    # 6,400 words + UNK: base**5 > 2**63, so an order-5 gram of the
    # highest ids cannot be packed into one int64. Each word appears once,
    # a dense run over 40 words gives histories with several
    # continuations, and the 50 highest ids are seen twice.
    rng = random.Random(7)
    words = [f"w{i}" for i in range(6400)]
    tokens = words + [f"w{rng.randrange(40)}" for _ in range(3000)] + sorted(words)[-50:]
    lm = train_kn_lm([tokens], order=5)
    assert lm.base ** 5 > 2 ** 63
    oracle = OracleKneserNey(kn_payload(lm))
    texts = [
        tokens[6390:6460],  # the seam between the one-off words and the dense run
        tokens[-60:],  # the highest ids, seen twice
        [f"w{rng.randrange(40)}" for _ in range(80)],
        [rng.choice(words) for _ in range(40)],
        ["zz", "yy", "zz"],  # all out of vocabulary
        [],
    ]
    # the texts as the documents of one shard
    assert lm.sequence_logprobs(number_words(texts)) == [
        oracle.sequence_logprob(text) for text in texts]
    for text in texts:
        for cut in range(0, len(text), 7):
            assert kn_prob(lm, text[cut], text[:cut]) == oracle.prob(text[cut], text[:cut])
