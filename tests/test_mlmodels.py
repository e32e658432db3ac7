"""Hashed n-gram importance models, the linear classifier, and the
model container format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.errors import ConfigError
from corpusforge.kneser_ney import kn_payload, perplexity, train_kn_lm
from corpusforge.mlmodels import (
    classifier_from_payload,
    classifier_payload,
    dsir_importance,
    fnv1a64_spans,
    hash_documents,
    hashed_features,
    hashed_lm_from_payload,
    hashed_lm_payload,
    load_model,
    save_model,
    train_classifier,
    train_hashed_lm,
    training_accuracy,
)
from corpusforge.textnorm import number_words

from oracles import (
    OracleKneserNey,
    oracle_classifier_score,
    oracle_dsir,
    oracle_fnv1a64,
    oracle_hashed_features,
)

WORDS = st.lists(st.sampled_from(["a", "b", "the", "naïve", "日本", "x" * 40, "é"])
                 | st.text(min_size=1, max_size=12), max_size=40)


def test_fnv1a64_known_values():
    # standard FNV-1a 64-bit test vectors
    vectors = {"": 0xCBF29CE484222325, "a": 0xAF63DC4C8601EC8C,
               "foobar": 0x85944171F73967E8}
    assert hash_documents([list(vectors)]).words.tolist() == list(vectors.values())
    assert [oracle_fnv1a64(k.encode()) for k in vectors] == list(vectors.values())
    assert hash_documents([[]]).words.tolist() == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text()))
def test_batched_hashes_equal_per_byte_oracle(keys):
    assert hash_documents([keys]).words.tolist() == [
        oracle_fnv1a64(k.encode("utf-8")) for k in keys]


@pytest.mark.parametrize("long_lengths", [
    pytest.param([0, 1, 65_535], id="16-bit-keys"),
    pytest.param([0, 1, 65_535, 65_536, 70_000], id="int64-keys"),
])
def test_span_hashes_equal_per_byte_oracle(long_lengths):
    # long spans mixed with short ones, some of equal length, so that the
    # stable longest-first order matters
    rng = np.random.default_rng(7)
    lengths = np.array([*long_lengths, 3, 0, 5, 1, 3, 40, 2, 65_535, 5], dtype=np.int64)
    lengths = lengths[rng.permutation(len(lengths))]
    buf = rng.integers(0, 256, int(lengths.sum()) + 11, dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths + rng.integers(0, 11, len(lengths))
    starts = np.minimum(starts, len(buf) - lengths)
    spans = [buf[a:a + n].tobytes() for a, n in zip(starts.tolist(), lengths.tolist())]
    assert fnv1a64_spans(buf, starts, lengths).tolist() == list(map(oracle_fnv1a64, spans))
    # from the state of each span's first half, its second half gives the whole
    half = lengths // 2
    state = fnv1a64_spans(buf, starts, half)
    assert fnv1a64_spans(buf, starts + half, lengths - half, state).tolist() == list(
        map(oracle_fnv1a64, spans))


@settings(max_examples=200, deadline=None)
@given(WORDS, st.integers(2, 5000))
def test_hashed_features_equal_oracle(words, buckets):
    feats, sizes = hashed_features(hash_documents([words]), buckets)
    assert feats.tolist() == oracle_hashed_features(words, buckets)
    assert sizes.tolist() == [len(feats)]


def test_hashed_features_include_bigrams_with_multiplicity():
    feats, _ = hashed_features(hash_documents([["a", "b", "a"]]), buckets=1000)
    assert len(feats) == 5  # 3 unigrams + 2 bigrams
    assert feats[0] == feats[2]  # repeated word hashes identically
    assert len(hashed_features(hash_documents([[]]), buckets=10)[0]) == 0
    assert len(hashed_features(hash_documents([["solo"]]), buckets=10)[0]) == 1


def test_hashed_lm_probabilities_normalize():
    lm = train_hashed_lm([["a", "b"], ["b", "c", "d"]], buckets=64)
    total = sum(math.exp(lp) for lp in lm.log_probs)
    assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ConfigError):
        train_hashed_lm([], buckets=64)


def test_hashed_lm_order_insensitive():
    docs = [["a", "b", "c"], ["d", "e"], ["f"]]
    lm1 = train_hashed_lm(docs, buckets=128)
    lm2 = train_hashed_lm(list(reversed(docs)), buckets=128)
    assert lm1.counts == lm2.counts and lm1.total == lm2.total


def test_dsir_importance_antisymmetric_and_separating():
    target_docs = [["alpha", "beta", "gamma"] * 5 for _ in range(20)]
    source_docs = [["uno", "dos", "tres"] * 5 for _ in range(20)]
    target = train_hashed_lm(target_docs, buckets=4096)
    source = train_hashed_lm(source_docs, buckets=4096)
    doc = hash_documents([["alpha", "beta", "alpha"]])
    forward, = dsir_importance(doc, target, source)
    backward, = dsir_importance(doc, source, target)
    assert forward > 0 and backward == -forward
    with pytest.raises(ConfigError):
        dsir_importance(doc, target, train_hashed_lm([["x"]], buckets=8))


@settings(max_examples=100, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=4), st.lists(WORDS, min_size=1, max_size=4),
       WORDS, st.integers(2, 300))
def test_dsir_importance_equals_per_feature_oracle(target_docs, source_docs, doc, buckets):
    target = train_hashed_lm(target_docs, buckets=buckets)
    # a source model smoothed with alpha 0.5, built the way a model file is read
    source = hashed_lm_from_payload(
        {**hashed_lm_payload(train_hashed_lm(source_docs, buckets=buckets)),
         "smoothing_alpha": 0.5})
    assert dsir_importance(hash_documents([doc]), target, source) == [oracle_dsir(
        doc, hashed_lm_payload(target), hashed_lm_payload(source))]


@settings(max_examples=100, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=4), st.lists(WORDS, min_size=1, max_size=4),
       WORDS, st.integers(2, 64))
def test_classifier_score_equals_per_feature_oracle(positive, negative, doc, dim):
    clf = train_classifier(positive, negative, epochs=3, dim=dim, seed=3)
    payload = classifier_payload(clf)
    for words in [doc, *positive, *negative, doc + positive[0] + negative[0]]:
        assert clf.score_words(hash_documents([words])) == [
            oracle_classifier_score(words, payload)]


# a shard's documents, an empty one among them
SHARDS = st.lists(WORDS, max_size=5).flatmap(
    lambda docs: st.permutations(docs + [[]]))
KN_VOCAB = ["a", "b", "the", "naïve", "日本", "é"]


@settings(max_examples=100, deadline=None)
@given(SHARDS, st.lists(WORDS, min_size=1, max_size=3), st.lists(WORDS, min_size=1, max_size=3),
       st.integers(2, 64), st.integers(1, 4), st.data())
def test_shard_batched_scores_equal_per_document_oracles(shard, positive, negative, buckets,
                                                         order, data):
    """Every score of a whole shard equals its document's oracle score,
    and every bigram hash continues its first word's hash."""
    hashed = hash_documents(shard)
    assert hashed.words.tolist() == [oracle_fnv1a64(w.encode("utf-8"))
                                     for doc in shard for w in doc]
    assert hashed.bigrams.tolist() == [
        oracle_fnv1a64((w1 + "\x1f" + w2).encode("utf-8"))
        for doc in shard for w1, w2 in zip(doc, doc[1:])]

    target = train_hashed_lm(positive, buckets=buckets)
    source = train_hashed_lm(negative, buckets=buckets)
    assert dsir_importance(hashed, target, source) == [
        oracle_dsir(doc, hashed_lm_payload(target), hashed_lm_payload(source))
        for doc in shard]

    clf = train_classifier(positive, negative, epochs=3, dim=buckets, seed=3)
    assert clf.score_words(hashed) == [
        oracle_classifier_score(doc, classifier_payload(clf)) for doc in shard]

    tokens = data.draw(st.lists(st.sampled_from(KN_VOCAB), min_size=order, max_size=40))
    lm = train_kn_lm([tokens], order=order)
    oracle = OracleKneserNey(kn_payload(lm))
    logprobs = [oracle.sequence_logprob(doc) for doc in shard]
    numbered = number_words(shard)
    assert lm.sequence_logprobs(numbered) == logprobs
    assert perplexity(numbered, lm) == [
        math.exp(-logprob / len(doc)) if doc else math.inf
        for logprob, doc in zip(logprobs, shard)]


def test_malformed_payloads_fail_when_the_model_is_built():
    lm = hashed_lm_payload(train_hashed_lm([["a", "b"]], buckets=8))
    with pytest.raises(ValueError):
        hashed_lm_from_payload({**lm, "counts": lm["counts"][:-1]})
    for bucket_count in (0, -8, 8.0, True, "8"):
        with pytest.raises(ValueError, match="bucket_count"):
            hashed_lm_from_payload({**lm, "bucket_count": bucket_count, "counts": []})
    clf = {"dim": 4, "bias": 0.0, "weights": {"1": 0.5}}
    assert classifier_from_payload(clf).weights.tolist() == [0.0, 0.5, 0.0, 0.0]
    for key in ("4", "-1"):
        with pytest.raises(ValueError):
            classifier_from_payload({**clf, "weights": {key: 0.5}})
    for bias in ("x", True, None, 10 ** 400):
        with pytest.raises(ValueError, match="bias"):
            classifier_from_payload({**clf, "bias": bias})
    for weight in ("y", False, [0.5]):
        with pytest.raises(ValueError, match="weight 1"):
            classifier_from_payload({**clf, "weights": {"1": weight}})
    for dim in (0, -4, 4.0, True):
        with pytest.raises(ValueError, match="dim"):
            classifier_from_payload({**clf, "dim": dim, "weights": {}})


def test_classifier_separates_toy_data():
    positive = [["good", "fine", "great"] for _ in range(10)]
    negative = [["bad", "awful", "poor"] for _ in range(10)]
    clf = train_classifier(positive, negative, epochs=10, seed=1)
    assert training_accuracy(clf, positive, negative) == 1.0
    good, awful = clf.score_words(hash_documents([["good", "great"], ["awful"]]))
    assert good > 0.5
    assert awful < 0.5


def test_classifier_training_is_seeded():
    positive = [["p", str(i)] for i in range(8)]
    negative = [["n", str(i)] for i in range(8)]
    a = train_classifier(positive, negative, epochs=3, seed=7)
    b = train_classifier(positive, negative, epochs=3, seed=7)
    assert a.weights.tolist() == b.weights.tolist() and a.bias == b.bias


def test_model_container_roundtrip(tmp_path):
    lm = train_hashed_lm([["a", "b", "c"]], buckets=32)
    path = tmp_path / "lm.json"
    digest = save_model(str(path), "hashed_lm", hashed_lm_payload(lm))
    restored, loaded_digest = load_model(str(path), "hashed_lm", hashed_lm_from_payload)
    assert loaded_digest == digest
    assert restored.counts == lm.counts
    assert restored.total == lm.total
    with pytest.raises(ConfigError):
        load_model(str(path), "classifier", classifier_from_payload)  # wrong kind
    with pytest.raises(ConfigError):
        save_model(str(path), "nonsense", {})


def test_classifier_payload_roundtrip(tmp_path):
    clf = train_classifier([["yes"]] * 4, [["no"]] * 4, epochs=5, seed=0)
    restored = classifier_from_payload(classifier_payload(clf))
    assert restored.dim == clf.dim and restored.bias == clf.bias
    words = hash_documents([["yes", "no", "maybe"]])
    assert restored.score_words(words) == clf.score_words(words)
