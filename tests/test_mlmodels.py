"""Hashed n-gram importance models, the linear classifier, and the
model container format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusforge.errors import ConfigError
from corpusforge.mlmodels import (
    classifier_from_payload,
    classifier_payload,
    dsir_importance,
    fnv1a64_batch,
    hashed_features,
    hashed_lm_from_payload,
    hashed_lm_payload,
    load_model,
    save_model,
    train_classifier,
    train_hashed_lm,
    training_accuracy,
)

from oracles import (
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
    assert fnv1a64_batch(list(vectors)).tolist() == list(vectors.values())
    assert [oracle_fnv1a64(k.encode()) for k in vectors] == list(vectors.values())
    assert fnv1a64_batch([]).tolist() == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text()))
def test_batched_hashes_equal_per_byte_oracle(keys):
    assert fnv1a64_batch(keys).tolist() == [oracle_fnv1a64(k.encode("utf-8")) for k in keys]


@settings(max_examples=200, deadline=None)
@given(WORDS, st.integers(2, 5000))
def test_hashed_features_equal_oracle(words, buckets):
    assert hashed_features(words, buckets).tolist() == oracle_hashed_features(words, buckets)


def test_hashed_features_include_bigrams_with_multiplicity():
    feats = hashed_features(["a", "b", "a"], buckets=1000)
    assert len(feats) == 5  # 3 unigrams + 2 bigrams
    assert feats[0] == feats[2]  # repeated word hashes identically
    assert len(hashed_features([], buckets=10)) == 0
    assert len(hashed_features(["solo"], buckets=10)) == 1


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
    doc = ["alpha", "beta", "alpha"]
    forward = dsir_importance(doc, target, source)
    backward = dsir_importance(doc, source, target)
    assert forward > 0 and backward == -forward
    with pytest.raises(ConfigError):
        dsir_importance(doc, target, train_hashed_lm([["x"]], buckets=8))


@settings(max_examples=100, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=4), st.lists(WORDS, min_size=1, max_size=4),
       WORDS, st.integers(2, 300))
def test_dsir_importance_equals_per_feature_oracle(target_docs, source_docs, doc, buckets):
    target = train_hashed_lm(target_docs, buckets=buckets)
    source = train_hashed_lm(source_docs, buckets=buckets, alpha=0.5)
    assert dsir_importance(doc, target, source) == oracle_dsir(
        doc, hashed_lm_payload(target), hashed_lm_payload(source))


@settings(max_examples=100, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=4), st.lists(WORDS, min_size=1, max_size=4),
       WORDS, st.integers(2, 64))
def test_classifier_score_equals_per_feature_oracle(positive, negative, doc, dim):
    clf = train_classifier(positive, negative, epochs=3, dim=dim, seed=3)
    payload = classifier_payload(clf)
    for words in [doc, *positive, *negative, doc + positive[0] + negative[0]]:
        assert clf.score_words(words) == oracle_classifier_score(words, payload)


def test_malformed_payloads_fail_when_the_model_is_built():
    lm = hashed_lm_payload(train_hashed_lm([["a", "b"]], buckets=8))
    with pytest.raises(ValueError):
        hashed_lm_from_payload({**lm, "counts": lm["counts"][:-1]})
    clf = {"dim": 4, "bias": 0.0, "weights": {"1": 0.5}}
    assert classifier_from_payload(clf).weights == [0.0, 0.5, 0.0, 0.0]
    for key in ("4", "-1"):
        with pytest.raises(ValueError):
            classifier_from_payload({**clf, "weights": {key: 0.5}})


def test_classifier_separates_toy_data():
    positive = [["good", "fine", "great"] for _ in range(10)]
    negative = [["bad", "awful", "poor"] for _ in range(10)]
    clf = train_classifier(positive, negative, epochs=10, seed=1)
    assert training_accuracy(clf, positive, negative) == 1.0
    assert clf.score_words(["good", "great"]) > 0.5
    assert clf.score_words(["awful"]) < 0.5


def test_classifier_training_is_seeded():
    positive = [["p", str(i)] for i in range(8)]
    negative = [["n", str(i)] for i in range(8)]
    a = train_classifier(positive, negative, epochs=3, seed=7)
    b = train_classifier(positive, negative, epochs=3, seed=7)
    assert a.weights == b.weights and a.bias == b.bias


def test_model_container_roundtrip(tmp_path):
    lm = train_hashed_lm([["a", "b", "c"]], buckets=32)
    path = tmp_path / "lm.json"
    digest = save_model(str(path), "hashed_lm", hashed_lm_payload(lm))
    kind, payload, loaded_digest = load_model(str(path))
    assert (kind, loaded_digest) == ("hashed_lm", digest)
    restored = hashed_lm_from_payload(payload)
    assert restored.counts == lm.counts
    assert restored.total == lm.total
    with pytest.raises(ConfigError):
        load_model(str(path), "classifier")  # wrong kind
    with pytest.raises(ConfigError):
        save_model(str(path), "nonsense", {})


def test_classifier_payload_roundtrip(tmp_path):
    clf = train_classifier([["yes"]] * 4, [["no"]] * 4, epochs=5, seed=0)
    restored = classifier_from_payload(classifier_payload(clf))
    assert restored.dim == clf.dim and restored.bias == clf.bias
    words = ["yes", "no", "maybe"]
    assert restored.score_words(words) == clf.score_words(words)
