"""Trainable ML heuristics: hashed {1,2}-gram importance models and a
linear bag-of-words quality classifier.

Feature hashing is 64-bit FNV-1a over the UTF-8 bytes of "w1" and
"w1\\x1fw2", reduced mod the bucket count. Every model scores a batch of
documents (a shard, a training corpus or one document) whose words are
numbered once (textnorm.number_words): `hash_words` hashes each distinct
word once, and each bigram by continuing FNV-1a from its first word's
hash over "\\x1f" and the second word's bytes. `fnv1a64_spans` hashes
many byte spans of one buffer at once in numpy uint64: the spans are
sorted longest first, by a stable radix sort of 16-bit keys unless a
span reaches 65,536 bytes, and each byte position updates only the
spans still that long, so the results equal the per-byte definition bit
for bit. A document's score sums its slice of the batch's feature arrays
left to right (`running_sums`), as the per-feature definition adds them.
Importance weights are the log-likelihood ratio of a document under the
target vs. source hashed n-gram models with add-alpha smoothing; each
model holds its per-bucket log-probability table, built once with the
model. `load_model` builds a model from its container file, or fails
with a ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .textnorm import NumberedWords, number_words

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

BIGRAM_SEP = "\x1f"
DEFAULT_BUCKETS = 10_000


def fnv1a64_spans(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                  state: np.ndarray | None = None) -> np.ndarray:
    """64-bit FNV-1a of each span buf[starts[i]:starts[i] + lengths[i]]
    of a uint8 array, as uint64, in span order. Span i starts from
    state[i] when given (the hash of the bytes before it), else from the
    offset basis."""
    top = lengths.max(initial=0)
    keys = top - lengths  # 0 for the longest spans
    # longest first; numpy sorts 16-bit keys stably by radix
    order = np.argsort(keys.astype(np.uint16) if top < 1 << 16 else keys, kind="stable")
    first = starts[order]
    by_length = lengths[order]
    h = np.full(len(order), _FNV_OFFSET, dtype=np.uint64) if state is None else state[order]
    # live[j]: how many spans (a prefix of `order`) have a byte at position j
    live = np.searchsorted(-by_length, -np.arange(top), side="left")
    for j, m in enumerate(live.tolist()):
        part = h[:m]
        part ^= buf[first[:m] + j]
        part *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def _utf8_spans(keys: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of every key, joined, with each key's start and
    length."""
    data = [k.encode("utf-8") for k in keys]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    buf = np.frombuffer(b"".join(data), dtype=np.uint8)
    return buf, np.cumsum(lengths) - lengths, lengths


@dataclass
class HashedWords:
    """The FNV-1a hashes of a batch's words: `words[i]` of word
    occurrence i and `bigrams` of each two neighbouring words of one
    document, both document after document; `sizes` is each document's
    word count."""

    words: np.ndarray
    bigrams: np.ndarray
    sizes: np.ndarray


def hash_words(numbered: NumberedWords) -> HashedWords:
    """The HashedWords of a numbered batch, from one fnv1a64_spans call
    over its distinct words and one over its bigrams."""
    buf, starts, lengths = _utf8_spans(numbered.vocab)
    vocab_hashes = fnv1a64_spans(buf, starts, lengths)
    ids = numbered.ids
    # every position but the last of its document starts a bigram
    follows = np.ones(len(ids), bool)
    follows[(np.cumsum(numbered.sizes) - 1)[numbered.sizes > 0]] = False
    first = ids[follows]
    second = ids[np.flatnonzero(follows) + 1]
    # "w1\x1fw2" continues the hash of w1 over the separator and w2
    state = (vocab_hashes[first] ^ np.uint64(ord(BIGRAM_SEP))) * _FNV_PRIME
    bigrams = fnv1a64_spans(buf, starts[second], lengths[second], state)
    return HashedWords(vocab_hashes[ids], bigrams, numbered.sizes)


def hash_documents(documents: list[list[str]]) -> HashedWords:
    """hash_words of a list of word lists."""
    return hash_words(number_words(documents))


def running_sums(values: np.ndarray, sizes: np.ndarray) -> list[float]:
    """The sum of each run of sizes[i] consecutive values, added left to
    right from 0.0 (np.add.accumulate, never a pairwise sum)."""
    sums = []
    start = 0
    for end in np.cumsum(sizes).tolist():
        sums.append(float(np.add.accumulate(values[start:end])[-1]) if end > start else 0.0)
        start = end
    return sums


def hashed_features(hashed: HashedWords, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket indexes of each document's word unigrams, then its bigrams,
    with multiplicity, document after document; and each document's
    feature count."""
    sizes = hashed.sizes
    bigram_sizes = np.maximum(sizes - 1, 0)
    # a document's features start after the words and bigrams before it
    word_at = np.arange(len(hashed.words)) + np.repeat(np.cumsum(bigram_sizes) - bigram_sizes,
                                                       sizes)
    bigram_at = np.arange(len(hashed.bigrams)) + np.repeat(np.cumsum(sizes), bigram_sizes)
    feats = np.empty(len(word_at) + len(bigram_at), np.intp)
    feats[word_at] = hashed.words % np.uint64(buckets)
    feats[bigram_at] = hashed.bigrams % np.uint64(buckets)
    return feats, sizes + bigram_sizes


@dataclass
class HashedNgramLM:
    """Bag of hashed {1,2}-wordgram counts with add-alpha smoothing.
    `log_probs[b]` is the smoothed log-probability of bucket b."""

    bucket_count: int
    counts: list[int]
    total: int
    smoothing_alpha: float = 1.0
    log_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.counts) != self.bucket_count:
            raise ValueError(
                f"{len(self.counts)} counts for {self.bucket_count} buckets")
        alpha = self.smoothing_alpha
        denom = self.total + alpha * self.bucket_count
        self.log_probs = np.array(
            [math.log((c + alpha) / denom) for c in self.counts], dtype=np.float64)


def train_hashed_lm(corpus, buckets: int = DEFAULT_BUCKETS) -> HashedNgramLM:
    """corpus: iterable of word lists. Counts are order-insensitive, so a
    shuffled corpus yields an identical model."""
    if buckets < 2:
        raise ConfigError("bucket count must be >= 2")
    documents = list(corpus)
    if not documents:
        raise ConfigError("empty training corpus")
    feats, _ = hashed_features(hash_documents(documents), buckets)
    counts = np.bincount(feats, minlength=buckets)
    return HashedNgramLM(bucket_count=buckets, counts=counts.tolist(),
                         total=int(counts.sum()))


def dsir_importance(hashed: HashedWords, target: HashedNgramLM,
                    source: HashedNgramLM) -> list[float]:
    """Each document's sum over its hashed {1,2}-gram features (with
    multiplicity, in hashed_features order) of log p_target -
    log p_source; 0.0 for a document without words."""
    if target.bucket_count != source.bucket_count:
        raise ConfigError(
            f"bucket_count mismatch: target {target.bucket_count}, "
            f"source {source.bucket_count}"
        )
    feats, sizes = hashed_features(hashed, target.bucket_count)
    return running_sums((target.log_probs - source.log_probs)[feats], sizes)


# ---------------------------------------------------------------------------
# Linear classifier


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def unigram_features(hashed: HashedWords, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each document's L2-normalized unigram bucket counts, as parallel
    arrays of buckets and values, each document's buckets in order of
    first occurrence, document after document; and each document's
    bucket count."""
    sizes = hashed.sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    buckets = (hashed.words % np.uint64(dim)).astype(np.int64)
    keys, first, inverse = np.unique(owner * dim + buckets, return_index=True,
                                     return_inverse=True)
    counts = np.bincount(inverse)
    by_first = np.argsort(first)
    keys, counts = keys[by_first], counts[by_first]
    doc, buckets = np.divmod(keys, dim)
    # the squares of integer counts add up exactly in any order
    norm = np.sqrt(np.bincount(doc, weights=counts * counts, minlength=len(sizes)))
    return buckets, counts / norm[doc], np.bincount(doc, minlength=len(sizes))


@dataclass
class LinearClassifier:
    """Logistic regression over L2-normalized hashed unigram counts."""

    dim: int
    weights: np.ndarray  # float64, one per bucket
    bias: float = 0.0

    def score_words(self, hashed: HashedWords) -> list[float]:
        """The score of each document: the sigmoid of the bias plus its
        weighted features, added in unigram_features order."""
        buckets, values, sizes = unigram_features(hashed, self.dim)
        return [_sigmoid(self.bias + z)
                for z in running_sums(self.weights[buckets] * values, sizes)]


def train_classifier(
    positive,
    negative,
    epochs: int = 20,
    lr: float = 0.5,
    dim: int = 1 << 18,
    seed: int = 0,
) -> LinearClassifier:
    """SGD on logistic loss. positive/negative are iterables of word
    lists; a fixed seed makes the shuffle, and thus the weights,
    reproducible."""
    positive, negative = list(positive), list(negative)
    if not positive:
        raise ConfigError("empty positive training corpus")
    if not negative:
        raise ConfigError("empty negative training corpus")
    buckets, values, sizes = unigram_features(hash_documents(positive + negative), dim)
    pairs = list(zip(buckets.tolist(), values.tolist()))
    ends = np.cumsum(sizes).tolist()
    examples = [(pairs[end - size:end], 1.0 if i < len(positive) else 0.0)
                for i, (end, size) in enumerate(zip(ends, sizes.tolist()))]
    weights = [0.0] * dim
    bias = 0.0
    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feats, label = examples[idx]
            z = bias + sum(weights[f] * v for f, v in feats)
            g = label - _sigmoid(z)
            step = lr * g
            for f, v in feats:
                weights[f] += step * v
            bias += step
    return LinearClassifier(dim=dim, weights=np.array(weights), bias=bias)


def training_accuracy(clf: LinearClassifier, positive, negative) -> float:
    positive, negative = list(positive), list(negative)
    labels = [True] * len(positive) + [False] * len(negative)
    scores = clf.score_words(hash_documents(positive + negative))
    correct = sum(1 for score, label in zip(scores, labels) if (score > 0.5) == label)
    return correct / len(labels) if labels else 0.0


# ---------------------------------------------------------------------------
# Model container IO

MODEL_KINDS = ("hashed_lm", "classifier", "kneser_ney")


def _model_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def save_model(path: str, kind: str, payload: dict) -> str:
    """Write a versioned JSON model container; returns the content hash
    embedded for provenance."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    digest = _model_hash(payload)
    container = {"format": 1, "kind": kind, "hash": digest, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(container, fh, sort_keys=True, separators=(",", ":"))
    return digest


def load_model(path: str, kind: str, from_payload) -> tuple[object, str]:
    """(model, hash) of the model container at `path`, the model built by
    `from_payload` from its payload; ConfigError when the file is not a
    container of `kind` or its payload does not fit `kind`."""
    try:
        with open(path, encoding="utf-8") as fh:
            container = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load model {path}: {exc}") from exc
    if not (isinstance(container, dict) and {"kind", "payload", "hash"} <= container.keys()):
        raise ConfigError(f"model {path} is not a model container with kind, payload and hash")
    if container["kind"] != kind:
        raise ConfigError(f"model {path} has kind {container['kind']!r}, expected {kind!r}")
    try:
        return from_payload(container["payload"]), container["hash"]
    except (ConfigError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"model {path} has a malformed {kind} payload: {exc!r}") from exc


def hashed_lm_payload(lm: HashedNgramLM) -> dict:
    return {
        "bucket_count": lm.bucket_count,
        "counts": lm.counts,
        "total": lm.total,
        "smoothing_alpha": lm.smoothing_alpha,
    }


def _positive_int(payload: dict, key: str) -> int:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{key} {value!r} is not a positive integer")
    return value


def _number(value, what: str) -> float:
    """`value` as a float; ValueError unless it is an int or float (not a
    bool) within float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} {value!r} is out of float range") from exc


def hashed_lm_from_payload(payload: dict) -> HashedNgramLM:
    """ValueError unless bucket_count is a positive int and counts holds
    that many entries."""
    return HashedNgramLM(
        bucket_count=_positive_int(payload, "bucket_count"),
        counts=list(payload["counts"]),
        total=payload["total"],
        smoothing_alpha=payload["smoothing_alpha"],
    )


def classifier_payload(clf: LinearClassifier) -> dict:
    # Weight vectors are sparse after training on small corpora; store
    # only the non-zero entries.
    at = np.flatnonzero(clf.weights)
    nonzero = {str(i): w for i, w in zip(at.tolist(), clf.weights[at].tolist())}
    return {"dim": clf.dim, "bias": clf.bias, "weights": nonzero}


def classifier_from_payload(payload: dict) -> LinearClassifier:
    """ValueError unless dim is a positive int, the bias and every weight
    a number, and every weight index within [0, dim)."""
    dim = _positive_int(payload, "dim")
    weights = np.zeros(dim)
    for key, w in payload["weights"].items():
        index = int(key)
        if not 0 <= index < dim:
            raise ValueError(f"weight index {key} outside [0, {dim})")
        weights[index] = _number(w, f"weight {key}")
    return LinearClassifier(dim=dim, weights=weights, bias=_number(payload["bias"], "bias"))
