"""Trainable ML heuristics: hashed {1,2}-gram importance models and a
linear bag-of-words quality classifier.

Feature hashing is 64-bit FNV-1a over the UTF-8 bytes of "w1" and
"w1\\x1fw2", reduced mod the bucket count. `fnv1a64_spans` hashes many
byte spans of one buffer at once in numpy uint64 (`fnv1a64_batch` hands
it a document's encoded keys, and MinHash a shard's words): the spans are
sorted by length and each byte position updates only the spans still
that long, so the results equal the per-byte definition bit for bit.
Importance weights are the log-likelihood ratio of a document under the
target vs. source hashed n-gram models with add-alpha smoothing; each
model holds its per-bucket log-probability table, built once with the
model.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

BIGRAM_SEP = "\x1f"
DEFAULT_BUCKETS = 10_000


def fnv1a64_spans(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """64-bit FNV-1a of each span buf[starts[i]:starts[i] + lengths[i]]
    of a uint8 array, as uint64, in span order."""
    order = np.argsort(-lengths, kind="stable")  # longest first
    first = starts[order]
    by_length = lengths[order]
    h = np.full(len(order), _FNV_OFFSET, dtype=np.uint64)
    # live[j]: how many spans (a prefix of `order`) have a byte at position j
    live = np.searchsorted(-by_length, -np.arange(lengths.max(initial=0)), side="left")
    for j, m in enumerate(live.tolist()):
        part = h[:m]
        part ^= buf[first[:m] + j]
        part *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def fnv1a64_batch(keys: list[str]) -> np.ndarray:
    """64-bit FNV-1a of the UTF-8 bytes of every key, as uint64, in key
    order."""
    data = [k.encode("utf-8") for k in keys]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    buf = np.frombuffer(b"".join(data), dtype=np.uint8)
    return fnv1a64_spans(buf, np.cumsum(lengths) - lengths, lengths)


def hashed_features(words: list[str], buckets: int,
                    word_hashes: np.ndarray | None = None) -> np.ndarray:
    """Bucket indexes of every word unigram, then every bigram, with
    multiplicity. `word_hashes`, when given, is fnv1a64_batch(words)."""
    if word_hashes is None:
        word_hashes = fnv1a64_batch(words)
    bigrams = fnv1a64_batch([w1 + BIGRAM_SEP + w2 for w1, w2 in zip(words, words[1:])])
    return (np.concatenate((word_hashes, bigrams)) % np.uint64(buckets)).astype(np.intp)


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
    counts = np.zeros(buckets, dtype=np.int64)
    seen = 0
    for words in corpus:
        seen += 1
        np.add.at(counts, hashed_features(words, buckets), 1)
    if seen == 0:
        raise ConfigError("empty training corpus")
    return HashedNgramLM(bucket_count=buckets, counts=counts.tolist(),
                         total=int(counts.sum()))


def dsir_importance(words: list[str], target: HashedNgramLM, source: HashedNgramLM,
                    word_hashes: np.ndarray | None = None) -> float:
    """Sum over the document's hashed {1,2}-gram features (with
    multiplicity, in hashed_features order) of log p_target -
    log p_source. `word_hashes` is as for hashed_features."""
    if target.bucket_count != source.bucket_count:
        raise ConfigError(
            f"bucket_count mismatch: target {target.bucket_count}, "
            f"source {source.bucket_count}"
        )
    feats = hashed_features(words, target.bucket_count, word_hashes)
    score = 0.0
    # left to right, as the per-feature definition adds them
    for diff in (target.log_probs[feats] - source.log_probs[feats]).tolist():
        score += diff
    return score


# ---------------------------------------------------------------------------
# Linear classifier


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class LinearClassifier:
    """Logistic regression over L2-normalized hashed unigram counts."""

    dim: int
    weights: list[float]
    bias: float = 0.0

    def features(self, words: list[str],
                 word_hashes: np.ndarray | None = None) -> dict[int, float]:
        """L2-normalized unigram bucket counts, keyed in first-occurrence
        order. `word_hashes`, when given, is fnv1a64_batch(words)."""
        if word_hashes is None:
            word_hashes = fnv1a64_batch(words)
        counts = Counter((word_hashes % np.uint64(self.dim)).tolist())
        norm = math.sqrt(sum(float(c) * c for c in counts.values()))
        return {f: c / norm for f, c in counts.items()}

    def score_words(self, words: list[str],
                    word_hashes: np.ndarray | None = None) -> float:
        feats = self.features(words, word_hashes)
        z = self.bias + sum(self.weights[f] * v for f, v in feats.items())
        return _sigmoid(z)


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
    clf = LinearClassifier(dim=dim, weights=[0.0] * dim)
    examples = [(clf.features(words), 1.0) for words in positive]
    n_pos = len(examples)
    examples += [(clf.features(words), 0.0) for words in negative]
    if n_pos == 0:
        raise ConfigError("empty positive training corpus")
    if len(examples) == n_pos:
        raise ConfigError("empty negative training corpus")
    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feats, label = examples[idx]
            z = clf.bias + sum(clf.weights[f] * v for f, v in feats.items())
            g = label - _sigmoid(z)
            step = lr * g
            for f, v in feats.items():
                clf.weights[f] += step * v
            clf.bias += step
    return clf


def training_accuracy(clf: LinearClassifier, positive, negative) -> float:
    docs = [(w, 1) for w in positive] + [(w, 0) for w in negative]
    correct = sum(
        1 for words, label in docs
        if (clf.score_words(words) > 0.5) == bool(label)
    )
    return correct / len(docs) if docs else 0.0


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


def load_model(path: str, kind: str | None = None) -> tuple[str, dict, str]:
    """Returns (kind, payload, hash)."""
    try:
        with open(path, encoding="utf-8") as fh:
            container = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load model {path}: {exc}") from exc
    if not (isinstance(container, dict) and {"kind", "payload", "hash"} <= container.keys()):
        raise ConfigError(f"model {path} is not a model container with kind, payload and hash")
    if kind is not None and container.get("kind") != kind:
        raise ConfigError(
            f"model {path} has kind {container.get('kind')!r}, expected {kind!r}"
        )
    return container["kind"], container["payload"], container["hash"]


def hashed_lm_payload(lm: HashedNgramLM) -> dict:
    return {
        "bucket_count": lm.bucket_count,
        "counts": lm.counts,
        "total": lm.total,
        "smoothing_alpha": lm.smoothing_alpha,
    }


def hashed_lm_from_payload(payload: dict) -> HashedNgramLM:
    return HashedNgramLM(
        bucket_count=payload["bucket_count"],
        counts=list(payload["counts"]),
        total=payload["total"],
        smoothing_alpha=payload["smoothing_alpha"],
    )


def classifier_payload(clf: LinearClassifier) -> dict:
    # Weight vectors are sparse after training on small corpora; store
    # only the non-zero entries.
    nonzero = {str(i): w for i, w in enumerate(clf.weights) if w != 0.0}
    return {"dim": clf.dim, "bias": clf.bias, "weights": nonzero}


def classifier_from_payload(payload: dict) -> LinearClassifier:
    dim = payload["dim"]
    weights = [0.0] * dim
    for key, w in payload["weights"].items():
        index = int(key)
        if not 0 <= index < dim:
            raise ValueError(f"weight index {key} outside [0, {dim})")
        weights[index] = w
    return LinearClassifier(dim=dim, weights=weights, bias=payload["bias"])
