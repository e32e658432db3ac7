"""Trainable ML heuristics: hashed {1,2}-gram importance models and a
linear bag-of-words quality classifier.

Feature hashing is 64-bit FNV-1a over the UTF-8 bytes of "w1" and
"w1\\x1fw2", reduced mod the bucket count. Importance weights are the
log-likelihood ratio of a document under the target vs. source hashed
n-gram models with add-alpha smoothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from .errors import ConfigError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

BIGRAM_SEP = "\x1f"
DEFAULT_BUCKETS = 10_000


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hashed_features(words: list[str], buckets: int) -> list[int]:
    """Bucket indexes of every word unigram and bigram, with multiplicity."""
    feats = [fnv1a64(w.encode("utf-8")) % buckets for w in words]
    for w1, w2 in zip(words, words[1:]):
        feats.append(fnv1a64((w1 + BIGRAM_SEP + w2).encode("utf-8")) % buckets)
    return feats


@dataclass
class HashedNgramLM:
    """Bag of hashed {1,2}-wordgram counts with add-alpha smoothing."""

    bucket_count: int
    counts: list[int]
    total: int
    smoothing_alpha: float = 1.0

    def log_prob(self, bucket: int) -> float:
        return math.log(
            (self.counts[bucket] + self.smoothing_alpha)
            / (self.total + self.smoothing_alpha * self.bucket_count)
        )

    def add(self, words: list[str]) -> None:
        for f in hashed_features(words, self.bucket_count):
            self.counts[f] += 1
            self.total += 1


def train_hashed_lm(corpus, buckets: int = DEFAULT_BUCKETS, alpha: float = 1.0) -> HashedNgramLM:
    """corpus: iterable of word lists. Counts are order-insensitive, so a
    shuffled corpus yields an identical model."""
    if buckets < 2:
        raise ConfigError("bucket count must be >= 2")
    lm = HashedNgramLM(bucket_count=buckets, counts=[0] * buckets, total=0,
                       smoothing_alpha=alpha)
    seen = 0
    for words in corpus:
        seen += 1
        lm.add(words)
    if seen == 0:
        raise ConfigError("empty training corpus")
    return lm


def dsir_importance(words: list[str], target: HashedNgramLM, source: HashedNgramLM) -> float:
    """Sum over the document's hashed {1,2}-gram features (with
    multiplicity) of log p_target - log p_source."""
    if target.bucket_count != source.bucket_count:
        raise ConfigError(
            f"bucket_count mismatch: target {target.bucket_count}, "
            f"source {source.bucket_count}"
        )
    score = 0.0
    for f in hashed_features(words, target.bucket_count):
        score += target.log_prob(f) - source.log_prob(f)
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

    def features(self, words: list[str]) -> dict[int, float]:
        counts: dict[int, float] = {}
        for w in words:
            f = fnv1a64(w.encode("utf-8")) % self.dim
            counts[f] = counts.get(f, 0.0) + 1.0
        norm = math.sqrt(sum(v * v for v in counts.values()))
        if norm > 0:
            for f in counts:
                counts[f] /= norm
        return counts

    def score_words(self, words: list[str]) -> float:
        feats = self.features(words)
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

MODEL_KINDS = ("hashed_lm", "classifier", "kneser_ney", "bucket_cutoffs")


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
    except (OSError, json.JSONDecodeError) as exc:
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
    weights = [0.0] * payload["dim"]
    for key, w in payload["weights"].items():
        weights[int(key)] = w
    return LinearClassifier(dim=payload["dim"], weights=weights, bias=payload["bias"])
