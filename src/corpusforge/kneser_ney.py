"""Interpolated Kneser-Ney n-gram language model with a single absolute
discount, plus perplexity scoring and head/middle/tail bucketing.

The top order uses raw counts; lower orders use continuation counts
(number of distinct left contexts). Out-of-vocabulary words map to an
unknown symbol that is part of the vocabulary, so every conditional
distribution sums to one over the full vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError

UNK = "<unk>"
DEFAULT_ORDER = 5
DEFAULT_DISCOUNT = 0.75


@dataclass
class KneserNeyLM:
    order: int
    discount: float
    vocab: set[str]
    # counts[k] maps k-gram tuples to either raw counts (k == order) or
    # continuation counts (k < order).
    counts: dict[int, dict[tuple[str, ...], int]]
    # hist_total[k][h] = sum over w of counts[k][h + (w,)]
    hist_total: dict[int, dict[tuple[str, ...], int]]
    # n1plus[k][h] = number of distinct w with counts[k][h + (w,)] > 0
    n1plus: dict[int, dict[tuple[str, ...], int]]

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def map_token(self, token: str) -> str:
        return token if token in self.vocab else UNK

    def prob(self, word: str, history: Iterable[str]) -> float:
        """P(word | history) with backoff through all lower orders.
        Histories longer than order-1 are truncated; unseen histories
        back off entirely."""
        word = self.map_token(word)
        h = tuple(self.map_token(t) for t in history)[-(self.order - 1):] if self.order > 1 else ()
        return self._prob(word, h, len(h) + 1)

    def _prob(self, word: str, h: tuple[str, ...], k: int) -> float:
        d = self.discount
        if k == 1:
            denom = self.hist_total[1].get((), 0)
            uniform = 1.0 / self.vocab_size
            if denom == 0:
                return uniform
            num = self.counts[1].get((word,), 0)
            lam = d * self.n1plus[1].get((), 0) / denom
            return max(num - d, 0.0) / denom + lam * uniform
        denom = self.hist_total[k].get(h, 0)
        if denom == 0:
            return self._prob(word, h[1:], k - 1)
        num = self.counts[k].get(h + (word,), 0)
        lam = d * self.n1plus[k].get(h, 0) / denom
        return max(num - d, 0.0) / denom + lam * self._prob(word, h[1:], k - 1)

    def sequence_logprob(self, tokens: list[str]) -> float:
        total = 0.0
        mapped = [self.map_token(t) for t in tokens]
        for i, w in enumerate(mapped):
            h = tuple(mapped[max(0, i - self.order + 1):i])
            total += math.log(self._prob(w, h, len(h) + 1))
        return total


def train_kn_lm(
    tokens: list[str],
    order: int = DEFAULT_ORDER,
    discount: float = DEFAULT_DISCOUNT,
    include_unk: bool = True,
) -> KneserNeyLM:
    if not 0.0 < discount < 1.0:
        raise ConfigError("discount must be in (0, 1)")
    if order < 1:
        raise ConfigError("order must be >= 1")
    if len(tokens) < order:
        raise ConfigError(
            f"training corpus has {len(tokens)} tokens, need >= order {order}"
        )
    vocab = set(tokens)
    if include_unk:
        vocab.add(UNK)

    raw: dict[int, dict[tuple[str, ...], int]] = {
        k: {} for k in range(1, order + 1)
    }
    for k in range(1, order + 1):
        grams = raw[k]
        for i in range(len(tokens) - k + 1):
            g = tuple(tokens[i : i + k])
            grams[g] = grams.get(g, 0) + 1

    counts: dict[int, dict[tuple[str, ...], int]] = {order: raw[order]}
    # Continuation counts for every lower order, derived from the raw
    # counts one order up: cc_k(g) = |{v : raw_{k+1}(v + g) > 0}|.
    for k in range(order - 1, 0, -1):
        cc: dict[tuple[str, ...], int] = {}
        for g in raw[k + 1]:
            cc[g[1:]] = cc.get(g[1:], 0) + 1
        counts[k] = cc

    return _build_lm(order, discount, vocab, counts)


def _build_lm(order: int, discount: float, vocab: set[str],
              counts: dict[int, dict[tuple[str, ...], int]]) -> KneserNeyLM:
    """The model with its per-history totals derived from `counts`."""
    hist_total: dict[int, dict[tuple[str, ...], int]] = {}
    n1plus: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(1, order + 1):
        ht: dict[tuple[str, ...], int] = {}
        np_: dict[tuple[str, ...], int] = {}
        for g, c in counts[k].items():
            h = g[:-1]
            ht[h] = ht.get(h, 0) + c
            if c > 0:
                np_[h] = np_.get(h, 0) + 1
        hist_total[k] = ht
        n1plus[k] = np_
    return KneserNeyLM(
        order=order,
        discount=discount,
        vocab=vocab,
        counts=counts,
        hist_total=hist_total,
        n1plus=n1plus,
    )


def perplexity(words: list[str], lm: KneserNeyLM) -> float:
    """exp of mean negative log-probability per token; +inf for an empty
    document."""
    if not words:
        return math.inf
    return math.exp(-lm.sequence_logprob(words) / len(words))


# ---------------------------------------------------------------------------
# Perplexity buckets


@dataclass
class BucketCutoffs:
    head_max: float
    middle_max: float

    def __post_init__(self):
        if not self.head_max < self.middle_max:
            raise ConfigError(
                f"head_max {self.head_max} must be < middle_max {self.middle_max}"
            )


def assign_bucket(ppl: float, cutoffs: BucketCutoffs) -> str:
    if ppl <= cutoffs.head_max:
        return "head"
    if ppl <= cutoffs.middle_max:
        return "middle"
    return "tail"


def calibrate_cutoffs(ppls: list[float]) -> BucketCutoffs:
    """33.3/66.7 percentile cutoffs over a calibration sample; with
    distinct perplexities this splits the sample into thirds."""
    if len(ppls) < 3:
        raise ConfigError("need at least 3 perplexities to calibrate cutoffs")
    ordered = sorted(ppls)
    n = len(ordered)
    head_max = ordered[(n + 2) // 3 - 1]
    middle_max = ordered[(2 * n + 2) // 3 - 1]
    return BucketCutoffs(head_max=head_max, middle_max=middle_max)


def kn_payload(lm: KneserNeyLM) -> dict:
    def enc(d):
        return {"\x1f".join(g): c for g, c in d.items()}

    return {
        "order": lm.order,
        "discount": lm.discount,
        "vocab": sorted(lm.vocab),
        "counts": {str(k): enc(v) for k, v in lm.counts.items()},
    }


def kn_from_payload(payload: dict) -> KneserNeyLM:
    def dec(d):
        return {
            tuple(key.split("\x1f")) if key else (): c for key, c in d.items()
        }

    counts = {int(k): dec(v) for k, v in payload["counts"].items()}
    return _build_lm(payload["order"], payload["discount"], set(payload["vocab"]), counts)
