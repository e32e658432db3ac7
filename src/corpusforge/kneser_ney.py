"""Interpolated Kneser-Ney n-gram language model with a single absolute
discount, plus perplexity scoring.

The top order uses raw counts; lower orders use continuation counts
(number of distinct left contexts). Out-of-vocabulary words map to an
unknown symbol that is part of the vocabulary, so every conditional
distribution sums to one over the full vocabulary.

Tokens get ids in sorted order (the unknown symbol always gets one, even
when it is not in the vocabulary); base is the number of ids. Each order
k >= 2 is a level of sorted int64 key arrays. A history of length m is
keyed by rank(its length-(m-1) suffix among the level below) * base +
its oldest token, and the empty history has rank 0; a gram is keyed by
rank(its history) * base + its word. Keys stay below (number of
histories) * base whatever the vocabulary and the order. Each history
key has a parallel denominator (its count total) and backoff weight
(discount * distinct next words / total), each gram key its count.

A token's probability starts at its order-1 probability and climbs one
order at a time, p = max(c - d, 0)/denominator + weight * p: the
floating-point operations, in the same order, of the recursive
definition that backs off from the top order. A batch of documents
(textnorm.NumberedWords: a shard, or a training corpus) climbs at once:
each distinct word is mapped to its id once, each position's history
starts empty at its document's start, and each order looks up with
np.searchsorted the histories of only the positions still climbing; a
position stops at its first unseen history. Both the keying and the
stop are exact because histories are suffix-closed: a seen history's
one-shorter suffix was seen one order down. Training guarantees that,
and loading checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError
from .mlmodels import running_sums
from .textnorm import NumberedWords

UNK = "<unk>"
DEFAULT_ORDER = 5
DEFAULT_DISCOUNT = 0.75
_SEP = "\x1f"


@dataclass
class _Level:
    """One order k >= 2 (history length k - 1), as described in the
    module docstring."""

    histories: np.ndarray  # sorted keys
    totals: np.ndarray  # float64 count totals, exact below 2**53
    weights: np.ndarray
    grams: np.ndarray  # sorted keys
    counts: np.ndarray


def _find(keys: np.ndarray, sought: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, found) of each sought key in the sorted, non-empty `keys`;
    the index means nothing where not found."""
    at = np.minimum(np.searchsorted(keys, sought), len(keys) - 1)
    return at, keys[at] == sought


@dataclass
class KneserNeyLM:
    order: int
    discount: float
    # id -> token in sorted order; always holds UNK; base = len(words)
    words: list[str]
    ids: dict[str, int]
    base: int
    unk_in_vocab: bool
    # grams[k] = (rows, counts) of order k: rows are token ids, oldest
    # first; counts are raw (k == order) or continuation counts (k < order)
    grams: dict[int, tuple[np.ndarray, np.ndarray]]
    # orders 2.. up to the first order without a seen history
    levels: list[_Level]
    unigram_probs: np.ndarray

    @property
    def vocab(self) -> list[str]:
        return [w for w in self.words if w != UNK or self.unk_in_vocab]

    def token_probs(self, words: NumberedWords) -> np.ndarray:
        """P(token | the up to order - 1 tokens before it in its document),
        for every token of the batch `words`."""
        unk = self.ids[UNK]
        model_ids = np.fromiter(map(self.ids.get, words.vocab, repeat(unk)), np.int64,
                                len(words.vocab))
        w = model_ids[words.ids]
        p = self.unigram_probs[w]
        sizes = words.sizes
        # each position's number of tokens before it in its document
        before = np.arange(len(w)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        at = np.arange(len(w))  # the positions still climbing
        rank = np.zeros(len(w), np.int64)  # of each one's history so far
        d = self.discount
        for m, level in enumerate(self.levels, 1):
            climbing = before[at] >= m  # m tokens of history
            at, rank = at[climbing], rank[climbing]
            rank, found = _find(level.histories, rank * self.base + w[at - m])
            at, rank = at[found], rank[found]
            if not len(at):
                break
            g, seen = _find(level.grams, rank * self.base + w[at])
            c = np.where(seen, level.counts[g], 0)
            p[at] = np.maximum(c - d, 0.0) / level.totals[rank] + level.weights[rank] * p[at]
        return p

    def sequence_logprobs(self, words: NumberedWords) -> list[float]:
        """Each document's log-probability: math.log of its token_probs,
        summed in token order, as the recursive definition does."""
        probs = self.token_probs(words).tolist()
        return running_sums(np.fromiter(map(math.log, probs), np.float64, len(probs)),
                            words.sizes)


def _windows(seq: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """The k tokens of `seq` from each start, one row each."""
    return seq[starts[:, None] + np.arange(k)]


def train_kn_lm(
    documents: list[list[str]],
    order: int = DEFAULT_ORDER,
) -> KneserNeyLM:
    """The model of the token lists `documents`, discounted by
    DEFAULT_DISCOUNT. Grams are counted within each document, never
    across two, as a document is scored from an empty history."""
    if order < 1:
        raise ConfigError("order must be >= 1")
    if not any(len(doc) >= order for doc in documents):
        raise ConfigError(f"training corpus has no document of >= order {order} tokens")
    tokens = list(chain.from_iterable(documents))
    ids = _vocab_ids(set(tokens))
    base = len(ids)
    seq = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
    # tokens from each position to the end of its document
    left = np.concatenate([np.arange(len(doc), 0, -1) for doc in documents])
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    # The j-gram starting at each position is numbered by the pair
    # (number of its (j-1)-gram prefix, its last token).
    numbers = np.zeros(len(seq), np.int64)
    for j in range(1, order + 1):
        at = np.flatnonzero(left >= j)  # starts of the j-grams within a document
        _, first, later, raw = np.unique(
            numbers[at] * base + seq[at + j - 1],
            return_index=True, return_inverse=True, return_counts=True)
        first = at[first]
        if j > 1:
            # cc_{j-1}(g) = |{v : raw_j(v + g) > 0}|: the distinct j-grams
            # whose suffix, starting one position later, is g
            cc = np.bincount(numbers[first + 1], minlength=len(prefix_first))
            seen = np.flatnonzero(cc)
            grams[j - 1] = (_windows(seq, prefix_first[seen], j - 1), cc[seen])
        numbers[at], prefix_first = later, first
    grams[order] = (_windows(seq, prefix_first, order), raw)
    return _build_lm(order, DEFAULT_DISCOUNT, ids, True, grams)


def _vocab_ids(vocab: set[str]) -> dict[str, int]:
    """Ids in sorted token order; UNK always gets one."""
    return {w: i for i, w in enumerate(sorted(vocab | {UNK}))}


def _build_lm(order: int, discount: float, ids: dict[str, int], unk_in_vocab: bool,
              grams: dict[int, tuple[np.ndarray, np.ndarray]]) -> KneserNeyLM:
    """The model with its levels and order-1 probabilities derived from
    `grams` (grams of count 0 are never looked up); ConfigError when the
    discount is outside (0, 1) or the histories are not suffix-closed."""
    if not 0.0 < discount < 1.0:
        raise ConfigError(f"discount must be in (0, 1), got {discount!r}")
    base = len(ids)
    levels: list[_Level] = []
    for k in range(2, order + 1):
        rows, counts = grams[k]
        rows, counts = rows[counts > 0], counts[counts > 0]
        if not len(rows):
            continue
        # the rank of each history's suffix, rows[:, 1:k-1], climbed from
        # its newest token; when a lower order has no level, not closed
        rank = np.zeros(len(rows), np.int64)
        closed = len(levels) == k - 2
        for level, col in zip(levels, range(k - 2, 0, -1)):
            rank, found = _find(level.histories, rank * base + rows[:, col])
            closed = closed and found.all()
        if not closed:
            raise ConfigError(
                f"Kneser-Ney model is not suffix-closed: an order-{k} "
                f"history has no order-{k - 1} suffix")
        histories, inverse, distinct = np.unique(
            rank * base + rows[:, 0], return_inverse=True, return_counts=True)
        totals = np.bincount(inverse, weights=counts)
        keys = inverse * base + rows[:, -1]
        by_key = np.argsort(keys)
        levels.append(_Level(histories, totals, discount * distinct / totals,
                             keys[by_key], counts[by_key]))
    vocab_size = base - (not unk_in_vocab)
    if vocab_size == 0:
        raise ValueError("empty vocabulary")
    uniform = 1.0 / vocab_size
    rows, counts = grams[1]
    c = np.zeros(base, np.int64)
    c[rows[:, 0]] = counts
    total = int(c.sum())
    if total == 0:
        unigram_probs = np.full(base, uniform)
    else:
        lam = discount * int(np.count_nonzero(c)) / total
        unigram_probs = np.maximum(c - discount, 0.0) / total + lam * uniform
    return KneserNeyLM(
        order=order,
        discount=discount,
        words=list(ids),
        ids=ids,
        base=base,
        unk_in_vocab=unk_in_vocab,
        grams=grams,
        levels=levels,
        unigram_probs=unigram_probs,
    )


def perplexity(words: NumberedWords, lm: KneserNeyLM) -> list[float]:
    """Each document's exp of mean negative log-probability per token;
    +inf for an empty document."""
    return [math.exp(-logprob / size) if size else math.inf
            for logprob, size in zip(lm.sequence_logprobs(words), words.sizes.tolist())]


def kn_payload(lm: KneserNeyLM) -> dict:
    words = lm.words
    return {
        "order": lm.order,
        "discount": lm.discount,
        "vocab": lm.vocab,
        "counts": {
            str(k): {
                _SEP.join(map(words.__getitem__, row)): c
                for row, c in zip(lm.grams[k][0].tolist(), lm.grams[k][1].tolist())
            }
            for k in range(lm.order, 0, -1)
        },
    }


def _split_gram(key: str, k: int) -> list[str]:
    tokens = key.split(_SEP)
    if len(tokens) != k:
        raise ValueError(f"order-{k} gram {key!r} has {len(tokens)} tokens")
    return tokens


def kn_from_payload(payload: dict) -> KneserNeyLM:
    """The model of a kn_payload dict, its grams read straight into id
    arrays. ValueError/KeyError when a gram does not fit its order or
    vocabulary or a count is not a non-negative integer, ConfigError
    when the discount is outside (0, 1) or the histories are not
    suffix-closed."""
    order = payload["order"]
    vocab = set(payload["vocab"])
    ids = _vocab_ids(vocab)
    grams: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(1, order + 1):
        table = payload["counts"][str(k)]
        tokens = chain.from_iterable(map(_split_gram, table, repeat(k)))
        rows = np.fromiter(map(ids.__getitem__, tokens), np.int64, k * len(table)).reshape(-1, k)
        counts = np.fromiter(table.values(), np.int64, len(table))
        if counts.tolist() != list(table.values()) or (counts < 0).any():
            raise ValueError(f"order-{k} counts are not all non-negative integers")
        grams[k] = (rows, counts)
    return _build_lm(order, payload["discount"], ids, UNK in vocab, grams)
