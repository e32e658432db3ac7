"""Interpolated Kneser-Ney n-gram language model with a single absolute
discount, plus perplexity scoring.

The top order uses raw counts; lower orders use continuation counts
(number of distinct left contexts). Out-of-vocabulary words map to an
unknown symbol that is part of the vocabulary, so every conditional
distribution sums to one over the full vocabulary.

Tables are keyed by packed vocabulary ids, as in KenLM: tokens get ids
in sorted order (the unknown symbol always gets one, even when it is
not in the vocabulary), and a k-gram packs to sum(id_j * base**j) with
the newest token as the lowest digit. A gram's history is then
`gram // base` and a history's suffix one order down is
`history % base**(k-2)`. Per order the model keeps gram -> count and
history -> (denominator, backoff weight), plus the order-1 probability
of every id. A token's probability starts at its order-1 probability and
climbs one order at a time, p = max(c - d, 0)/denominator + weight * p:
the floating-point operations, in the same order, of the recursive
definition that backs off from the top order. The climb stops at the
first order whose history is absent. That is exact because histories
are suffix-closed (a present history's suffix is present one order
down), which training guarantees and loading checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError

UNK = "<unk>"
DEFAULT_ORDER = 5
DEFAULT_DISCOUNT = 0.75
_SEP = "\x1f"


@dataclass
class KneserNeyLM:
    order: int
    discount: float
    # id -> token in sorted order; always holds UNK. Packing uses
    # base = len(words).
    words: list[str]
    ids: dict[str, int]
    base: int
    unk_in_vocab: bool
    # grams[k] maps packed k-grams to raw counts (k == order) or
    # continuation counts (k < order)
    grams: dict[int, dict[int, int]]
    # levels[k - 2] = (histories, grams[k]) of order k >= 2; histories
    # maps each packed history whose count total is non-zero to
    # (total, discount * distinct next words / total)
    levels: list[tuple[dict[int, tuple[int, float]], dict[int, int]]]
    unigram_probs: list[float]

    @property
    def vocab(self) -> list[str]:
        return [w for w in self.words if w != UNK or self.unk_in_vocab]

    def _prob_at(self, w: int, ctx: int, n: int) -> float:
        """P(w | the n newest ids packed in ctx)."""
        p = self.unigram_probs[w]
        base = self.base
        d = self.discount
        span = 1
        for histories, grams in self.levels[:n]:
            span *= base
            h = ctx % span
            entry = histories.get(h)
            if entry is None:
                break
            p = max(grams.get(h * base + w, 0) - d, 0.0) / entry[0] + entry[1] * p
        return p

    def sequence_logprob(self, tokens: list[str]) -> float:
        ids = self.ids
        unk = ids[UNK]
        base = self.base
        longest = self.order - 1
        span = base ** longest
        total = 0.0
        ctx = 0
        for i, t in enumerate(tokens):
            w = ids.get(t, unk)
            total += math.log(self._prob_at(w, ctx, min(i, longest)))
            ctx = (ctx * base + w) % span
        return total


def _packed_grams(seq: list[int], k: int, base: int) -> list[int]:
    """Every k-gram of `seq`, packed, in order."""
    span = base ** k
    out = []
    g = 0
    for i, t in enumerate(seq):
        g = (g * base + t) % span
        if i >= k - 1:
            out.append(g)
    return out


def train_kn_lm(
    tokens: list[str],
    order: int = DEFAULT_ORDER,
    include_unk: bool = True,
) -> KneserNeyLM:
    """The model of `tokens`, discounted by DEFAULT_DISCOUNT."""
    if order < 1:
        raise ConfigError("order must be >= 1")
    if len(tokens) < order:
        raise ConfigError(
            f"training corpus has {len(tokens)} tokens, need >= order {order}"
        )
    vocab = set(tokens)
    ids = _vocab_ids(vocab)
    seq = [ids[t] for t in tokens]
    base = len(ids)
    grams: dict[int, dict[int, int]] = {order: Counter(_packed_grams(seq, order, base))}
    # Continuation counts for every lower order, derived from the
    # distinct grams one order up: cc_k(g) = |{v : raw_{k+1}(v + g) > 0}|.
    for k in range(order - 1, 0, -1):
        span = base ** k
        grams[k] = Counter(g % span for g in set(_packed_grams(seq, k + 1, base)))
    return _build_lm(order, DEFAULT_DISCOUNT, ids, include_unk or UNK in vocab, grams)


def _vocab_ids(vocab: set[str]) -> dict[str, int]:
    """Ids in sorted token order; UNK always gets one."""
    return {w: i for i, w in enumerate(sorted(vocab | {UNK}))}


def _build_lm(order: int, discount: float, ids: dict[str, int], unk_in_vocab: bool,
              grams: dict[int, dict[int, int]]) -> KneserNeyLM:
    """The model with its history and order-1 tables derived from
    `grams`; ConfigError when the discount is outside (0, 1) or the
    histories are not suffix-closed."""
    if not 0.0 < discount < 1.0:
        raise ConfigError(f"discount must be in (0, 1), got {discount!r}")
    base = len(ids)
    histories: dict[int, dict[int, tuple[int, float]]] = {}
    for k in range(1, order + 1):
        totals: dict[int, int] = {}
        distinct: dict[int, int] = {}
        for g, c in grams[k].items():
            h = g // base
            totals[h] = totals.get(h, 0) + c
            if c > 0:
                distinct[h] = distinct.get(h, 0) + 1
        histories[k] = {
            h: (total, discount * distinct.get(h, 0) / total)
            for h, total in totals.items() if total != 0
        }
    for k in range(3, order + 1):
        span = base ** (k - 2)
        lower = histories[k - 1]
        for h in histories[k]:
            if h % span not in lower:
                raise ConfigError(
                    f"Kneser-Ney model is not suffix-closed: an order-{k} "
                    f"history has no order-{k - 1} suffix")
    vocab_size = base - (not unk_in_vocab)
    if vocab_size == 0:
        raise ValueError("empty vocabulary")
    uniform = 1.0 / vocab_size
    first = histories.pop(1).get(0)
    if first is None:
        unigram_probs = [uniform] * base
    else:
        den, lam = first
        unigram_probs = [max(grams[1].get(i, 0) - discount, 0.0) / den + lam * uniform
                         for i in range(base)]
    return KneserNeyLM(
        order=order,
        discount=discount,
        words=list(ids),
        ids=ids,
        base=base,
        unk_in_vocab=unk_in_vocab,
        grams=grams,
        levels=[(histories[k], grams[k]) for k in range(2, order + 1)],
        unigram_probs=unigram_probs,
    )


def perplexity(words: list[str], lm: KneserNeyLM) -> float:
    """exp of mean negative log-probability per token; +inf for an empty
    document."""
    if not words:
        return math.inf
    return math.exp(-lm.sequence_logprob(words) / len(words))


def kn_payload(lm: KneserNeyLM) -> dict:
    base = lm.base

    def key(g: int, k: int) -> str:
        parts = []
        for _ in range(k):
            g, i = divmod(g, base)
            parts.append(lm.words[i])
        return _SEP.join(reversed(parts))

    return {
        "order": lm.order,
        "discount": lm.discount,
        "vocab": lm.vocab,
        "counts": {
            str(k): {key(g, k): c for g, c in lm.grams[k].items()}
            for k in range(lm.order, 0, -1)
        },
    }


def kn_from_payload(payload: dict) -> KneserNeyLM:
    """The model of a kn_payload dict, packed straight from its string
    keys. ValueError/KeyError when a gram does not fit its order or
    vocabulary, ConfigError when the discount is outside (0, 1) or the
    histories are not suffix-closed."""
    order = payload["order"]
    vocab = set(payload["vocab"])
    ids = _vocab_ids(vocab)
    base = len(ids)
    grams: dict[int, dict[int, int]] = {}
    for k in range(1, order + 1):
        table: dict[int, int] = {}
        for key, c in payload["counts"][str(k)].items():
            parts = key.split(_SEP)
            if len(parts) != k:
                raise ValueError(f"order-{k} gram {key!r} has {len(parts)} tokens")
            g = 0
            for t in parts:
                g = g * base + ids[t]
            table[g] = c
        grams[k] = table
    return _build_lm(order, payload["discount"], ids, UNK in vocab, grams)
