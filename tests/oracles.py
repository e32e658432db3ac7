"""Independent brute-force reference implementations of the quality
signals, written against the documented conventions rather than the
library code, and the per-document rule evaluation that filtering's
shard-level evaluation must agree with. Tests compare library output
against these for bit-identical agreement. The schema-invariant
checkers and `kn_prob` at the end are the checks that only tests need."""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Normalization (reference): NFC, drop punctuation/symbols except
# apostrophes/hyphens between alphanumerics, lowercase, collapse spaces,
# NFC again.


def oracle_normalize(text: str) -> str:
    nfc = unicodedata.normalize("NFC", text)
    kept = []
    for i, ch in enumerate(nfc):
        if unicodedata.category(ch)[0] in ("P", "S"):
            if ch in ("'", "’", "-"):
                # the neighbour before counts as lowercased: "İ" becomes
                # "i" + a combining dot, which is not alphanumeric
                if (
                    0 < i < len(nfc) - 1
                    and nfc[i - 1].lower()[-1].isalnum()
                    and nfc[i + 1].isalnum()
                ):
                    kept.append(ch.lower())
            continue
        kept.append(ch.lower())
    # lowercasing or a dropped character can leave a base and its
    # combining mark apart; compose them again
    return unicodedata.normalize("NFC", " ".join("".join(kept).split()))


def oracle_words(text: str) -> list[str]:
    return oracle_normalize(text).split()


def oracle_sentence_count(text: str) -> int:
    segments, current = [], []
    for i, ch in enumerate(text):
        current.append(ch)
        if ch in ".!?" and (i + 1 == len(text) or text[i + 1].isspace()):
            segments.append("".join(current))
            current = []
    segments.append("".join(current))
    return sum(1 for s in segments if any(c.isalnum() for c in s))


# ---------------------------------------------------------------------------
# Document-level natural-language signals


def oracle_curly_bracket(raw: str) -> float:
    if not raw:
        return 0.0
    return sum(1 for ch in raw if ch in "{}") / len(raw)


def oracle_frac_all_caps_words(raw: str) -> float:
    ws = raw.split()
    if not ws:
        return 0.0
    caps = sum(
        1 for w in ws if w and all(c.isalpha() and c.isupper() for c in w)
    )
    return caps / len(ws)


def oracle_frac_lines_end_with_ellipsis(raw: str) -> float:
    lines = raw.split("\n") if raw else []
    if not lines:
        return 0.0
    hits = 0
    for line in lines:
        trimmed = line.rstrip()
        if trimmed.endswith("...") or trimmed.endswith("…"):
            hits += 1
    return hits / len(lines)


def oracle_frac_no_alph_words(words: list[str]) -> float:
    if not words:
        return 0.0
    return sum(1 for w in words if not any(c.isalpha() for c in w)) / len(words)


def oracle_lorem_ipsum(text: str) -> float:
    norm = oracle_normalize(text)
    if not norm:
        return 0.0
    count = 0
    start = 0
    while True:
        idx = norm.find("lorem ipsum", start)
        if idx < 0:
            break
        count += 1
        start = idx + len("lorem ipsum")
    return count / len(norm)


def oracle_mean_word_length(words: list[str]) -> float:
    if not words:
        return 0.0
    return sum(len(w) for w in words) / len(words)


def oracle_stop_word_count(words: list[str], stopwords) -> int:
    return sum(1 for w in words if w in stopwords)


def oracle_symbol_count(raw: str) -> int:
    count = 0
    i = 0
    while i < len(raw):
        if raw[i] in "#…":
            count += 1
            i += 1
        elif raw[i : i + 3] == "...":
            count += 1
            i += 3
        else:
            i += 1
    return count


def oracle_unigram_entropy(words: list[str]) -> float:
    if not words:
        return 0.0
    entropy = 0.0
    n = len(words)
    # Counter preserves first-insertion order, matching the library's
    # accumulation order so the float sum is bit-identical.
    for c in Counter(words).values():
        p = c / n
        entropy += -p * math.log(p)
    return entropy


def oracle_mean_line_length(raw: str) -> float:
    lines = raw.split("\n") if raw else []
    if not lines:
        return 0.0
    return sum(len(line) for line in lines) / len(lines)


def oracle_natlang(raw: str, stopwords) -> dict[str, float]:
    words = oracle_words(raw)
    wc = len(words)
    stop = oracle_stop_word_count(words, stopwords)
    return {
        "rps_doc_curly_bracket": oracle_curly_bracket(raw),
        "rps_doc_frac_all_caps_words": oracle_frac_all_caps_words(raw),
        "rps_doc_frac_lines_end_with_ellipsis": oracle_frac_lines_end_with_ellipsis(raw),
        "rps_doc_frac_no_alph_words": oracle_frac_no_alph_words(words),
        "rps_doc_lorem_ipsum": oracle_lorem_ipsum(raw),
        "rps_doc_mean_word_length": oracle_mean_word_length(words),
        "rps_doc_stop_word_fraction": stop / wc if wc else 0.0,
        "rps_doc_symbol_to_word_ratio": oracle_symbol_count(raw) / wc if wc else 0.0,
        "rps_doc_frac_unique_words": len(set(words)) / wc if wc else 0.0,
        "rps_doc_unigram_entropy": oracle_unigram_entropy(words),
        "rps_doc_word_count": float(wc),
        "rps_doc_num_sentences": float(oracle_sentence_count(raw)),
        "rps_doc_stop_word_count": float(stop),
        "rps_doc_mean_line_length": oracle_mean_line_length(raw),
    }


# ---------------------------------------------------------------------------
# Repetition signals over the normalized text


def _word_char_spans(norm: str) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    for w in norm.split():
        spans.append((pos, pos + len(w)))
        pos += len(w) + 1
    return spans


def oracle_dupe_ngram_fraction_words(words: list[str], n: int) -> float:
    norm = " ".join(words)
    if len(words) < n or not norm:
        return 0.0
    spans = _word_char_spans(norm)
    occurrences: dict[str, list[int]] = {}
    for i in range(len(words) - n + 1):
        occurrences.setdefault(" ".join(words[i : i + n]), []).append(i)
    covered: set[int] = set()
    for starts in occurrences.values():
        if len(starts) >= 2:
            for i in starts:
                covered.update(range(spans[i][0], spans[i + n - 1][1]))
    return len(covered) / len(norm)


def oracle_dupe_ngram_fraction(raw: str, n: int) -> float:
    return oracle_dupe_ngram_fraction_words(oracle_words(raw), n)


def oracle_top_ngram_fraction_words(words: list[str], n: int) -> float:
    norm = " ".join(words)
    if len(words) < n or not norm:
        return 0.0
    counts = Counter(
        " ".join(words[i : i + n]) for i in range(len(words) - n + 1)
    )
    # most frequent; ties to the longer gram, then lexicographically first
    best = sorted(counts.items(), key=lambda kv: (-kv[1], -len(kv[0]), kv[0]))[0]
    return min(1.0, best[1] * len(best[0]) / len(norm))


def oracle_top_ngram_fraction(raw: str, n: int) -> float:
    return oracle_top_ngram_fraction_words(oracle_words(raw), n)


def oracle_repetition(raw: str) -> dict[str, float]:
    out = {}
    for n in (5, 6, 7, 8, 9, 10):
        out[f"rps_doc_frac_chars_dupe_{n}grams"] = oracle_dupe_ngram_fraction(raw, n)
    for n in (2, 3, 4):
        out[f"rps_doc_frac_chars_top_{n}gram"] = oracle_top_ngram_fraction(raw, n)
    return out


# ---------------------------------------------------------------------------
# Content and line-level signals


def oracle_blocklist_count(words: list[str], phrases) -> int:
    by_len: dict[int, set[tuple[str, ...]]] = {}
    for p in phrases:
        pw = tuple(p.split())
        if pw:
            by_len.setdefault(len(pw), set()).add(pw)
    if not by_len:
        return 0
    max_len = max(by_len)
    count = 0
    i = 0
    while i < len(words):
        for length in range(max_len, 0, -1):
            if length in by_len and tuple(words[i : i + length]) in by_len[length]:
                count += 1
                i += length
                break
        else:
            i += 1
    return count


_BULLETS = "•‣▶◀◦–■□▪▫"


def oracle_line_signals(raw: str) -> dict[str, list]:
    lines = raw.split("\n") if raw else []
    terminal, javascript, num_words = [], [], []
    numerical, bullet, uppercase = [], [], []
    for line in lines:
        trimmed = line.strip()
        norm = oracle_normalize(line)
        lw = norm.split()
        terminal.append(1 if trimmed and trimmed[-1] in ".!?”" else 0)
        javascript.append(sum(1 for w in lw if w == "javascript"))
        num_words.append(len(lw))
        numerical.append(
            sum(1 for c in norm if c.isdigit()) / len(norm) if norm else 0.0
        )
        bullet.append(1 if trimmed and trimmed[0] in _BULLETS else 0)
        uppercase.append(
            sum(1 for c in line if c.isupper()) / len(line) if line else 0.0
        )
    return {
        "rps_lines_ending_with_terminal_punctution_mark": terminal,
        "rps_lines_javascript_counts": javascript,
        "rps_lines_num_words": num_words,
        "rps_lines_numerical_chars_fraction": numerical,
        "rps_lines_start_with_bulletpoint": bullet,
        "rps_lines_uppercase_letter_fraction": uppercase,
    }


# ---------------------------------------------------------------------------
# ML models (reference): per-byte FNV-1a, per-feature DSIR and classifier
# scores, and the recursive Kneser-Ney backoff over string-tuple tables,
# all read from model payloads.

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def oracle_fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def oracle_hashed_features(words: list[str], buckets: int) -> list[int]:
    feats = [oracle_fnv1a64(w.encode("utf-8")) % buckets for w in words]
    for w1, w2 in zip(words, words[1:]):
        feats.append(oracle_fnv1a64((w1 + "\x1f" + w2).encode("utf-8")) % buckets)
    return feats


def _oracle_log_prob(payload: dict, bucket: int) -> float:
    alpha = payload["smoothing_alpha"]
    return math.log(
        (payload["counts"][bucket] + alpha)
        / (payload["total"] + alpha * payload["bucket_count"])
    )


def oracle_dsir(words: list[str], target: dict, source: dict) -> float:
    score = 0.0
    for f in oracle_hashed_features(words, target["bucket_count"]):
        score += _oracle_log_prob(target, f) - _oracle_log_prob(source, f)
    return score


def oracle_classifier_score(words: list[str], payload: dict) -> float:
    dim = payload["dim"]
    counts: dict[int, float] = {}
    for w in words:
        f = oracle_fnv1a64(w.encode("utf-8")) % dim
        counts[f] = counts.get(f, 0.0) + 1.0
    norm = math.sqrt(sum(v * v for v in counts.values()))
    if norm > 0:
        for f in counts:
            counts[f] /= norm
    weights = {int(k): w for k, w in payload["weights"].items()}
    z = payload["bias"] + sum(weights.get(f, 0.0) * v for f, v in counts.items())
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class OracleKneserNey:
    """Interpolated Kneser-Ney over tuple-keyed counts, backing off
    recursively from the top order."""

    def __init__(self, payload: dict):
        self.order = payload["order"]
        self.discount = payload["discount"]
        self.vocab = set(payload["vocab"])
        self.counts = {
            int(k): {tuple(key.split("\x1f")): c for key, c in grams.items()}
            for k, grams in payload["counts"].items()
        }
        self.hist_total: dict[int, dict] = {}
        self.n1plus: dict[int, dict] = {}
        for k, grams in self.counts.items():
            ht: dict = {}
            n1: dict = {}
            for g, c in grams.items():
                ht[g[:-1]] = ht.get(g[:-1], 0) + c
                if c > 0:
                    n1[g[:-1]] = n1.get(g[:-1], 0) + 1
            self.hist_total[k] = ht
            self.n1plus[k] = n1

    def _map(self, token: str) -> str:
        return token if token in self.vocab else "<unk>"

    def _prob(self, word: str, h: tuple, k: int) -> float:
        d = self.discount
        if k == 1:
            denom = self.hist_total[1].get((), 0)
            uniform = 1.0 / len(self.vocab)
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

    def prob(self, word: str, history) -> float:
        h = tuple(self._map(t) for t in history)
        h = h[len(h) - (self.order - 1):] if len(h) > self.order - 1 else h
        return self._prob(self._map(word), h, len(h) + 1)

    def sequence_logprob(self, tokens: list[str]) -> float:
        mapped = [self._map(t) for t in tokens]
        total = 0.0
        for i, w in enumerate(mapped):
            h = tuple(mapped[max(0, i - self.order + 1):i])
            total += math.log(self._prob(w, h, len(h) + 1))
        return total


def kn_prob(lm, word: str, history) -> float:
    """P(word | history) under a corpusforge KneserNeyLM: the last of its
    per-token probabilities over the history's newest order-1 tokens and
    the word. Out-of-vocabulary tokens map to the unknown symbol."""
    # imported here: perfbench imports this file without corpusforge on its path
    from corpusforge.textnorm import number_words

    history = list(history)
    kept = history[max(0, len(history) - (lm.order - 1)):]
    return float(lm.token_probs(number_words([kept + [word]]))[-1])


# ---------------------------------------------------------------------------
# MinHash (reference): FNV-1a 64 of each word's UTF-8 bytes (the hash of
# the ML features above), each 13-word window (the whole document when
# shorter) as the polynomial over its word hashes with multiplier
# 0x9E3779B97F4A7C15, and one permutation y = a * window + b, all mod 2^64
# in plain Python ints. The top log2(len(orders)) bits of y pick a bin,
# which keeps its smallest y; an empty bin k takes the value of the first
# non-empty bin in orders[k]. Component k is then splitmix64's output for
# the state (value + k * 0x9E3779B97F4A7C15); a document without words
# has every component 2^64 - 1. Given the multiplier a, the offset b and
# the orders.

_SHINGLE_MULT = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def oracle_minhash(words: list[str], mult: int, offset: int, orders) -> list[int]:
    bins = len(orders)
    if not words:
        return [_MASK64] * bins
    hashes = [oracle_fnv1a64(w.encode("utf-8")) for w in words]
    width = min(13, len(hashes))
    minima: dict[int, int] = {}
    for i in range(len(hashes) - width + 1):
        window = 0
        for x in hashes[i : i + width]:
            window = (window * _SHINGLE_MULT + x) & _MASK64
        y = (mult * window + offset) & _MASK64
        k = y >> (64 - bins.bit_length() + 1)
        minima[k] = min(minima.get(k, y), y)
    densified = [
        minima[k] if k in minima else next(minima[j] for j in orders[k] if j in minima)
        for k in range(bins)
    ]
    return [_splitmix64(value + k * 0x9E3779B97F4A7C15) for k, value in enumerate(densified)]


# ---------------------------------------------------------------------------
# LSH banding (reference): one dict per band from each band's bytes to the
# positions seen so far with them; a position pairs with every earlier
# position in its bucket.


def oracle_lsh_candidates(signatures, bands: int, rows: int) -> set[tuple[int, int]]:
    tables: list[dict[bytes, list[int]]] = [{} for _ in range(bands)]
    pairs: set[tuple[int, int]] = set()
    for pos, sig in enumerate(signatures):
        for band in range(bands):
            key = sig[band * rows : (band + 1) * rows].tobytes()
            bucket = tables[band].setdefault(key, [])
            for other in bucket:
                pairs.add((other, pos))
            bucket.append(pos)
    return pairs


# ---------------------------------------------------------------------------
# Signal records (reference): the record records.signal_lines writes as
# one line, built as a dict and written by json.dumps.


@dataclass
class QualitySignalSet:
    """Dolma-style signal record: signal name -> [(start, end, score)]."""

    id: str
    id_int: int
    metadata: dict
    quality_signals: dict[str, list] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {
            "id": self.id,
            "id_int": self.id_int,
            "metadata": self.metadata,
            "quality_signals": self.quality_signals,
        }
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"),
                          sort_keys=True)


# ---------------------------------------------------------------------------
# Schema invariants of documents and signal records. Reading a record
# does not check them; tests do, on the records the library writes.

LANGUAGES = ("en", "de", "fr", "es", "it")
BUCKETS = ("head", "middle", "tail")


def document_invariant_warnings(doc) -> list[str]:
    """The schema invariants a Document violates."""
    warnings = []
    nlines = doc.raw_content.count("\n") + 1 if doc.raw_content else 0
    if doc.nlines != nlines:
        warnings.append(f"nlines={doc.nlines} but raw_content has {nlines} lines")
    if doc.length != len(doc.raw_content):
        warnings.append(
            f"length={doc.length} but raw_content has {len(doc.raw_content)} characters"
        )
    if len(doc.line_ids) != doc.nlines:
        warnings.append(f"line_ids has {len(doc.line_ids)} entries, nlines={doc.nlines}")
    if any(b <= a for a, b in zip(doc.line_ids, doc.line_ids[1:])):
        warnings.append("line_ids is not strictly increasing")
    if any(i >= doc.original_nlines for i in doc.line_ids):
        warnings.append("line_ids entry >= original_nlines")
    if doc.original_nlines < doc.nlines:
        warnings.append("original_nlines < nlines")
    if doc.original_length < doc.length:
        warnings.append("original_length < length")
    if doc.bucket not in BUCKETS:
        warnings.append(f"unknown bucket {doc.bucket!r}")
    if doc.language not in LANGUAGES:
        warnings.append(f"unknown language {doc.language!r}")
    return warnings


def signal_invariant_warnings(record, doc_length: int | None = None) -> list[str]:
    """The shape invariants a QualitySignalSet violates: line signals
    tile the document, other non-categorical signals carry one triple
    spanning it."""
    # imported here: perfbench imports this module without src/ on the path
    from corpusforge.signal_catalog import CATEGORICAL_SIGNALS, LINE_SIGNALS

    warnings = []
    for name, triples in record.quality_signals.items():
        for start, end, _score in triples:
            if start > end:
                warnings.append(f"{name}: start {start} > end {end}")
        if name in CATEGORICAL_SIGNALS:
            continue
        if name in LINE_SIGNALS:
            pos = 0
            for start, end, _score in triples:
                if start != pos:
                    warnings.append(f"{name}: spans do not tile (gap at {pos})")
                    break
                pos = end
            if doc_length is not None and triples and pos != doc_length:
                warnings.append(f"{name}: spans end at {pos}, not {doc_length}")
        elif len(triples) != 1:
            warnings.append(f"{name}: expected one document-level triple")
        elif doc_length is not None:
            start, end, _score = triples[0]
            if (start, end) != (0, doc_length):
                warnings.append(f"{name}: span ({start},{end}) != (0,{doc_length})")
    return warnings


# ---------------------------------------------------------------------------
# Document records (reference): every field checked on its own, as
# records.parse_document does for any record it does not accept at once.


def oracle_parse_document(json_line: str):
    """The Document of one JSONL line, or a DataError naming its first
    fault: not a JSON object, a missing field (title defaults to ""), a
    wrong type (an int is a float, a bool is no int), an integer a float
    cannot hold, a lone surrogate, or line_ids not all integers."""
    from corpusforge.errors import DataError
    from corpusforge.records import Document, lone_surrogate

    try:
        raw = json.loads(json_line)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("record is not a JSON object")
    limit = 2**1024 - 2**970
    values = {}
    for name, typ in Document.__annotations__.items():
        typ = {"str": str, "int": int, "float": float, "list[int]": list}[typ]
        if name not in raw:
            if name == "title":
                values[name] = ""
                continue
            raise DataError(f"missing required field {name}")
        value = raw[name]
        if typ is not str and type(value) is int and not -limit < value < limit:
            raise DataError(f"field {name} is an integer too large for a float")
        if typ is float and type(value) is int:
            value = float(value)
        if typ is int and type(value) is bool:
            raise DataError(f"field {name} has wrong type bool")
        if not isinstance(value, typ):
            raise DataError(f"field {name} has wrong type {type(value).__name__}")
        if typ is str and (at := lone_surrogate(value)) is not None:
            raise DataError(f"field {name} holds a lone surrogate at character {at}")
        values[name] = value
    if any(type(i) is not int for i in values["line_ids"]):
        raise DataError("field line_ids must be a list of integers")
    return Document(**values)


# ---------------------------------------------------------------------------
# Rule evaluation (reference): one document at a time, each rule reading
# the record's triples of its signal, as filter did before it evaluated
# whole shards.

_RULE_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "==": lambda v, t: v == t,
    "in": lambda v, t: v in t,
}


def _oracle_scores(name: str, signals) -> list:
    """The scores of one signal's triples in a QualitySignalSet; a
    ConfigError when it is absent, a DataError when it is not a list of
    (start, end, number) triples (a bool is not a number)."""
    from corpusforge.errors import ConfigError, DataError

    triples = signals.quality_signals.get(name)
    if triples is None:
        raise ConfigError(f"signal {name} missing from record {signals.id}")
    if not isinstance(triples, list):
        raise DataError(
            f"record {signals.id}: signal {name} is not a list of triples: {triples!r}"
        )
    for t in triples:
        if not (isinstance(t, (list, tuple)) and len(t) == 3
                and type(t[2]) in (int, float)):
            raise DataError(
                f"record {signals.id}: signal {name} has a malformed triple {t!r}"
            )
    return [t[2] for t in triples]


def oracle_evaluate(doc, signals, rs):
    """The Decision on one document: document rules first (a line
    signal's value is the mean of its line scores, an empty signal's is
    0.0); survivors with content go through line rules, which rewrite
    the content by dropping failing lines. A rewrite that empties the
    document converts to a drop. A line signal whose span count is not
    nlines, or a document to rewrite whose raw_content lines or line_ids
    do not number nlines, is a DataError."""
    from corpusforge.errors import DataError
    from corpusforge.filtering import Decision
    from corpusforge.records import rewrite_document
    from corpusforge.signal_catalog import LINE_SIGNALS

    fired = []
    for rule in rs.doc_rules:
        scores = _oracle_scores(rule.signal, signals)
        if not scores:
            value = 0.0
        elif rule.signal in LINE_SIGNALS:
            value = sum(scores) / len(scores)
        else:
            value = scores[0]
        if _RULE_OPS[rule.op](value, rule.threshold):
            fired.append((rule.reason, value))
    if fired:
        return Decision(verdict="drop", fired_rules=sorted(fired))
    if not rs.line_rules or not doc.raw_content:
        return Decision(verdict="keep")

    nlines = doc.nlines
    per_rule = []
    for rule in rs.line_rules:
        scores = _oracle_scores(rule.signal, signals)
        if len(scores) != nlines:
            raise DataError(
                f"record {signals.id}: signal {rule.signal} has {len(scores)} line spans, "
                f"document has {nlines}"
            )
        per_rule.append((rule, scores))
    kept = []
    for i in range(nlines):
        ok = True
        for rule, values in per_rule:
            if _RULE_OPS[rule.op](values[i], rule.threshold):
                fired.append((rule.reason, values[i]))
                ok = False
        if ok:
            kept.append(i)
    if len(kept) == nlines:
        return Decision(verdict="keep")
    if not kept:
        return Decision(
            verdict="drop",
            fired_rules=sorted(set(fired)) + [("emptied-by-line-rules", 0.0)],
        )
    if doc.raw_content.count("\n") + 1 != nlines or len(doc.line_ids) != nlines:
        raise DataError(f"record {signals.id}: cannot rewrite it, its raw_content "
                        f"lines or line_ids do not number nlines={nlines}")
    return Decision(
        verdict="rewrite",
        fired_rules=sorted(set(fired)),
        rewritten=rewrite_document(doc, kept),
    )
