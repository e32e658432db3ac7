"""Deduplication primitives: Bloom-filter exact dedup over content
digests, MinHash + LSH banding for fuzzy dedup over signatures grouped by
identity, union-find clustering, and each shard's duplicates/ and
minhash/ sidecars (read_duplicates; shard_signatures reuses or writes).

A shingle is a window of SHINGLE_WIDTH normalized words (a shorter
document is one window of all its words). A window of k words w_j hashes
to sum_j h(w_j) * _SHINGLE_MULT^(k-1-j) mod 2^64, a multiply-add over
h = FNV-1a 64 of each word's UTF-8 bytes, the hash of the ML features.
content_signatures works on a whole shard at once: it encodes the
normalized texts once, hashes every word occurrence in one
mlmodels.fnv1a64_spans call, and takes every window of every text
from SHINGLE_WIDTH shifted multiply-adds over the shard's word hashes.

The signature is one-permutation MinHash (Li, Owen & Zhang 2012): each
shingle hash x is permuted once, y = a*x + b mod 2^64 with a odd, the top
7 bits of y pick one of NUM_PERMUTATIONS = 128 bins, and bin k holds the
smallest y that lands in it. An empty bin k copies the first non-empty
bin in _DENSIFY_ORDER[k], a fixed seeded order of all 128 bins
(densification in the manner of Shrivastava 2017). Component k keeps
the low 16 bits of splitmix64(y + k * gamma) (b-bit MinHash, Li & Koenig
2010): equal y stay equal, and two different ones agree by chance in
2^-16 of components, independently even for copies of one bin. A text
with no words is all-0xFFFF, which fuzzy dedup never groups or pairs.
SIGNATURE_VERSION names this definition in the minhash sidecar. The
estimator's unbiasedness is covered by tests rather than assumed.
"""

from __future__ import annotations

import base64
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_ascii
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError
from .mlmodels import fnv1a64_spans
from .records import content_digests, iter_json_objects, write_jsonl_gz
from .textnorm import normalize


# ---------------------------------------------------------------------------
# Bloom filter

LN2 = math.log(2.0)


class BloomFilter:
    """Bit-array Bloom filter sized from (capacity, target error):
    m = -n ln p / (ln 2)^2, k = round((m/n) ln 2). No false negatives;
    measured false-positive rate at design capacity ~= target error.

    Keys are content digests (records.content_digest), whose hex already
    holds a SHA-256, so the filter hashes nothing itself: a key's i-th
    index is (h1 + i * (h2 | 1)) mod m, double hashing over the last two
    64-bit words h1 and h2 of that hex (Kirsch & Mitzenmacher 2006)."""

    def __init__(self, capacity: int, error_rate: float = 0.01):
        if capacity < 1:
            raise ConfigError("bloom capacity must be >= 1")
        if not 0.0 < error_rate < 1.0:
            raise ConfigError("bloom error rate must be in (0, 1)")
        self.capacity = capacity
        try:
            self.num_bits = max(8, math.ceil(-capacity * math.log(error_rate) / (LN2 * LN2)))
            self.bits = bytearray((self.num_bits + 7) // 8)
        except (OverflowError, MemoryError) as exc:
            # Decimal sizes a capacity past the largest float too; imported
            # here, as no run that can allocate its filter needs the module
            from decimal import Decimal

            size = Decimal(capacity) * Decimal(-math.log(error_rate) / (8 * LN2 * LN2))
            raise ConfigError(
                f"bloom capacity {capacity} at error rate {error_rate} asks for "
                f"{size:.3g} bytes, more than can be allocated") from exc
        self.num_hashes = max(1, round(self.num_bits / capacity * LN2))
        self.inserted_count = 0
        self._warned = False

    def _indexes(self, digest: str) -> list[int]:
        h1, h2 = int(digest[-32:-16], 16), int(digest[-16:], 16) | 1
        m = self.num_bits
        return [(h1 + i * h2) % m for i in range(self.num_hashes)]

    def add(self, digest: str) -> None:
        for idx in self._indexes(digest):
            self.bits[idx >> 3] |= 1 << (idx & 7)
        self.inserted_count += 1
        if self.inserted_count > self.capacity and not self._warned:
            self._warned = True
            print(
                f"warning: bloom filter past design capacity {self.capacity} "
                f"(fill ratio {self.fill_ratio():.3f}); false-positive rate "
                "will exceed the target",
                file=sys.stderr,
            )

    def __contains__(self, digest: str) -> bool:
        return all(self.bits[i >> 3] & (1 << (i & 7)) for i in self._indexes(digest))

    def fill_ratio(self) -> float:
        view = memoryview(self.bits)  # counted 16 KiB at a time, never copied whole
        return sum(int.from_bytes(view[i:i + 16384], "little").bit_count()
                   for i in range(0, len(view), 16384)) / self.num_bits


# ---------------------------------------------------------------------------
# Exact dedup pass


@dataclass
class DuplicateRecord:
    doc_id: str
    shard: str
    kept_representative_id: str | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "doc_id": self.doc_id,
                "shard": self.shard,
                "representative_id": self.kept_representative_id,
            },
            ensure_ascii=False,
            separators=(",", ":"),
        )


def read_duplicates(path) -> set[str]:
    """The doc_ids of a duplicates sidecar; none when the shard has no
    sidecar. A line that is not a JSON object with a string doc_id is a
    DataError naming the file and the line."""
    if not os.path.exists(path):
        return set()
    return {raw["doc_id"] for _, raw in iter_json_objects(path, "doc_id")}


def exact_dedup_pass(
    entries: Iterable[tuple[str, str, str]], bloom: BloomFilter
) -> Iterator[DuplicateRecord]:
    """entries: (doc_id, shard, digest) in newest-to-oldest snapshot
    order, where digest is content_digest of the document's content. The
    Bloom filter alone decides membership, so memory stays at the
    filter's size and its false positives surface as duplicates,
    matching the 1%-error design. A filter cannot name the document it
    saw first, so records carry no representative. The first occurrence
    of a digest is never emitted."""
    for doc_id, shard, digest in entries:
        if digest in bloom:
            yield DuplicateRecord(doc_id=doc_id, shard=shard, kept_representative_id=None)
        else:
            bloom.add(digest)


# ---------------------------------------------------------------------------
# MinHash signatures

NUM_PERMUTATIONS = 128  # bins of the one permutation
SIGNATURE_VERSION = 3  # of the definition below; bump on any change to it
_SIGNATURE_BYTES = 2 * NUM_PERMUTATIONS  # of a signature in the minhash sidecar
SHINGLE_WIDTH = 13
_MINHASH_SEED = 0x5EED_1A57
_BIN_SHIFT = np.uint64(64 - 7)  # the top 7 bits pick one of 2^7 bins

_rng = np.random.default_rng(_MINHASH_SEED)
_MH_A, _MH_B = _rng.integers(0, 1 << 64, size=2, dtype=np.uint64, endpoint=False)
_MH_A |= np.uint64(1)  # odd, so x -> a*x + b mod 2^64 is a permutation
# row k: the order in which an empty bin k looks for a non-empty bin
_DENSIFY_ORDER = _rng.permuted(
    np.tile(np.arange(NUM_PERMUTATIONS, dtype=np.uint8), (NUM_PERMUTATIONS, 1)), axis=1)
_SHINGLE_MULT = np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 / golden ratio, splitmix64's gamma


def shingle_hashes(h: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(texts, hashes) of every window over `h`, the word hashes of
    consecutive texts of counts[t] normalized words each: the text each
    window lies in, and its hash (see the module docstring). A window
    never crosses from one text into the next."""
    n = len(h)
    ends = np.cumsum(counts)
    text_of = np.repeat(np.arange(len(counts)), counts)
    left = ends[text_of] - np.arange(n)  # words from each position to its text's end
    whole = np.flatnonzero((counts > 0) & (counts < SHINGLE_WIDTH))  # texts of one window
    first, widths = (ends - counts)[whole], counts[whole]
    short = np.empty(len(whole), dtype=np.uint64)
    padded = np.concatenate((h, np.zeros(SHINGLE_WIDTH - 1, dtype=np.uint64)))
    window = h.copy()  # Horner: the hash of the k words from each position
    for k in range(1, SHINGLE_WIDTH):
        done = widths == k
        short[done] = window[first[done]]
        window *= _SHINGLE_MULT
        window += padded[k:k + n]
    full = np.flatnonzero(left >= SHINGLE_WIDTH)
    return np.concatenate((text_of[full], whole)), np.concatenate((window[full], short))


def minhash_signatures(texts: np.ndarray, hashes: np.ndarray, n: int) -> np.ndarray:
    """The (n, NUM_PERMUTATIONS) uint16 signatures of texts 0..n-1, given
    the text and hash of each of their shingles, in any order and with
    repeats. A text without shingles is all-max."""
    values = hashes * _MH_A
    values += _MH_B
    cells = texts * NUM_PERMUTATIONS + (values >> _BIN_SHIFT).astype(np.intp)
    sigs = np.full(n * NUM_PERMUTATIONS, np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(sigs, cells, values)
    filled = np.zeros(n * NUM_PERMUTATIONS, dtype=bool)
    filled[cells] = True
    sigs, filled = sigs.reshape(n, NUM_PERMUTATIONS), filled.reshape(n, NUM_PERMUTATIONS)
    nonempty = filled.any(axis=1)
    rows, bins = np.nonzero(~filled & nonempty[:, np.newaxis])
    for probe in _DENSIFY_ORDER.T:  # every bin is in each order, so 128 probes fill all
        source = probe[bins]
        hit = filled[rows, source]
        sigs[rows[hit], bins[hit]] = sigs[rows[hit], source[hit]]
        rows, bins = rows[~hit], bins[~hit]
        if not len(rows):
            break
    # component k: splitmix64(y + k * gamma), a bijection, so that copies differ in low bits
    sigs += np.arange(NUM_PERMUTATIONS, dtype=np.uint64) * _SHINGLE_MULT
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        sigs ^= sigs >> np.uint64(shift)
        sigs *= np.uint64(mult)
    sigs ^= sigs >> np.uint64(31)
    sigs = sigs.astype(np.uint16)
    sigs[~nonempty] = np.iinfo(np.uint16).max
    return sigs


def content_signatures(contents: list[str]) -> tuple[list[int], np.ndarray]:
    """(slots, signatures) of a list of raw contents: the row of
    `signatures` holding the MinHash of each content's normalized words.
    Each distinct content gets one row. The normalized texts are joined
    by spaces and encoded once; each word is a run of non-space bytes,
    and all of them are hashed in one fnv1a64_spans call."""
    slot_of: dict[str, int] = {}
    slots = [slot_of.setdefault(text, len(slot_of)) for text in contents]
    texts = [normalize(text) for text in slot_of]
    counts = np.fromiter((text.count(" ") + 1 if text else 0 for text in texts),
                         dtype=np.intp, count=len(texts))
    buf = np.frombuffer(" ".join(texts).encode("utf-8"), dtype=np.uint8)
    spaces = np.flatnonzero(buf == ord(" "))
    starts = np.concatenate(([0], spaces + 1))
    lengths = np.concatenate((spaces, [len(buf)])) - starts
    word = lengths > 0  # an empty text leaves an empty run
    h = fnv1a64_spans(buf, starts[word], lengths[word])
    return slots, minhash_signatures(*shingle_hashes(h, counts), len(texts))


def shard_signatures(path, ids: list[str], contents: list[str], force: bool) -> np.ndarray:
    """The signatures of a shard's documents, row i for the one with id
    ids[i] and raw content contents[i]. Without `force`, a minhash sidecar
    at `path` that matches the shard (read_minhash) supplies them; else
    they are computed and the sidecar is written. A malformed sidecar is
    a DataError that names it and says that dedup --force recomputes it."""
    digests = content_digests(contents)
    if not force and os.path.exists(path):
        try:
            rows = read_minhash(path, ids, digests)
        except DataError as exc:
            raise DataError(f"{exc}; dedup --force recomputes it") from exc
        if rows is not None:
            return rows
    slots, signatures = content_signatures(contents)
    write_jsonl_gz(path, minhash_lines(ids, digests, slots, signatures))
    return signatures[slots]


def minhash_lines(ids: list[str], digests: list[str], slots: list[int],
                  signatures: np.ndarray) -> Iterator[str]:
    """The minhash sidecar lines of a shard, one {doc_id, digest,
    signature, version} record per document: document i's signature is
    row slots[i] of `signatures`, written as the base64 of its components'
    little-endian uint16 bytes, and `version` is SIGNATURE_VERSION, the
    definition that computed it. Each row is encoded once."""
    encoded = [base64.b64encode(row.tobytes()).decode("ascii")
               for row in signatures.astype("<u2", copy=False)]
    # the text json.dumps(record, separators=(",", ":")) gives
    for doc_id, digest, slot in zip(ids, digests, slots):
        yield (f'{{"doc_id":{_json_ascii(doc_id)},"digest":{_json_ascii(digest)},'
               f'"signature":"{encoded[slot]}","version":{SIGNATURE_VERSION}}}')


def read_minhash(path, ids: list[str], digests: list[str]) -> np.ndarray | None:
    """The signatures of a minhash sidecar, one uint16 row per record,
    when it holds one record per document, record i carries ids[i] and
    digests[i], and every record has version SIGNATURE_VERSION; None
    when it does not (a stale sidecar, which includes one from another
    signature definition). Each distinct signature is decoded once. A
    line that is not a JSON object with string doc_id, digest and
    signature, a signature that is not canonical base64, or one of
    version SIGNATURE_VERSION that is not the base64 of NUM_PERMUTATIONS
    uint16s, is a DataError naming the file and the line, stale or not."""
    slot_of: dict[str, int] = {}
    slots, found, rows = [], [], []
    for where, raw in iter_json_objects(path, "doc_id", "digest", "signature"):
        slot = slot_of.setdefault(raw["signature"], len(rows))
        if slot == len(rows):  # a signature not seen before in this file
            rows.append(_signature_bytes(raw["signature"], where))
        version = raw.get("version")
        if version == SIGNATURE_VERSION and len(rows[slot]) != _SIGNATURE_BYTES:
            raise DataError(f"{where}: signature is not the base64 of {_SIGNATURE_BYTES} bytes")
        slots.append(slot)
        found.append((raw["doc_id"], raw["digest"], version))
    if found != [(doc_id, digest, SIGNATURE_VERSION) for doc_id, digest in zip(ids, digests)]:
        return None
    signatures = np.frombuffer(b"".join(rows), "<u2").reshape(-1, NUM_PERMUTATIONS)
    return signatures[slots].astype(np.uint16, copy=False)


def _signature_bytes(text: str, where: str) -> bytes:
    """The bytes of a signature field, which must be canonical base64,
    else a DataError at `where`."""
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        data = b""
    if base64.b64encode(data).decode("ascii") != text:
        raise DataError(f"{where}: signature is not the base64 of {_SIGNATURE_BYTES} bytes")
    return data


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float | np.ndarray:
    """The share of equal components of two signatures, or of each pair
    of rows of two arrays of them."""
    return (sig_a == sig_b).mean(axis=-1)


# ---------------------------------------------------------------------------
# LSH banding


def pick_banding(level: float) -> tuple[int, int]:
    """(bands, rows) minimizing |(1/b)^(1/r) - level| subject to
    b * r <= NUM_PERMUTATIONS; ties prefer more rows per band (sharper
    bands, fewer spurious candidates)."""
    best = None
    for b in range(1, NUM_PERMUTATIONS + 1):
        for r in range(1, NUM_PERMUTATIONS // b + 1):
            threshold = (1.0 / b) ** (1.0 / r)
            key = (abs(threshold - level), -r)
            if best is None or key < best[0]:
                best = (key, b, r)
    assert best is not None
    return best[1], best[2]


def lsh_candidates(signatures: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """Position pairs (i, j), i < j, of the rows of `signatures` that share
    at least one identical band of `rows` consecutive components, once
    each and in ascending order, as an (m, 2) int64 array. Sorted, a
    band's equal slices form a run (a bucket), whose members each pair
    with every later one."""
    if bands * rows > NUM_PERMUTATIONS:
        raise ConfigError(
            f"bands*rows = {bands * rows} exceeds {NUM_PERMUTATIONS} components"
        )
    sigs = np.asarray(signatures).reshape(-1, NUM_PERMUTATIONS)
    n = len(sigs)
    keys = [np.empty(0, dtype=np.int64)]  # i * n + j of each pair
    for band in range(bands):
        part = sigs[:, band * rows:(band + 1) * rows]
        order = np.lexsort(part.T)  # stable: positions ascend within a bucket
        ranked = part[order]
        starts = np.flatnonzero(np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
        ends = np.append(starts[1:], n)
        later = np.repeat(ends, ends - starts) - np.arange(n) - 1  # members after each
        left = np.repeat(np.arange(n), later)
        # the k-th pair of sorted index i is (i, i + 1 + k)
        k = np.arange(len(left)) - np.repeat(np.cumsum(later) - later, later)
        keys.append(order[left].astype(np.int64) * n + order[left + 1 + k])
    return np.stack(np.divmod(np.unique(np.concatenate(keys)), max(n, 1)), axis=1)


# ---------------------------------------------------------------------------
# Union-find clustering


def cluster_and_select(
    candidates: Iterable[tuple[int, int]], docs: list[tuple[str, str]]
) -> list[DuplicateRecord]:
    """Union-find over candidate position pairs into `docs`, the
    (doc_id, shard) of each document in canonical order (snapshot
    newest-first, shard, position). Each root is the smallest position
    of its cluster, so the root is the kept representative, and records
    come out in canonical order whatever the order of the pairs."""
    parent = list(range(len(docs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in candidates:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    records = []
    for pos, (doc_id, shard) in enumerate(docs):
        root = find(pos)
        if root != pos:
            records.append(DuplicateRecord(
                doc_id=doc_id, shard=shard, kept_representative_id=docs[root][0]))
    return records


# ---------------------------------------------------------------------------
# Fuzzy dedup over distinct signatures


_EMPTY_KEY = b"\xff" * _SIGNATURE_BYTES  # the signature of a text without shingles
_JACCARD_CHUNK = 4096  # candidate pairs whose signatures are compared at once


class SignatureGroups:
    """Documents in canonical order and their MinHash signatures over
    the words of the normalized content, stored once per distinct
    signature (a group). A document without words is in no group."""

    def __init__(self) -> None:
        self.docs: list[tuple[str, str]] = []  # (doc_id, shard) by position
        self.groups: list[int] = []  # group of each position, -1 for none
        self._by_signature: dict[bytes, int] = {}  # in group order

    def add(self, ids: list[str], shard: str, signatures: np.ndarray) -> None:
        """Append a shard's documents, next in canonical order: ids[i]
        and its signature, row i of `signatures` (see shard_signatures)."""
        data = signatures.tobytes()
        for i, doc_id in enumerate(ids):
            key = data[i * _SIGNATURE_BYTES:(i + 1) * _SIGNATURE_BYTES]
            self.groups.append(-1 if key == _EMPTY_KEY else
                               self._by_signature.setdefault(key, len(self._by_signature)))
            self.docs.append((doc_id, shard))

    def duplicates(
        self, bands: int, rows: int, threshold: float
    ) -> tuple[list[DuplicateRecord], int]:
        """(records, pairs): the records of cluster_and_select, and the
        number of document pairs that share an LSH band and estimate
        Jaccard >= threshold, both as if computed over every grouped
        document's own signature. Members of a group share a signature,
        so each pair of them passes at any threshold in (0, 1], and two
        groups pass for every pair of their members or for none. So LSH
        and the Jaccard check run once per group pair, and linking each
        member to its group's first position, and each passing group pair
        through their first positions, gives the same clusters with the
        same roots."""
        groups = np.array(self.groups, dtype=np.int64)
        grouped = np.flatnonzero(groups >= 0)
        first = grouped[np.unique(groups[grouped], return_index=True)[1]]
        sizes = np.bincount(groups[grouped], minlength=len(first))
        members = grouped[first[groups[grouped]] != grouped]
        sigs = np.frombuffer(b"".join(self._by_signature), np.uint16).reshape(-1, NUM_PERMUTATIONS)
        a, b = lsh_candidates(sigs, bands, rows).T
        passed = np.zeros(len(a), dtype=bool)
        for i in range(0, len(a), _JACCARD_CHUNK):
            chunk = slice(i, i + _JACCARD_CHUNK)
            passed[chunk] = estimate_jaccard(sigs[a[chunk]], sigs[b[chunk]]) >= threshold
        a, b = a[passed], b[passed]
        pairs = int((sizes * (sizes - 1) // 2).sum() + (sizes[a] * sizes[b]).sum())
        edges = zip(np.concatenate((first[groups[members]], first[a])).tolist(),
                    np.concatenate((members, first[b])).tolist())
        return cluster_and_select(list(edges), self.docs), pairs
