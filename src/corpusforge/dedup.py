"""Deduplication primitives: Bloom-filter exact dedup, MinHash + LSH
banding for fuzzy dedup, and union-find clustering.

MinHash "permutations" are 128 independent seeded 64-bit affine hashes
(multiply-add over the base shingle hash, wrapping mod 2^64); the
estimator's unbiasedness is covered by tests rather than assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, RecordError
from .records import content_digest  # noqa: F401  (re-exported)


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# Bloom filter

LN2 = math.log(2.0)


class BloomFilter:
    """Bit-array Bloom filter sized from (capacity, target error):
    m = -n ln p / (ln 2)^2, k = round((m/n) ln 2). No false negatives;
    measured false-positive rate at design capacity ~= target error."""

    def __init__(self, capacity: int, error_rate: float = 0.01):
        if capacity < 1:
            raise ConfigError("bloom capacity must be >= 1")
        if not 0.0 < error_rate < 1.0:
            raise ConfigError("bloom error rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        self.num_bits = max(8, math.ceil(-capacity * math.log(error_rate) / (LN2 * LN2)))
        self.num_hashes = max(1, round(self.num_bits / capacity * LN2))
        self.bits = bytearray((self.num_bits + 7) // 8)
        self.inserted_count = 0
        self._warned = False

    def _indexes(self, key: str) -> list[int]:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        m = self.num_bits
        return [(h1 + i * h2) % m for i in range(self.num_hashes)]

    def add(self, key: str) -> None:
        for idx in self._indexes(key):
            self.bits[idx >> 3] |= 1 << (idx & 7)
        self.inserted_count += 1
        if self.inserted_count > self.capacity and not self._warned:
            self._warned = True
            warnings.warn(
                f"bloom filter past design capacity {self.capacity} "
                f"(fill ratio {self.fill_ratio():.3f}); false-positive rate "
                "will exceed the target",
                stacklevel=2,
            )

    def __contains__(self, key: str) -> bool:
        return all(self.bits[i >> 3] & (1 << (i & 7)) for i in self._indexes(key))

    def fill_ratio(self) -> float:
        set_bits = sum(bin(b).count("1") for b in self.bits)
        return set_bits / self.num_bits


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


def exact_dedup_pass(
    entries: Iterable[tuple[str, str, str]], bloom: BloomFilter
) -> Iterator[DuplicateRecord]:
    """entries: (doc_id, shard, digest) in newest-to-oldest snapshot
    order. The Bloom filter decides membership (so its false positives
    surface as duplicates, matching the 1%-error design); a side table
    attributes the kept representative where the digest was really seen.
    The first occurrence of a digest is never emitted."""
    representatives: dict[str, str] = {}
    for doc_id, shard, digest in entries:
        if digest in bloom:
            yield DuplicateRecord(
                doc_id=doc_id,
                shard=shard,
                kept_representative_id=representatives.get(digest),
            )
        else:
            bloom.add(digest)
            representatives[digest] = doc_id


# ---------------------------------------------------------------------------
# MinHash signatures

NUM_PERMUTATIONS = 128
SHINGLE_WIDTH = 13
_MINHASH_SEED = 0x5EED_1A57

_rng = np.random.default_rng(_MINHASH_SEED)
_MH_A = (_rng.integers(0, 1 << 63, size=NUM_PERMUTATIONS, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
_MH_B = _rng.integers(0, 1 << 63, size=NUM_PERMUTATIONS, dtype=np.uint64)


def shingles(words: list[str], width: int = SHINGLE_WIDTH) -> set[bytes]:
    """Consecutive word 13-grams of the normalized text; documents
    shorter than the width use the whole document as one shingle."""
    if not words:
        return set()
    if len(words) < width:
        return {"\x1f".join(words).encode("utf-8")}
    return {
        "\x1f".join(words[i : i + width]).encode("utf-8")
        for i in range(len(words) - width + 1)
    }


def minhash_signature(shingle_set: set[bytes]) -> np.ndarray:
    """128 uint64 minima, one per seeded affine hash. Identical shingle
    sets yield identical signatures; an empty set maps to all-max."""
    if not shingle_set:
        return np.full(NUM_PERMUTATIONS, np.iinfo(np.uint64).max, dtype=np.uint64)
    base = np.fromiter(
        (_hash64(s) for s in shingle_set), dtype=np.uint64, count=len(shingle_set)
    )
    with np.errstate(over="ignore"):
        values = base[:, None] * _MH_A[None, :] + _MH_B[None, :]
    return values.min(axis=0)


def minhash_for_words(words: list[str], width: int = SHINGLE_WIDTH) -> np.ndarray:
    return minhash_signature(shingles(words, width))


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


# ---------------------------------------------------------------------------
# LSH banding

DEFAULT_BANDS = 9
DEFAULT_ROWS = 13
JACCARD_LEVELS = (0.7, 0.8, 0.9, 1.0)


def pick_banding(level: float, num_perm: int = NUM_PERMUTATIONS) -> tuple[int, int]:
    """(bands, rows) minimizing |(1/b)^(1/r) - level| subject to
    b * r <= num_perm; ties prefer more rows per band (sharper bands,
    fewer spurious candidates)."""
    best = None
    for b in range(1, num_perm + 1):
        for r in range(1, num_perm // b + 1):
            threshold = (1.0 / b) ** (1.0 / r)
            key = (abs(threshold - level), -r)
            if best is None or key < best[0]:
                best = (key, b, r)
    assert best is not None
    return best[1], best[2]


def detection_probability(jaccard: float, bands: int, rows: int) -> float:
    return 1.0 - (1.0 - jaccard**rows) ** bands


def lsh_candidates(
    signatures: Iterable[tuple[str, np.ndarray]],
    bands: int = DEFAULT_BANDS,
    rows: int = DEFAULT_ROWS,
) -> set[tuple[str, str]]:
    """Pairs of ids sharing at least one identical band of `rows`
    consecutive signature components."""
    if bands * rows > NUM_PERMUTATIONS:
        raise ConfigError(
            f"bands*rows = {bands * rows} exceeds {NUM_PERMUTATIONS} components"
        )
    tables: list[dict[bytes, list[str]]] = [{} for _ in range(bands)]
    pairs: set[tuple[str, str]] = set()
    for doc_id, sig in signatures:
        for band in range(bands):
            key = sig[band * rows : (band + 1) * rows].tobytes()
            bucket = tables[band].setdefault(key, [])
            for other in bucket:
                if other != doc_id:
                    pairs.add((other, doc_id) if other < doc_id else (doc_id, other))
            bucket.append(doc_id)
    return pairs


# ---------------------------------------------------------------------------
# Union-find clustering


class UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent.setdefault(ra, ra)
            self.parent[rb] = ra

    def clusters(self) -> dict[str, list[str]]:
        groups: dict[str, list[str]] = {}
        for node in self.parent:
            groups.setdefault(self.find(node), []).append(node)
        return groups


def cluster_and_select(
    candidates: Iterable[tuple[str, str]],
    order: dict[str, int],
    shards: dict[str, str] | None = None,
) -> list[DuplicateRecord]:
    """Union-find over candidate pairs; within each cluster the document
    first in the canonical order (snapshot newest-first, shard,
    position) is kept and all others are emitted. Output is sorted, so
    shuffled pair input yields identical records."""
    uf = UnionFind()
    for a, b in candidates:
        if a not in order:
            raise RecordError(f"unknown doc id {a!r} in candidate pair")
        if b not in order:
            raise RecordError(f"unknown doc id {b!r} in candidate pair")
        uf.union(a, b)
    records = []
    for members in uf.clusters().values():
        if len(members) < 2:
            continue
        members.sort(key=lambda d: order[d])
        representative = members[0]
        for doc_id in members[1:]:
            records.append(
                DuplicateRecord(
                    doc_id=doc_id,
                    shard=shards.get(doc_id, "") if shards else "",
                    kept_representative_id=representative,
                )
            )
    records.sort(key=lambda r: order[r.doc_id])
    return records
