"""Document and signal record schemas, shard naming, compressed JSONL IO.

All character offsets are Unicode code-point counts, never bytes, so the
span triples in signal records are stable across encodings. Writers emit
a fixed key order and gzip with mtime=0 so reruns are byte-comparable.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from .errors import DataError, RecordError

LANGUAGES = ("en", "de", "fr", "es", "it")
BUCKETS = ("head", "middle", "tail")

_DOC_FIELDS = (
    ("url", str),
    ("date_download", str),
    ("digest", str),
    ("length", int),
    ("nlines", int),
    ("source_domain", str),
    ("title", str),
    ("raw_content", str),
    ("cc_segment", str),
    ("original_nlines", int),
    ("original_length", int),
    ("line_ids", list),
    ("language", str),
    ("language_score", float),
    ("perplexity", float),
    ("bucket", str),
)

_OPTIONAL_DOC_DEFAULTS = {"title": ""}


@dataclass
class Document:
    """One web-text record with CCNet-style metadata."""

    url: str
    date_download: str
    digest: str
    length: int
    nlines: int
    source_domain: str
    title: str
    raw_content: str
    cc_segment: str
    original_nlines: int
    original_length: int
    line_ids: list[int]
    language: str
    language_score: float
    perplexity: float
    bucket: str

    def invariant_warnings(self) -> list[str]:
        """Check schema invariants; violations are reported, not fatal."""
        warnings = []
        nlines = self.raw_content.count("\n") + 1 if self.raw_content else 0
        if self.nlines != nlines:
            warnings.append(
                f"nlines={self.nlines} but raw_content has {nlines} lines"
            )
        if self.length != len(self.raw_content):
            warnings.append(
                f"length={self.length} but raw_content has "
                f"{len(self.raw_content)} characters"
            )
        if len(self.line_ids) != self.nlines:
            warnings.append(
                f"line_ids has {len(self.line_ids)} entries, nlines={self.nlines}"
            )
        if any(b <= a for a, b in zip(self.line_ids, self.line_ids[1:])):
            warnings.append("line_ids is not strictly increasing")
        if any(i >= self.original_nlines for i in self.line_ids):
            warnings.append("line_ids entry >= original_nlines")
        if self.original_nlines < self.nlines:
            warnings.append("original_nlines < nlines")
        if self.original_length < self.length:
            warnings.append("original_length < length")
        if self.bucket not in BUCKETS:
            warnings.append(f"unknown bucket {self.bucket!r}")
        if self.language not in LANGUAGES:
            warnings.append(f"unknown language {self.language!r}")
        return warnings

    def to_json(self) -> str:
        record = {name: getattr(self, name) for name, _ in _DOC_FIELDS}
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def parse_document(json_line: str, line_number: int | None = None) -> Document:
    """Parse one JSONL document record. Raises RecordError for malformed
    JSON or wrong field types; invariant violations are only warnings."""
    try:
        raw = json.loads(json_line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"malformed JSON: {exc}", line_number=line_number)
    if not isinstance(raw, dict):
        raise RecordError("record is not a JSON object", line_number=line_number)
    values = {}
    for name, typ in _DOC_FIELDS:
        if name not in raw:
            if name in _OPTIONAL_DOC_DEFAULTS:
                values[name] = _OPTIONAL_DOC_DEFAULTS[name]
                continue
            raise RecordError(
                f"missing required field {name}", line_number=line_number
            )
        value = raw[name]
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if typ is int and isinstance(value, bool):
            raise RecordError(
                f"field {name} has wrong type bool", line_number=line_number
            )
        if not isinstance(value, typ):
            raise RecordError(
                f"field {name} has wrong type {type(value).__name__}",
                line_number=line_number,
            )
        values[name] = value
    if any(not isinstance(i, int) or isinstance(i, bool) for i in values["line_ids"]):
        raise RecordError(
            "field line_ids must be a list of integers", line_number=line_number
        )
    return Document(**values)


def content_digest(raw: str) -> str:
    """The `digest` field of a document with this content: "sha256:"
    and the lowercase hex SHA-256 of its UTF-8 bytes."""
    return "sha256:" + hashlib.sha256(raw.encode("utf-8")).hexdigest()


def document_id(doc: Document, ordinal: int | None = None) -> tuple[str, int]:
    """Derive (id, id_int). Uses "<cc_segment>/<ordinal>" when a per-shard
    ordinal is available, otherwise the content digest with id_int=-1."""
    if ordinal is not None:
        return f"{doc.cc_segment}/{ordinal}", ordinal
    return doc.digest, -1


# Signals whose score encodes a category id and may legitimately carry
# zero or several document-level triples.
CATEGORICAL_SIGNALS = frozenset({"rps_doc_ut1_blacklist"})


@dataclass
class QualitySignalSet:
    """Dolma-style signal record: signal name -> [(start, end, score)]."""

    id: str
    id_int: int
    metadata: dict
    quality_signals: dict[str, list[tuple[int, int, float]]] = field(
        default_factory=dict
    )

    def invariant_warnings(self, doc_length: int | None = None) -> list[str]:
        warnings = []
        for name, triples in self.quality_signals.items():
            for start, end, _score in triples:
                if start > end:
                    warnings.append(f"{name}: start {start} > end {end}")
            if name in CATEGORICAL_SIGNALS:
                continue
            if name.startswith("rps_lines_"):
                pos = 0
                for start, end, _score in triples:
                    if start != pos:
                        warnings.append(f"{name}: spans do not tile (gap at {pos})")
                        break
                    pos = end
                if doc_length is not None and triples and pos != doc_length:
                    warnings.append(f"{name}: spans end at {pos}, not {doc_length}")
            else:
                if len(triples) != 1:
                    warnings.append(f"{name}: expected one document-level triple")
                elif doc_length is not None:
                    start, end, _score = triples[0]
                    if (start, end) != (0, doc_length):
                        warnings.append(f"{name}: span ({start},{end}) != (0,{doc_length})")
        return warnings

    def to_json(self) -> str:
        record = {
            "id": self.id,
            "id_int": self.id_int,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "quality_signals": {
                name: [list(t) for t in self.quality_signals[name]]
                for name in sorted(self.quality_signals)
            },
        }
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def parse_signal_record(json_line: str, line_number: int | None = None) -> QualitySignalSet:
    try:
        raw = json.loads(json_line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"malformed JSON: {exc}", line_number=line_number)
    try:
        return QualitySignalSet(
            id=raw["id"],
            id_int=raw["id_int"],
            metadata=dict(raw["metadata"]),
            quality_signals={
                name: [tuple(t) for t in triples]
                for name, triples in raw["quality_signals"].items()
            },
        )
    except (KeyError, TypeError) as exc:
        raise RecordError(f"bad signal record: {exc!r}", line_number=line_number)


@dataclass(frozen=True)
class ShardAddress:
    snapshot_id: str
    shard_id: int
    language: str
    bucket: str

    def __post_init__(self):
        if not 0 <= self.shard_id <= 4999:
            raise ValueError(f"shard_id {self.shard_id} outside [0, 4999]")

    @property
    def stem(self) -> str:
        return f"{self.snapshot_id}/{self.shard_id:04d}/{self.language}_{self.bucket}"

    def __str__(self):
        return self.stem


def shard_path(addr: ShardAddress, kind: str) -> str:
    """Relative path of one shard artifact, mirroring the upstream layout:
    documents/<snapshot>/<shard>/<lang>_<bucket>.json.gz etc."""
    if kind == "documents":
        return f"documents/{addr.stem}.json.gz"
    if kind == "quality_signals":
        return f"quality_signals/{addr.stem}.signals.json.gz"
    if kind == "duplicates":
        return f"duplicates/{addr.stem}.duplicates.jsonl.gz"
    if kind == "minhash":
        return f"minhash/{addr.stem}.minhash.jsonl.gz"
    raise ValueError(f"unknown artifact kind {kind!r}")


def parse_shard_path(path: str) -> tuple[ShardAddress, str]:
    """Inverse of shard_path; accepts any known suffix."""
    parts = path.replace(os.sep, "/").split("/")
    if len(parts) < 4:
        raise ValueError(f"not a shard path: {path}")
    kind, snapshot_id, shard, filename = parts[-4:]
    lang_bucket = filename.split(".", 1)[0]
    language, bucket = lang_bucket.split("_", 1)
    return ShardAddress(snapshot_id, int(shard), language, bucket), kind


def write_jsonl_gz(path: str | os.PathLike, lines: Iterable[str]) -> int:
    """Write one record per line, gzip with mtime=0 so identical content
    yields identical bytes. Returns the number of records written."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    count = 0
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                for line in lines:
                    gz.write(line.encode("utf-8"))
                    gz.write(b"\n")
                    count += 1
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"failed writing {path}: {exc}") from exc
    return count


def iter_jsonl_gz(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Yield (line_number, line) pairs; line numbers start at 1."""
    path = os.fspath(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield line_number, line
    except OSError as exc:
        raise OSError(f"failed reading {path}: {exc}") from exc
    except (EOFError, UnicodeDecodeError) as exc:
        # a truncated gzip stream or bytes that are not UTF-8
        raise DataError(f"failed reading {path}: {exc}") from exc


def read_shard(path, parser):
    """Read a full shard, tolerating malformed lines: returns
    (records, errors) where len(records) + len(errors) == total lines."""
    records, errors = [], []
    for line_number, line in iter_jsonl_gz(path):
        try:
            records.append(parser(line, line_number=line_number))
        except RecordError as exc:
            errors.append(exc)
    return records, errors


def read_documents(path) -> tuple[list[Document], list[RecordError]]:
    return read_shard(path, parse_document)


def read_signal_records(path) -> tuple[list[QualitySignalSet], list[RecordError]]:
    return read_shard(path, parse_signal_record)


def rewrite_document(doc: Document, kept_line_indexes: list[int]) -> Document:
    """Return a copy of doc keeping only the given current-line indexes,
    with length/nlines/line_ids/digest bookkeeping recomputed."""
    lines = doc.raw_content.split("\n")
    kept = [lines[i] for i in kept_line_indexes]
    content = "\n".join(kept)
    return replace(
        doc,
        raw_content=content,
        length=len(content),
        nlines=len(kept),
        line_ids=[doc.line_ids[i] for i in kept_line_indexes],
        digest=content_digest(content),
    )
