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
import sys
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, get_origin, get_type_hints

from .errors import DataError, RecordError

_OPTIONAL_DOC_DEFAULTS = {"title": ""}
# A shard whose share of malformed document records exceeds this fails
# with a DataError instead of being read with the bad lines skipped.
ERROR_RATE_THRESHOLD = 0.01
# zlib's default; level 9 took 1.7-3.4x as long on these records for ~2% smaller files
GZIP_LEVEL = 6


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

    def to_json(self) -> str:
        record = {name: getattr(self, name) for name, _ in _DOC_FIELDS}
        return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


# (field name, runtime type) in declaration order, which is the key
# order of Document.to_json; list[int] checks as list
_DOC_FIELDS = tuple(
    (name, get_origin(hint) or hint)
    for name, hint in get_type_hints(Document).items()
)


def parse_document(json_line: str, line_number: int | None = None) -> Document:
    """Parse one JSONL document record. Raises RecordError for malformed
    JSON, wrong field types or a string holding a lone surrogate; schema
    invariants such as length == len(raw_content) are not checked.

    `json_line` must hold no lone surrogate itself, as a line that
    iter_jsonl_gz decoded as strict UTF-8 does. A lone surrogate can then
    only come from a \\ud800-\\udfff escape, so the fields of a line
    without "\\ud" or "\\uD" are not scanned for one."""
    try:
        raw = json.loads(json_line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"malformed JSON: {exc}", line_number=line_number)
    if not isinstance(raw, dict):
        raise RecordError("record is not a JSON object", line_number=line_number)
    escaped = "\\ud" in json_line or "\\uD" in json_line
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
        if typ is str and escaped and (at := lone_surrogate(value)) is not None:
            raise RecordError(
                f"field {name} holds a lone surrogate at character {at}",
                line_number=line_number,
            )
        values[name] = value
    if any(not isinstance(i, int) or isinstance(i, bool) for i in values["line_ids"]):
        raise RecordError(
            "field line_ids must be a list of integers", line_number=line_number
        )
    return Document(**values)


def lone_surrogate(text: str) -> int | None:
    """Index of the first lone surrogate in text, or None. A JSON escape
    such as "\\ud800" decodes to one, and no UTF-8 writer or hash can
    encode it."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


def content_digest(raw: str) -> str:
    """The `digest` field of a document with this content: "sha256:"
    and the lowercase hex SHA-256 of its UTF-8 bytes."""
    return "sha256:" + hashlib.sha256(raw.encode("utf-8")).hexdigest()


def document_id(doc: Document, ordinal: int) -> str:
    """The id of the document at position `ordinal` of its shard:
    "<cc_segment>/<ordinal>"."""
    return f"{doc.cc_segment}/{ordinal}"


@dataclass
class QualitySignalSet:
    """Dolma-style signal record: signal name -> [(start, end, score)]
    (lists, not tuples, in a record read from a sidecar)."""

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


@dataclass(frozen=True, order=True)  # ordered by snapshot, shard, language, bucket
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


# artifact kind -> path template of a shard's file, as in the upstream
# layout; filter writes its audit log next to its documents
_ARTIFACT_PATHS = {
    "documents": "documents/{}.json.gz",
    "audit": "documents/{}.audit.jsonl.gz",
    "quality_signals": "quality_signals/{}.signals.json.gz",
    "duplicates": "duplicates/{}.duplicates.jsonl.gz",
    "minhash": "minhash/{}.minhash.jsonl.gz",
}


def shard_path(addr: ShardAddress, kind: str) -> str:
    """Relative path of one shard artifact, e.g.
    documents/<snapshot>/<shard>/<lang>_<bucket>.json.gz."""
    if kind not in _ARTIFACT_PATHS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    return _ARTIFACT_PATHS[kind].format(addr.stem)


def parse_shard_path(path: str) -> tuple[ShardAddress, str]:
    """(address, kind) of a path that ends in a shard_path; ValueError
    for any other path, such as documents/<snapshot>/0/... for shard 0000."""
    parts = path.replace(os.sep, "/").split("/")[-4:]
    kind, snapshot_id, shard, filename = parts  # ValueError when fewer
    language, bucket = filename.split(".", 1)[0].split("_", 1)
    addr = ShardAddress(snapshot_id, int(shard), language, bucket)
    if shard_path(addr, kind) != "/".join(parts):
        raise ValueError(f"not a shard path: {path}")
    return addr, kind


def write_jsonl_gz(path: str | os.PathLike, lines: Iterable[str]) -> int:
    """Write one record per line, gzip with mtime=0 so identical content
    yields identical bytes. Returns the number of records written."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    count = 0
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb",
                               compresslevel=GZIP_LEVEL, mtime=0) as gz:
                for line in lines:
                    gz.write(line.encode("utf-8"))
                    gz.write(b"\n")
                    count += 1
        os.replace(tmp, path)
    except BaseException as exc:
        # also when producing a line fails: no partial .tmp stays behind
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"failed writing {path}: {exc}") from exc
        raise
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


def read_documents(path) -> list[Document]:
    """The documents of a shard. A malformed line is skipped with one
    warning on stderr; a shard whose share of them is above
    ERROR_RATE_THRESHOLD is a DataError."""
    docs, bad = [], 0
    for line_number, line in iter_jsonl_gz(path):
        try:
            docs.append(parse_document(line, line_number=line_number))
        except RecordError as exc:
            print(f"warning: {path}: {exc}", file=sys.stderr)
            bad += 1
    total = len(docs) + bad
    if total and bad / total > ERROR_RATE_THRESHOLD:
        raise DataError(
            f"{path}: {bad}/{total} bad records exceeds the "
            f"{ERROR_RATE_THRESHOLD:.0%} threshold"
        )
    return docs


def read_signals(path, ids: list[str]) -> list[QualitySignalSet]:
    """The signal records of a shard whose documents have `ids`, which
    the sidecar holds one per document in document order: record i must
    carry ids[i] and a JSON object of signals. Anything else is a
    DataError naming the file and the line. The signal lists are kept as
    parsed; evaluate checks the triples of the signals it reads."""
    records = []
    for line_number, line in iter_jsonl_gz(path):
        where = f"{path}: line {line_number}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: malformed JSON: {exc}") from exc
        i = len(records)
        if i == len(ids):
            raise DataError(f"{where}: extra record, the shard has {len(ids)} documents")
        found = raw.get("id") if isinstance(raw, dict) else None
        if found != ids[i]:
            raise DataError(f"{where}: record id {found!r}, expected {ids[i]!r}")
        signals = raw.get("quality_signals")
        if not isinstance(signals, dict):
            raise DataError(f"{where}: quality_signals is not a JSON object")
        records.append(QualitySignalSet(
            ids[i], raw.get("id_int", -1), raw.get("metadata", {}), signals))
    if len(records) < len(ids):
        raise DataError(f"{path}: {len(records)} records for {len(ids)} documents; "
                        f"no record for {ids[len(records)]}")
    return records


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
