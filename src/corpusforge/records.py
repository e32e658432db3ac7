"""Document and signal record schemas, content digests, shard naming,
compressed JSONL IO.

All character offsets are Unicode code-point counts, never bytes, so the
span triples in signal records are stable across encodings. Writers emit
a fixed key order and gzip with mtime=0 so reruns are byte-comparable.
signal_lines writes a shard's signal records straight from per-signal
columns, as json.dumps writes a record with sorted keys; non-finite
scores are written as NaN, Infinity and -Infinity, as json.dumps does.
Every reader takes a file in one pass (iter_jsonl_gz: one read,
decompress and decode, lines split at "\\n" only) and parses a line with
one function, and a bad line is a DataError naming the file and the
line, except that read_documents skips a bad document line and returns
a warning about it, which the shard driver prints in the main process.
iter_signal_records yields the signals of a sidecar's records one at a
time, each checked against its document's id, for filter.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Iterator, get_origin, get_type_hints

from .errors import DataError
from .signal_catalog import CATEGORICAL_SIGNALS, LINE_SIGNALS

_OPTIONAL_DOC_DEFAULTS = {"title": ""}
# A shard whose share of malformed document records exceeds this fails
# with a DataError instead of being read with the bad lines skipped.
ERROR_RATE_THRESHOLD = 0.01
# zlib's default; level 9 took 1.7-3.4x as long on these records for ~2% smaller files
GZIP_LEVEL = 6
# characters of lines write_jsonl_gz encodes and compresses at once; larger
# batches took no less time and hold more memory
WRITE_BATCH = 1 << 16


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


# float() of an integer outside (-_FLOAT_INTS, _FLOAT_INTS) rounds past
# the largest float
_FLOAT_INTS = 2**1024 - 2**970

# (field name, runtime type) in declaration order, which is the key
# order of Document.to_json; list[int] checks as list
_DOC_FIELDS = tuple(
    (name, get_origin(hint) or hint)
    for name, hint in get_type_hints(Document).items()
)
# the keys, then the value types, of a record parse_document accepts at
# once, and the positions of its int and its str fields
_WELL_FORMED = [*(name for name, _ in _DOC_FIELDS), *(typ for _, typ in _DOC_FIELDS)]
_INT_FIELDS = [i for i, (_, typ) in enumerate(_DOC_FIELDS) if typ is int]
_STR_FIELDS = [i for i, (_, typ) in enumerate(_DOC_FIELDS) if typ is str]


def parse_document(json_line: str, line_number: int | None = None) -> Document:
    """Parse one JSONL document record. Raises DataError for a line that
    is not a JSON object, a missing field, a wrong field type, an integer
    too large for a float or a string holding a lone surrogate, its
    message led by "line <line_number>: " when one is given; schema
    invariants such as length == len(raw_content) are not checked.
    A record holding just the fields, in to_json's order and of their
    types, is accepted by one comparison; any other goes through the
    per-field loop, which converts an int in a float field, fills in a
    missing title or names the fault. Both check each string field with
    lone_surrogate, which an ASCII string passes at once."""
    try:
        raw = _json_object(json_line)
        values = [*raw.values()]
        if ([*raw, *map(type, values)] == _WELL_FORMED
                and all(-_FLOAT_INTS < values[i] < _FLOAT_INTS for i in _INT_FIELDS)
                and {int}.issuperset(map(type, raw["line_ids"]))
                and all(lone_surrogate(values[i]) is None for i in _STR_FIELDS)):
            return Document(*values)
        values = {}
        for name, typ in _DOC_FIELDS:
            if name not in raw:
                if name in _OPTIONAL_DOC_DEFAULTS:
                    values[name] = _OPTIONAL_DOC_DEFAULTS[name]
                    continue
                raise DataError(f"missing required field {name}")
            value = raw[name]
            if typ is not str and type(value) is int and not -_FLOAT_INTS < value < _FLOAT_INTS:
                # each number is, or becomes, a float signal score
                raise DataError(f"field {name} is an integer too large for a float")
            if typ is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if typ is int and isinstance(value, bool):
                raise DataError(f"field {name} has wrong type bool")
            if not isinstance(value, typ):
                raise DataError(f"field {name} has wrong type {type(value).__name__}")
            if typ is str and (at := lone_surrogate(value)) is not None:
                raise DataError(f"field {name} holds a lone surrogate at character {at}")
            values[name] = value
        if any(not isinstance(i, int) or isinstance(i, bool) for i in values["line_ids"]):
            raise DataError("field line_ids must be a list of integers")
    except DataError as exc:
        if line_number is None:
            raise
        raise DataError(f"line {line_number}: {exc}") from exc
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


def content_digests(contents: list[str]) -> list[str]:
    """content_digest of each content, computed once per distinct content."""
    digest_of = {text: content_digest(text) for text in dict.fromkeys(contents)}
    return [digest_of[text] for text in contents]


def document_id(doc: Document, ordinal: int) -> str:
    """The id of the document at position `ordinal` of its shard:
    "<cc_segment>/<ordinal>"."""
    return f"{doc.cc_segment}/{ordinal}"


_encode_string = json.JSONEncoder(ensure_ascii=False).encode
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _numbers(values) -> list[str]:
    """The JSON text of each value as a float, as json.dumps writes it."""
    return [_NON_FINITE.get(r, r) for r in map(repr, map(float, values))]


def signal_lines(ids: list[str], metadata: dict[str, list[str]], lengths: list[int],
                 line_spans: tuple[list[int], list[int], list[int]],
                 columns: dict[str, list]) -> list[str]:
    """The sidecar line of each document of a shard, the text that
    json.dumps(record, ensure_ascii=False, separators=(",", ":"),
    sort_keys=True) gives for its record. Document d has id
    ids[d], id_int d, metadata[key][d] (a string) under each key, and
    length lengths[d]; line_spans holds each document's number of lines,
    then the starts and the ends of all lines. A column holds a score per
    document, whose triple spans the whole document, a list of category
    ids per document for a CATEGORICAL_SIGNALS name, or a score per line
    for a LINE_SIGNALS name."""
    counts, starts, ends = line_spans
    firsts = list(accumulate(counts, initial=0))
    spans = [f"[{start},{end}," for start, end in zip(starts, ends)]
    whole = [f"[0,{length}," for length in lengths]

    def fragments(name: str, values: list) -> list[str]:
        key = _encode_string(name)
        if name in LINE_SIGNALS:
            triples = [f"{span}{v}]" for span, v in zip(spans, _numbers(values))]
            return [f"{key}:[{','.join(triples[a:b])}]" for a, b in zip(firsts, firsts[1:])]
        if name in CATEGORICAL_SIGNALS:
            return [f"{key}:[{','.join(f'{span}{v}]' for v in _numbers(ids_))}]"
                    for span, ids_ in zip(whole, values)]
        return [f"{key}:[{span}{v}]]" for span, v in zip(whole, _numbers(values))]

    meta = [[f"{_encode_string(key)}:{_encode_string(value)}" for value in metadata[key]]
            for key in sorted(metadata)]
    signals = [fragments(name, columns[name]) for name in sorted(columns)]
    return [f'{{"id":{_encode_string(doc_id)},"id_int":{d},'
            f'"metadata":{{{",".join(part[d] for part in meta)}}},'
            f'"quality_signals":{{{",".join(part[d] for part in signals)}}}}}'
            for d, doc_id in enumerate(ids)]



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
    yields identical bytes. Returns the number of records written. Lines
    are encoded and compressed in batches of about WRITE_BATCH characters,
    so a write holds one batch of text at a time; a deflate stream does
    not depend on how its input is split, so the bytes are those of one
    write per line."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    count = 0
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb",
                               compresslevel=GZIP_LEVEL, mtime=0) as gz:
                for batch in _batches(lines):
                    count += len(batch)
                    batch.append("")  # the last line's newline
                    gz.write("\n".join(batch).encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as exc:
        # also when producing a line fails: no partial .tmp stays behind
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"failed writing {path}: {exc}") from exc
        raise
    return count


def _batches(lines: Iterable[str]) -> Iterator[list[str]]:
    """The lines in order, in lists that each end at the first line that
    brings their length to WRITE_BATCH characters, and a last list of the
    rest, if any."""
    batch, size = [], 0
    for line in lines:
        batch.append(line)
        size += len(line)
        if size >= WRITE_BATCH:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def iter_jsonl_gz(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Yield (line_number, line) pairs of the lines holding more than
    "\\r"s; line numbers start at 1. The file is read, decompressed and
    decoded in one call, and its lines stay in memory until the last is
    read. Lines end at "\\n" only, and a "\\r" just before it belongs to
    the line ending; any other "\\r" stays in its line, where JSON reads it
    as whitespace."""
    for line_number, line in enumerate(_read_text(os.fspath(path)).split("\n"), start=1):
        if line.strip("\r"):
            yield line_number, line


def _read_text(path: str) -> str:
    """The text of a (gzip) UTF-8 file, "\\r\\n" read as "\\n"."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".gz"):
            data = gzip.decompress(data)  # every member, as gzip.open reads them
        text = data.decode("utf-8")
    except OSError as exc:
        raise OSError(f"failed reading {path}: {exc}") from exc
    except (EOFError, zlib.error, UnicodeDecodeError) as exc:
        # a truncated or corrupt gzip stream, or bytes that are not UTF-8
        raise DataError(f"failed reading {path}: {exc}") from exc
    del data  # before the replace copies the text
    return text.replace("\r\n", "\n") if "\r" in text else text


def _json_object(line: str) -> dict:
    """The JSON object on one JSONL line; a DataError for a line that is
    not one, which the caller prefixes with the line's location."""
    try:
        raw = json.loads(line)
    # RecursionError: nested too deep; ValueError: malformed, or an integer
    # past Python's limit on the digits of an integer it converts
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("record is not a JSON object")
    return raw


def read_documents(path) -> tuple[list[Document], list[str]]:
    """(documents, warnings) of a shard. A malformed line is skipped with
    one warning, a "warning: " line naming the file and the line for the
    caller to print; a shard whose share of them is above
    ERROR_RATE_THRESHOLD is a DataError."""
    docs, warnings = [], []
    for line_number, line in iter_jsonl_gz(path):
        try:
            docs.append(parse_document(line, line_number=line_number))
        except DataError as exc:
            warnings.append(f"warning: {path}: {exc}\n")
    total = len(docs) + len(warnings)
    if total and len(warnings) / total > ERROR_RATE_THRESHOLD:
        raise DataError(
            f"{path}: {len(warnings)}/{total} bad records exceeds the "
            f"{ERROR_RATE_THRESHOLD:.0%} threshold"
        )
    return docs, warnings


def iter_json_objects(path, *strings: str) -> Iterator[tuple[str, dict]]:
    """(where, record) for each line of a JSONL file, where `where` is
    "<path>: line <n>" for the caller's own checks. A line that is not a
    JSON object, or whose fields named in `strings` are not all strings,
    is a DataError naming the file and the line."""
    for line_number, line in iter_jsonl_gz(path):
        where = f"{path}: line {line_number}"
        try:
            raw = _json_object(line)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        for key in strings:
            if not isinstance(raw.get(key), str):
                raise DataError(f"{where}: field {key} is missing or not a string")
        yield where, raw


def iter_signal_records(path, ids: list[str]) -> Iterator[dict]:
    """The quality_signals object of each record of the signals sidecar of
    a shard whose documents have `ids`, which holds one record per
    document in document order: record i must carry ids[i] and a JSON
    object of signals. Anything else is a DataError naming the file and
    the line, raised when the reader comes to it."""
    read = 0
    for d, (where, raw) in enumerate(iter_json_objects(path)):
        if d == len(ids):
            raise DataError(f"{where}: extra record, the shard has {len(ids)} documents")
        if raw.get("id") != ids[d]:
            raise DataError(f"{where}: record id {raw.get('id')!r}, expected {ids[d]!r}")
        signals = raw.get("quality_signals")
        if not isinstance(signals, dict):
            raise DataError(f"{where}: quality_signals is not a JSON object")
        read = d + 1
        yield signals
    if read < len(ids):
        raise DataError(f"{path}: {read} records for {len(ids)} documents; "
                        f"no record for {ids[read]}")


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
