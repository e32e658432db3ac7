"""Record schemas, shard naming, and compressed JSONL IO."""

import gzip
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusforge
from corpusforge import records
from corpusforge.errors import DataError
from corpusforge.records import (
    Document,
    ShardAddress,
    content_digest,
    document_id,
    iter_json_objects,
    iter_signal_records,
    lone_surrogate,
    parse_document,
    parse_shard_path,
    read_documents,
    rewrite_document,
    shard_path,
    signal_lines,
    write_jsonl_gz,
    iter_jsonl_gz,
)
from corpusforge.signal_catalog import ALL_SIGNALS, CATEGORICAL_SIGNALS, LINE_SIGNALS

from conftest import make_doc
from oracles import (
    QualitySignalSet,
    document_invariant_warnings,
    oracle_parse_document,
    signal_invariant_warnings,
)


def test_document_roundtrip():
    doc = make_doc("Hello there.\nSecond line.")
    parsed = parse_document(doc.to_json())
    assert parsed == doc
    assert document_invariant_warnings(parsed) == []


def test_parse_document_errors():
    with pytest.raises(DataError, match="malformed JSON"):
        parse_document("{not json", line_number=3)
    with pytest.raises(DataError, match="missing required field url"):
        parse_document("{}")
    record = json.loads(make_doc("x").to_json())
    del record["raw_content"]
    with pytest.raises(DataError, match="missing required field raw_content"):
        parse_document(json.dumps(record))
    record = json.loads(make_doc("x").to_json())
    record["length"] = "5"
    with pytest.raises(DataError, match="wrong type"):
        parse_document(json.dumps(record))
    record = json.loads(make_doc("x").to_json())
    record["nlines"] = True  # bool is not an int here
    with pytest.raises(DataError, match="wrong type bool"):
        parse_document(json.dumps(record))


def test_parse_document_rejects_lone_surrogates():
    record = json.loads(make_doc("fine").to_json())
    record["raw_content"] = "ok \ud800 then"
    line = json.dumps(record)  # ensure_ascii: the surrogate is a \ud800 escape
    with pytest.raises(DataError, match="field raw_content holds a lone surrogate"):
        parse_document(line, line_number=4)
    record["raw_content"] = "pair \ud83d\ude00 and naïve"  # an escaped pair is fine
    assert parse_document(json.dumps(record)).raw_content == "pair \U0001f600 and naïve"


@pytest.mark.parametrize("escape", ["\\ud800", "\\uD800", "\\uDfFf", "\\uDE00\\uD83D"])
def test_lone_surrogate_escape_in_either_case_is_found(escape):
    line = make_doc("fine").to_json().replace('"fine"', f'"a{escape}b"')
    with pytest.raises(DataError, match="field raw_content holds a lone surrogate"):
        parse_document(line)
    line = line.replace(escape, "\\uD83D\\uDE00")
    assert parse_document(line).raw_content == "a\U0001f600b"


# (changes, path): a record whose fields all have their types is accepted
# by one comparison; an int in a float field sends it through the loop
_PATHS = [({}, "one-comparison"), ({"language_score": 1}, "per-field")]


@pytest.mark.parametrize("changes", [c for c, _ in _PATHS], ids=[i for _, i in _PATHS])
@pytest.mark.parametrize("ensure_ascii", [False, True])
def test_non_ascii_fields_without_surrogates_are_accepted(changes, ensure_ascii):
    record = json.loads(make_doc("naïve 日本 \U0001F600\n\\ud800 is text").to_json())
    record.update(title="Café", url="http://example.com/ü", **changes)
    line = json.dumps(record, ensure_ascii=ensure_ascii)
    # the backslash is escaped, so "\\ud800" is six characters of text
    assert "\\\\ud800" in line
    assert ("\\u00ef" in line) == ensure_ascii
    doc = parse_document(line)
    assert repr(doc) == repr(oracle_parse_document(line))
    assert (doc.title, doc.url) == ("Café", "http://example.com/ü")
    assert doc.raw_content == "naïve 日本 \U0001F600\n\\ud800 is text"


@pytest.mark.parametrize("changes", [c for c, _ in _PATHS], ids=[i for _, i in _PATHS])
@pytest.mark.parametrize("name", ["title", "url", "raw_content"])
def test_lone_surrogate_escape_in_any_string_field_is_rejected(name, changes):
    record = json.loads(make_doc("fine").to_json())
    record.update({name: "naïve \udc00 x"}, **changes)
    line = json.dumps(record)  # ensure_ascii: the surrogate is a \udc00 escape
    message = f"^field {name} holds a lone surrogate at character 6$"
    with pytest.raises(DataError, match=message) as got:
        parse_document(line)
    with pytest.raises(DataError) as expected:
        oracle_parse_document(line)
    assert str(got.value) == str(expected.value)


def test_parse_document_title_optional_and_int_as_float():
    record = json.loads(make_doc("x").to_json())
    del record["title"]
    record["language_score"] = 1  # int accepted for float fields
    doc = parse_document(json.dumps(record))
    assert doc.title == ""
    assert doc.language_score == 1.0


def test_invariant_warnings_flag_mismatches():
    doc = make_doc("a\nb", nlines=5, length=99, bucket="weird")
    warnings = document_invariant_warnings(doc)
    assert any("nlines" in w for w in warnings)
    assert any("length" in w for w in warnings)
    assert any("bucket" in w for w in warnings)


def test_document_id():
    doc = make_doc("x", cc_segment="seg/a")
    assert document_id(doc, 7) == "seg/a/7"


def test_shard_path_roundtrip():
    addr = ShardAddress("2023-06", 17, "de", "middle")
    for kind in ("documents", "quality_signals", "duplicates", "minhash"):
        path = shard_path(addr, kind)
        parsed, parsed_kind = parse_shard_path(path)
        assert parsed == addr and parsed_kind == kind
    assert shard_path(addr, "documents") == "documents/2023-06/0017/de_middle.json.gz"
    assert (
        shard_path(addr, "minhash")
        == "minhash/2023-06/0017/de_middle.minhash.jsonl.gz"
    )
    with pytest.raises(ValueError):
        ShardAddress("2023-06", 5000, "de", "middle")


def test_signal_record_roundtrip_and_invariants(tmp_path):
    rec = QualitySignalSet(
        id="seg/0",
        id_int=0,
        metadata={"language": "en"},
        quality_signals={
            "rps_doc_word_count": [(0, 10, 3.0)],
            "rps_lines_num_words": [(0, 4, 2.0), (4, 10, 1.0)],
            "rps_doc_ut1_blacklist": [],
        },
    )
    path = tmp_path / "shard.signals.json.gz"
    write_jsonl_gz(path, [rec.to_json()])
    assert list(iter_signal_records(path, ["seg/0"])) == [{
        name: [list(t) for t in triples] for name, triples in rec.quality_signals.items()
    }]
    assert signal_invariant_warnings(rec, doc_length=10) == []
    bad = QualitySignalSet(
        id="x", id_int=0, metadata={},
        quality_signals={"rps_lines_num_words": [(0, 4, 2.0), (5, 10, 1.0)]},
    )
    assert any("tile" in w for w in signal_invariant_warnings(bad, doc_length=10))
    write_jsonl_gz(path, ['{"id": "x"}'])
    with pytest.raises(DataError, match=f"{path}: line 1: quality_signals"):
        list(iter_signal_records(path, ["x"]))


def test_write_jsonl_gz_deterministic(tmp_path):
    lines = ['{"a":1}', '{"b":2}']
    p1, p2 = tmp_path / "one.json.gz", tmp_path / "two.json.gz"
    assert write_jsonl_gz(p1, lines) == 2
    assert write_jsonl_gz(p2, lines) == 2
    assert p1.read_bytes() == p2.read_bytes()  # gzip mtime pinned
    assert [line for _, line in iter_jsonl_gz(p1)] == lines


def test_write_jsonl_gz_leaves_no_tmp_when_a_line_fails(tmp_path):
    def lines(exc):
        yield "x" * records.WRITE_BATCH  # a batch of its own, already compressed
        yield '{"a":1}'  # and one pending when the next line fails
        raise exc

    path = tmp_path / "out.json.gz"
    with pytest.raises(ZeroDivisionError):
        write_jsonl_gz(path, lines(ZeroDivisionError()))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError, match=f"failed writing {path}: disk full"):
        write_jsonl_gz(path, lines(OSError("disk full")))
    assert list(tmp_path.iterdir()) == []


def _gzip_per_line(lines) -> bytes:
    """The bytes of a GzipFile written with one write per line."""
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", fileobj=buf, mode="wb",
                       compresslevel=records.GZIP_LEVEL, mtime=0) as gz:
        for line in lines:
            gz.write(line.encode("utf-8") + b"\n")
    return buf.getvalue()


_BATCH = records.WRITE_BATCH


@pytest.mark.parametrize("lines", [
    pytest.param([], id="empty"),
    pytest.param([f'{{"n":{i},"t":"é{"x" * (i % 50)}"}}' for i in range(4000)],
                 id="short-lines-past-a-batch"),
    pytest.param(['{"a":1}', "y" * (2 * _BATCH + 5), "", '{"b":"ü"}'],
                 id="one-line-longer-than-a-batch"),
    pytest.param(["z" * (_BATCH - 1), "a", "b" * _BATCH, "c"], id="lines-at-a-batch-edge"),
])
def test_write_jsonl_gz_bytes_equal_one_write_per_line(tmp_path, lines):
    path = tmp_path / "out.jsonl.gz"
    assert write_jsonl_gz(path, lines) == len(lines)
    assert path.read_bytes() == _gzip_per_line(lines)
    # from a generator, which is read once
    assert write_jsonl_gz(path, (line for line in lines)) == len(lines)
    assert path.read_bytes() == _gzip_per_line(lines)
    assert os.listdir(tmp_path) == ["out.jsonl.gz"]


def _record(**fields):
    """A good document's JSON line with `fields` set; a field set to
    None is left out."""
    record = json.loads(make_doc("fine").to_json())
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not None})


# a line with each fault parse_document reports, and the reason its
# warning gives
_BAD_LINES = [
    ("{broken", "malformed JSON: "),
    ("[1, 2]", "record is not a JSON object"),
    (_record(url=None), "missing required field url"),
    (_record(length="5"), "field length has wrong type str"),
    (_record(nlines=True), "field nlines has wrong type bool"),
    (_record(line_ids=[0, "1"]), "field line_ids must be a list of integers"),
    (_record(raw_content="ok \ud800 then"),
     "field raw_content holds a lone surrogate at character 3"),
    ("[" * 100_000 + "]" * 100_000, "malformed JSON: maximum recursion depth exceeded"),
]


def test_read_documents_collects_errors(tmp_path, capsys):
    path = tmp_path / "shard.json.gz"
    good = make_doc("fine").to_json()
    # one bad line in 100, whatever its fault, is skipped with one warning
    # naming its line: no DataError of the line parser escapes
    for bad, reason in _BAD_LINES:
        lines = [good] * 99
        lines.insert(1, bad)
        write_jsonl_gz(path, lines)
        docs, warnings = read_documents(path)
        assert len(docs) == 99
        assert capsys.readouterr().err == ""  # the caller prints the warnings
        assert len(warnings) == 1
        assert warnings[0].startswith(f"warning: {path}: line 2: {reason}")
        assert warnings[0].endswith("\n") and warnings[0].count("\n") == 1
    # one in 3 is above the threshold
    write_jsonl_gz(path, lines[:3])
    with pytest.raises(DataError, match="1/3 bad records exceeds the 1% threshold"):
        read_documents(path)


def _text_mode_lines(path) -> list[tuple[int, str]]:
    """The (line_number, line) pairs of a file's non-blank lines as a
    text-mode reader gives them, which also ends a line at a lone \\r."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1)
                if line.rstrip("\n")]


# files without a lone \r, which a text-mode reader would take for a line end
@pytest.mark.parametrize("name, data", [
    pytest.param(name, data, id=name.split(".")[0])
    for name, data in [
        ("blank-lines.json.gz", gzip.compress(b'{"a":1}\n\n{"b":2}\n\n\n{"c":3}\n\n')),
        ("crlf.json.gz", gzip.compress(b'{"a":1}\r\n\r\n{"b": 2}\r\n{"c":3}\r\n')),
        ("no-final-newline.json.gz", gzip.compress(b'{"a":1}\n{"b":2}')),
        ("crlf-no-final-newline.json.gz", gzip.compress(b'\r\n{"a":1}\r\n{"b":2}')),
        ("two-members.json.gz",
         gzip.compress(b'{"a":1}\n{"b"') + gzip.compress(b':2}\r\n\n{"c":3}\n')),
        ("plain.jsonl",
         b'{"a":1}\r\n\n{"t":"\xc3\xa9 \xe2\x80\xa8 \xf0\x9f\x98\x80"}\n'),
        ("empty.json.gz", gzip.compress(b"")),
    ]
])
def test_iter_jsonl_gz_matches_a_text_mode_reader(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    assert list(iter_jsonl_gz(path)) == _text_mode_lines(path)


def test_a_line_of_carriage_returns_is_blank(tmp_path):
    # "\r\r\n" is a blank line ending CRLF twice over, as a file converted
    # from LF to CRLF two times holds one; a "\r" before it is whitespace
    path = tmp_path / "twice-crlf.json.gz"
    path.write_bytes(gzip.compress(b'{"a":1}\r\n\r\r\n\r\r\r\n{"b":2}\r\r\n{"c":3}\n'))
    assert list(iter_jsonl_gz(path)) == [(1, '{"a":1}'), (4, '{"b":2}\r'), (5, '{"c":3}')]
    assert [raw for _, raw in iter_json_objects(path)] == [{"a": 1}, {"b": 2}, {"c": 3}]


# values of every JSON type, and those parse_document treats apart: ints
# a float cannot hold, ints past 2**53, bools, lone surrogates
_ODD_VALUES = st.sampled_from([
    0, 7, -3, 2.5, 1e300, math.nan, True, False, None, "s", "", [], [1, 2], [1, True],
    [1.0], 2**1100, -2**1100, 2**53 + 1, "\ud800", "a\udfffb", "\U0001F600", {"k": 1},
])


@st.composite
def _document_lines(draw):
    """A good document record with some fields changed, left out or
    added, in any key order, as one JSON line (a lone surrogate only as
    a \\u escape, as a strict UTF-8 file holds it)."""
    record = json.loads(make_doc("fine\nline").to_json())
    keys = list(record)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        record[key] = draw(_ODD_VALUES)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        record.pop(key, None)
    record.update(draw(st.dictionaries(st.sampled_from(["extra", "x"]), _ODD_VALUES,
                                       max_size=2)))
    if draw(st.booleans()):
        record = {key: record[key] for key in draw(st.permutations(list(record)))}
    lone = any(isinstance(v, str) and lone_surrogate(v) is not None for v in record.values())
    return json.dumps(record, ensure_ascii=lone or draw(st.booleans()))


def _record_line(**changes) -> str:
    record = json.loads(make_doc("fine").to_json())
    record.update(changes)
    return json.dumps({k: v for k, v in record.items() if v is not None})


@settings(max_examples=400, deadline=None)
@given(_document_lines())
@example(_record_line(title=None))
@example(_record_line(language_score=1, perplexity=-3))
@example(_record_line(nlines=True))
@example(_record_line(original_length=2**1100))
@example(_record_line(line_ids=[0, 2**1100]))
@example(_record_line(line_ids=[0, True]))
@example(_record_line(line_ids=[0, 1.0]))
@example(_record_line(raw_content="ok \ud800 then"))
@example(_record_line(extra="key", more=[1]))
@example(make_doc("fine").to_json())
def test_parse_document_agrees_with_the_per_field_loop(line):
    try:
        expected = oracle_parse_document(line)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            parse_document(line)
        assert str(info.value) == str(exc)
    else:
        # repr tells an int from an equal float
        assert repr(parse_document(line)) == repr(expected)


def test_rewrite_document():
    doc = make_doc("keep\ndrop\nalso keep")
    out = rewrite_document(doc, [0, 2])
    assert out.raw_content == "keep\nalso keep"
    assert out.nlines == 2
    assert out.length == len(out.raw_content)
    assert out.line_ids == [0, 2]
    assert out.digest == content_digest("keep\nalso keep") != doc.digest
    assert out.original_nlines == doc.original_nlines
    assert document_invariant_warnings(out) == []


def test_records_loads_neither_numpy_nor_dedup():
    """The record layer reads and writes JSONL alone: the sidecar codecs
    and their numpy arrays belong to dedup."""
    src = os.path.dirname(os.path.dirname(corpusforge.__file__))
    code = ("import sys, corpusforge.records; "
            "print(sorted({'numpy', 'corpusforge.dedup'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


# scores json.dumps writes in its own ways: non-finite, signed zero,
# subnormal, near the largest float, integral; and strings with quotes,
# backslashes, control characters and text beyond the BMP
_SCORES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 3.0, 2]),
    st.floats(), st.integers(-2**60, 2**60))
_STRINGS = st.one_of(st.sampled_from(['"', "\\", "a\x00\x1f\x7f", "\U0001F600é", ""]),
                     st.text())
_METADATA_KEYS = ["cc_net_source", "cc_segment", "language", "snapshot_id",
                  "source_domain", "url"]


@st.composite
def _signal_shards(draw):
    """signal_lines arguments for a few documents, some without lines,
    and any signals of the catalog."""
    n = draw(st.integers(0, 4))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    spans = st.lists(st.integers(0, 10**6), min_size=sum(counts), max_size=sum(counts))
    names = draw(st.sets(st.sampled_from(sorted(ALL_SIGNALS))))
    columns = {}
    for name in names:
        if name in LINE_SIGNALS:
            size = sum(counts)
            columns[name] = draw(st.lists(_SCORES, min_size=size, max_size=size))
        elif name in CATEGORICAL_SIGNALS:
            columns[name] = draw(st.lists(st.lists(st.integers(0, 40), max_size=3),
                                          min_size=n, max_size=n))
        else:
            columns[name] = draw(st.lists(_SCORES, min_size=n, max_size=n))
    keys = _METADATA_KEYS + draw(st.lists(_STRINGS, max_size=2))
    return (draw(st.lists(_STRINGS, min_size=n, max_size=n)),
            {key: draw(st.lists(_STRINGS, min_size=n, max_size=n)) for key in keys},
            draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
            (counts, draw(spans), draw(spans)), columns)


# three documents: no lines, with 0 and 3 UT1 category ids, and every
# signal of the catalog
_SPECIAL = (
    ['seg/"0"', "seg\\1", "seg\x01\U0001F600"],
    dict.fromkeys(_METADATA_KEYS, ['"q"', "back\\slash", "\x1f\U00010348"]),
    [0, 12, 5],
    ([0, 2, 1], [0, 6, 0], [6, 12, 5]),
    {name: ([[], [0, 1, 2], [7]] if name in CATEGORICAL_SIGNALS
            else [math.nan, math.inf, -math.inf] if name in LINE_SIGNALS
            else [-0.0, 5e-324, 1e308]) for name in ALL_SIGNALS},
)


@settings(max_examples=300, deadline=None)
@given(_signal_shards())
@example(_SPECIAL)
def test_signal_lines_equal_to_json(shard):
    ids, metadata, lengths, (counts, starts, ends), columns = shard
    expected = []
    first = 0
    for d, (doc_id, length, count) in enumerate(zip(ids, lengths, counts)):
        lines = range(first, first + count)
        first += count
        signals = {}
        for name, values in columns.items():
            if name in LINE_SIGNALS:
                signals[name] = [(starts[i], ends[i], float(values[i])) for i in lines]
            elif name in CATEGORICAL_SIGNALS:
                signals[name] = [(0, length, float(v)) for v in values[d]]
            else:
                signals[name] = [(0, length, float(values[d]))]
        meta = {key: values[d] for key, values in metadata.items()}
        expected.append(QualitySignalSet(doc_id, d, meta, signals).to_json())
    assert signal_lines(ids, metadata, lengths, (counts, starts, ends), columns) == expected
