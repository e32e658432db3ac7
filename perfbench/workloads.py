"""Seeded input generators and command lists for the three workloads.

Each generator writes a corpus tree (and, for web_long, trained models)
from nothing but its seed, so the same seed gives byte-identical inputs.
The program under test only ever sees the generated shards.

- crawl_short: the acceptance-suite generator (`_generate_corpus`),
  imported from tests/test_acceptance.py so the ROADMAP baseline corpus
  is reproduced byte for byte.
- web_long: long web pages with boilerplate, for per-word and per-line
  signal costs, ML signals and line-rule rewrites.
- dup_clusters: mid-size documents with heavy-tailed exact-copy
  clusters and near-duplicate clusters, for MinHash/LSH/union-find.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
TESTS = os.path.join(REPO, "tests")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    snapshots: tuple[str, ...]
    languages: tuple[str, ...]
    workers: int
    # (label, argv tail); label names the command in the metrics
    commands: tuple[tuple[str, tuple[str, ...]], ...]
    why: str = ""


WORKLOADS = {
    "crawl_short": Workload(
        name="crawl_short",
        default_seed=777,
        snapshots=("2023-14", "2022-49"),
        languages=("en", "de", "fr"),
        workers=1,
        commands=(
            ("annotate", ("annotate",)),
            ("dedup_exact", ("dedup", "--mode", "exact")),
            ("filter", ("filter", "--preset", "gopher_full")),
            ("stats", ("stats", "--json")),
        ),
        why="ROADMAP baseline corpus; serial reference dominated by per-doc fixed costs",
    ),
    "web_long": Workload(
        name="web_long",
        default_seed=4242,
        snapshots=("2023-14",),
        languages=("en",),
        workers=2,
        commands=(
            ("annotate", ("annotate", "--signals",
                          "ccnet,natlang,repetition,content,lines,"
                          "rps_doc_ml_wikiref_score,rps_doc_wikipedia_importance")),
            ("filter", ("filter", "--preset", "c4_full+rpv1_wikiref")),
            ("stats", ("stats", "--json")),
        ),
        why="long pages: per-word/per-line signal costs, ML signals, line rewrites, parallel annotate",
    ),
    "dup_clusters": Workload(
        name="dup_clusters",
        default_seed=9001,
        snapshots=("2023-14", "2022-49"),
        languages=("en",),
        workers=2,
        commands=(
            ("dedup_exact", ("dedup", "--mode", "exact")),
            ("dedup_fuzzy", ("dedup", "--mode", "fuzzy", "--jaccard", "0.8")),
            ("stats", ("stats", "--json")),
        ),
        why="MinHash, LSH, union-find and the read path; no signals computed",
    ),
}


# ---------------------------------------------------------------------------
# Shared helpers


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def doc_record(text: str, *, url: str, domain: str, cc_segment: str,
               language: str, bucket: str, perplexity: float) -> dict:
    """A document record in the corpus schema, built without the
    program's own record code."""
    nlines = text.count("\n") + 1 if text else 0
    return {
        "url": url,
        "date_download": "2023-04-08T10:00:00Z",
        "digest": _digest(text),
        "length": len(text),
        "nlines": nlines,
        "source_domain": domain,
        "title": "",
        "raw_content": text,
        "cc_segment": cc_segment,
        "original_nlines": nlines,
        "original_length": len(text),
        "line_ids": list(range(nlines)),
        "language": language,
        "language_score": 0.98,
        "perplexity": perplexity,
        "bucket": bucket,
    }


def to_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def write_gz_lines(path: str, lines) -> None:
    """gzip with mtime 0, so equal lines give equal bytes."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0,
                           compresslevel=6) as gz:
            for line in lines:
                gz.write(line.encode("utf-8"))
                gz.write(b"\n")


def shard_file(root: str, snapshot: str, shard: int, lang: str, bucket: str) -> str:
    return os.path.join(root, "documents", snapshot, f"{shard:04d}",
                        f"{lang}_{bucket}.json.gz")


_STOP = tuple("the of and to in a is that for it as with was on be by at this "
              "are from or an have not which their but one all were we".split())
_SYLLABLES = tuple("ka lo mi ren sa tor vel qu dan pe ris mo lin ta gor ne shi "
                   "ba cor fu el an ost ul vin dre po sel".split())
# shop-talk for bullets, link lists and spam pages: a vocabulary disjoint
# from the prose one, so the wikiref classifier can tell them apart
_SHOP_HEAD = tuple("buy cheap deal offer discount free shipping sale best top "
                   "order now new hot save limited bonus coupon".split())
_SHOP_SYLLABLES = tuple("zix yok wub jaz vox kip zed yum qix wop".split())


class Zipf:
    """Sampler over a synthetic vocabulary with Zipf(s) rank weights;
    the first ranks are the `head` words (English stop words by
    default), the rest are built from `syllables`."""

    def __init__(self, rng: random.Random, size: int, s: float = 1.07,
                 head: tuple[str, ...] = _STOP, syllables: tuple[str, ...] = _SYLLABLES):
        self.rng = rng
        vocab = list(head)
        seen = set(vocab)
        while len(vocab) < size:
            w = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
            if w not in seen:
                seen.add(w)
                vocab.append(w)
        self.vocab = vocab
        total = 0.0
        self.cum = []
        for rank in range(1, size + 1):
            total += 1.0 / rank**s
            self.cum.append(total)

    def words(self, k: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=k)

    def sentence(self, lo: int = 8, hi: int = 22) -> str:
        words = self.words(self.rng.randint(lo, hi))
        words[0] = words[0].capitalize()
        return " ".join(words) + self.rng.choice(".....!?")

    def paragraph(self, lo: int = 3, hi: int = 7) -> str:
        return " ".join(self.sentence() for _ in range(self.rng.randint(lo, hi)))


# ---------------------------------------------------------------------------
# crawl_short


def generate_crawl_short(root: str, seed: int, size: str) -> dict:
    sys.path[:0] = [SRC, TESTS]
    from test_acceptance import _generate_corpus

    _generate_corpus(root, seed=seed, total=10_000 if size == "full" else 360)
    return {}


# ---------------------------------------------------------------------------
# web_long

_NAV_WORDS = ("Home Shop Blog About Contact Cart Account Login Register Help "
              "Careers Press Store Deals Gifts News Events Support").split()
_LINE_KINDS = ("prose", "heading", "nav", "related", "bullet", "price",
               "javascript", "footer", "curly", "lorem", "blocked")


class _Site:
    def __init__(self, rng: random.Random, z: Zipf, index: int):
        name_words = [w.capitalize() for w in z.rng.sample(z.vocab[40:400], 2)]
        self.name = " ".join(name_words)
        self.domain = f"{''.join(name_words).lower()}{index}.example.com"
        self.nav = [
            " ".join(rng.sample(_NAV_WORDS, rng.randint(1, 2)))
            for _ in range(rng.randint(12, 16))
        ]
        year = rng.randint(2015, 2023)
        self.footer = [
            f"Copyright {year} {self.name}. All rights reserved.",
            "Privacy Policy | Terms of Use | Cookie Settings | Sitemap",
            "Follow us on Twitter, Facebook and Instagram",
            f"Subscribe to the {self.name} newsletter",
            f"{rng.randint(10, 999)} {z.vocab[rng.randint(50, 300)].capitalize()} Street, "
            f"Suite {rng.randint(1, 99)}",
        ]


def _web_page(rng: random.Random, z: Zipf, shop: Zipf, site: _Site, kind: str):
    """(text, [line kinds]) for one page: prose from `z`, bullets and
    link lists from `shop`. kind: normal | clean | spam | curly | lorem |
    blocked."""
    lines: list[tuple[str, str]] = []
    add = lambda text, k: lines.append((text, k))  # noqa: E731
    if kind != "clean":
        add(site.name.upper(), "heading")
        for item in site.nav:
            add(item, "nav")
    paragraphs: list[str] = []
    sections = rng.randint(6, 8) if kind != "spam" else 3
    for s in range(sections):
        if kind != "clean":
            add(" ".join(z.words(rng.randint(2, 5))).upper(), "heading")
        n_para = rng.randint(2, 3) if kind != "spam" else (1 if s == 0 else 0)
        for _ in range(n_para):
            p = z.paragraph()
            paragraphs.append(p)
            add(p, "prose")
        if kind == "clean":
            continue
        if rng.random() < (0.4 if kind != "spam" else 1.0):
            for _ in range(rng.randint(3, 6)):
                add("• " + " ".join(shop.words(rng.randint(2, 6))), "bullet")
        if rng.random() < (0.4 if kind != "spam" else 1.0):
            for _ in range(rng.randint(1, 3)):
                add(f"Price: ${rng.randint(1, 499)}.{rng.randint(0, 99):02d} | "
                    f"Updated 2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    "price")
        if paragraphs and rng.random() < 0.2:
            add(rng.choice(paragraphs), "prose")
    if kind == "clean":
        return "\n".join(t for t, _ in lines), [k for _, k in lines]
    add("RELATED POSTS", "heading")
    for _ in range(rng.randint(5, 8)):
        add(" ".join(w.capitalize() for w in shop.words(rng.randint(3, 7))), "related")
    if rng.random() < 0.6:
        add("Please enable JavaScript to view the comments powered by Disqus.",
            "javascript")
    special = {
        "curly": ("var settings = { theme: 'dark', lazy: true };", "curly"),
        "lorem": ("Lorem ipsum dolor sit amet, consectetur adipiscing elit.", "lorem"),
        "blocked": ("Hot deals on xxx videos and more", "blocked"),
    }.get(kind)
    if special:
        lines.insert(rng.randint(1, len(lines)), special)
    for item in site.footer:
        add(item, "footer")
    return "\n".join(t for t, _ in lines), [k for _, k in lines]


def _page_kind(rng: random.Random) -> str:
    u = rng.random()
    for kind, share in (("clean", 0.05), ("spam", 0.08), ("curly", 0.03),
                        ("lorem", 0.02), ("blocked", 0.02)):
        if u < share:
            return kind
        u -= share
    return "normal"


def _boilerplate_doc(rng: random.Random, shop: Zipf, site: _Site) -> str:
    parts = list(site.nav) + site.footer
    for _ in range(rng.randint(4, 8)):
        parts.append("• " + " ".join(shop.words(rng.randint(2, 6))))
        parts.append(f"Price: ${rng.randint(1, 499)}.{rng.randint(0, 99):02d}")
    rng.shuffle(parts)
    return "\n".join(parts)


def generate_web_long(root: str, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    z = Zipf(rng, 5000)
    shop = Zipf(rng, 400, head=_SHOP_HEAD, syllables=_SHOP_SYLLABLES)
    sites = [_Site(rng, z, i) for i in range(12)]
    snapshot = WORKLOADS["web_long"].snapshots[0]
    shards = [(shard, bucket) for shard in range(4) for bucket in ("head", "middle")]
    per_shard = 30 if size == "full" else 2
    kinds: dict[str, int] = {}
    line_kinds: dict[str, int] = {k: 0 for k in _LINE_KINDS}
    for shard, bucket in shards:
        lines = []
        for i in range(per_shard):
            site = rng.choice(sites)
            kind = _page_kind(rng)
            kinds[kind] = kinds.get(kind, 0) + 1
            text, tags = _web_page(rng, z, shop, site, kind)
            for tag in tags:
                line_kinds[tag] += 1
            lines.append(to_line(doc_record(
                text,
                url=f"https://{site.domain}/p/{shard}-{bucket}-{i}",
                domain=site.domain,
                cc_segment=f"{snapshot}/{shard:04d}/en_{bucket}",
                language="en",
                bucket=bucket,
                perplexity=round(rng.uniform(20.0, 600.0), 3),
            )))
        write_gz_lines(shard_file(root, snapshot, shard, "en", bucket), lines)

    # training corpora: reference prose (positive / target), web
    # boilerplate (negative / source)
    n_train = 60 if size == "full" else 12
    models = os.path.join(root, "models")
    train = os.path.join(root, "train")
    reference = ["\n".join(z.paragraph() for _ in range(rng.randint(3, 6)))
                 for _ in range(n_train)]
    boiler = [_boilerplate_doc(rng, shop, rng.choice(sites)) for _ in range(n_train)]
    web = [_web_page(rng, z, shop, rng.choice(sites), "normal")[0]
           for _ in range(n_train // 2)]
    for name, texts in (("reference", reference), ("boilerplate", boiler), ("web", web)):
        write_gz_lines(os.path.join(train, f"{name}.jsonl.gz"),
                       (json.dumps({"text": t}) for t in texts))
    os.makedirs(models, exist_ok=True)

    from corpusforge import cli

    def train_cmd(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv) + ["--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"training failed: {argv}")

    t = lambda name: os.path.join(train, f"{name}.jsonl.gz")  # noqa: E731
    m = lambda name: os.path.join(models, name)  # noqa: E731
    train_cmd("train", "classifier", "--positive", t("reference"),
              "--negative", t("boilerplate"), "--model-output", m("wikiref.json"))
    train_cmd("train", "hashed_lm", "--corpus", t("reference"),
              "--model-output", m("wiki_target.json"))
    train_cmd("train", "hashed_lm", "--corpus", t("web"),
              "--model-output", m("wiki_source.json"))
    train_cmd("train", "kn_lm", "--corpus", t("reference"),
              "--model-output", m("kn.json"))
    config = {"models": {
        "classifiers": {"wikiref": "models/wikiref.json"},
        "importance": {"wikipedia": {"target": "models/wiki_target.json",
                                     "source": "models/wiki_source.json"}},
        "kn_lm": "models/kn.json",
    }}
    with open(os.path.join(root, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
    total_lines = sum(line_kinds.values())
    return {
        "page_kinds": dict(sorted(kinds.items())),
        "line_kind_share": {k: round(v / total_lines, 4) for k, v in line_kinds.items()},
    }


# ---------------------------------------------------------------------------
# dup_clusters


def _edit(rng: random.Random, z: Zipf, words: list[str], edits: int) -> list[str]:
    """Replace `edits` words at positions at least one shingle width
    apart, so each edit changes a disjoint set of 13-word shingles."""
    out = list(words)
    width = 13
    slots = list(range(0, len(words) - width, 2 * width))
    for pos in rng.sample(slots, edits):
        pos += rng.randrange(width)
        new = out[pos]
        while new == out[pos]:
            new = z.words(1)[0]
        out[pos] = new
    return out


def _render(words: list[str], line_lengths: list[int]) -> str:
    """Lay words out as lines of sentences of fixed lengths."""
    lines, i = [], 0
    for length in line_lengths:
        chunk = words[i:i + length]
        i += length
        sentences = []
        for j in range(0, len(chunk), 12):
            s = chunk[j:j + 12]
            sentences.append(" ".join([s[0].capitalize()] + s[1:]) + ".")
        lines.append(" ".join(sentences))
    return "\n".join(lines)


def _cluster_doc(rng: random.Random, z: Zipf):
    lengths = [rng.randint(35, 60) for _ in range(8)]
    return z.words(sum(lengths)), lengths


def generate_dup_clusters(root: str, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    z = Zipf(rng, 8000, s=1.0)
    spec = WORKLOADS["dup_clusters"]
    shard_ids = range(10) if size == "full" else range(1)
    shards = [(snap, shard, bucket) for snap in spec.snapshots
              for shard in shard_ids for bucket in ("head", "middle")]
    lines_per_shard = 200  # one malformed line each: 0.5% < the 1% threshold
    slots = len(shards) * (lines_per_shard - 1)
    largest = 1100 if size == "full" else 60

    # clusters: (kind, member texts); unique docs fill the rest. Cluster
    # sizes come from a fixed sequence, not from the seed, so every seed
    # gives the same size histogram and the same LSH pair count.
    clusters: list[tuple[str, list[str]]] = []
    exact_budget = int(slots * 0.24)
    sizes = [largest]
    j = 0
    while sum(sizes) < exact_budget:
        j += 1
        u = (j * 0.6180339887498949) % 1.0  # golden-ratio sequence in [0, 1)
        sizes.append(min(300, max(2, int(2 / (1.0 - u) ** (1 / 1.2)))))
    for n in sizes:
        words, lengths = _cluster_doc(rng, z)
        clusters.append(("exact", [_render(words, lengths)] * n))
    near_budget = int(slots * 0.12)
    near_total = 0
    while near_total < near_budget:
        words, lengths = _cluster_doc(rng, z)
        members = [_render(words, lengths)]
        for k in range(1 + len(clusters) % 4):
            members.append(_render(_edit(rng, z, words, 1 + k % 2), lengths))
        clusters.append(("near", members))
        near_total += len(members)
    entries: list[tuple[int, str]] = []  # (cluster index or -1, text)
    for ci, (_kind, members) in enumerate(clusters):
        entries.extend((ci, text) for text in members)
    while len(entries) < slots:
        words, lengths = _cluster_doc(rng, z)
        entries.append((-1, _render(words, lengths)))
    entries = entries[:slots]
    rng.shuffle(entries)

    truth: dict[str, int] = {}
    it = iter(entries)
    for snap, shard, bucket in shards:
        segment = f"{snap}/{shard:04d}/en_{bucket}"
        bad_at = rng.randrange(lines_per_shard)
        lines = []
        for ordinal in range(lines_per_shard - 1):
            ci, text = next(it)
            if ci >= 0:
                truth[f"{segment}/{ordinal}"] = ci
            lines.append(to_line(doc_record(
                text,
                url=f"https://site{rng.randrange(5000)}.example.org/{segment}/{ordinal}",
                domain=f"site{ordinal % 97}.example.org",
                cc_segment=segment,
                language="en",
                bucket=bucket,
                perplexity=round(rng.uniform(20.0, 600.0), 3),
            )))
        broken = lines[rng.randrange(len(lines))]
        lines.insert(bad_at, broken[: rng.randint(20, 80)])
        write_gz_lines(shard_file(root, snap, shard, "en", bucket), lines)

    kinds = [clusters[ci][0] for ci in truth.values()]
    in_use: dict[int, int] = {}
    for ci in truth.values():
        in_use[ci] = in_use.get(ci, 0) + 1
    with open(os.path.join(root, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({"cluster_of": truth,
                   "kind": {str(ci): clusters[ci][0] for ci in in_use}},
                  fh, sort_keys=True)
    histogram: dict[str, int] = {}
    for ci, n in in_use.items():
        if n < 2:
            continue
        top = 2
        while top < n:
            top *= 2
        key = f"{clusters[ci][0]}<={top}"
        histogram[key] = histogram.get(key, 0) + 1
    docs = len(entries)
    return {
        "cluster_size_histogram": dict(sorted(histogram.items())),
        "largest_cluster": max(in_use.values()),
        "exact_copy_share": round(
            sum(n - 1 for ci, n in in_use.items() if clusters[ci][0] == "exact") / docs, 4),
        "near_copy_share": round(
            sum(n - 1 for ci, n in in_use.items() if clusters[ci][0] == "near") / docs, 4),
        "clustered_docs": len(kinds),
    }


GENERATORS = {
    "crawl_short": generate_crawl_short,
    "web_long": generate_web_long,
    "dup_clusters": generate_dup_clusters,
}


def scan_corpus(root: str) -> dict:
    """Input properties measured from the written shards: docs, malformed
    lines, raw_content UTF-8 bytes, mean words and lines per doc."""
    docs = bad = raw_bytes = words = nlines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "documents")):
        for name in sorted(files):
            with gzip.open(os.path.join(dirpath, name), "rt", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        text = json.loads(line)["raw_content"]
                    except (json.JSONDecodeError, KeyError):
                        bad += 1
                        continue
                    docs += 1
                    raw_bytes += len(text.encode("utf-8"))
                    words += len(text.split())
                    nlines += text.count("\n") + 1 if text else 0
    return {
        "docs": docs,
        "malformed_lines": bad,
        "malformed_share": round(bad / (docs + bad), 5) if docs + bad else 0.0,
        "raw_mb": raw_bytes / 1e6,
        "mean_words": round(words / docs, 2) if docs else 0.0,
        "mean_lines": round(nlines / docs, 2) if docs else 0.0,
    }
