"""Command-line interface.

Subcommands: annotate, dedup, filter, stats, train. Exit codes: 0
success, 1 configuration or usage error, 2 data error. Every config key
can also come from a JSON config file (--config) or a CORPUSFORGE_* env
variable; command-line flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline
from .errors import ConfigError, DataError
from .signal_catalog import SIGNAL_GROUPS


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: one error: line, exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _comma_list(value: str) -> list[str]:
    return [x for x in value.split(",") if x]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--input", dest="input_root", help="corpus root directory")
    parser.add_argument("--output", dest="output_root", help="output root directory")
    parser.add_argument(
        "--snapshots", type=_comma_list,
        help="comma-separated snapshot ids to read (e.g. 2023-14,2022-49)",
    )
    parser.add_argument("--languages", type=_comma_list,
                        help="comma-separated language codes")
    parser.add_argument(
        "--workers", type=int,
        help="forked worker processes that read and process the shards; "
        "each worker adds its own memory",
    )
    parser.add_argument("--seed", type=int, help="random seed for training")
    parser.add_argument(
        "--force", action="store_true", default=None,
        help="recompute shards whose outputs already exist; dedup --mode fuzzy "
        "recomputes the MinHash signatures it would otherwise reuse from "
        "matching minhash/ sidecars",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corpusforge",
        description="Web-corpus quality annotation, deduplication, and filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="compute quality-signal sidecars")
    _add_common(p)
    p.add_argument(
        "--signals", type=_comma_list,
        help="comma-separated signal names or groups "
        f"({', '.join(SIGNAL_GROUPS)})",
    )

    p = sub.add_parser("dedup", help="build duplicate sidecars")
    _add_common(p)
    p.add_argument("--mode", choices=("exact", "fuzzy"), default="exact")
    p.add_argument(
        "--jaccard", type=float,
        help="target Jaccard similarity level in (0, 1] for fuzzy mode; picks "
        "the banding and drops candidates below it (default 0.8)",
    )
    p.add_argument("--bloom-capacity", type=int, dest="bloom_capacity")
    p.add_argument("--bloom-error-rate", type=float, dest="bloom_error_rate")

    p = sub.add_parser("filter", help="apply a ruleset and drop duplicates")
    _add_common(p)
    p.add_argument(
        "--preset", dest="ruleset",
        help="preset name ('+'-composable) or path to a rule JSON",
    )
    p.add_argument(
        "--no-dedup", dest="apply_dedup", action="store_false", default=None,
        help="ignore duplicate sidecars while filtering",
    )

    p = sub.add_parser("stats", help="per-language document/word count table")
    _add_common(p)
    p.add_argument("--json", action="store_true",
                   help="emit one machine-readable JSON object instead of a table")

    p = sub.add_parser("train", help="train a model used for annotation")
    _add_common(p)
    p.add_argument("kind", choices=("classifier", "hashed_lm", "kn_lm"))
    p.add_argument("--positive", help="JSONL(.gz) of positive examples")
    p.add_argument("--negative", help="JSONL(.gz) of negative examples")
    p.add_argument("--corpus", help="JSONL(.gz) training corpus")
    p.add_argument("--model-output", dest="output", required=True,
                   help="where to write the model JSON")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--buckets", type=int)
    p.add_argument("--order", type=int)

    return parser


def _config_from_args(args: argparse.Namespace) -> pipeline.PipelineConfig:
    """Every given option whose dest is a PipelineConfig field overrides
    that field; an absent option is None and leaves it alone."""
    fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return pipeline.PipelineConfig.load(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "annotate":
            pipeline.cmd_annotate(cfg)
        elif args.command == "dedup":
            pipeline.cmd_dedup(cfg, args.mode)
        elif args.command == "filter":
            pipeline.cmd_filter(cfg)
        elif args.command == "stats":
            pipeline.cmd_stats(cfg, as_json=args.json)
        elif args.command == "train":
            pipeline.cmd_train(cfg, args.kind, vars(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
