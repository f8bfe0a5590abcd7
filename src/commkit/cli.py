"""Command-line interface.

Subcommands mirror the pipeline stages so each can be rerun on prior
outputs: detect, domsets, slopes, metrics, keywords, report, all.

Exit codes: 0 success, 1 input error, 2 configuration error, 3 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .detect import DetectParams
from .errors import CommkitError, ConfigError
from .pipeline import (
    RunConfig,
    load_inputs,
    read_domsets,
    read_slopes,
    read_stats,
    run_pipeline,
    stage_detect,
    stage_domsets,
    stage_keywords,
    stage_metrics,
    stage_report,
    stage_slopes,
    write_manifest,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _add_common(parser: argparse.ArgumentParser, need_communities: bool) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file")
    parser.add_argument(
        "--communities",
        required=need_communities,
        help="community file (one 'id: label label ...' line per community)",
    )
    parser.add_argument("--metadata", help="tab-separated node metadata file")
    parser.add_argument("--k", type=int, default=5, help="size for k-mode dominating sets")
    parser.add_argument("--p", type=float, default=0.8, help="ratio target for p-mode sets")
    parser.add_argument("--alpha", type=float, default=0.15, help="PPR teleport probability")
    parser.add_argument("--epsilon", type=float, default=1e-4, help="PPR push tolerance")
    parser.add_argument("--min-size", type=int, default=5, help="smallest community kept")
    parser.add_argument("--max-size", type=int, default=200, help="largest community kept")
    parser.add_argument("--bins", type=int, default=20, help="histogram bin count")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    parser.add_argument("--workers", type=int, default=1, help="per-community worker pool size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commkit",
        description="Detect communities and characterize them by dominating sets, "
        "slopes, keyword prediction, and distance/clustering statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, need_communities in (
        ("detect", False),
        ("domsets", True),
        ("slopes", True),
        ("metrics", True),
        ("keywords", True),
        ("report", True),
        ("all", False),
    ):
        stage = sub.add_parser(name)
        _add_common(stage, need_communities)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    detect = DetectParams(
        alpha=args.alpha,
        epsilon=args.epsilon,
        min_size=args.min_size,
        max_size=args.max_size,
    )
    return RunConfig(
        graph_path=args.graph,
        communities_path=args.communities,
        metadata_path=args.metadata,
        k=args.k,
        p=args.p,
        detect=detect,
        bins=args.bins,
        out_dir=args.out,
        fmt=args.format,
        workers=args.workers,
    )


def _run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "all":
        summary = run_pipeline(config)
        if summary is None and not config.communities_path:
            print("no communities survived filtering")
        return EXIT_OK

    graph, communities, metadata = load_inputs(config)
    if args.command == "detect":
        detected = stage_detect(graph, config, out)
        write_manifest(config, out, [f"detected {len(detected)} communities"])
        print(f"detected {len(detected)} communities -> {out / 'communities.txt'}")
        return EXIT_OK

    if args.command == "domsets":
        stage_domsets(graph, communities, config, out)
    elif args.command == "slopes":
        stage_slopes(graph, communities, config, out)
    elif args.command == "metrics":
        stage_metrics(communities, config, out)
    elif args.command == "keywords":
        if metadata is None:
            raise ConfigError("keywords stage needs --metadata")
        stage_keywords(communities, metadata, config, out)
    elif args.command == "report":
        stats = read_stats(out)
        bundles = read_domsets(out, graph)
        slope_pairs = read_slopes(out)
        stage_report(graph, stats, bundles, slope_pairs, config, out)
    write_manifest(config, out, [f"stage {args.command} over {len(communities)} communities"])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, CommkitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # invariant failure
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
