"""Command-line interface: ``commkit <command> --graph FILE [flags]``.

The command is a pipeline stage (detect, domsets, slopes, metrics,
keywords, report) or all, which runs every stage.  Each computes the
records it needs from its own --graph, --communities and --metadata and
writes only its own tables, so commands can run in any order and into any
--out; all of them run through :func:`commkit.pipeline.run_pipeline`,
which rejects a command missing an input, or detect given --communities,
before it reads any file.  Each setting in :mod:`commkit.config` has one
flag, and keeps its default when the flag is not given; the 20 histogram
bins and the keyword list's cut at 50 are fixed.  Stages run serially; a
hidden ``--workers N`` still parses, and is ignored.

Exit codes: 0 success, 1 input error, 2 configuration error, 3 internal
invariant failure.  Input errors are :class:`~commkit.errors.InputError`
(a malformed graph, community or metadata file, an empty or repeated
id or label, a node label holding the ``;`` that separates the members of
a domsets cell) and :class:`OSError` (a missing file); configuration
errors are :class:`~commkit.errors.ConfigError`.

A ``commkit`` process (the console script, or ``python -m commkit.cli``)
enters through :func:`_process_main`, which turns the cyclic garbage
collector off before :func:`main` runs.  Reference counting still frees
every record, since no record holds a reference cycle; the only cycles a
run leaves are the argument parser's and the JSON encoder's, the same
whatever the input.  So the collector would only rescan the freshly built
graph and sweep the heap at exit.  :func:`main` leaves the collector
alone: it is a setting of the whole process, which a library call cannot
switch off and back safely while other code of its caller runs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .config import DetectParams, RunConfig
from .errors import ConfigError, InputError
from .pipeline import STAGES, run_pipeline

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def build_parser() -> argparse.ArgumentParser:
    # each flag's dest is a RunConfig or DetectParams field; the parser sets only the flags given
    parser = argparse.ArgumentParser(
        prog="commkit",
        description="Detect communities and characterize them by dominating sets, "
        "slopes, keyword prediction, and distance/clustering statistics.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=(*STAGES, "all"), help="one stage, or all of them")
    parser.add_argument("--graph", dest="graph_path", required=True, help="edge-list file")
    parser.add_argument(
        "--communities",
        dest="communities_path",
        help="community file (one 'id: label label ...' line per community); every command but detect and all "
        "needs it, and detect refuses it",
    )
    parser.add_argument("--metadata", dest="metadata_path", help="tab-separated node metadata file; keywords needs it")
    parser.add_argument("--k", type=int, help="size for k-mode dominating sets")
    parser.add_argument("--p", type=float, help="ratio target for p-mode sets")
    parser.add_argument("--alpha", type=float, help="teleport probability of the lazy walk")
    parser.add_argument("--epsilon", type=float, help="PPR push tolerance")
    parser.add_argument("--min-size", type=int, help="smallest community kept")
    parser.add_argument("--max-size", type=int, help="largest community kept")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), help="table format")
    # maps to no field: accepted because the benchmark's staged workload still passes it
    parser.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    detect = DetectParams(**{name: given[name] for name in DetectParams._fields if name in given})
    return RunConfig(detect=detect, **{name: given[name] for name in RunConfig._fields if name in given})


def _run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    records = run_pipeline(config, args.command)
    if args.command == "detect":
        print(f"detected {len(records)} communities -> {Path(config.out_dir) / 'communities.txt'}")
    elif args.command == "all" and records is None and not config.communities_path:
        print("no communities survived filtering")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # invariant failure
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


def _process_main() -> int:
    """The process entry point: :func:`main` on ``sys.argv``, without the cyclic collector.

    Private: it changes a setting of the whole process for good, so only
    the console script and the ``__main__`` check below call it.
    """
    gc.disable()
    return main()


if __name__ == "__main__":
    raise SystemExit(_process_main())
