#!/usr/bin/env python3
"""Characterize the college-football network's conference communities.

Runs the full characterization over the ground-truth conference file and
prints a compact per-community table plus the aggregate summary row.

Usage:
    python scripts/characterize_football.py [out_dir]
"""

import sys
from pathlib import Path
from statistics import fmean

from commkit import (
    RunConfig,
    community_stats,
    greedy_eds,
    greedy_ids,
    load_communities,
    load_graph,
    run_pipeline,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "football"


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "out/football"
    graph = load_graph(DATA / "football.edges")
    conferences = load_communities(DATA / "football.conferences", graph)
    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")
    print(f"communities: {len(conferences)} conferences\n")

    header = f"{'conference':<18} {'size':>4} {'idr5':>6} {'edr5':>6} {'apl':>6} {'diam':>4} {'ccc':>6}"
    print(header)
    print("-" * len(header))
    stats = [community_stats(c) for c in conferences]
    ids5 = [greedy_ids(c, k=5) for c in conferences]
    for community, row, ids in zip(conferences, stats, ids5):
        eds5 = greedy_eds(community, k=5)
        edr_text = f"{eds5.achieved_ratio:6.3f}" if not eds5.closed else "closed"
        print(
            f"{community.id:<18} {row.size:>4} {ids.achieved_ratio:6.3f} {edr_text:>6} "
            f"{row.apl_penalized:6.3f} {row.diameter_penalized:>4} {row.ccc:6.3f}"
        )

    print(
        f"\nmeans: idr5={fmean(r.achieved_ratio for r in ids5):.3f}"
        f" apl={fmean(s.apl_penalized for s in stats):.3f}"
        f" diam={fmean(s.diameter_penalized for s in stats):.3f}"
        f" ccc={fmean(s.ccc for s in stats):.3f}"
    )

    config = RunConfig(
        graph_path=str(DATA / "football.edges"),
        communities_path=str(DATA / "football.conferences"),
        out_dir=out_dir,
    )
    summary = run_pipeline(config)
    print(f"\nnetwork clustering coefficient: {summary.ncc:.5f}")
    print(f"full artifact set written to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
