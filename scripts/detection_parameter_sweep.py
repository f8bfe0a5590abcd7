#!/usr/bin/env python3
"""Sweep detection parameters on the football network.

For each teleport probability, reports how many communities come out of
detection and how well they line up with the 12 known conferences (mean
majority-label purity).  Detection pushes PPR only from a maximal
independent set of seeds taken in degree order and sweeps each vector
over its first ``max_size + 1`` prefixes.  The sweeps go through one
candidate rule, in this order: sets outside ``min_size`` to
``max_size`` nodes are dropped, the rest taken best first by
conductance, and a set overlapping a kept one by Jaccard above 0.5
dropped.  Each kept set is refined with single-node moves until no move
lowers its conductance, and the refined sets go through the rule again.
Useful when picking alpha and the size window for a new network.

Usage:
    python scripts/detection_parameter_sweep.py
"""

from pathlib import Path
from statistics import fmean

from commkit import DetectParams, detect_communities, load_communities, load_graph

DATA = Path(__file__).resolve().parent.parent / "data" / "football"


def main() -> int:
    graph = load_graph(DATA / "football.edges")
    conferences = load_communities(DATA / "football.conferences", graph)
    label_of = {v: c.id for c in conferences for v in c.members}

    print(f"{'alpha':>6} {'found':>6} {'purity':>7}  sizes")
    for alpha in (0.05, 0.10, 0.15, 0.20, 0.30):
        params = DetectParams(alpha=alpha, min_size=5, max_size=20)
        detected = detect_communities(graph, params)
        purities = []
        for d in detected:
            labels = [label_of[v] for v in d.community.members]
            purities.append(max(labels.count(x) for x in set(labels)) / len(labels))
        purity = fmean(purities) if purities else float("nan")
        sizes = sorted(len(d.community.members) for d in detected)
        print(f"{alpha:>6.2f} {len(detected):>6} {purity:>7.3f}  {sizes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
