"""Output checker and exact oracles, run outside every timed region.

The checker reads a job's output directory with its own parsers (not
commkit's) and compares it against:

* networkx on each community's induced subgraph, for ``triangles``,
  ``component_count`` and ``ccc``;
* the closed form of the expected dominating ratio of a uniformly random
  size-K subset, computed in integer arithmetic with one final division.
  By linearity of expectation, with ``c(a) = C(a, K) / C(|C|, K)``::

      E[IDR] = 1 - (1/|C|)  * sum_{v in C}  c(|C| - |N[v] ∩ C|)
      E[EDR] = 1 - (1/|∂C|) * sum_{b in ∂C} c(|C| - |N(b) ∩ C|)

  where ``N[v]`` is the closed neighbourhood and ``∂C`` the outside
  neighbours of C.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import networkx as nx

EXACT_TOLERANCE = 1e-12
P = 0.8  # commkit's --p default, which every job runs with


def read_adjacency(path: Path) -> dict[str, set[str]]:
    """Edge list to label adjacency; self-loops dropped, duplicates collapsed."""
    adjacency: dict[str, set[str]] = {}
    for line in path.read_text().splitlines():
        tokens = line.split()
        if len(tokens) != 2 or line.lstrip().startswith("#") or tokens[0] == tokens[1]:
            continue
        a, b = tokens
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def read_communities(path: Path) -> list[tuple[str, list[str]]]:
    """``id: label ...`` lines; ids default to ``c<line>`` as in commkit."""
    communities = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        community_id = f"c{number}"
        if ":" in line:
            head, _, line = line.partition(":")
            community_id = head.strip()
        communities.append((community_id, line.split()))
    return communities


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def expected_ratio(
    adjacency: dict[str, set[str]], members: list[str], K: int, kind: str
) -> Fraction | None:
    """Exact mean IDR or EDR over all size-K subsets; None when C has no boundary."""
    inside = set(members)
    n = len(inside)
    subsets = comb(n, K)
    if kind == "internal":
        missed = sum(comb(n - 1 - len(adjacency.get(v, set()) & inside), K) for v in inside)
        return 1 - Fraction(missed, n * subsets)
    outside = set().union(*(adjacency.get(v, set()) for v in inside)) - inside
    if not outside:
        return None
    missed = sum(comb(n - len(adjacency[b] & inside), K) for b in outside)
    return 1 - Fraction(missed, len(outside) * subsets)


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of every output file except ``manifest.json``.

    The manifest embeds the output directory and the worker count, so it
    legitimately differs between jobs.
    """
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


def compare_hashes(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    names = sorted(set(reference) | set(other))
    return [
        f"artifact {name} differs from the first job's"
        for name in names
        if reference.get(name) != other.get(name)
    ]


@dataclass
class Verdict:
    """Result of checking one output directory."""

    errors: list[str]
    slope_err_max: float  # over every non-closed slope row, 0.0 when there are none
    purity: float
    coverage: float


def _rows_per_community(
    out: Path, name: str, per: int, ids: list[str], errors: list[str]
) -> list[dict[str, str]]:
    rows = read_rows(out / name)
    expected = [cid for cid in ids for _ in range(per)]
    if [r["community_id"] for r in rows] != expected:
        errors.append(f"{name}: expected {per} row(s) per community in order, got {len(rows)} rows")
    return rows


def check_output(
    out: Path,
    graph: Path,
    communities: Path,
    truth: Path,
    artifacts: tuple[str, ...],
) -> Verdict:
    """Check one job's output directory; every problem becomes an error line."""
    errors = [f"missing artifact {name}" for name in artifacts if not (out / name).is_file()]
    if errors:
        return Verdict(errors, 0.0, 0.0, 0.0)
    try:
        return _check_tables(out, graph, communities, truth, artifacts)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return Verdict([f"unreadable output: {exc!r}"], 0.0, 0.0, 0.0)


def _check_tables(
    out: Path, graph: Path, communities: Path, truth: Path, artifacts: tuple[str, ...]
) -> Verdict:
    errors: list[str] = []
    adjacency = read_adjacency(graph)
    found = read_communities(communities)
    ids = [cid for cid, _ in found]
    members_of = dict(found)
    if not found:
        errors.append("no communities characterized")

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(adjacency)
    nx_graph.add_edges_from((a, b) for a, nbrs in adjacency.items() for b in nbrs if a < b)
    if "communities_meta.csv" in artifacts:
        _rows_per_community(out, "communities_meta.csv", 1, ids, errors)
    for row in _rows_per_community(out, "community_stats.csv", 1, ids, errors):
        members = members_of.get(row["community_id"], [])
        sub = nx_graph.subgraph(members)
        triangles = sum(nx.triangles(sub).values()) // 3
        components = nx.number_connected_components(sub)
        ccc = nx.transitivity(sub)
        if int(row["size"]) != len(set(members)):
            errors.append(f"community_stats {row['community_id']}: size {row['size']}")
        if int(row["triangles"]) != triangles:
            errors.append(f"community_stats {row['community_id']}: triangles {row['triangles']} != {triangles}")
        if int(row["component_count"]) != components:
            errors.append(
                f"community_stats {row['community_id']}: components {row['component_count']} != {components}"
            )
        if abs(float(row["ccc"]) - ccc) > EXACT_TOLERANCE:
            errors.append(f"community_stats {row['community_id']}: ccc {row['ccc']} != {ccc!r}")

    if "domsets.csv" in artifacts:
        for row in _rows_per_community(out, "domsets.csv", 4, ids, errors):
            if row["criterion"] == "p" and row["closed"] == "false" and float(row["achieved_ratio"]) < P:
                errors.append(
                    f"domsets {row['community_id']} {row['mode']}: p-set reaches {row['achieved_ratio']} < {P}"
                )

    slope_err_max = 0.0
    if "slopes.csv" in artifacts:
        for row in _rows_per_community(out, "slopes.csv", 2, ids, errors):
            if row["closed"] == "true":
                continue
            K = int(row["K"])
            exact = expected_ratio(adjacency, members_of.get(row["community_id"], []), K, row["kind"])
            if exact is None:
                errors.append(f"slopes {row['community_id']} {row['kind']}: open row for a closed community")
                continue
            err = abs(float(row["expected"]) - float(exact))
            slope_err_max = max(slope_err_max, err)
            if row["estimator"] == "exact" and err > EXACT_TOLERANCE:
                errors.append(f"slopes {row['community_id']} {row['kind']}: exact row off by {err:.3g}")

    purity, coverage = _purity_coverage(found, read_communities(truth), len(adjacency))
    return Verdict(errors, slope_err_max, purity, coverage)


def _purity_coverage(
    found: list[tuple[str, list[str]]], truth: list[tuple[str, list[str]]], node_count: int
) -> tuple[float, float]:
    """Mean majority share of one ground-truth group, and share of nodes covered."""
    if not found:
        return 0.0, 0.0
    groups = [set(members) for _, members in truth]
    shares = []
    covered: set[str] = set()
    for _, members in found:
        inside = set(members)
        covered |= inside
        shares.append(max(len(inside & g) for g in groups) / len(inside))
    return sum(shares) / len(shares), len(covered) / node_count
