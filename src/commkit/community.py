"""Communities: identified node subsets of a graph, plus file I/O.

Community files have one community per line: ``id: label label ...``.
The leading ``id:`` token is optional; missing ids are assigned ``c<line>``.
The id ends at the first colon followed by whitespace or the end of the
line, so a label may hold a colon (``a:b``).
Ids are unique within a file, and a given id is never empty (``: a b``).
Communities may overlap; nothing here assumes disjointness.
A community is its id and its members, and what reads their rows or
labels takes the graph beside it.  :func:`split` is the one place that
splits the members' neighbors into inside and outside, in one pass over
their rows; the paper's N(S, C) and N(S, C̄) of a member subset S are
unions of those parts.  Greedy sets, slope expectations and structural
statistics take a split, so a run splits each community once for all its
records.  None is cached, so memory does not grow with their volume.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import InputError
from .graph import Graph, _read_lines

_ID_END = re.compile(r":(?:\s|$)")


class Split(NamedTuple):
    """A community's members' neighbors in the graph, split into inside and outside.

    Member ``i`` is ``nodes[i]``; the members are in index order.
    """

    community_id: str
    nodes: list[int]
    inside: list[list[int]]  # member i's inside neighbors, as local indices
    masks: list[int]  # the same neighbors as a bitmask: bit j is member j
    outside: list[list[int]]  # member i's outside neighbors, as graph indices


class Community(NamedTuple):
    """A named set of node indices within a graph that is passed beside it."""

    id: str
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


def split(community: Community, graph: Graph) -> Split:
    """One pass over the members' rows of ``graph``; every list is in index order."""
    nodes = sorted(community.members)
    if not nodes:
        raise ValueError(f"community {community.id!r} has no members")
    if nodes[0] < 0 or nodes[-1] >= graph.node_count:
        bad = [m for m in nodes if not 0 <= m < graph.node_count]
        raise ValueError(f"community {community.id!r} has invalid node indices: {bad}")
    local = {v: i for i, v in enumerate(nodes)}
    rows = graph.adjacency
    result = Split(community.id, nodes, [], [], [])
    for v in nodes:
        inside, mask, outside = [], 0, []
        for w in rows[v]:
            j = local.get(w)
            if j is None:
                outside.append(w)
            else:
                inside.append(j)
                mask |= 1 << j
        result.inside.append(inside)
        result.masks.append(mask)
        result.outside.append(outside)
    return result


def induced_subgraph(community: Community, graph: Graph) -> Graph:
    """Graph over the community's members with all intra-community edges.

    Labels are preserved; members without internal edges survive as
    isolated nodes.  The cost is O(vol(C)).
    """
    _, nodes, inside, _, _ = split(community, graph)
    return Graph(
        ((graph.label(nodes[i]), graph.label(nodes[j])) for i, js in enumerate(inside) for j in js if i < j),
        extra_nodes=map(graph.label, nodes),
    )


def load_communities(path: str | Path, graph: Graph) -> list[Community]:
    """Read communities from the file at ``path``, one line at a time, resolving labels against ``graph``."""
    communities: list[Community] = []
    first_line: dict[str, int] = {}
    for line_number, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        community_id = f"c{line_number}"
        id_end = _ID_END.search(line)
        if id_end:
            community_id, line = line[: id_end.start()].strip(), line[id_end.end() :]
            if not community_id:
                raise InputError(f"line {line_number}: empty community id")
        first = first_line.setdefault(community_id, line_number)
        if first != line_number:
            raise InputError(f"line {line_number}: community id {community_id!r} repeats line {first}")
        labels = line.split()
        if not labels:
            raise InputError(f"line {line_number}: community {community_id!r} is empty")
        try:
            members = graph.indices(labels)
        except InputError as err:
            raise InputError(f"line {line_number}: {err}") from None
        if len(members) != len(labels):
            seen: set[str] = set()
            repeated = next(label for label in labels if label in seen or seen.add(label))
            raise InputError(f"line {line_number}: community {community_id!r} repeats label {repeated!r}")
        communities.append(Community(community_id, members))
    return communities


def write_communities(communities: Iterable[Community], graph: Graph, sink: IO) -> None:
    for c in communities:
        sink.write(f"{c.id}: " + " ".join(sorted(map(graph.label, c.members))) + "\n")
