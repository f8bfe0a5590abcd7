"""Communities: identified node subsets of a graph, plus file I/O.

Community files have one community per line: ``id: label label ...``.
The leading ``id:`` token is optional; missing ids are assigned ``c<line>``.
The id ends at the first colon followed by whitespace or the end of the
line, so a label may hold a colon (``a:b``).
Ids are unique within a file, and a given id is never empty (``: a b``).
Communities may overlap; nothing here assumes disjointness.
``Community.split`` is the one place that splits the members' neighbors
into inside and outside, in one pass over their rows; the paper's N(S, C)
and N(S, C̄) of a member subset S are unions of those parts.  Greedy sets,
slope expectations and structural statistics take a split, so a run
splits each community once for all its records.  None is cached: a
community holds only its id, members and graph, so a run's memory does
not grow with the volume of its communities.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import InputError
from .graph import Graph, _read_lines

_ID_END = re.compile(r":(?:\s|$)")


class Split(NamedTuple):
    """A community's members' neighbors, split into inside and outside.

    Member ``i`` is ``nodes[i]``; the members are in index order.
    """

    community_id: str
    nodes: list[int]
    inside: list[list[int]]  # member i's inside neighbors, as local indices
    masks: list[int]  # the same neighbors as a bitmask: bit j is member j
    outside: list[list[int]]  # member i's outside neighbors, as graph indices


class Community:
    """A named set of node indices within ``graph``.

    Its fields are read-only, and ``==`` and ``hash`` go by ``(id, members)``:
    the graph takes no part in them.
    """

    def __init__(self, id: str, members: frozenset[int], graph: Graph):
        if not members:
            raise ValueError(f"community {id!r} has no members")
        n = graph.node_count
        bad = [m for m in members if not 0 <= m < n]
        if bad:
            raise ValueError(f"community {id!r} has invalid node indices: {bad}")
        vars(self).update(id=id, members=members, graph=graph)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.members) == (other.id, other.members)

    def __hash__(self) -> int:
        return hash((self.id, self.members))

    def __repr__(self) -> str:
        return f"Community(id={self.id!r}, members={self.members!r})"

    @property
    def size(self) -> int:
        return len(self.members)

    def split(self) -> Split:
        """One pass over the members' rows; every list is in index order."""
        nodes = sorted(self.members)
        local = {v: i for i, v in enumerate(nodes)}
        rows = self.graph.adjacency
        split = Split(self.id, nodes, [], [], [])
        for v in nodes:
            inside, mask, outside = [], 0, []
            for w in rows[v]:
                j = local.get(w)
                if j is None:
                    outside.append(w)
                else:
                    inside.append(j)
                    mask |= 1 << j
            split.inside.append(inside)
            split.masks.append(mask)
            split.outside.append(outside)
        return split

    def member_labels(self) -> list[str]:
        return sorted(self.graph.label(m) for m in self.members)


def induced_subgraph(community: Community) -> Graph:
    """Graph over the community's members with all intra-community edges.

    Labels are preserved; members without internal edges survive as
    isolated nodes.  The cost is O(vol(C)).
    """
    label = community.graph.label
    _, nodes, inside, _, _ = community.split()
    return Graph(
        ((label(nodes[i]), label(nodes[j])) for i, js in enumerate(inside) for j in js if i < j),
        extra_nodes=map(label, nodes),
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
        communities.append(Community(community_id, members, graph))
    return communities


def write_communities(communities: Iterable[Community], sink: IO) -> None:
    for c in communities:
        sink.write(f"{c.id}: " + " ".join(c.member_labels()) + "\n")
