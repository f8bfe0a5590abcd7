"""Undirected simple graphs with dense internal indices and string labels.

A graph is built once from an edge list and never mutated afterwards.  Its
nodes are the ints ``range(node_count)``; every layer reads a node's
neighbors and degree from the ``adjacency`` and ``degrees`` tuples, and its
label from ``label(u)``.

Every input file (edge lists here, community and metadata files in their
modules) is a path, read one line at a time by :func:`_read_lines`: UTF-8,
a leading byte-order mark dropped, lines ending at ``\\n``, ``\\r\\n`` or
``\\r``.  No loader holds the whole file.  :func:`load_graph` streams each
line's label pair into the one :class:`Graph` build, which interns labels
to ints as it goes, appends each edge end to a per-node neighbor-id list,
and sorts the labels once at the end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError


class LoadReport(NamedTuple):
    """The label pairs a :class:`Graph` was built from, and what it dropped or collapsed."""

    lines_read: int = 0
    self_loops_dropped: int = 0
    duplicate_edges_collapsed: int = 0


class Graph:
    """Immutable undirected simple graph.

    Nodes are dense indices ``range(node_count)``, numbered in label order;
    ``label(u)`` maps an index back to its external label and
    ``index(label)`` resolves the other direction.  ``adjacency[u]`` and
    ``degrees[u]`` are the one way to read a node's neighbors and degree.
    """

    __slots__ = ("_adjacency", "_degrees", "_labels", "_label_index", "_num_edges", "load_report")

    def __init__(self, edges: Iterable[tuple[str, str]], extra_nodes: Iterable[str] = ()):
        # Intern labels to ids in order of first sight and append each edge
        # end to a per-node neighbor-id list (a set per node takes about four
        # times the memory); then sort the labels once, renumber every id by
        # its label's rank and drop each node's repeated neighbors.
        ids: dict[str, int] = {}
        neighbors: list[list[int]] = []
        self_loops = 0
        for label in extra_nodes:
            if label not in ids:
                ids[label] = len(neighbors)
                neighbors.append([])
        for a, b in edges:
            if a == b:
                self_loops += 1
                continue
            u = ids.get(a)
            if u is None:
                u = ids[a] = len(neighbors)
                neighbors.append([])
            v = ids.get(b)
            if v is None:
                v = ids[b] = len(neighbors)
                neighbors.append([])
            neighbors[u].append(v)
            neighbors[v].append(u)
        labels = sorted(ids)
        index = dict(zip(labels, range(len(labels))))
        rank = list(map(index.__getitem__, ids))  # id -> rank, sharing the index's ints
        self._labels: tuple[str, ...] = tuple(labels)
        self._label_index: dict[str, int] = index
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(map(rank.__getitem__, neighbors[ids[label]])))) for label in labels
        )
        self._degrees: tuple[int, ...] = tuple(map(len, self._adjacency))
        self._num_edges = sum(self._degrees) // 2
        pairs = sum(map(len, neighbors)) // 2  # each pair that is not a self-loop was appended at both ends
        self.load_report = LoadReport(pairs + self_loops, self_loops, pairs - self._num_edges)

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._num_edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[u]``: the neighbors of ``u``, sorted."""
        return self._adjacency

    @property
    def degrees(self) -> tuple[int, ...]:
        """``degrees[u] == len(adjacency[u])``, computed once."""
        return self._degrees

    def label(self, node: int) -> str:
        return self._labels[node]

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise InputError(f"unknown node label: {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def load_graph(path: str | Path) -> Graph:
    """Parse the whitespace-separated edge list at ``path`` into a :class:`Graph`.

    The file is read one line at a time by :func:`_read_lines` (UTF-8, a
    leading byte-order mark stripped, lines ending in ``\\n``, ``\\r\\n``
    or ``\\r``).

    Lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped, parallel and reversed duplicates are collapsed; the build counts
    them in ``graph.load_report``.  A line without exactly two tokens or with
    bytes that are not UTF-8 raises :class:`InputError` whose message starts
    with ``line N: ``; the first bad line is the one reported, and an edge
    list with no edge raises it too.  Each line's token pair goes straight
    into the :class:`Graph` build, so the cost is one split per line and one
    list append per edge end, plus one sort of the labels and of each node's
    ids.
    """

    def pairs() -> Iterator[list[str]]:
        for line_number, line in enumerate(_read_lines(path), start=1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) != 2:
                raise InputError(f"line {line_number}: expected 2 tokens, got {len(tokens)}")
            yield tokens

    graph = Graph(pairs())
    if not graph.edge_count:
        raise InputError("edge list is empty")
    return graph


_CHUNK = 1 << 15  # characters decoded per read


def _read_lines(path: str | Path) -> Iterator[str]:
    """The text lines of the file at ``path``, one at a time, without their line ends.

    Bytes are decoded as UTF-8 and a leading byte-order mark is dropped.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines) and
    nowhere else (``str.splitlines`` would also split at ``\\x0c``,
    ``\\x85``, ``\\u2028`` and others).  The file is read a chunk at a time
    and each chunk is split in one call, which is cheaper than a Python step
    per line.  A line that runs past its chunk is carried into the next
    read, which is at least as long as the carried part, so a long line is
    not copied once per chunk.  A byte that is not UTF-8 is decoded to a
    lone surrogate, so a chunk that does not encode back raises
    :class:`InputError` naming the line that holds it (``line N: ``),
    after the lines before it.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=None) as file:
        line_number, tail = 0, ""
        while chunk := file.read(max(_CHUNK, len(tail))):
            text = tail + chunk
            lines = text.split("\n")
            tail = lines.pop()  # it may go on in the next chunk
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as err:
                    bad = text.count("\n", 0, err.start)
                    yield from lines[:bad]
                    raise InputError(f"line {line_number + bad + 1}: not valid UTF-8 in {path}") from None
            yield from lines
            line_number += len(lines)
        if tail:
            yield tail


def count_triangles(graph: Graph) -> tuple[int, int]:
    """Exact (triangle count, connected-triple count).

    Triples are ``sum_v deg(v)*(deg(v)-1)/2``; each triangle ``u < v < w`` is
    counted once, at edge ``(u, v)``, from the shorter side: ``u``'s
    neighbors above ``v`` bisected into ``adjacency[v]``, or ``v``'s probed in
    a set of ``u``'s neighbors above ``u``, the only extra memory.
    """
    adjacency = graph.adjacency
    triples = sum(d * (d - 1) // 2 for d in graph.degrees)
    triangles = 0
    for u, nbrs in enumerate(adjacency):
        start = bisect_right(nbrs, u)
        above = set(nbrs[start:])
        last = len(nbrs) - 1
        for j in range(start, last):  # u's last neighbor has none after it
            vn = adjacency[nbrs[j]]
            lo = bisect_right(vn, nbrs[j])
            if len(vn) - lo <= last - j:
                triangles += len(above.intersection(vn[lo:]))
                continue
            end = len(vn)
            for w in nbrs[j + 1:]:
                lo = bisect_left(vn, w, lo)
                if lo == end:
                    break
                triangles += vn[lo] == w
    return triangles, triples
