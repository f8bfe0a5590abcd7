"""Undirected simple graphs with dense internal indices and string labels.

A graph is built once from an edge list and never mutated afterwards.  Its
nodes are the ints ``range(node_count)``; every layer reads a node's
neighbors and degree from the ``adjacency`` and ``degrees`` tuples, and its
label from ``label(u)``.

Every input file (edge lists here, community and metadata files in their
modules) is a path, read a chunk of lines at a time by :func:`_read_chunks`:
UTF-8, a leading byte-order mark dropped, lines ending at ``\\n``,
``\\r\\n`` or ``\\r``.  No loader holds the whole file.  :func:`load_graph`
splits each chunk's lines into token rows with C-level ``map`` and
``filter`` and chains them into the one :class:`Graph` build, so no Python
frame runs per line.  The build interns labels to ints as it goes, appends
each edge end to a per-node neighbor-id list, sorts the labels once, and
then finishes each node's row in one sorted pass.  A repeated edge shows as
a row whose set of ends is smaller than the row, so comparing each row's
set size with its length, in C and stopping at the first row that differs,
says whether any row needs its repeats dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError


class LoadReport(NamedTuple):
    """How many label pairs a :class:`Graph` was built from, and what it dropped or collapsed.

    ``lines_read`` counts the pairs, self-loops and repeats included; for
    :func:`load_graph` those are the edge lines, not the comment or blank
    lines (football's 615 lines hold 613 edges).
    """

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
        # times the memory); then sort the labels once and build each node's
        # row, in label order, by renumbering its ids by their labels' ranks
        # and sorting them.  A row with a repeated neighbor has fewer distinct
        # ends than ends, so the check stops at the first row whose set is
        # smaller than the row; only when there is one is every row rebuilt,
        # keeping the first of each run of equal ends.
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
        pairs = sum(map(len, neighbors)) // 2  # each pair that is not a self-loop was appended at both ends
        labels = sorted(ids)
        index = dict(zip(labels, range(len(labels))))
        rank = list(map(index.__getitem__, ids))  # id -> rank, sharing the index's ints
        adjacency: list[tuple[int, ...]] = []
        for i in map(ids.__getitem__, labels):
            adjacency.append(tuple(sorted(map(rank.__getitem__, neighbors[i]))))
            neighbors[i] = ()  # the shared empty tuple: drop the list now
        if any(map(ne, map(len, map(frozenset, adjacency)), map(len, adjacency))):
            for u, row in enumerate(adjacency):
                adjacency[u] = tuple(dict.fromkeys(row))
        self._labels: tuple[str, ...] = tuple(labels)
        self._label_index: dict[str, int] = index
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(adjacency)
        self._degrees: tuple[int, ...] = tuple(map(len, self._adjacency))
        self._num_edges = sum(self._degrees) // 2
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

    def indices(self, labels: Iterable[str]) -> frozenset[int]:
        """The set of ``index(label)`` over ``labels``, in one C-level map."""
        try:
            return frozenset(map(self._label_index.__getitem__, labels))
        except KeyError as err:
            raise InputError(f"unknown node label: {err.args[0]!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def load_graph(path: str | Path) -> Graph:
    """Parse the whitespace-separated edge list at ``path`` into a :class:`Graph`.

    The file is read a chunk of lines at a time by :func:`_read_chunks`
    (UTF-8, a leading byte-order mark stripped, lines ending in ``\\n``,
    ``\\r\\n`` or ``\\r``).

    Lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped, parallel and reversed duplicates are collapsed; the build counts
    them in ``graph.load_report``.  A line without exactly two tokens or with
    bytes that are not UTF-8 raises :class:`InputError` whose message starts
    with ``line N: ``; the first bad line is the one reported, and an edge
    list with no edge raises it too.  Each chunk's lines become token rows
    through ``filter(None, map(str.split, lines))``, and the rows of every
    chunk are chained straight into the :class:`Graph` build; only a chunk
    whose text holds ``#`` is filtered for comment rows.  So the cost is one
    C-level split per line and one list append per edge end, plus one sort
    of the labels and of each node's row, and one set of each row's ends to
    check for repeated edges, up to the first row that repeats one.  A row
    of other than two tokens fails the build's unpacking, and only then is
    the chunk being read scanned for the line to name.
    """
    chunk: tuple[int, str, list[str]] = (1, "", [])

    def rows() -> Iterator[Iterable[list[str]]]:
        nonlocal chunk
        for chunk in _read_chunks(path):
            _, text, lines = chunk
            tokens = filter(None, map(str.split, lines))
            # a comment filter on every line (lstrip, then startswith) would
            # add about a quarter to the load of a list without comments
            yield [row for row in tokens if row[0][0] != "#"] if "#" in text else tokens

    chunk_rows = rows()
    try:
        graph = Graph(chain.from_iterable(chunk_rows))
    except ValueError:  # a row of other than two tokens
        chunk_rows.close()
        first, _, lines = chunk
        for line_number, line in enumerate(lines, start=first):
            tokens = line.split()
            if tokens and tokens[0][0] != "#" and len(tokens) != 2:
                raise InputError(f"line {line_number}: expected 2 tokens, got {len(tokens)}") from None
        raise
    if not graph.edge_count:
        raise InputError("edge list is empty")
    return graph


_CHUNK = 1 << 15  # characters decoded per read


def _read_chunks(path: str | Path) -> Iterator[tuple[int, str, list[str]]]:
    """The text of the file at ``path``, a chunk at a time: each chunk's first
    line number, its text and its lines, without their line ends.

    Bytes are decoded as UTF-8 and a leading byte-order mark is dropped.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines) and
    nowhere else (``str.splitlines`` would also split at ``\\x0c``,
    ``\\x85``, ``\\u2028`` and others).  The file is read a chunk at a time
    and each chunk is split in one call, which is cheaper than a Python step
    per line.  A line that runs past its chunk is carried into the next
    read, which is at least as long as the carried part, so a long line is
    not copied once per chunk.  A chunk's text holds every one of its lines,
    and may hold the start of the next chunk's first line too.  A byte that
    is not UTF-8 is decoded to a lone surrogate, so a chunk that does not
    encode back raises :class:`InputError` naming the line that holds it
    (``line N: ``), after a last chunk of the lines before it.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=None) as file:
        line_number, tail = 1, ""
        while chunk := file.read(max(_CHUNK, len(tail))):
            text = tail + chunk
            lines = text.split("\n")
            tail = lines.pop()  # it may go on in the next chunk
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as err:
                    bad = text.count("\n", 0, err.start)
                    yield line_number, text, lines[:bad]
                    raise InputError(f"line {line_number + bad}: not valid UTF-8 in {path}") from None
            yield line_number, text, lines
            line_number += len(lines)
        if tail:
            yield line_number, tail, [tail]


def _read_lines(path: str | Path) -> Iterator[str]:
    """The text lines of the file at ``path``, one at a time, without their
    line ends: the lines of :func:`_read_chunks`, chained."""
    return chain.from_iterable(map(itemgetter(2), _read_chunks(path)))


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
