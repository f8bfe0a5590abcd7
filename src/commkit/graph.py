"""Undirected simple graphs with dense internal indices and string labels.

A graph is built once from an edge list and never mutated afterwards, so
every query here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import EmptyGraphError, GraphParseError, UnknownLabelError


@dataclass(frozen=True)
class LoadReport:
    """What was dropped or collapsed while reading an edge list."""

    lines_read: int = 0
    self_loops_dropped: int = 0
    duplicate_edges_collapsed: int = 0


class Graph:
    """Immutable undirected simple graph.

    Nodes are dense indices ``0..n-1``; ``labels[i]`` maps an index back to
    its external label and ``index(label)`` resolves the other direction.
    """

    __slots__ = ("_adjacency", "_degrees", "_labels", "_label_index", "_num_edges", "load_report")

    def __init__(
        self,
        edges: Iterable[tuple[str, str]],
        load_report: LoadReport | None = None,
        extra_nodes: Iterable[str] = (),
    ):
        adjacency: dict[str, set[str]] = {label: set() for label in extra_nodes}
        for a, b in edges:
            if a == b:
                continue
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        labels = sorted(adjacency)
        index = {label: i for i, label in enumerate(labels)}
        self._labels: tuple[str, ...] = tuple(labels)
        self._label_index: dict[str, int] = index
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(index[w] for w in adjacency[label])) for label in labels
        )
        self._degrees: tuple[int, ...] = tuple(map(len, self._adjacency))
        self._num_edges = sum(self._degrees) // 2
        self.load_report = load_report

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._num_edges

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[u]``: the sorted neighbors of ``u``, for loops that index it directly."""
        return self._adjacency

    @property
    def degrees(self) -> tuple[int, ...]:
        """``degrees[u] == degree(u)``, computed once."""
        return self._degrees

    def label(self, node: int) -> str:
        return self._labels[node]

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def has_label(self, label: str) -> bool:
        return label in self._label_index

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return self._degrees[node]

    def has_edge(self, u: int, v: int) -> bool:
        a, b = self._adjacency[u], self._adjacency[v]
        if len(b) < len(a):
            return u in b
        return v in a

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    def nodes(self) -> range:
        return range(self.node_count)

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

    ``source`` may be an open file object or a path.

    Lines starting with ``#`` and blank lines are ignored.  Self-loops are
    dropped, parallel and reversed duplicates are collapsed; the counts end
    up in ``graph.load_report``.
    """
    edges: set[tuple[str, str]] = set()
    self_loops = 0
    duplicates = 0
    lines_read = 0
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines_read += 1
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(f"expected 2 tokens, got {len(tokens)}", line_number)
        a, b = tokens
        if a == b:
            self_loops += 1
            continue
        key = (a, b) if a < b else (b, a)
        if key in edges:
            duplicates += 1
        edges.add(key)
    if not edges:
        raise EmptyGraphError("edge list is empty")
    report = LoadReport(lines_read, self_loops, duplicates)
    return Graph(edges, load_report=report)


def _iter_lines(source: IO | str | Path) -> Iterator[str]:
    """Text lines of a path or stream; bytes that are not UTF-8 raise GraphParseError."""
    if isinstance(source, (str, Path)):
        # undecodable bytes become lone surrogates, caught below with their line number
        with open(source, encoding="utf-8", errors="surrogateescape") as handle:
            yield from _decoded(handle, source)
        return
    yield from _decoded(source, "input")


def _decoded(lines: Iterable[str | bytes], name: str | Path) -> Iterator[str]:
    # A text stream opened with strict decoding raises while iterating; it
    # decodes whole chunks, so the line number is the first one not yet yielded.
    yielded = 0
    try:
        for raw in lines:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            elif not raw.isascii():
                raw.encode("utf-8")
            yield raw
            yielded += 1
    except UnicodeError:
        raise GraphParseError(f"not valid UTF-8 in {name}", yielded + 1) from None


def write_graph(graph: Graph, sink: IO) -> None:
    """Write the graph back out as a label edge list (one edge per line)."""
    for u, v in graph.edges():
        sink.write(f"{graph.label(u)} {graph.label(v)}\n")


def count_triangles(graph: Graph) -> tuple[int, int]:
    """Exact (triangle count, connected-triple count).

    Triples are ``sum_v deg(v)*(deg(v)-1)/2``; each triangle is counted once.
    """
    triples = sum(d * (d - 1) // 2 for d in map(graph.degree, graph.nodes()))
    adjacency_sets = [set(graph.neighbors(u)) for u in graph.nodes()]
    triangles = 0
    for u, nbrs in enumerate(adjacency_sets):
        # each edge u < v once; common neighbors above v avoid double counting
        triangles += sum(1 for v in nbrs if v > u for w in nbrs & adjacency_sets[v] if w > v)
    return triangles, triples
