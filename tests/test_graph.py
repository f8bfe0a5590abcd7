import gc
import itertools
import random
import tracemalloc
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commkit import Graph, count_triangles, load_graph
from commkit import graph as graph_module
from commkit.errors import InputError
from commkit.graph import LoadReport
from graphs import clique_graph, fastest, networkx_graph, star_graph, write_input


def test_load_drops_self_loops_and_duplicates(tmp_path):
    g = load_graph(write_input(tmp_path, "0 1\n1 2\n2 0\n1 1\n0 1\n"))
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.load_report.lines_read == 5
    assert g.load_report.self_loops_dropped == 1
    assert g.load_report.duplicate_edges_collapsed == 1


def test_graph_build_reports_its_pairs():
    # a self-loop, an edge and its reversed duplicate, without a file
    assert Graph([("a", "a"), ("a", "b"), ("b", "a")]).load_report == LoadReport(3, 1, 1)
    assert Graph([], extra_nodes=["a"]).load_report == LoadReport(0, 0, 0)


def test_load_skips_comments_and_blank_lines(tmp_path):
    g = load_graph(write_input(tmp_path, "# header\n\na b\n  \n# tail\nb c\n"))
    assert g.node_count == 3
    assert g.edge_count == 2


def test_load_reversed_duplicate_is_collapsed(tmp_path):
    g = load_graph(write_input(tmp_path, "a b\nb a\n"))
    assert g.edge_count == 1
    assert g.load_report.duplicate_edges_collapsed == 1


def test_load_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(InputError) as err:
        load_graph(write_input(tmp_path, "a b\nx y z\n"))
    assert "line 2" in str(err.value)


def test_load_empty_stream_is_an_error(tmp_path):
    with pytest.raises(InputError, match="edge list is empty"):
        load_graph(write_input(tmp_path, ""))
    with pytest.raises(InputError, match="edge list is empty"):
        load_graph(write_input(tmp_path, "# only comments\n"))


def test_load_accepts_a_path(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text("a b\nb c\n")
    assert load_graph(target).edge_count == 2
    assert load_graph(str(target)).edge_count == 2


def test_load_strict_text_stream_with_bad_bytes_is_parse_error(tmp_path):
    target = write_input(tmp_path, b"a b\n\xff\xfe c\n")
    with pytest.raises(InputError, match="line 2: not valid UTF-8"):
        load_graph(target)


def test_load_strips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_bytes(b"a b\nb c\nc d\nd e\ne f\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    g = load_graph(marked)
    assert g == load_graph(plain)
    assert g.node_count == 6
    assert g.load_report == load_graph(plain).load_report


def test_load_splits_lines_only_at_newline_characters(tmp_path):
    # \x0c and \x85 are whitespace inside a line, never line ends
    g = load_graph(write_input(tmp_path, "a\x0cb\nc\x85d\r\ne f\rg h"))
    assert g.edge_count == 4
    with pytest.raises(InputError, match="line 1: expected 2 tokens, got 4"):
        load_graph(write_input(tmp_path, "a b\u2028c d\n"))


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"a b\nx y z\nc d\nd \xff\n", "line 2: expected 2 tokens, got 3"),
        (b"a b\nx \xff\nc d\nd e f\n", "line 2: not valid UTF-8"),
    ],
    ids=["parse error first", "bad byte first"],
)
def test_load_reports_the_first_bad_line(tmp_path, raw, message):
    with pytest.raises(InputError, match=message):
        load_graph(write_input(tmp_path, raw))


def _labels(g: Graph) -> list[str]:
    return [g.label(u) for u in range(g.node_count)]


_LABELS = st.sampled_from(["a", "b", "c", "d", "e", "10", "9", "\u00e9t\u00e9"])
_LINE_ENDS = ("\n", "\r\n", "\r")
# reads of a few characters split lines, \r\n pairs and multibyte labels across chunks
_CHUNK_SIZES = st.sampled_from([1, 2, 3, 8, graph_module._CHUNK])


@st.composite
def edge_list_lines(draw):
    """Lines of an edge list: pairs (self-loops, repeats and reversals
    likely on eight labels), comments and blank lines."""
    line = st.one_of(
        st.tuples(_LABELS, _LABELS).map(" ".join),
        st.tuples(_LABELS, _LABELS).map(lambda pair: "\t{} \t {}  ".format(*pair)),
        st.sampled_from(["# comment", "  #x y z", "", "   ", "\t"]),
    )
    return draw(st.lists(line, min_size=1, max_size=30))


def _pairs(lines):
    rows = [line.split() for line in lines]
    return [tuple(row) for row in rows if row and not row[0].startswith("#")]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edge_list_lines(), st.data())
def test_load_matches_networkx_and_brute_force_counts(tmp_path_factory, lines, data):
    text = ""
    for line in lines:
        # an empty line after a lone \r would join the two ends into one \r\n
        if not line and text.endswith("\r"):
            line = " "
        text += line + data.draw(st.sampled_from(_LINE_ENDS))
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    pairs = _pairs(lines)
    edges = [(a, b) for a, b in pairs if a != b]
    target = write_input(tmp_path_factory.mktemp("load"), text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK", data.draw(_CHUNK_SIZES))
        if not edges:
            with pytest.raises(InputError, match="edge list is empty"):
                load_graph(target)
            return
        g = load_graph(target)
    oracle = nx.Graph(edges)
    assert set(_labels(g)) == set(oracle.nodes)
    for u, neighbors in enumerate(g.adjacency):
        assert set(map(g.label, neighbors)) == set(oracle[g.label(u)])
    assert g.edge_count == oracle.number_of_edges()
    assert g.load_report == LoadReport(
        lines_read=len(pairs),
        self_loops_dropped=len(pairs) - len(edges),
        duplicate_edges_collapsed=len(edges) - len(set(map(frozenset, edges))),
    )
    assert g == Graph(pairs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_list_lines(), st.data())
def test_load_reports_the_line_of_a_bad_byte(tmp_path_factory, lines, data):
    k = data.draw(st.integers(1, len(lines)))
    directory = tmp_path_factory.mktemp("bad")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK", data.draw(_CHUNK_SIZES))
        for end in _LINE_ENDS:
            raw = [line.encode() for line in lines]
            raw[k - 1] += b" \xff"
            with pytest.raises(InputError) as err:
                load_graph(write_input(directory, end.encode().join(raw)))
            assert str(err.value).startswith(f"line {k}: "), end


def test_load_reads_a_file_of_many_chunks(tmp_path):
    # 10,000 lines of two-byte characters span many decoder reads and reader chunks
    lines = [f"\u00e9{i} \u00e9{i + 1}" for i in range(10_000)]
    g = load_graph(write_input(tmp_path, "\r\n".join(lines)))
    assert g == Graph(line.split() for line in lines)
    raw = [line.encode() for line in lines]
    raw[8_000] += b"\xff"
    with pytest.raises(InputError, match="line 8001: not valid UTF-8"):
        load_graph(write_input(tmp_path, b"\r\n".join(raw)))


def test_adjacency_is_symmetric_and_sorted(tmp_path):
    g = load_graph(write_input(tmp_path, "c a\na b\nb c\nd a\n"))
    assert _labels(g) == ["a", "b", "c", "d"]
    for u, neighbors in enumerate(g.adjacency):
        assert neighbors == tuple(sorted(neighbors))
        for v in neighbors:
            assert u in g.adjacency[v]
    assert g.degrees == tuple(map(len, g.adjacency))


def test_label_index_bijection():
    g = Graph([("x", "y"), ("y", "z")])
    for u in range(g.node_count):
        assert g.index(g.label(u)) == u
    with pytest.raises(InputError, match="unknown node label: 'w'"):
        g.index("w")


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if not edges:
            continue
        g = Graph(edges)
        assert sum(g.degrees) == 2 * g.edge_count


def test_extra_nodes_survive_without_edges():
    g = Graph([("a", "b")], extra_nodes=["c"])
    assert g.node_count == 3
    assert g.degrees[g.index("c")] == 0


def _brute_force_triangles(edges: list[tuple[str, str]]) -> int:
    linked = set(map(frozenset, edges))
    nodes = sorted({v for edge in edges for v in edge})
    return sum(
        1
        for a, b, c in itertools.combinations(nodes, 3)
        if {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= linked
    )


def test_count_triangles_small_cases():
    assert count_triangles(clique_graph(3)) == (1, 3)
    assert count_triangles(star_graph(4)) == (0, 6)
    assert count_triangles(clique_graph(4)) == (4, 12)


def test_count_triangles_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(3, 12)
        edges = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        if not edges:
            continue
        triangles, triples = count_triangles(Graph(edges))
        assert triangles == _brute_force_triangles(edges)
        degrees = Counter(v for edge in edges for v in edge)
        assert triples == sum(d * (d - 1) // 2 for d in degrees.values())


@pytest.mark.parametrize(
    "edges, extra_nodes",
    [
        # isolated nodes, given only as extra nodes, sort before, between and after the rest
        ([("b", "c"), ("c", "d"), ("d", "b"), ("d", "e")], ["a", "bb", "z"]),
        ([(f"v{i}", f"v{j}") for i in range(7) for j in range(i + 1, 7)], []),
        # a star whose hub has the lowest index, then one whose hub has the highest
        ([("a", f"leaf{i}") for i in range(6)], []),
        ([("z", f"leaf{i}") for i in range(6)], []),
        # the same stars with one triangle through the hub
        ([("a", f"leaf{i}") for i in range(6)] + [("leaf0", "leaf5")], ["m"]),
        ([("z", f"leaf{i}") for i in range(6)] + [("leaf0", "leaf5")], ["m"]),
        # a hub in the middle of label order, with leaves on both sides and triangles across it
        ([("m", f"{side}{i}") for side in "az" for i in range(6)] + [("a0", "z0"), ("a1", "a2"), ("z3", "z4")], []),
    ],
    ids=[
        "isolated",
        "clique",
        "star-low-hub",
        "star-high-hub",
        "low-hub-triangle",
        "high-hub-triangle",
        "mid-hub-triangles",
    ],
)
def test_count_triangles_matches_networkx(edges, extra_nodes):
    g = Graph(edges, extra_nodes=extra_nodes)
    oracle = networkx_graph(g, edges)
    assert oracle.number_of_nodes() == g.node_count
    triangles, triples = count_triangles(g)
    assert triangles == sum(nx.triangles(oracle).values()) // 3 == _brute_force_triangles(edges)
    assert triples == sum(d * (d - 1) // 2 for _, d in oracle.degree())


def test_count_triangles_is_linear_around_a_hub_anywhere_in_label_order():
    # every edge costs at most min(deg u, deg v) lookups, so a star costs the same wherever
    # its hub sorts; walking all of v's higher neighbors per edge made the middle hub
    # 5,000 x 5,000 lookups, about 50 times the low hub's time
    leaves = 5_000
    middle_edges = [("m", f"{side}{i}") for side in "az" for i in range(leaves)] + [("a0", "z0")]
    middle = Graph(middle_edges)
    low = Graph([("0", f"{side}{i}") for side in "az" for i in range(leaves)])
    assert count_triangles(middle) == (1, 2 * leaves * (2 * leaves - 1) // 2 + 2)
    assert count_triangles(middle)[0] == sum(nx.triangles(networkx_graph(middle, middle_edges)).values()) // 3
    assert fastest(lambda: count_triangles(middle)) < 5 * fastest(lambda: count_triangles(low))


def test_load_reads_a_long_line_in_linear_time(tmp_path):
    # carrying a long line whole into a read of fixed size would copy it once per
    # 32k-character chunk: about 30 times the short lines' time here
    size = 4_000_000
    long = write_input(tmp_path, "#" + "x" * size + "\na b\n", "long.edges")
    short = write_input(tmp_path, ("#" + "x" * 999 + "\n") * (size // 1000) + "a b\n", "short.edges")
    assert fastest(lambda: load_graph(long)) < 5 * fastest(lambda: load_graph(short))


def _random_edge_list(path, lines: int, nodes: int, seed: int) -> None:
    rng = random.Random(seed)
    path.write_text("".join(f"v{rng.randrange(nodes)} v{rng.randrange(nodes)}\n" for _ in range(lines)))


def _traced(call):
    """``call()``'s result, the traced memory it still holds and its traced peak, in bytes."""
    gc.collect()  # a full collection also empties the tuple and list free lists
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_load_peak_memory_is_a_small_multiple_of_the_graph(tmp_path):
    # a neighbor set per node during the build peaks near 4.9x the graph here, a list per node near 2.6x
    target = tmp_path / "g.edges"
    _random_edge_list(target, lines=30_000, nodes=5_000, seed=20)
    g, retained, peak = _traced(lambda: load_graph(target))
    assert g.load_report.lines_read == 30_000
    assert peak <= 3.5 * retained, (peak, retained)


def test_load_holds_no_line_it_has_parsed(tmp_path):
    # a list of the file's lines peaked at about 10 MiB here
    target = write_input(tmp_path, "# a comment line\n" * 100_000 + "a b\nb c\n")
    g, _, peak = _traced(lambda: load_graph(target))
    assert g.edge_count == 2
    assert peak < 1024 * 1024, peak


@pytest.mark.parametrize("bad_line", [b"x y z", b"x \xff"], ids=["parse error", "bad byte"])
def test_a_load_that_raises_leaves_its_file_closed(tmp_path, monkeypatch, bad_line):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(graph_module, "open", recording_open, raising=False)
    target = write_input(tmp_path, b"a b\n" + bad_line + b"\nb c\n")
    with pytest.raises(InputError, match="line 2"):
        load_graph(target)
    [file] = opened
    assert file.closed


def test_count_triangles_needs_no_whole_graph_copy(tmp_path):
    # a set per node would hold every edge twice (several MB here)
    target = tmp_path / "g.edges"
    _random_edge_list(target, lines=30_000, nodes=5_000, seed=20)
    g = load_graph(target)
    _, _, peak = _traced(lambda: count_triangles(g))
    assert peak < 64 * 1024, peak
