import io
import itertools
import random

import pytest

from commkit import Graph, count_triangles, load_graph, write_graph
from commkit.errors import EmptyGraphError, GraphParseError, UnknownLabelError
from graphs import clique_graph, star_graph


def test_load_drops_self_loops_and_duplicates():
    g = load_graph(io.StringIO("0 1\n1 2\n2 0\n1 1\n0 1\n"))
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.load_report.lines_read == 5
    assert g.load_report.self_loops_dropped == 1
    assert g.load_report.duplicate_edges_collapsed == 1


def test_load_skips_comments_and_blank_lines():
    g = load_graph(io.StringIO("# header\n\na b\n  \n# tail\nb c\n"))
    assert g.node_count == 3
    assert g.edge_count == 2


def test_load_reversed_duplicate_is_collapsed():
    g = load_graph(io.StringIO("a b\nb a\n"))
    assert g.edge_count == 1
    assert g.load_report.duplicate_edges_collapsed == 1


def test_load_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as err:
        load_graph(io.StringIO("a b\nx y z\n"))
    assert "line 2" in str(err.value)


def test_load_empty_stream_is_an_error():
    with pytest.raises(EmptyGraphError):
        load_graph(io.StringIO(""))
    with pytest.raises(EmptyGraphError):
        load_graph(io.StringIO("# only comments\n"))


def test_load_accepts_a_path(tmp_path):
    target = tmp_path / "g.edges"
    target.write_text("a b\nb c\n")
    assert load_graph(target).edge_count == 2
    assert load_graph(str(target)).edge_count == 2


def test_load_strict_text_stream_with_bad_bytes_is_parse_error(tmp_path):
    target = tmp_path / "g.edges"
    target.write_bytes(b"a b\n\xff\xfe c\n")
    with open(target, encoding="utf-8") as stream:
        with pytest.raises(GraphParseError):
            load_graph(stream)


def test_adjacency_is_symmetric_and_sorted():
    g = load_graph(io.StringIO("c a\na b\nb c\nd a\n"))
    for u in g.nodes():
        assert g.neighbors(u) == tuple(sorted(g.neighbors(u)))
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
    assert g.adjacency == tuple(map(g.neighbors, g.nodes()))
    assert g.degrees == tuple(len(g.neighbors(u)) for u in g.nodes())


def test_label_index_bijection():
    g = Graph([("x", "y"), ("y", "z")])
    for u in g.nodes():
        assert g.index(g.label(u)) == u
    assert g.has_label("x")
    assert not g.has_label("w")
    with pytest.raises(UnknownLabelError):
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
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.edge_count


def test_round_trip_write_then_load():
    g = load_graph(io.StringIO("a b\nb c\nc a\nd b\n"))
    buffer = io.StringIO()
    write_graph(g, buffer)
    again = load_graph(io.StringIO(buffer.getvalue()))
    assert again == g


def test_extra_nodes_survive_without_edges():
    g = Graph([("a", "b")], extra_nodes=["c"])
    assert g.node_count == 3
    assert g.degree(g.index("c")) == 0


def _brute_force_triangles(g: Graph) -> int:
    return sum(
        1
        for a, b, c in itertools.combinations(g.nodes(), 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
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
        g = Graph(edges)
        triangles, triples = count_triangles(g)
        assert triangles == _brute_force_triangles(g)
        assert triples == sum(
            g.degree(u) * (g.degree(u) - 1) // 2 for u in g.nodes()
        )
