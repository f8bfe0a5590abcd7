import pytest

from commkit import (
    Community,
    Graph,
    induced_subgraph,
    load_communities,
    write_communities,
)
from commkit.errors import InputError
from graphs import write_input


def _indices(graph, *labels):
    return {graph.index(label) for label in labels}


def test_neighbors_out_of_whole_community(core_graph, core_community):
    assert set().union(*core_community.split().outside) == _indices(core_graph, "v6", "v7", "v8")


def test_neighbors_out_empty_for_closed_community():
    g = Graph([("a", "b"), ("c", "d")])
    c = Community("pair", frozenset({g.index("a"), g.index("b")}), g)
    assert c.split().outside == [[], []]


def test_community_rejects_empty_members(core_graph):
    with pytest.raises(ValueError):
        Community("empty", frozenset(), core_graph)


def test_community_rejects_invalid_indices(core_graph):
    with pytest.raises(ValueError):
        Community("bad", frozenset({999}), core_graph)


def test_induced_subgraph_triangle():
    g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    c = Community("tri", frozenset({g.index("a"), g.index("b"), g.index("c")}), g)
    sub = induced_subgraph(c)
    assert sub.node_count == 3
    assert sub.edge_count == 3
    assert {sub.label(u) for u in range(sub.node_count)} == {"a", "b", "c"}


def test_induced_subgraph_singleton():
    g = Graph([("a", "b")])
    c = Community("one", frozenset({g.index("a")}), g)
    sub = induced_subgraph(c)
    assert sub.node_count == 1
    assert sub.edge_count == 0


def test_induced_subgraph_keeps_isolated_members():
    # b has no neighbors inside the community but must not vanish
    g = Graph([("a", "x"), ("b", "x"), ("a", "c")])
    c = Community("mixed", frozenset({g.index("a"), g.index("b"), g.index("c")}), g)
    sub = induced_subgraph(c)
    assert sub.node_count == 3
    assert sub.edge_count == 1
    assert sub.degrees[sub.index("b")] == 0


def test_induced_subgraph_core_fixture(core_graph, core_community):
    sub = induced_subgraph(core_community)
    assert sub.node_count == 6
    assert {sub.label(u) for u in range(sub.node_count)} == {f"v{i}" for i in range(6)}


def test_load_communities_with_and_without_ids(tmp_path):
    g = Graph([("a", "b"), ("b", "c"), ("c", "d")])
    text = "left: a b\nc d\n"
    comms = load_communities(write_input(tmp_path, text), g)
    assert [c.id for c in comms] == ["left", "c2"]
    assert comms[0].member_labels() == ["a", "b"]
    assert comms[1].member_labels() == ["c", "d"]


def test_load_communities_unknown_label(tmp_path):
    g = Graph([("a", "b")])
    with pytest.raises(InputError, match="unknown node label: 'zzz'"):
        load_communities(write_input(tmp_path, "a zzz\n"), g)


def test_load_communities_empty_line_after_id(tmp_path):
    g = Graph([("a", "b")])
    with pytest.raises(InputError, match="line 1: community 'lonely' is empty"):
        load_communities(write_input(tmp_path, "lonely:\n"), g)


def test_load_communities_rejects_an_empty_id(tmp_path):
    # an empty id would be written as an empty cell, which reads as a missing value
    g = Graph([("a", "b"), ("b", "c")])
    with pytest.raises(InputError, match="line 2: empty community id"):
        load_communities(write_input(tmp_path, "x: a b\n: a b c\n"), g)


@pytest.mark.parametrize(
    "text, community_id, labels",
    [
        # no colon is followed by whitespace, so the line has no id
        ("a:b c d\n", "c1", ["a:b", "c", "d"]),
        # the id ends at the first colon followed by whitespace
        ("x: a:b c\n", "x", ["a:b", "c"]),
    ],
    ids=["no-id", "id"],
)
def test_load_communities_label_with_a_colon(tmp_path, text, community_id, labels):
    g = Graph([("a:b", "c"), ("c", "d"), ("d", "a:b")])
    [community] = load_communities(write_input(tmp_path, text), g)
    assert (community.id, community.member_labels()) == (community_id, labels)


@pytest.mark.parametrize(
    "text, message",
    [
        # the same explicit id twice
        ("x: a b\nx: c d\n", "line 2: community id 'x' repeats line 1"),
        # an explicit id equal to a later line's default c<line>
        ("# header\nc3: a b\nc d\n", "line 3: community id 'c3' repeats line 2"),
    ],
    ids=["explicit", "default"],
)
def test_load_communities_rejects_repeated_ids(tmp_path, text, message):
    g = Graph([("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(InputError, match=message):
        load_communities(write_input(tmp_path, text), g)


def test_load_communities_rejects_a_label_repeated_in_one_line(tmp_path):
    g = Graph([("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(InputError, match="line 2: community 'x' repeats label 'a'"):
        load_communities(write_input(tmp_path, "w: a b\nx: a b c a\n"), g)


def test_load_communities_strips_a_byte_order_mark(tmp_path):
    g = Graph([("a", "b"), ("b", "c"), ("c", "d")])
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"x: a b\r\nc d\r\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = [(c.id, c.members) for c in load_communities(plain, g)]
    assert [(c.id, c.members) for c in load_communities(marked, g)] == expected == [
        ("x", frozenset({g.index("a"), g.index("b")})),
        ("c2", frozenset({g.index("c"), g.index("d")})),
    ]


def test_load_communities_accepts_path(tmp_path):
    g = Graph([("a", "b")])
    target = tmp_path / "comms.txt"
    target.write_text("pair: a b\n")
    assert len(load_communities(target, g)) == 1


def test_communities_round_trip(tmp_path):
    g = Graph([("a", "b"), ("b", "c"), ("c", "d")])
    original = load_communities(write_input(tmp_path, "x: a b c\ny: c d\n"), g)
    target = tmp_path / "written.txt"
    with open(target, "w", encoding="utf-8") as sink:
        write_communities(original, sink)
    again = load_communities(target, g)
    assert [(c.id, c.members) for c in again] == [(c.id, c.members) for c in original]


def test_overlapping_communities_are_allowed(tmp_path):
    g = Graph([("a", "b"), ("b", "c")])
    comms = load_communities(write_input(tmp_path, "p: a b\nq: b c\n"), g)
    assert comms[0].members & comms[1].members
