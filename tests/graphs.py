"""Small hand-built graphs and the data directory, shared by the tests.

Plain helpers live here rather than in ``conftest.py`` so that test modules
can import them by a name no other test directory uses.
"""

from pathlib import Path

from commkit import Community, Graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Nine-node fixture with a six-member community {v0..v5} and three outside
# nodes {v6,v7,v8}.  For S = {v3, v4}:
#   N(S, C)      = {v0, v2, v5}
#   N(S, outside) = {v6, v8}
#   N(C, outside) = {v6, v7, v8}
# so IDR(S) = 5/6 and EDR(S) = 2/3.
CORE_FIXTURE_EDGES = [
    ("v0", "v1"),
    ("v0", "v3"),
    ("v2", "v3"),
    ("v3", "v4"),
    ("v4", "v5"),
    ("v3", "v6"),
    ("v4", "v8"),
    ("v0", "v7"),
    ("v6", "v7"),
]


def two_clique_graph() -> Graph:
    """Two K5 cliques joined by a single bridge edge a0-b0."""
    edges = []
    for prefix in ("a", "b"):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((f"{prefix}{i}", f"{prefix}{j}"))
    edges.append(("a0", "b0"))
    return Graph(edges)


def star_graph(leaves: int) -> Graph:
    return Graph([("hub", f"leaf{i:02d}") for i in range(leaves)])


def path_graph(n: int) -> Graph:
    return Graph([(f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def clique_graph(n: int) -> Graph:
    return Graph([(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)])


def whole_community(graph: Graph, community_id: str = "all") -> Community:
    return Community(community_id, frozenset(graph.nodes()), graph)
