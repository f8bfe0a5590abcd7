"""Small hand-built graphs and the data directory, shared by the tests.

Plain helpers live here rather than in ``conftest.py`` so that test modules
can import them by a name no other test directory uses.
"""

import random
import time
from pathlib import Path

import networkx as nx

from commkit import Community, DomSetResult, Graph, greedy_ids

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

# Two K5 cliques joined by a single bridge edge a0-b0.
TWO_CLIQUE_EDGES = [
    *((f"{prefix}{i}", f"{prefix}{j}") for prefix in ("a", "b") for i in range(5) for j in range(i + 1, 5)),
    ("a0", "b0"),
]


def write_input(directory: Path, content: str | bytes, name: str = "input.txt") -> Path:
    """Write ``content`` to ``directory / name`` as is and return the path.

    Text is encoded as UTF-8 with its line ends kept, as ``newline=""``
    would write it, so a test controls every byte the loader reads.
    """
    path = directory / name
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return path


def two_clique_graph() -> Graph:
    return Graph(TWO_CLIQUE_EDGES)


def star_graph(leaves: int) -> Graph:
    return Graph([("hub", f"leaf{i:02d}") for i in range(leaves)])


def path_edges(n: int) -> list[tuple[str, str]]:
    return [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]


def path_graph(n: int) -> Graph:
    return Graph(path_edges(n))


def clique_graph(n: int) -> Graph:
    return Graph([(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)])


def networkx_graph(graph: Graph, edges: list[tuple[str, str]]) -> nx.Graph:
    """The networkx oracle of ``Graph(edges, extra_nodes=...)``: ``edges`` plus every node of ``graph``."""
    whole = nx.Graph(edges)
    whole.add_nodes_from(map(graph.label, range(graph.node_count)))
    return whole


def planted_partition(seed: int, group_count: int = 20) -> tuple[list[tuple[str, str]], list[Community]]:
    """Edges and groups of a seeded planted partition: ``group_count`` groups
    of 100, so 2000 nodes by default.

    Nodes are dealt into the groups in a seeded random order.  Each group is
    a cycle plus uniform internal edges up to 500 in all (internal degree
    10); then one uniform edge per node joins different groups (external
    degree 2).
    """
    rng = random.Random(seed)
    n = 100 * group_count
    order = list(range(n))
    rng.shuffle(order)
    groups = [sorted(order[g::group_count]) for g in range(group_count)]
    group_of = {v: g for g, members in enumerate(groups) for v in members}
    pairs: set[tuple[int, int]] = set()
    for members in groups:
        internal = {tuple(sorted(pair)) for pair in zip(members, members[1:] + members[:1])}
        while len(internal) < 500:
            internal.add(tuple(sorted(rng.sample(members, 2))))
        pairs |= internal
    external = 0
    while external < n:
        pair = tuple(sorted(rng.sample(range(n), 2)))
        if group_of[pair[0]] != group_of[pair[1]] and pair not in pairs:
            pairs.add(pair)
            external += 1
    edges = [(f"n{a:04d}", f"n{b:04d}") for a, b in sorted(pairs)]
    graph = Graph(edges)
    return edges, [
        Community(f"g{g:02d}", frozenset(graph.index(f"n{v:04d}") for v in members), graph)
        for g, members in enumerate(groups)
    ]


class Coverage:
    """The paper's IDR and EDR oracle: coverage of any member subset of one
    community, from networkx's neighbour sets of the graph built from ``edges``.

    Each member's inside reach (itself and its neighbours in the community)
    and outside reach (its neighbours outside) are taken once, so scoring
    every subset of a fixture stays cheap.  Subsets hold node indices.
    """

    def __init__(self, edges: list[tuple[str, str]], community: Community):
        whole = networkx_graph(community.graph, edges)
        label = community.graph.label
        members = set(map(label, community.members))
        self.reach: dict[str, dict[int, set[str]]] = {"internal": {}, "external": {}}
        for v in community.members:
            neighbours = set(whole[label(v)])
            self.reach["internal"][v] = neighbours & members | {label(v)}
            self.reach["external"][v] = neighbours - members
        self.universe = {"internal": members, "external": set().union(*self.reach["external"].values())}

    def covered(self, subset, mode: str) -> int:
        """|S ∪ N(S, C)| in the internal mode, |N(S, C̄)| in the external one."""
        return len(set().union(*(self.reach[mode][v] for v in subset)))

    def ratio(self, subset, mode: str) -> float | None:
        """IDR or EDR of ``subset``; None for the EDR of a closed community."""
        universe = len(self.universe[mode])
        return self.covered(subset, mode) / universe if universe else None


def fastest(call) -> float:
    """Best-of-3 process time of ``call()``, in seconds."""
    runs = []
    for _ in range(3):
        start = time.process_time()
        call()
        runs.append(time.process_time() - start)
    return min(runs)


def whole_community(graph: Graph, community_id: str = "all") -> Community:
    return Community(community_id, frozenset(range(graph.node_count)), graph)


def k_set(greedy, community: Community, k: int) -> DomSetResult:
    """The k-set of ``greedy_ids`` or ``greedy_eds``; p = 0 adds no picks to its order."""
    return greedy(community.split(), k, 0.0)[0]


def p_set(greedy, community: Community, p: float) -> DomSetResult:
    """The p-set of ``greedy_ids`` or ``greedy_eds``; k = 1 adds no picks past its first."""
    return greedy(community.split(), 1, p)[1]


def p_ids(community: Community, p: float = 0.8) -> DomSetResult:
    """The community's greedy p-internal dominating set, as the pipeline builds it."""
    return p_set(greedy_ids, community, p)


def reference_greedy(community: Community, mode: str, k: int | None = None, p: float | None = None) -> DomSetResult:
    """One greedy set by its own loop, in k-mode or p-mode: the oracle for ``greedy_ids`` and ``greedy_eds``.

    Covers are read from the graph's rows.  Each pick takes the largest gain,
    ties going to the lowest index, zero gains allowed.  k-mode makes exactly
    ``min(k, |C|)`` picks; p-mode stops as soon as coverage/|universe|
    reaches p.  An empty universe gives the closed sentinel.
    """
    members, rows = community.members, community.graph.adjacency
    if mode == "internal":
        cover_of = {v: frozenset((v, *(w for w in rows[v] if w in members))) for v in members}
        universe = members
    else:
        cover_of = {v: frozenset(w for w in rows[v] if w not in members) for v in members}
        universe = frozenset().union(*cover_of.values())
    candidates = sorted(members)
    chosen: list[int] = []
    covered: set[int] = set()
    target = min(k, community.size) if k is not None else community.size
    for _ in range(target if universe else 0):
        if p is not None and len(covered) / len(universe) >= p:
            break
        best, best_gain = None, -1
        for v in candidates:
            if v in chosen:
                continue
            gain = len(cover_of[v] - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
        covered |= cover_of[best]
    return DomSetResult(
        community_id=community.id,
        mode=mode,
        criterion="k" if k is not None else "p",
        criterion_value=k if k is not None else p,
        members=frozenset(chosen),
        achieved_ratio=len(covered) / len(universe) if universe else None,
        closed=not universe,
    )
