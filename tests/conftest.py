"""Shared fixtures: small hand-built graphs and the football dataset."""

import pytest

from commkit import Community, Graph, load_communities, load_graph
from graphs import CORE_FIXTURE_EDGES, DATA_DIR


@pytest.fixture
def core_graph() -> Graph:
    return Graph(CORE_FIXTURE_EDGES)


@pytest.fixture
def core_community(core_graph: Graph) -> Community:
    members = frozenset(core_graph.index(f"v{i}") for i in range(6))
    return Community("core", members)


@pytest.fixture(scope="session")
def football_graph() -> Graph:
    return load_graph(DATA_DIR / "football" / "football.edges")


@pytest.fixture(scope="session")
def football_conferences(football_graph: Graph) -> list[Community]:
    return load_communities(DATA_DIR / "football" / "football.conferences", football_graph)
