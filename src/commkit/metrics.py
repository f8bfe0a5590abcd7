"""Per-community and whole-network structural statistics.

Distances never leave the community.  Its split (``Community.split``)
gives each member's inside neighbors, as local indices and as a bitmask
over the members, and its outside neighbors, whose union is the
community's boundary.  Each member's reach set starts as itself plus its
inside neighbors; every round ORs it with its neighbors' reach sets from
the round before, so after round d it holds exactly the members within d
hops.  Pairs first reached in round d are at distance d, the last round
in which any set grew is the diameter, and the distinct final sets are
the connected components.  The rounds stop once every set is full (a
full set is never ORed again) or once a round grows none, so a connected
community takes diameter rounds and any other one diameter + 1.  Two
distance conventions are reported side by side:

* reachable-pairs: mean/max over pairs that are connected inside the
  community (``apl``, ``diameter``), with the component count surfaced;
* penalized: an unreachable pair counts as distance ``|C|`` (one more than
  any possible internal path), giving ``apl_penalized`` and
  ``diameter_penalized``.

The penalized figures are what the aggregate summary reports, since
disconnected communities otherwise look spuriously compact.  Means are
integer sums divided once, so the only rounding is the final division.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .community import Split
from .community import induced_subgraph  # noqa: F401  (bench/tests checks the tracer patches it here)
from .distributions import mean
from .errors import ConfigError
from .graph import Graph, count_triangles

if TYPE_CHECKING:  # annotations only: the metrics stage runs neither layer
    from .domsets import DomSetResult
    from .slopes import SlopeResult


class CommunityStats(NamedTuple):
    community_id: str
    size: int
    apl: float
    diameter: int
    apl_penalized: float
    diameter_penalized: int
    ccc: float
    triangles: int
    connected_triples: int
    component_count: int
    boundary_size: int


def clustering_coefficient(graph: Graph) -> float:
    """Global transitivity: 3·triangles / connected triples (0 when no triples)."""
    triangles, triples = count_triangles(graph)
    return 3 * triangles / triples if triples > 0 else 0.0


def community_stats(split: Split) -> CommunityStats:
    """Distance, clustering and boundary statistics of the community ``split`` splits."""
    _, _, nbrs, masks, outside = split
    n = len(nbrs)

    # reach[i]: the members within `diameter` hops of member i; sums count ordered pairs
    reach = [mask | 1 << i for i, mask in enumerate(masks)]
    reached = sum(r.bit_count() for r in reach)
    distance_sum = reached - n
    diameter = 1 if distance_sum else 0
    full = (1 << n) - 1
    while reached < n * n:  # a full set grows no more
        grown = []
        for r, js in zip(reach, nbrs):
            if r != full:
                for j in js:
                    r |= reach[j]
            grown.append(r)
        total = sum(r.bit_count() for r in grown)
        if total == reached:
            break
        diameter += 1
        distance_sum += diameter * (total - reached)
        reach, reached = grown, total

    pairs = n * (n - 1) // 2
    reachable = (reached - n) // 2
    unreachable = pairs - reachable
    distance_sum //= 2
    # each inside edge i < j once; common neighbors above j avoid double counting
    triangles = sum(
        ((masks[i] & masks[j]) >> (j + 1)).bit_count() for i, js in enumerate(nbrs) for j in js if j > i
    )
    triples = sum(len(js) * (len(js) - 1) // 2 for js in nbrs)
    return CommunityStats(
        community_id=split.community_id,
        size=n,
        apl=distance_sum / reachable if reachable else 0.0,
        diameter=diameter,
        apl_penalized=(distance_sum + n * unreachable) / pairs if pairs else 0.0,
        diameter_penalized=n if unreachable else diameter,
        ccc=3 * triangles / triples if triples > 0 else 0.0,
        triangles=triangles,
        connected_triples=triples,
        component_count=len(set(reach)),
        boundary_size=len(set().union(*outside)),
    )


class TriangleSplit(NamedTuple):
    """Communities split by clustering coefficient at a threshold: above is
    ``ccc > threshold``, below the rest."""

    threshold: float
    above_count: int
    above_mean_triangles: float
    above_empty: bool
    below_count: int
    below_mean_triangles: float
    below_empty: bool


def triangle_split_analysis(
    stats: list[CommunityStats], threshold: float
) -> TriangleSplit:
    """Partition communities at ``ccc > threshold`` and compare triangle mass."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    above = [s.triangles for s in stats if s.ccc > threshold]
    below = [s.triangles for s in stats if s.ccc <= threshold]
    return TriangleSplit(
        threshold,
        len(above), mean(above) if above else 0.0, not above,
        len(below), mean(below) if below else 0.0, not below,
    )


class NetworkSummary(NamedTuple):
    """Unweighted means across communities, plus whole-network transitivity.

    Column layout mirrors the per-community reports: dominating ratios of
    the k-sets, sizes of the p-sets, slopes, then distances and
    clustering.  External columns are averaged over non-closed communities
    and are ``None`` if every community is closed.
    """

    community_count: int
    mean_idr: float
    mean_edr: float | None
    mean_ids_size: float
    mean_eds_size: float | None
    mean_islope: float
    mean_eslope: float | None
    mean_apl: float
    mean_diameter: float
    mean_apl_penalized: float
    mean_diameter_penalized: float
    mean_ccc: float
    ncc: float


def aggregate_stats(
    graph: Graph,
    stats: list[CommunityStats],
    internal: list[tuple[DomSetResult, DomSetResult]],
    external: list[tuple[DomSetResult, DomSetResult]],
    slope_pairs: list[tuple[SlopeResult, SlopeResult]],
) -> NetworkSummary:
    """Network summary row from each community's (k-set, p-set) pairs and
    (ISlope, ESlope) pair; order of the input lists is immaterial."""
    if not stats:
        raise ConfigError("no communities to aggregate")

    open_edr = [k_set.achieved_ratio for k_set, _ in external if not k_set.closed]
    open_eds = [p_set.size for _, p_set in external if not p_set.closed]
    open_esl = [e.slope for _, e in slope_pairs if not e.closed]
    return NetworkSummary(
        community_count=len(stats),
        mean_idr=mean([k_set.achieved_ratio for k_set, _ in internal]),
        mean_edr=mean(open_edr) if open_edr else None,
        mean_ids_size=mean([p_set.size for _, p_set in internal]),
        mean_eds_size=mean(open_eds) if open_eds else None,
        mean_islope=mean([i.slope for i, _ in slope_pairs]),
        mean_eslope=mean(open_esl) if open_esl else None,
        mean_apl=mean([s.apl for s in stats]),
        mean_diameter=mean([s.diameter for s in stats]),
        mean_apl_penalized=mean([s.apl_penalized for s in stats]),
        mean_diameter_penalized=mean([s.diameter_penalized for s in stats]),
        mean_ccc=mean([s.ccc for s in stats]),
        ncc=clustering_coefficient(graph),
    )
