"""Seeded, stdlib-only input generators for the benchmark workloads.

Every function is a pure function of its arguments: the same seed gives
byte-identical files.  Labels are zero-padded so that commkit's sorted
label order equals the numeric node order.
"""

from __future__ import annotations

import random
from pathlib import Path


def node_label(i: int, n: int) -> str:
    return f"n{i:0{len(str(n - 1))}d}"


def planted_partition(
    n: int, group_size: int, internal_degree: float, external_degree: float, seed: int
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Edges and groups of a planted-partition graph.

    Nodes are dealt into ``n // group_size`` groups in a seeded random
    order (so group sizes differ by at most one).  Each group is a cycle
    plus uniformly drawn internal edges, ``round(size * internal_degree / 2)``
    distinct ones in all, so no node is isolated; the graph then gets
    ``round(n * external_degree / 2)`` distinct uniform edges between groups.
    """
    rng = random.Random(seed)
    group_count = n // group_size
    order = list(range(n))
    rng.shuffle(order)
    groups = [sorted(order[g::group_count]) for g in range(group_count)]
    group_of = [0] * n
    for g, members in enumerate(groups):
        for v in members:
            group_of[v] = g

    edges: set[tuple[int, int]] = set()
    for members in groups:
        size = len(members)
        target = min(round(size * internal_degree / 2), size * (size - 1) // 2)
        cycle = zip(members, members[1:] + members[:1])
        internal = {(min(a, b), max(a, b)) for a, b in cycle if a != b}
        while len(internal) < target:
            a, b = rng.sample(members, 2)
            internal.add((a, b) if a < b else (b, a))
        edges |= internal
    external_target = round(n * external_degree / 2)
    added = 0
    while added < external_target:
        a, b = rng.randrange(n), rng.randrange(n)
        if group_of[a] == group_of[b]:
            continue
        key = (a, b) if a < b else (b, a)
        if key not in edges:
            edges.add(key)
            added += 1
    return sorted(edges), groups


def write_edges(path: Path, edges: list[tuple[int, int]], n: int, seed: int) -> None:
    """Write an edge list in a seeded line order and orientation."""
    rng = random.Random(seed)
    lines = []
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"{node_label(a, n)} {node_label(b, n)}\n")
    rng.shuffle(lines)
    path.write_text("".join(lines))


def write_groups(path: Path, groups: list[list[int]], n: int) -> None:
    """Write ground-truth groups in commkit's community-file format."""
    path.write_text(
        "".join(
            f"g{g}: " + " ".join(node_label(v, n) for v in members) + "\n"
            for g, members in enumerate(groups)
        )
    )


_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "ba", "do", "fu", "gi", "ha", "jo", "pe")


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))))
    return sorted(words)


def write_metadata(path: Path, groups: list[list[int]], n: int, seed: int) -> None:
    """Paper metadata correlated with the planted groups.

    Every node gets a title and an abstract; about 60% also list 2-4
    keyword phrases.  Each group has five topic phrases: keywords are
    mostly drawn from the node's own group topics, and titles and
    abstracts mention them, so unlabeled papers can be confirmed.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 600)
    common = [" ".join(rng.sample(vocab, rng.randint(1, 2))) for _ in range(20)]
    topics = [
        [" ".join(rng.sample(vocab, rng.randint(1, 3))) for _ in range(5)] for _ in groups
    ]
    group_of = {v: g for g, members in enumerate(groups) for v in members}

    def text(words: int, topic: list[str], mentions: int) -> str:
        parts = rng.sample(vocab, words)
        for _ in range(mentions):
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(topic))
        return " ".join(parts)

    rows = []
    for v in range(n):
        topic = topics[group_of[v]]
        title = text(rng.randint(5, 9), topic, rng.randint(0, 1))
        abstract = text(rng.randint(25, 45), topic, rng.randint(0, 3))
        keywords: list[str] = []
        if rng.random() < 0.6:
            for _ in range(rng.randint(2, 4)):
                keywords.append(rng.choice(topic) if rng.random() < 0.8 else rng.choice(common))
        rows.append(f"{node_label(v, n)}\t{title}\t{abstract}\t{';'.join(keywords)}\n")
    path.write_text("".join(rows))
