"""A speed probe: how fast the host runs Python graph code right now.

On a shared host the same job takes up to twice as long when other tenants
load the machine, and the load changes within seconds, so a job's time says
as much about the host as about commkit.  This probe runs beside each job,
on the same CPU, and the benchmark scales the job's CPU time by the probe's
rate over the same interval (``run.py`` explains the scaling).

The probe's work never changes with commkit.  One unit is a breadth-first
search over a small graph that stays in cache plus a few bounded searches
over a large graph that does not.  The two halves take about the same time.
Alone, a job slows less than cache-resident work and more than
memory-bound work when the host is loaded; together the halves slow about
as much as commkit's jobs do.

Run as a script, it builds its graphs, prints ``ready``, then runs units
until standard input closes.  For every line it reads it answers
``<units done> <its CPU seconds when the last one ended>``:

    python bench/calibrate.py
"""

from __future__ import annotations

import random
import select
import sys
from collections import deque
from time import process_time

SMALL = 5_000  # nodes; the whole graph is searched
LARGE = 250_000  # nodes; each search stops after REACH of them
REACH = 5_000
LARGE_SEARCHES = 2
DEGREE = 12


def random_graph(n: int, seed: int) -> list[tuple[int, ...]]:
    """Each node's out-neighbors, DEGREE nodes drawn at random."""
    rng = random.Random(seed)
    nodes = list(range(n))  # shared int objects keep the graph small
    return [tuple(rng.choices(nodes, k=DEGREE)) for _ in nodes]


def bfs(neighbors: list[tuple[int, ...]], source: int, reach: int) -> int:
    dist = {source: 0}
    queue = deque([source])
    while queue and len(dist) < reach:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return len(dist)


def main() -> None:
    small, large = random_graph(SMALL, 0), random_graph(LARGE, 1)
    print("ready", flush=True)
    units, cpu = 0, process_time()
    while True:
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return
            print(units, repr(cpu), flush=True)
        bfs(small, units % SMALL, SMALL)
        for i in range(LARGE_SEARCHES):
            bfs(large, (units * LARGE_SEARCHES + i) * 7919 % LARGE, REACH)
        units += 1
        cpu = process_time()


if __name__ == "__main__":
    main()
