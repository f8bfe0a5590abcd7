"""The benchmark's workloads: generated inputs and the CLI processes of one job.

A job is what a user runs to get one result: one ``commkit metrics``, or
the six staged subcommands in order, each a fresh process reading the
previous stage's files.

Run as a script to write a workload's inputs into a directory:

    python bench/workloads.py <workload> <seed> <directory>

The benchmark does this in a child process so that generating inputs does
not raise the benchmark process's memory high-water mark, which Linux
passes on to every process it spawns afterwards (``ru_maxrss``).
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent

# Artifacts every characterizing run writes (report stage included).
REPORT_ARTIFACTS = (
    "domsets.csv",
    "slopes.csv",
    "community_stats.csv",
    "summary.csv",
    "triangle_split.csv",
    "distributions_summary.csv",
    "manifest.json",
)


@dataclass(frozen=True)
class Inputs:
    """Files of one workload instance; absent roles are None."""

    graph: Path
    truth: Path  # ground-truth groups, for purity and coverage
    communities: Path | None  # given to the CLI with --communities
    metadata: Path | None


@dataclass(frozen=True)
class Planted:
    """Planted-partition parameters (see :func:`gen.planted_partition`)."""

    n: int
    group_size: int
    internal_degree: float
    external_degree: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]  # CLI subcommands, one fresh process each
    artifacts: tuple[str, ...]  # files every job must leave in its output directory
    planted: Planted
    given_communities: bool = False  # pass the ground truth with --communities
    metadata: bool = False
    flags: tuple[str, ...] = ()

    def inputs(self, directory: Path) -> Inputs:
        return Inputs(
            graph=directory / "graph.edges",
            truth=directory / "truth.txt",
            communities=directory / "groups.txt" if self.given_communities else None,
            metadata=directory / "metadata.tsv" if self.metadata else None,
        )

    def characterized(self, inputs: Inputs, out: Path) -> Path:
        """The community file whose communities the job's tables describe."""
        return inputs.communities or out / "communities.txt"

    def jobs(self, inputs: Inputs, out: Path) -> list[list[str]]:
        """CLI argument lists, one per process, in run order."""
        argvs = []
        for stage in self.stages:
            argv = [stage, "--graph", str(inputs.graph), "--out", str(out), *self.flags]
            if stage != "detect":
                argv += ["--communities", str(self.characterized(inputs, out))]
            if stage == "keywords":
                argv += ["--metadata", str(inputs.metadata)]
            argvs.append(argv)
        return argvs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-10k-metrics",
            "commkit metrics, 10k-node planted partition, its 100 groups given: graph size sets "
            "the cost (traced: induced subgraph ~50%, BFS ~25%, load ~13%); detection, slopes bypassed",
            stages=("metrics",),
            artifacts=("community_stats.csv", "manifest.json"),
            # 10k nodes rather than 20k: jobs of a few seconds, so one run holds many.
            planted=Planted(10_000, 100, 10, 2),
            given_communities=True,
        ),
        Workload(
            "planted-1k-staged",
            "six staged subcommands, 1k-node planted partition, metadata, 2 workers (traced: detection "
            "~62%, exact-enumeration slopes ~23%, 168 rows, ~64k subsets), keywords, six starts",
            stages=("detect", "domsets", "slopes", "metrics", "keywords", "report"),
            artifacts=(
                "communities.txt",
                "communities_meta.csv",
                *REPORT_ARTIFACTS,
                "keyword_predictions.jsonl",
                "keyword_curve.csv",
            ),
            # Dense groups with few outside edges, so detection recovers the groups:
            # at degrees 7 and 3 it merges some groups, differently per seed, and the
            # exact slope enumeration of merged communities swings the job time
            # several-fold between seeds.
            planted=Planted(1_008, 12, 9, 2),
            metadata=True,
            flags=("--max-size", "20", "--workers", "2"),
        ),
    )
}


def prepare(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(directory)
    planted = workload.planted
    n = planted.n
    edges, groups = gen.planted_partition(
        n, planted.group_size, planted.internal_degree, planted.external_degree, seed
    )
    gen.write_edges(inputs.graph, edges, n, seed)
    gen.write_groups(inputs.truth, groups, n)
    if inputs.communities:
        shutil.copyfile(inputs.truth, inputs.communities)
    if inputs.metadata:
        gen.write_metadata(inputs.metadata, groups, n, seed)
    return inputs


if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    prepare(WORKLOADS[name], seed, directory)
