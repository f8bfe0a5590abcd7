"""commkit benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``; inputs are generated from
``--seed`` before any timing starts.  Jobs run back to back, in a closed
loop with one client, while the next one is expected to end within
``--seconds`` (at least three jobs, or two pairs when traced).  Every job
is checked afterwards by ``check.py``.  Each metric is printed as one
``name value unit`` line, with values derived from other counts marked
``(computed)``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs each job as a user does: fresh ``python -m commkit.cli``
processes with ``PYTHONPATH=src``.

A shared host runs the same job up to twice as fast or as slow within
minutes, so raw times would measure the host.  The untraced run therefore
pins itself and its children to one CPU and starts a speed probe
(``calibrate.py``) on that CPU, which does fixed graph work for as long as
the run lasts.  The probe and the job take turns on the CPU, so both see
the same host.  A job's time is the CPU seconds (user plus system) of its
processes times the probe's rate over the job, in units per CPU second,
over ``REFERENCE_RATE``: the CPU time the job would take on the quiet host.
CPU time, because with the probe beside it a job's wall time is about
twice its CPU time; on a quiet host, alone, the two agree, since each
CLI process runs its stages one after another.  A gain from running on a
second CPU does not show in this time.  It reports

* ``job_cpu_s``: median over jobs of that time, from spawning a job's
  first process to the exit of its last;
* ``setup_s``: the same time of fresh processes that import
  ``commkit.cli`` and call ``pipeline.load_inputs`` on the workload's
  inputs, three before each job, median over all of them;
* ``peak_rss_mb``: median over jobs of the largest ``ru_maxrss`` of a
  job's processes, from ``os.wait4``;
* ``detect_purity`` and ``detect_coverage``: the mean largest share of one
  ground-truth group in each characterized community, and the share of
  nodes in at least one.  Where the communities are given (the metrics
  workload) they are the ground truth and both read 1.0;
* ``slope_exact_digits``: ``-log10`` of the largest distance between a
  reported slope expectation and the exact closed form, floored at double
  precision's epsilon.  A log scale, because exact rows differ from the
  closed form by rounding only, which varies by orders of magnitude and
  can be zero.  With no slope rows (the metrics workload) it reads the
  floor, 15.65.

The error rate, failed jobs over attempted jobs, is the ``failed`` and
``attempted`` pair; it is printed as ``error_rate`` too.

``--trace 1`` calls ``commkit.cli.main(argv)`` in this process with the
layers' functions wrapped (``tracing.py``), alternating untraced and traced
jobs, and reports the per-layer metrics of ``PER_LAYER``: medians over the
traced jobs, plus the tracing overhead (traced over untraced in-process
job time).  The spans are written to the run's work directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from workloads import ROOT, WORKLOADS, Inputs, Workload

# ``check`` imports networkx, so it is imported only once every job has run:
# a process spawned by this one starts with this one's memory high-water
# mark as its own ``ru_maxrss``.

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_JOBS = 3
MIN_PAIRS = 2
MIN_PROBES = 5
PROBES_PER_JOB = 3
# The speed probe's units per CPU second alone on a quiet 2-vCPU Intel Xeon
# VM, the host the benchmark was defined on; untraced times are scaled to it.
REFERENCE_RATE = 120.0
MIN_UNITS = 20  # fewer probe units than this measure the host too coarsely

END_TO_END = {
    "job_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "detect_purity": "ratio",
    "detect_coverage": "ratio",
    "slope_exact_digits": "digits",
}

_STAGES = ("detect", "domsets", "slopes", "metrics", "keywords", "report")

# Each group moves the end-to-end metric noted, on the workload noted.
PER_LAYER = {
    # load: setup_s and peak_rss_mb on planted-10k-metrics
    "graph.load_graph.s": "s",
    "community.load_communities.s": "s",
    "keywords.load_metadata.s": "s",
    "pipeline.load_inputs.s": "s",
    "graph.edges_loaded": "count",
    # induced subgraph: job_cpu_s on planted-10k-metrics
    "community.induced_subgraph.s": "s",
    "community.induced_subgraph.calls": "count",
    "community.induced_subgraph.edges_scanned": "count",
    "community.induced_subgraph.useful_ratio": "ratio",
    # per-community statistics: job_cpu_s on planted-10k-metrics
    "graph.bfs_distances.s": "s",
    "graph.bfs_distances.calls": "count",
    "graph.count_triangles.s": "s",
    "metrics.community_stats.s": "s",
    "metrics.community_stats.self_s": "s",
    "community.boundary.s": "s",
    # detection: job_cpu_s on planted-1k-staged
    "detect.detect_communities.s": "s",
    "detect.detect_communities.self_s": "s",
    "detect.approximate_ppr.s": "s",
    "detect.approximate_ppr.calls": "count",
    "detect.ppr_support": "count",
    "detect.ppr_residual": "count",
    "detect.sweep_cut.s": "s",
    "detect.sweep_cut.calls": "count",
    "detect.sweep_none": "count",
    "detect.kept_ratio": "ratio",
    # slopes (exact enumeration): job_cpu_s on planted-1k-staged, slope_exact_digits
    "slopes.expected_ratio.s": "s",
    "slopes.expected_ratio.calls": "count",
    "slopes.exact_calls": "count",
    "slopes.mc_calls": "count",
    "slopes.subsets_evaluated": "count",
    "slopes.islope.s": "s",
    "slopes.eslope.s": "s",
    # dominating sets: job_cpu_s on planted-1k-staged
    "domsets.greedy_ids.s": "s",
    "domsets.greedy_ids.calls": "count",
    "domsets.greedy_eds.s": "s",
    "domsets.greedy_eds.calls": "count",
    # keywords and distributions: job_cpu_s on planted-1k-staged
    "keywords.build_keyword_list.s": "s",
    "keywords.build_keyword_list.calls": "count",
    "keywords.predict_keywords.s": "s",
    "keywords.predict_keywords.calls": "count",
    "keywords.prediction_curve.s": "s",
    "distributions.summarize.s": "s",
    # stages: each stage's share of job_cpu_s
    **{f"pipeline.stage_{stage}.s": "s" for stage in _STAGES},
    # tables: job_cpu_s on planted-1k-staged
    "pipeline.write_table.s": "s",
    "pipeline.write_table.calls": "count",
    "pipeline.read_table.s": "s",
    "pipeline.read_table.calls": "count",
    "pipeline.bytes_written": "bytes",
    "pipeline.bytes_read": "bytes",
    # worker pool: job_cpu_s on planted-1k-staged
    "pipeline.parallel_map.s": "s",
    "pipeline.parallel_map.item_busy_s": "s",
    "pipeline.parallel_map.item_wait_s": "s",
    "pipeline.parallel_map.efficiency": "ratio",
    # interpreter and CLI: job_cpu_s on planted-1k-staged, setup_s everywhere
    "cli.main.s": "s",
    "cli.main.calls": "count",
    "cli.startup_s": "s",
    # the traced run itself
    "trace.job_wall_s": "s",
    "trace.stage_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Per-layer values derived from others rather than timed or counted directly.
COMPUTED = frozenset(
    {
        "community.induced_subgraph.edges_scanned",
        "community.induced_subgraph.useful_ratio",
        "detect.kept_ratio",
        "pipeline.parallel_map.efficiency",
        "trace.stage_coverage",
        "trace.overhead_ratio",
    }
)

SETUP_CODE = """\
import sys
import commkit.cli
from commkit.pipeline import RunConfig, load_inputs
graph, communities, metadata = sys.argv[1:4]
load_inputs(RunConfig(graph, communities or None, metadata or None))
"""


@dataclass
class Job:
    out: Path
    wall: float
    codes: list[int]
    cpu: float = 0.0  # user + system seconds of the job's processes
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors) or any(self.codes)


@dataclass
class Spawned:
    code: int
    wall: float
    cpu: float  # user + system seconds
    rss_mb: float  # ru_maxrss


def _spawn(argv: list[str], log) -> Spawned:
    """Run one process to its end."""
    start = perf_counter()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_job(workload: Workload, inputs: Inputs, out: Path) -> Job:
    """One untraced job: the workload's CLI processes, in order, until one fails."""
    job = Job(out, 0.0, [])
    with out.with_suffix(".log").open("w") as log:
        start = perf_counter()
        for argv in workload.jobs(inputs, out):
            done = _spawn([sys.executable, "-m", "commkit.cli", *argv], log)
            job.codes.append(done.code)
            job.cpu += done.cpu
            job.peak_rss_mb = max(job.peak_rss_mb, done.rss_mb)
            if done.code:
                break
        job.wall = perf_counter() - start
    return job


def probe(code: str, args: list[str], log) -> Spawned:
    """One fresh interpreter running ``code``; raises if it fails."""
    done = _spawn([sys.executable, "-c", code, *args], log)
    if done.code:
        raise RuntimeError(f"probe exited with {done.code}")
    return done


class SpeedProbe:
    """``calibrate.py`` running beside this process, on the CPU it is pinned to."""

    def __enter__(self) -> SpeedProbe:
        script = Path(__file__).with_name("calibrate.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            if self.proc.stdout.readline() != "ready\n":
                raise RuntimeError("calibrate.py did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def read(self) -> tuple[int, float]:
        """Units the probe has done, and its CPU seconds when the last one ended."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        units, cpu = self.proc.stdout.readline().split()
        return int(units), float(cpu)

    def scale(self, run):
        """``run()`` and the host's speed meanwhile, relative to ``REFERENCE_RATE``."""
        units, cpu = self.read()
        result = run()
        units_after, cpu_after = self.read()
        if units_after - units < MIN_UNITS:
            raise RuntimeError(f"the speed probe ran {units_after - units} units, fewer than {MIN_UNITS}")
        return result, (units_after - units) / (cpu_after - cpu) / REFERENCE_RATE

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_inprocess(workload: Workload, inputs: Inputs, out: Path, tracer=None) -> Job:
    """One job through ``commkit.cli.main`` in this process, in a span when traced."""
    cli = sys.modules["commkit.cli"]
    job = Job(out, 0.0, [])

    def body():
        for argv in workload.jobs(inputs, out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            job.codes.append(code)
            if code:
                break

    with out.with_suffix(".log").open("w") as log, redirect_stdout(log), redirect_stderr(log):
        start = perf_counter()
        if tracer is None:
            body()
        else:
            tracer.call("job", body, (), {})
        job.wall = perf_counter() - start
    return job


def check_jobs(workload: Workload, inputs: Inputs, jobs: list[Job]) -> check.Verdict:
    """Check the first job fully; the others must match its artifacts byte for byte."""
    import check

    first = jobs[0].out
    verdict = check.check_output(
        first, inputs.graph, workload.characterized(inputs, first), inputs.truth, workload.artifacts
    )
    reference = check.artifact_hashes(first) if first.is_dir() else {}
    for job in jobs:
        job.errors += verdict.errors
        if not job.out.is_dir():
            job.errors.append("no output directory")
        elif job is not jobs[0]:
            job.errors += check.compare_hashes(reference, check.artifact_hashes(job.out))
    return verdict


def digits(err: float) -> float:
    return -math.log10(max(err, sys.float_info.epsilon))


def untraced_run(workload: Workload, inputs: Inputs, work: Path, seconds: float) -> tuple[dict, list[Job], dict]:
    # The jobs and the speed probe share one CPU, so that the probe sees the
    # host as the jobs do.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_args = [str(inputs.graph), str(inputs.communities or ""), str(inputs.metadata or "")]
    setups: list[tuple[list[Spawned], float]] = []
    jobs: list[tuple[Job, float]] = []
    with (work / "probes.log").open("w") as log, SpeedProbe() as speed:
        start = perf_counter()
        cycle = 0.0
        while len(jobs) < MIN_JOBS or perf_counter() - start + cycle <= seconds:
            began = perf_counter()
            setups.append(speed.scale(lambda: [probe(SETUP_CODE, setup_args, log) for _ in range(PROBES_PER_JOB)]))
            jobs.append(speed.scale(lambda: run_job(workload, inputs, work / f"job{len(jobs)}")))
            cycle = perf_counter() - began
    verdict = check_jobs(workload, inputs, [job for job, _ in jobs])
    metrics = {
        "job_cpu_s": statistics.median(job.cpu * speed for job, speed in jobs),
        "setup_s": statistics.median(p.cpu * speed for batch, speed in setups for p in batch),
        "peak_rss_mb": statistics.median(job.peak_rss_mb for job, _ in jobs),
        "detect_purity": verdict.purity,
        "detect_coverage": verdict.coverage,
        "slope_exact_digits": digits(verdict.slope_err_max),
    }
    info = {
        "job_wall_s": [job.wall for job, _ in jobs],
        "job_cpu_s": [job.cpu for job, _ in jobs],
        "job_speed": [speed for _, speed in jobs],
        "setup_wall_s": [[p.wall for p in batch] for batch, _ in setups],
        "setup_cpu_s": [[p.cpu for p in batch] for batch, _ in setups],
        "setup_speed": [speed for _, speed in setups],
        "slope_err_max": verdict.slope_err_max,
    }
    return metrics, [job for job, _ in jobs], info


def layer_metrics(totals: dict[str, float], counters: dict[str, float], wall: float) -> dict[str, float]:
    """Per-layer values of one traced job (``cli.startup_s`` and overhead aside)."""
    values = {**totals, **counters}

    def get(name: str) -> float:
        return values.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values["community.induced_subgraph.useful_ratio"] = ratio(
        get("community.induced_subgraph.edges_kept"), get("community.induced_subgraph.edges_scanned")
    )
    values["detect.kept_ratio"] = ratio(get("detect.kept"), get("detect.approximate_ppr.calls"))
    values["pipeline.parallel_map.efficiency"] = ratio(
        get("pipeline.parallel_map.item_busy_s"), get("pipeline.parallel_map.capacity_s")
    )
    staged = get("pipeline.load_inputs.s") + sum(get(f"pipeline.stage_{s}.s") for s in _STAGES)
    values["trace.job_wall_s"] = wall
    values["trace.stage_coverage"] = ratio(staged, wall)
    return values


def traced_run(workload: Workload, inputs: Inputs, work: Path, seconds: float) -> tuple[dict, list[Job], dict]:
    with (work / "probes.log").open("w") as log:
        startups = [probe("import commkit.cli", [], log).wall for _ in range(MIN_PROBES)]
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer()
    tracer.install()
    plain: list[Job] = []
    traced: list[Job] = []
    per_job: list[dict[str, float]] = []
    start = perf_counter()
    while len(traced) < MIN_PAIRS or perf_counter() - start + plain[-1].wall + traced[-1].wall <= seconds:
        tracer.uninstall()
        plain.append(run_inprocess(workload, inputs, work / f"plain{len(plain)}"))
        tracer.reinstall()
        tracer.job = len(traced) + 1
        traced.append(run_inprocess(workload, inputs, work / f"traced{len(traced)}", tracer))
        per_job.append(dict(tracer.counters))
        tracer.counters.clear()
    tracer.uninstall()

    spans = tracer.spans()
    own = tracing.self_times(spans)
    tracing.write_spans(work / "spans.csv", spans, own)
    rows = []
    for number, (job, counters) in enumerate(zip(traced, per_job), start=1):
        mine = [i for i, span in enumerate(spans) if span[3] == number]
        totals = tracing.layer_totals([spans[i] for i in mine], [own[i] for i in mine])
        rows.append(layer_metrics(totals, counters, job.wall))
    metrics = {name: statistics.median(row.get(name, 0.0) for row in rows) for name in PER_LAYER}
    metrics["cli.startup_s"] = statistics.median(startups)
    metrics["trace.overhead_ratio"] = statistics.median(j.wall for j in traced) / statistics.median(
        j.wall for j in plain
    )
    jobs = plain + traced
    verdict = check_jobs(workload, inputs, jobs)
    info = {"slope_err_max": verdict.slope_err_max, "spans": len(spans)}
    return metrics, jobs, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn termination into an exception, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "commkit" / "cli.py").is_file():
        print(f"error: not a commkit checkout, missing {SRC / 'commkit' / 'cli.py'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A child process writes the inputs, keeping this process's memory
    # high-water mark (inherited by every process it spawns) small.
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("workloads.py")), workload.name, str(args.seed), str(work)],
        check=True,
    )
    inputs = workload.inputs(work)

    run = traced_run if args.trace else untraced_run
    metrics, jobs, info = run(workload, inputs, work, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(job.failed for job in jobs)

    for job in jobs:
        for error in dict.fromkeys(job.errors):
            print(f"check failed: {job.out.name}: {error}")
        if any(job.codes):
            print(f"check failed: {job.out.name}: exit codes {job.codes}, see {job.out.with_suffix('.log')}")
        shutil.rmtree(job.out, ignore_errors=True)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(jobs)} jobs")
    for name, value in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        print(f"{name} {value:.6g} {units[name]}{tag}")
    print(f"error_rate {failed / len(jobs):.6g} ratio")
    print(f"slope_err_max {info['slope_err_max']:.6g} ratio")
    (work / "result.json").write_text(json.dumps({"metrics": metrics, **info}, indent=2) + "\n")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(jobs),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
