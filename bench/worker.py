"""One workload in one process: set up, run rounds of jobs, check them.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-only`` it imports pconvex, loads every config and prints its
set-up time, from ``--spawned-at`` (the monotonic clock just before
``run.py`` started the process) to the end of loading.  Otherwise it also
runs whole rounds of the workload's jobs, one after the other, through
``pconvex.cli.run`` until ``--seconds`` have passed, checks every job's
report records, and writes its result as JSON to ``--result``.

Every time is taken twice: as wall time, and scaled to the reference host
speed by a ``hostspeed.SpeedProbe`` that samples the CPU's speed from the
first line of this process on.  The metrics are the scaled times.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed

# Sample the host's speed from the start, so set-up is covered too.
PROBE = hostspeed.SpeedProbe().start()

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Workload:
    """The jobs of one manifest, their outcomes and their timings."""

    def __init__(self, cli, jobs, workdir, probe):
        self.cli = cli
        self.probe = probe
        self.jobs = jobs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.faults = {}      # job -> error record of an expected failure
        self.problems = []    # anything that makes the run incorrect
        self.first_records = {}
        self.round_times = []  # per round: job seconds, scaled
        self.round_walls = []  # per round: job seconds, wall time

    def run_job(self, job, out_dir):
        """Run one job; returns ((start, end), report lines or None,
        exception)."""
        sink = io.StringIO()
        clock = self.probe.clock
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink):
                self.cli.run(job["path"], out_dir=out_dir)
        except Exception as exc:  # a job that raises is a failed job
            return (t0, clock()), None, exc
        span = (t0, clock())
        with open(os.path.join(out_dir, "report.jsonl"), encoding="utf-8") as fh:
            return span, fh.read().splitlines()[1:], None

    def judge(self, job, lines, exc):
        """``(failed, fault, problems)`` of one job's outcome: a fault is
        the error record of a failure the job is expected to have."""
        if exc is not None:
            return True, None, [f"raised {type(exc).__name__}: {exc}"]
        problems = []
        if lines != self.first_records.setdefault(job["name"], lines):
            problems.append("report records differ from the job's first run")
        records = [json.loads(line) for line in lines]
        errors = [r["error"] for r in records if "error" in r]
        if errors:
            if errors[0].split(":", 1)[0] == job["expect_error"]:
                return True, errors[0], problems
            return True, None, problems + errors[:1]
        problems += workloads.check_records(job["check"], records)
        return bool(problems), None, problems

    def run_round(self):
        label = f"r{len(self.round_times)}"
        times, walls = [], []
        for job in self.jobs:
            (t0, t1), lines, exc = self.run_job(
                job, os.path.join(self.workdir, label, job["name"]))
            times.append(self.probe.scaled(t0, t1))
            walls.append(t1 - t0)
            failed, fault, problems = self.judge(job, lines, exc)
            self.attempted += 1
            self.failed += failed
            if fault:
                self.faults[job["name"]] = fault
            self.problems += [f"{label} {job['name']}: {p}" for p in problems]
        self.round_times.append(times)
        self.round_walls.append(walls)

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` have passed."""
        start, rounds = time.perf_counter(), 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            self.run_round()
            rounds += 1

    def repeat_cheapest(self):
        """Run the cheapest job that should pass once more, outside the
        counts, so byte-identity is checked even after a single round."""
        passing = [(t, j) for t, j in zip(self.round_times[0], self.jobs)
                   if j["expect_error"] is None]
        if not passing:
            return
        job = min(passing, key=lambda tj: tj[0])[1]
        _, lines, exc = self.run_job(job, os.path.join(self.workdir,
                                                       "repeat", job["name"]))
        _, _, problems = self.judge(job, lines, exc)
        self.problems += [f"repeat {job['name']}: {p}" for p in problems]


def _median_run(times_list):
    return (statistics.median(sum(t) for t in times_list),
            statistics.median(max(t) for t in times_list))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    import pconvex
    from pconvex import cli
    with open(args.manifest, encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    for job in jobs:
        cli.load_config(job["path"])
    setup_done = PROBE.clock()
    setup = {"setup_s": PROBE.scaled(args.spawned_at, setup_done),
             "setup_wall_s": setup_done - args.spawned_at}
    if args.setup_only:
        PROBE.stop()
        print(json.dumps(setup))
        return 0

    work = Workload(cli, jobs, args.workdir, PROBE)
    work.run_for(args.seconds)
    run_s, job_max_s = _median_run(work.round_times)
    result = {**setup, "environment": _environment(),
              "run_s": run_s, "job_max_s": job_max_s,
              "wall": dict(zip(("run_s", "job_max_s"),
                               _median_run(work.round_walls))),
              "round_times": list(work.round_times),
              "round_walls": list(work.round_walls)}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(pconvex)
        per_round = []
        untraced = len(work.round_times)
        start = time.perf_counter()
        while not per_round or time.perf_counter() - start < args.seconds:
            mark = tracer.mark()
            t0 = PROBE.clock()
            work.run_round()
            # Layer times are scaled by the round's mean host speed.
            speed, _ = PROBE.window(t0, PROBE.clock())
            per_round.append({
                k: v * speed if k.endswith("_s") else v
                for k, v in spans.layer_metrics(tracer, mark).items()})
        tracer.uninstall()
        tracer.write(os.path.join(args.workdir, "spans.json"))
        traced_run_s, _ = _median_run(work.round_times[untraced:])
        layers = {key: statistics.median(r[key] for r in per_round)
                  for key in per_round[0]}
        layers["trace.run_s"] = traced_run_s
        layers["trace.overhead_s"] = traced_run_s - run_s
        result["layers"] = layers
    work.repeat_cheapest()
    PROBE.stop()
    result.update(attempted=work.attempted, failed=work.failed,
                  faults=work.faults, problems=work.problems,
                  peak_rss_mib=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
