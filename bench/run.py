"""pconvex benchmark: run a workload through ``pconvex.cli.run`` and report.

    python3 bench/run.py --workload desk-bounds --seed 1 --seconds 15
    python3 bench/run.py --workload all --trace 1

Run it from the repository root; the program is imported from ``src/``.
Each workload runs in a fresh worker process as a closed loop: one caller,
one thread, jobs back to back, in whole rounds until ``--seconds`` have
passed.  Set-up is timed over several fresh processes and reported as the
median.  Times are in seconds at a reference host speed, which each
worker samples while it runs (``hostspeed.py``); wall times are printed
beside them.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics, with ``--trace 1`` one with the per-layer
metrics of a separate traced pass (see README.md).  The exit status is 0
when the benchmark ran, whatever the checks found; ``correct`` reports
those.
"""

import os

# One BLAS/OpenMP thread for this process and every worker it starts,
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 5        # set-up-only processes, besides the worker's own
DEADLINE_S = 170.0      # one workload's whole run, set-up included

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("job_max_s", "s"),
              ("peak_rss_mib", "MiB"))


def _unit(name: str) -> str:
    """Per-layer metrics are seconds (``*_s``) or counts."""
    return "s" if name.endswith("_s") else "count"


def _spawn(args, deadline):
    """Start a worker, wait for it, and return its stdout.  The worker
    times its set-up from ``--spawned-at``, taken just before the start."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--spawned-at", repr(t0), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORKDIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    jobs = workloads.generate(name, seed)
    for job in jobs:
        job["path"] = os.path.join(work, "configs", job["name"] + ".ini")
        with open(job["path"], "w", encoding="utf-8") as fh:
            fh.write(job["ini"])
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "jobs": jobs}, fh, indent=1)

    base = ["--manifest", manifest, "--workdir", work]
    setups = [json.loads(_spawn(base + ["--setup-only"],
                                deadline).splitlines()[-1])
              for _ in range(SETUP_PROBES)]
    result_path = os.path.join(work, "result.json")
    _spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                   "--result", result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setups.append({k: result[k] for k in ("setup_s", "setup_wall_s")})
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["wall"]["setup_s"] = statistics.median(s["setup_wall_s"]
                                                  for s in setups)
    return result


def summary(name: str, result: dict, trace: int) -> dict:
    """Print a readable report and return the result line's object."""
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END}
    print(f"== {name}: environment {json.dumps(result['environment'])}")
    for i, (times, walls) in enumerate(zip(result["round_times"],
                                           result["round_walls"])):
        print(f"  round {i}, scaled (wall): " + " ".join(
            f"{t:.3f} ({w:.3f})" for t, w in zip(times, walls)))
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
    print("  wall time: " + ", ".join(f"{k} {v:.4g} s"
                                      for k, v in result["wall"].items()))
    print(f"  jobs attempted {result['attempted']}, failed {result['failed']}")
    for job, reason in sorted(result["faults"].items()):
        print(f"    expected failure {job}: {reason}")
    for problem in result["problems"]:
        print(f"    PROBLEM {problem}")
    return {"correct": not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pconvex", "cli.py")):
        print(f"pconvex sources not found under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        lines[name] = summary(name, result, args.trace)
    print(json.dumps(lines if args.workload == "all" else lines[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
