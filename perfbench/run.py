"""Outside-in benchmark of the finslerab command line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload shipped_check --seed 1 --seconds 20 --trace 0

One driver process runs the workload's jobs one at a time, each in a fresh
interpreter (closed loop, one client), and repeats the whole list until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it spends the first half of the time on plain
passes and the second on traced passes, and reports the per-layer metrics
of ``layers.py``.  Every job's output, and once per run the volume
factors, are checked against ``reference.json``.
The last line of standard output is the JSON result; the lines before it
are a readable table and the run's context.  ``--workload all`` runs every
workload in turn.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import coverage_problems, layer_metrics  # noqa: E402
from outcome import differences, outcome, volume_differences, volume_factors  # noqa: E402
from workloads import WORKLOADS, Job, build_jobs  # noqa: E402

JOB_TIMEOUT_S = 60.0
# The time metrics are scaled to the machine speed at which the speed probe
# takes this long (a round value near its median on a 2-vCPU Xeon virtual machine).
NOMINAL_PROBE_S = 0.15
REFERENCE = HERE / "reference.json"


@dataclass
class JobResult:
    job: Job
    rc: int | None
    job_s: float  # spawn to exit
    setup_s: float | None
    call_s: float | None
    rss_mb: float | None
    trace: dict | None
    problems: list
    probe_s: float | None = None  # speed probe timed right before the job (plain passes)


def speed_probe() -> float:
    """Spawn-to-exit time of a fresh interpreter that imports numpy and nothing of the program.

    It runs the same kind of work as a job's set-up and is the same for every
    version of the program, so it measures the speed of the machine alone.
    """
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return time.monotonic() - t0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list, root: Path, env: dict):
    """Run ``job.py`` with ``argv``; return (spawn time, exit time, exit status, stdout, stderr)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), *argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {JOB_TIMEOUT_S} s"
    return t_spawn, time.monotonic(), proc.returncode, out, err


def run_job(job, trace: bool, root: Path, env: dict, reference: dict | None) -> JobResult:
    job.out.unlink(missing_ok=True)
    t_spawn, t_exit, status, out, err = spawn(["1" if trace else "0", *job.argv], root, env)
    lines = out.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return JobResult(job, status, t_exit - t_spawn, None, None, None, None, [f"raised or died (status {status}): {tail[0]}"])
    problems = []
    if status != rep["rc"]:
        problems.append(f"exit status {status} but the CLI returned {rep['rc']}")
    if reference is not None:
        try:
            got = outcome(job, rep["rc"])
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        else:
            if job.key not in reference:
                problems.append("no reference recorded for this job")
            else:
                problems += differences(got, reference[job.key])
    trace_rep = rep.get("trace")
    if trace_rep is not None:
        cov, notices = coverage_problems(job, trace_rep)
        problems += [f"trace coverage: {p}" for p in cov]
        for note in notices:
            print(f"notice: {job.key}: {note}", file=sys.stderr)
    return JobResult(
        job, rep["rc"], t_exit - t_spawn, rep["ready"] - t_spawn, rep["call_s"], rep["rss_mb"], trace_rep, problems
    )


def run_pass(jobs, trace, root, env, reference):
    """Run every job once; a plain pass times the speed probe right before each job."""
    results = []
    for job in jobs:
        probe_s = None if trace else speed_probe()
        res = run_job(job, trace, root, env, reference)
        res.probe_s = probe_s
        results.append(res)
    return results


def passes_until(deadline, least, jobs, trace, root, env, reference):
    """``least`` passes; then more while another pass of median length fits before ``deadline``."""
    passes, lengths = [], []
    while len(passes) < least or time.monotonic() + statistics.median(lengths) <= deadline:
        t0 = time.monotonic()
        passes.append(run_pass(jobs, trace, root, env, reference))
        lengths.append(time.monotonic() - t0)
    return passes


def pass_s(results) -> float:
    """Time of a pass: the sum of its jobs' spawn-to-exit times."""
    return sum(r.job_s for r in results)


def context(root: Path) -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            timeout=10,
        ).stdout.strip()
    except OSError:
        rev = ""
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src" / "finslerab").rglob("*.py"))
    )
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_finslerab_lines": src_lines,
    }


def end_to_end(passes) -> dict:
    """End-to-end metrics over a list of plain passes.

    ``wall_s`` is the median pass time, ``job_p50_s`` the median of every
    CLI call and ``setup_s`` the median set-up of every job.  The speed of
    the machine drifts within seconds and over minutes, which no statistic
    within one run removes.  So every time of a job is first scaled by
    NOMINAL_PROBE_S / (the speed probe timed right before it): the metrics
    are the times at the machine speed where the probe takes NOMINAL_PROBE_S.
    """
    results = [r for rs in passes for r in rs]
    done = [r for r in results if r.call_s is not None]
    if not done:
        raise RuntimeError("no job of the workload ran to completion")

    def scaled(r, t):
        return t * NOMINAL_PROBE_S / r.probe_s

    failed = sum(1 for r in results if r.problems)
    return {
        "wall_s": (statistics.median(sum(scaled(r, r.job_s) for r in rs) for rs in passes), "s"),
        "job_p50_s": (statistics.median(scaled(r, r.call_s) for r in done), "s"),
        "setup_s": (statistics.median(scaled(r, r.setup_s) for r in done), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in done), "MB"),
        "fail_ratio": (failed / len(results), "ratio"),
    }


def run_workload(workload, seed, seconds, trace, root, reference, smoke=False):
    """Measure one workload; return (metrics, attempted, failed)."""
    work = HERE / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = build_jobs(workload, seed, root, work, smoke=smoke)
    env = child_env(root)
    spawn(["0"], root, env)  # warm-up: fills the bytecode cache, untimed

    start = time.monotonic()
    plain_until = start + (seconds / 2 if trace else seconds)
    # Two plain passes at least, so that every job has a repeat.
    plain = passes_until(plain_until, 1 if trace else 2, jobs, False, root, env, reference)
    traced = passes_until(start + seconds, 1, jobs, True, root, env, reference) if trace else []

    all_results = [r for rs in plain + traced for r in rs]
    for r in all_results:
        for p in r.problems:
            print(f"FAIL {workload} {r.job.key}: {p}", file=sys.stderr)
    e2e = end_to_end(plain)
    print(f"[{workload}] seed {seed}: {len(plain)} plain pass(es), {len(traced)} traced, "
          f"{len(jobs)} jobs per pass")
    for name, (value, unit) in e2e.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    probe = statistics.median(r.probe_s for rs in plain for r in rs)
    print(f"  (times scaled to a speed probe of {NOMINAL_PROBE_S} s; its median in this run: {probe:.6g} s)")
    if trace:
        wall_plain = statistics.median(pass_s(rs) for rs in plain)
        per_pass = []
        for rs in traced:
            if all(r.trace is not None for r in rs):
                per_pass.append(layer_metrics([(r.job, r.trace) for r in rs], pass_s(rs), wall_plain))
        metrics = {}
        if per_pass:
            for name, (_, unit) in per_pass[0].items():
                metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
    else:
        metrics = {k: v for k, v in e2e.items() if k != "fail_ratio"}
    failed = sum(1 for r in all_results if r.problems)
    return metrics, len(all_results), failed


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="2 points per job: checks the harness in seconds")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "finslerab" / "cli.py").is_file():
        print(f"error: {root} holds no finslerab source tree (src/finslerab)", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    sys.path.insert(0, str(root / "src"))

    print("context: " + json.dumps(context(root)))
    # One check of the volume factors per run, outside the timed passes.
    vf_problems = volume_differences(volume_factors(), reference["volume_factor"])
    for p in vf_problems:
        print(f"FAIL {p}", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 1, int(bool(vf_problems))
    for workload in names:
        m, a, f = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), root, reference["jobs"], args.smoke
        )
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(result_line(metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
