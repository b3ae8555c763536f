"""Job lists of the three benchmark workloads, and the inputs they read.

A job is one ``finslerab`` command line.  Every input a job sees is either a
shipped metric file or a metric file generated here from the workload seed,
and every job gets its own ``--seed`` drawn from the same seed.  The
reference key of a job names what it checks, not the seed, because the
recorded outcomes (verdicts, identity ok, S-consistency) are properties of
the metric and hold for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("shipped_check", "identity_sweep", "scurv_sweep")

SHIPPED = (
    "euclidean_flat",
    "euclidean_homothetic",
    "euclidean_rotational",
    "euclidean_shear",
    "matsumoto_example",
    "sphere_round",
)
VARYING_BETA = ("euclidean_homothetic", "euclidean_rotational", "euclidean_shear")

SWEEP_DIMS = (3, 4, 5)
SCURV_Y_PER_POINT = 6  # hard-wired in cmd_scurv
CLI_SEED_RANGE = 1000  # README.md: how the dim-sweep jobs behave on seeds in this range


@dataclass
class Job:
    key: str  # reference key, independent of the seed
    kind: str  # check | appendix | sweep | scurv
    argv: list
    out: Path
    points: int
    samples: int  # (point, y) samples the job evaluates


def bounded_metric_text(n: int, rng) -> tuple[str, float]:
    """Metric text of dimension n whose b^2 < 1/4 holds on the whole box [-1, 1]^n.

    Every entry has the same three-term shape ``c0 + c1*xk + c2*xl*xm`` (the
    diagonal has 1 in place of c0), so the work per job does not depend on
    the seed.  With |xi| <= 1 each monomial is at most 1 in size, so an entry
    differs from its constant part by at most the sum of its |coefficients|.
    Gershgorin then gives

        lambda_min(a) >= m = 1 - max_i (|c1_ii| + |c2_ii| + sum_{j != i} sum |c_ij|)

    and b^2 = b^T a^-1 b <= |b|^2 / lambda_min(a) <= sum_i (sum |c_bi|)^2 / m.
    The scales below make m >= 1/2 and that bound <= 0.2; the bound is
    recomputed from the printed (rounded) coefficients and returned.
    """
    diag_scale = 0.15
    off_scale = 0.2 / (3 * (n - 1))
    b_scale = float(np.sqrt(0.1 / (9 * n)))

    def coefs(scale, k):
        return [round(float(v), 6) for v in scale * rng.uniform(-1.0, 1.0, size=k)]

    def term_text(lead: str, cs) -> str:
        k, l, m = (int(v) + 1 for v in rng.integers(0, n, size=3))
        out = lead
        for c, mono in zip(cs, (f"x{k}", f"x{l}*x{m}")):
            out += f" {'-' if c < 0 else '+'} {abs(c):.6f}*{mono}"
        return out

    lines = [f"dim = {n}"]
    row_dev = np.zeros(n)
    for i in range(n):
        cs = coefs(diag_scale, 2)
        row_dev[i] += sum(abs(c) for c in cs)
        lines.append(f"a {i + 1} {i + 1} = " + term_text("1", cs))
    for i in range(n):
        for j in range(i + 1, n):
            c0, *cs = coefs(off_scale, 3)
            dev = abs(c0) + sum(abs(c) for c in cs)
            row_dev[i] += dev
            row_dev[j] += dev
            lines.append(f"a {i + 1} {j + 1} = " + term_text(f"{c0:.6f}", cs))
    b_sq_sum = 0.0
    for i in range(n):
        c0, *cs = coefs(b_scale, 3)
        b_sq_sum += (abs(c0) + sum(abs(c) for c in cs)) ** 2
        lines.append(f"b {i + 1} = " + term_text(f"{c0:.6f}", cs))
    m = 1.0 - float(np.max(row_dev))
    if m <= 0.0 or b_sq_sum / m >= 0.25:
        raise AssertionError(f"generated metric n={n} breaks its own bound (m={m}, b2 <= {b_sq_sum / m})")
    return "\n".join(lines) + "\n", b_sq_sum / m


def write_generated(path: Path, n: int, rng) -> None:
    """Write a bounded metric and confirm it with the program's own validate_spec."""
    from finslerab.dsl import parse_metric, validate_spec

    text, _ = bounded_metric_text(n, rng)
    path.write_text(text)
    report = validate_spec(parse_metric(text, name=path.stem), samples=200, seed=0)
    if not report.valid:
        raise AssertionError(f"generated metric {path.name} fails validate_spec:\n{report.summary()}")


def build_jobs(workload: str, seed: int, root: Path, work: Path, smoke: bool = False) -> list[Job]:
    """Generate the inputs of ``workload`` under ``work`` and return its jobs in order.

    ``smoke`` shrinks every job to 2 points (and 2 y per point for ``check``)
    so that the whole harness runs in seconds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    metrics = root / "src" / "finslerab" / "metrics"
    jobs: list[Job] = []

    def add(key, kind, args, points, y_per_point):
        if smoke:
            points = 2
            if kind == "check":
                y_per_point = 2
                args = args + ["--y-per-point", "2"]
        out = work / f"{len(jobs):02d}.out"
        cli_seed = str(int(rng.integers(0, CLI_SEED_RANGE)))
        argv = args + ["--points", str(points), "--seed", cli_seed, "--out", str(out)]
        specs = 2 if kind == "sweep" else 1  # --dim-sweep checks two metrics per n
        jobs.append(Job(key, kind, argv, out, points, points * y_per_point * specs))

    def generated(n: int) -> str:
        path = work / f"gen{n}.metric"
        write_generated(path, n, rng)
        return str(path)

    # Volume form is the outer loop, so each half of a pass holds every
    # metric once and the mid-sized jobs that set job_p50_s are spread over
    # the whole pass instead of running back to back.
    if workload == "shipped_check":
        for form in ("bh", "ht"):
            for name in SHIPPED:
                args = ["check", str(metrics / f"{name}.metric"), "--volume", form, "--format", "json"]
                add(f"check/{name}/{form}", "check", args, 20, 12)
    elif workload == "identity_sweep":
        for name in SHIPPED:
            args = ["appendix", str(metrics / f"{name}.metric"), "--sigma", "random", "--format", "json"]
            add(f"appendix/{name}/random", "appendix", args, 20, 1)
        for n in SWEEP_DIMS:
            add(f"sweep/{n}", "sweep", ["appendix", "--dim-sweep", str(n)], 20, 1)
    else:
        paths = [(name, str(metrics / f"{name}.metric")) for name in VARYING_BETA]
        paths += [(f"gen{n}", generated(n)) for n in SWEEP_DIMS]
        for form in ("bh", "ht"):
            for name, path in paths:
                add(f"scurv/{name}/{form}", "scurv", ["scurv", path, "--volume", form], 20, SCURV_Y_PER_POINT)
    return jobs
