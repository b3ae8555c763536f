"""Record the reference outcome of every benchmark job into reference.json.

Usage (from the root of a source checkout)::

    python3 perfbench/record_reference.py

Every job of every workload runs once per seed in SEEDS.  A job's outcome
(see outcome.py) must be the same for every seed, within the fitted-value
tolerance, or nothing is written: the benchmark runs on seeds it has never
seen, so a reference that depends on the seed would be no reference.  The
volume factors of outcome.py's fixed grid are recorded alongside.  Run it
only on a commit whose results are trusted; the file in the repository was
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from outcome import differences, outcome, volume_factors  # noqa: E402
from run import REFERENCE, child_env, run_job  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    recorded: dict = {}
    disagreements = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            work = HERE / ".work" / "record"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            for job in build_jobs(workload, seed, root, work):
                res = run_job(job, False, root, env, None)
                if res.problems:
                    disagreements.append(f"seed {seed} {job.key}: {res.problems}")
                    continue
                got = outcome(job, res.rc)
                if job.key in recorded:
                    diff = differences(got, recorded[job.key])
                    if diff:
                        disagreements.append(f"seed {seed} {job.key}: {diff}")
                else:
                    recorded[job.key] = got
                print(f"seed {seed} {job.key}: {got}", flush=True)
    if disagreements:
        print("not written; outcomes depend on the seed or jobs failed:", file=sys.stderr)
        for d in disagreements:
            print(f"  {d}", file=sys.stderr)
        return 1
    reference = {"jobs": recorded, "volume_factor": volume_factors()}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} job outcomes and {len(reference['volume_factor'])} volume factors to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
