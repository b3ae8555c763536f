"""Correctness gate: project a job's output onto what the reference records.

The projection keeps only what must not change under a faithful
optimisation and does not depend on the sample seed:

* ``check``    -- exit status, every verdict, the fitted value of each
  condition that holds (lambda, c, sigma, K), and the engine-consistency
  violations (which must be empty);
* ``appendix`` -- exit status and whether the identity held at every sample;
* ``sweep``    -- exit status, whether every swept metric was ok, and how many;
* ``scurv``    -- exit status, the consistency line and the constant-Killing
  verdict.

Both S-curvature routes subtract the same Lambda (r0 + s0) term, so the
consistency line cannot see a wrong volume factor.  ``volume_factors``
therefore checks f and Lambda themselves, once per run, on a fixed grid.
"""

from __future__ import annotations

import json

VALUE_RTOL = 1e-6

# Every dimension the workloads' metrics have, both volume forms, and b from
# 0 through the small-b branch (b < 1e-4) to near the 1/2 limit.
VOLUME_DIMS = (2, 3, 4, 5)
VOLUME_FORMS = ("bh", "ht")
VOLUME_BS = (0.0, 1e-5, 0.1, 0.3, 0.49)
VOLUME_RTOL = 1e-9


def outcome(job, rc: int) -> dict:
    res: dict = {"exit": rc}
    try:
        text = job.out.read_text()
    except OSError:
        res["output"] = "missing"
        return res
    if job.kind == "check":
        report = json.loads(text)
        conds = report["conditions"]
        res["verdicts"] = {k: c["verdict"] for k, c in sorted(conds.items())}
        res["values"] = {k: c["value"] for k, c in sorted(conds.items()) if c["verdict"] and "value" in c}
        res["violations"] = report["consistency"]["violations"]
    elif job.kind == "appendix":
        res["ok"] = not json.loads(text)["failures"]
    elif job.kind == "sweep":
        rows = [line for line in text.splitlines() if line.startswith("n=")]
        res["ok"] = bool(rows) and all(line.endswith(" ok") for line in rows)
        res["metrics"] = len(rows)
    else:
        lines = text.splitlines()
        res["consistency"] = lines[-1]
        killing = [line for line in lines if line.startswith("constant Killing form:")]
        res["constant_killing"] = killing[0].split(":", 1)[1].split()[0] if killing else None
    return res


def differences(got: dict, ref: dict) -> list[str]:
    """Every way ``got`` departs from the reference ``ref`` (empty when it matches)."""
    problems = []
    if got.get("violations"):
        problems.append(f"engine inconsistency: {got['violations']}")
    for key in sorted(set(got) | set(ref)):
        if key in ("violations", "values"):
            continue
        if got.get(key) != ref.get(key):
            problems.append(f"{key}: got {got.get(key)!r}, reference {ref.get(key)!r}")
    got_vals, ref_vals = got.get("values", {}), ref.get("values", {})
    if set(got_vals) != set(ref_vals):
        problems.append(f"fitted values for {sorted(got_vals)}, reference has {sorted(ref_vals)}")
    for k in sorted(set(got_vals) & set(ref_vals)):
        if abs(got_vals[k] - ref_vals[k]) > VALUE_RTOL * max(1.0, abs(ref_vals[k])):
            problems.append(f"value of {k}: got {got_vals[k]!r}, reference {ref_vals[k]!r}")
    return problems


def volume_factors() -> dict:
    """f and Lambda from the program's ``volume_factor`` on the fixed grid."""
    from finslerab.scurvature import volume_factor

    out = {}
    for n in VOLUME_DIMS:
        for form in VOLUME_FORMS:
            for b in VOLUME_BS:
                vf = volume_factor(n, b, form)
                out[f"{n}/{form}/{b!r}"] = {"f": vf.f, "Lambda": vf.Lambda}
    return out


def volume_differences(got: dict, ref: dict) -> list[str]:
    """Every grid point where ``got`` departs from the reference by more than VOLUME_RTOL."""
    problems = []
    for key in sorted(ref):
        for name, want in ref[key].items():
            have = got.get(key, {}).get(name)
            if have is None or abs(have - want) > VOLUME_RTOL * max(1.0, abs(want)):
                problems.append(f"volume factor {key} {name}: got {have!r}, reference {want!r}")
    return problems
