"""Per-layer metrics of a traced pass, and the wrapper coverage self-check."""

from __future__ import annotations

# (traced name, field) pairs reported per layer.  ``self_s`` is the span time
# minus the time covered by child spans, summed over every job of the pass.
SPAN_METRICS = (
    ("finsler.spray", "calls"),
    ("finsler.spray", "self_s"),
    ("finsler.extract_scalars", "self_s"),
    ("finsler.riemann_curvature", "self_s"),
    ("finsler.ricci_via_T", "self_s"),
    ("finsler.flag_curvature_fit", "self_s"),
    ("riemann.alpha_spray_jets", "self_s"),
    ("scurvature.volume_factor", "calls"),
    ("scurvature.volume_factor", "self_s"),
    ("scurvature.s_curvature_def", "self_s"),
    ("scurvature.s_curvature_closed", "self_s"),
    ("riemann.build_bundle", "calls"),
    ("riemann.build_bundle", "self_s"),
    ("dsl.parse_metric", "self_s"),
    ("dsl.validate_spec", "calls"),
    ("dsl.validate_spec", "self_s"),
    ("identity.contraction_set", "self_s"),
    ("identity.verify_identity", "self_s"),
    ("identity.parity_check", "self_s"),
    ("classify.run_appendix", "self_s"),
    ("classify.run_check", "self_s"),
    ("classify.emit_report", "self_s"),
    ("cli.main", "self_s"),
)

UNITS = {"calls": "count", "self_s": "s"}


def layer_metrics(traced: list, wall_traced: float, wall_plain: float) -> dict:
    """Metrics of one traced pass from ``traced``, a list of (job, trace report)."""
    calls: dict = {}
    self_s: dict = {}
    mul = vf_distinct = samples = 0
    for job, rep in traced:
        for name, k in rep["calls"].items():
            calls[name] = calls.get(name, 0) + k
        for name, t in rep["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + t
        mul += rep["jet_mul_calls"]
        vf_distinct += rep["volume_factor_distinct"]
        samples += job.samples
    out = {}
    for name, field in SPAN_METRICS:
        value = calls.get(name, 0) if field == "calls" else self_s.get(name, 0.0)
        out[f"{name}.{field}"] = (value, UNITS[field])
    vf_calls = calls.get("scurvature.volume_factor", 0)
    out["finsler.spray.calls_per_sample"] = (calls.get("finsler.spray", 0) / samples, "ratio")
    out["jets.Jet.mul.calls"] = (mul, "count")
    out["scurvature.volume_factor.quad_ratio"] = (vf_distinct / vf_calls if vf_calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    return out


def expected_calls(job) -> tuple[dict, dict]:
    """(exact, at least) call counts that the job's structure implies."""
    p = job.points
    if job.kind == "check":
        exact = {
            "cli.main": 1,
            "dsl.validate_spec": 1,
            "classify.run_check": 1,
            "classify.emit_report": 1,
            "riemann.build_bundle": p,
            "finsler.extract_scalars": p,
            "scurvature.s_curvature_def": job.samples,
            "scurvature.s_curvature_closed": job.samples,
        }
        return exact, {"finsler.spray": job.samples}
    if job.kind == "appendix":
        exact = {
            "cli.main": 1,
            "dsl.validate_spec": 1,
            "classify.run_appendix": 1,
            "riemann.build_bundle": p,
            "identity.verify_identity": p,
            "identity.parity_check": p,
        }
        return exact, {"finsler.spray": p}
    if job.kind == "sweep":
        exact = {
            "cli.main": 1,
            "classify.run_appendix": 2,
            "riemann.build_bundle": 2 * p,
            "identity.verify_identity": 2 * p,
            "identity.parity_check": 2 * p,
        }
        return exact, {"finsler.spray": 2 * p}
    exact = {
        "cli.main": 1,
        "dsl.validate_spec": 1,
        "riemann.build_bundle": p,
        "scurvature.s_curvature_def": job.samples,
        "scurvature.s_curvature_closed": job.samples,
        "scurvature.volume_factor": 2 * job.samples,
    }
    return exact, {"finsler.spray": job.samples}


def coverage_problems(job, rep: dict) -> tuple[list, list]:
    """(problems, notices) of the wrapper coverage check for one traced job.

    A traced function that still exists but is reached without its wrapper
    shows up as a count below what the job's structure implies, or as an
    escape found by the tracer; either fails the traced run.  A name the
    program no longer defines is only a notice: its metrics read 0.
    """
    problems = [f"unwrapped reference {e}" for e in rep["escapes"]]
    notices = []
    traced = set(rep["traced"])
    exact, at_least = expected_calls(job)
    for name, want in list(exact.items()) + list(at_least.items()):
        if name not in traced:
            notices.append(f"{name} is not defined by the program; its count check is skipped")
            continue
        got = rep["calls"].get(name, 0)
        if (name in exact and got != want) or (name in at_least and got < want):
            rel = "==" if name in exact else ">="
            problems.append(f"{name} called {got} times, structure implies {rel} {want}")
    return problems, notices
