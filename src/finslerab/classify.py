"""Batch classification: sample a metric, run every check, aggregate verdicts.

One loop (``run_check``) samples the points, builds the bundle there, draws
the y-samples and evaluates the requested condition groups.  The ``check``,
``scurv`` and ``flag`` subcommands are views of it: each names the groups
it prints, and only their quantities are computed; ``emit_report`` renders
the full report (text, json, csv) or the ``scurv`` and ``flag`` views.
At each point every group but "beta" reads one spray of the whole stack
of y-samples.  The fits, Ricci and flag readers run once on it; the S
group asks for one spray per y-sample, as its routes take one y, and
``finsler.spray`` serves each of them as a row of the stack, the same bits.

``run_check`` and ``run_appendix`` share one loop over the sampled points'
bundles.  It takes the jets of a and b from one walk of the metric per
chunk of points, a chunk being as many points as fit a fixed float budget,
and builds each point's bundle, and all that follows, point by point.  A
point where b^2 >= 1/4, outside the domain of F, stops the run with a
``GeometryError``: its own sample points are checked, not only those of
``validate_spec``.  So does a point with a non-finite number to report.

Verdicts use the threshold  residual <= tol * max(1, scale)  where scale is
the magnitude of the quantity's own constituent terms at the point, so a
tiny metric does not pass checks by being tiny and a large one does not fail
them by being large.  y-samples are normalized to alpha = 1 throughout.
Every dual route (Ricci direct vs T-split, S by definition vs closed form)
must agree to  |a - b| <= 10 tol max(1, |a|)  at every sample; the worst
relative deviation of each is kept in ``ClassReport.extremes``.

Cross-implication consistency (theorem-level) is asserted on every run: a
verdict combination that contradicts the implication lattice is flagged as
an engine inconsistency and surfaces as a dedicated exit code, never as a
silently emitted report.  An implication is checked whenever the run
computed every condition it names.
"""

from __future__ import annotations

import io
import json
from typing import NamedTuple

import numpy as np

from . import finsler, identity, scurvature, testmetrics
from .dsl import MetricSpec, sample_domain
from .jets import ArrayJet, JetError
from .riemann import GeometryError, _finite, build_bundle

__all__ = [
    "RunConfig", "ClassReport", "GROUPS", "run_check", "run_appendix", "run_dim_sweep",
    "emit_report", "emit_appendix", "emit_sweep",
]


class RunConfig(NamedTuple):
    points: int = 20
    y_per_point: int = 12
    seed: int = 0
    tolerance: float = 1e-7
    volume_form: str = "bh"
    sigma_policy: str = "0"  # a float literal or "random"


class Condition(NamedTuple):
    verdict: bool
    residual: float
    value: float | None = None

    def as_dict(self):
        d = {"verdict": bool(self.verdict), "residual": float(self.residual)}
        if self.value is not None:
            d["value"] = float(self.value)
        return d


class ClassReport(NamedTuple):
    metric: str
    config: dict
    conditions: dict
    points: list
    consistency: dict
    extremes: dict  # the worst raw quantities behind the verdicts; not serialized

    @property
    def engine_inconsistent(self) -> bool:
        return bool(self.consistency["violations"])


# The groups of quantities a run can compute: per point the beta tensors
# ("beta") and the scalar fits ("fits"), and per y-sample the Ricci routes
# ("ricci"), the S routes ("S") and the flag fit ("flag").
GROUPS = ("beta", "fits", "ricci", "S", "flag")


def _thr(tol: float, scale: float) -> float:
    return tol * max(1.0, scale)


# Floats of a and b jets that one walk of the metric may form: the default 20
# points are one walk up to n = 10, and memory stays bounded for any count.
_CHUNK_FLOATS = 2**18


def _point_jets(spec: MetricSpec, pts):
    """Each point's (a, b) jets for ``build_bundle``, from one walk of the metric per chunk of points.

    A chunk is walked when its first point is asked for.  Each point gets
    views of its slice, which are C-contiguous, as its own walk's arrays
    are.  A chunk whose walk fails gives None for each of its points:
    ``build_bundle`` then walks them one at a time and raises at the first
    that fails.
    """
    n = spec.dim
    size = max(1, _CHUNK_FLOATS // ((n * n + n) * (1 + n + n * n)))
    for start in range(0, len(pts), size):
        chunk = pts[start:start + size]
        env = spec.chart_jets(chunk)
        try:
            jets = spec.a_jet(env), spec.b_jet(env)
        except JetError:
            yield from [None] * len(chunk)
            continue
        for p in range(len(chunk)):
            yield tuple(ArrayJet(j.val[p], j.grad[p], j.hess[p]) for j in jets)


def _bundles(spec: MetricSpec, pts):
    """The bundle at each point of ``pts``, in order; a ``GeometryError`` at the first where b^2 >= 1/4."""
    for x, jets in zip(pts, _point_jets(spec, pts)):
        bu = build_bundle(spec, x, jets)
        if bu.bsq >= 0.25:
            raise GeometryError(f"b^2 = {bu.bsq:.6g} >= 1/4 at x={x}: F = alpha^2/(alpha - beta) is not defined there")
        yield bu


def run_check(spec: MetricSpec, config: RunConfig, groups=GROUPS) -> ClassReport:
    """Evaluate the classification conditions of ``groups`` at sampled points.

    The random stream is drawn in one order for every view: the points,
    then per point 2n unread normal n-vectors (with "fits" only, so each
    seed keeps its y-samples) and the y-samples.  When any group but
    "beta" runs, a point's y-samples are sprayed as one (y_per_point, n)
    stack.  "fits", "ricci" and "flag" make one call on it of the
    curvature, F, the scalar fits, the T-split Ricci route, the flag fit
    and Ricbar.  "S" evaluates each y on its own: its spray is a row of the
    point's stack, and it makes one call of each S route.  The per-y loop
    files the rows and the cross-checks.  "fits" raises
    ``ValueError`` below 2 y-samples per point: one fits sigma exactly,
    whatever F is.
    """
    beta, fits, ricci, S, flag = (g in groups for g in GROUPS)
    if fits and config.y_per_point < 2:
        raise ValueError(f"the scalar fits need at least 2 y-samples per point, got {config.y_per_point}")
    tol = config.tolerance
    rng = np.random.default_rng(config.seed)
    pts = sample_domain(spec, config.points, rng, shrink=0.05)
    worst, fit_list, flag_K, point_rows, violations = {}, [], [], [], []

    def peak(key, value):
        worst[key] = max(worst.get(key, 0.0), float(value))

    def cross(route, a, b, where):
        dev = abs(a - b) / max(1.0, abs(a))
        peak(f"{route} routes", dev)
        if dev > 10.0 * tol:
            violations.append(f"{route} routes disagree at {where}: {a} vs {b}")

    for p_idx, bu in enumerate(_bundles(spec, pts)):
        peak("beta", np.max(np.abs(bu.b)))
        if beta:
            gamma_b = np.einsum("mij,m->ij", bu.gamma, bu.b)
            peak("r", np.max(np.abs(bu.r)))
            peak("s", np.max(np.abs(bu.s)))
            peak("Db", np.max(np.abs(bu.Db)))
            peak("s_i", np.max(np.abs(bu.svec)))
            peak("norm_grad", np.max(np.abs(bu.rvec + bu.svec)))
            peak("Db_scale", max(float(np.max(np.abs(bu.db))), float(np.max(np.abs(gamma_b)))))
        if fits:
            rng.standard_normal((2 * bu.n, bu.n))  # unread: see the docstring

        ys = finsler.unit_alpha_vectors(bu, config.y_per_point, rng)
        if fits or ricci or S or flag:
            sp = finsler.spray(bu, ys)
        if fits or ricci or flag:
            R, ric = finsler.riemann_curvature(sp)
            F = finsler.metric_value(bu, ys)
            F2 = F * F
            if fits:
                fit_list.append(finsler.extract_scalars(bu, ric, F2))
            F2 = F2.tolist()
        if ricci:
            ric, ric_T, ricbar = ric.tolist(), finsler.ricci_via_T(sp).tolist(), bu.ricbar(ys).tolist()
        if flag:
            K, fres = (v.tolist() for v in finsler.flag_curvature_fit(sp, R, F))

        s_point = []
        for y_idx, y in enumerate(ys):
            where = f"point {p_idx}, y {y_idx}"
            row = {"point": p_idx, "y_index": y_idx, "x": bu.x.tolist(), "y": y.tolist()}
            if ricci:
                cross("Ricci", ric[y_idx], ric_T[y_idx], where)
                peak("ricbar", abs(ricbar[y_idx]))
                peak("Ric/F2", abs(ric[y_idx]) / max(1.0, F2[y_idx]))
                row.update(Ric=ric[y_idx], F2=F2[y_idx])
            if S:
                s_def = scurvature.s_curvature_def(finsler.spray(bu, y), config.volume_form)
                cross("S-curvature", s_def, scurvature.s_curvature_closed(bu, y, config.volume_form), where)
                peak("S", abs(s_def))
                row["S"] = s_def
                s_point.append(s_def)
            if flag:
                flag_K.append(K[y_idx])
                peak("flag_residual", fres[y_idx] / max(1.0, F2[y_idx]))
                row.update(K_fit=K[y_idx], flag_residual=fres[y_idx])
            point_rows.append(row)
        # every number this point adds to the report: a group that did not run holds False
        _finite("result", bu.x, dict(worst, fit=fits and fit_list[-1], Ric=ricci and ric, F2=ricci and F2, S=s_point,
                                     K_fit=flag and K, flag_residual=flag and fres))

    if fits:
        lam = float(np.mean([f.lam for f in fit_list]))
        c = float(np.mean([f.c for f in fit_list]))
        sig = float(np.mean([f.sigma for f in fit_list]))
        res_lam = max(f.resid_lambda for f in fit_list)
        res_c = max(f.resid_c for f in fit_list)
        res_sig = max(f.resid_sigma for f in fit_list)
    if flag:
        K_mean = float(np.mean(flag_K))
        worst["K_spread"] = float(np.max(flag_K) - np.min(flag_K))
    kill = _thr(tol, worst.get("Db", 0.0))

    # every condition in report order; one whose group did not run is False and dropped
    conditions = {
        "beta_killing": beta and Condition(worst["r"] <= kill, worst["r"]),
        "beta_closed": beta and Condition(worst["s"] <= kill, worst["s"]),
        "beta_constant_killing": beta and Condition(
            worst["r"] <= kill and worst["s_i"] <= kill, max(worst["r"], worst["s_i"])
        ),
        "beta_parallel": beta and Condition(worst["Db"] <= _thr(tol, worst["Db_scale"]), worst["Db"]),
        "beta_conformal": fits and Condition(res_c <= _thr(tol, abs(c)), res_c, value=c),
        "beta_norm_constant": beta and Condition(worst["norm_grad"] <= kill, worst["norm_grad"]),
        "alpha_einstein": fits and Condition(res_lam <= _thr(tol, abs(lam)), res_lam, value=lam),
        "alpha_ricci_flat": ricci and Condition(worst["ricbar"] <= _thr(tol, 0.0), worst["ricbar"]),
        "F_einstein": fits and Condition(res_sig <= _thr(tol, abs(sig)), res_sig, value=sig),
        "F_ricci_flat": ricci and Condition(worst["Ric/F2"] <= _thr(tol, 0.0), worst["Ric/F2"]),
        "S_zero": S and Condition(worst["S"] <= _thr(tol, 0.0), worst["S"]),
        "constant_flag_curvature": flag and Condition(
            worst["flag_residual"] <= _thr(tol, 0.0) and worst["K_spread"] <= 10.0 * _thr(tol, abs(K_mean)),
            max(worst["flag_residual"], worst["K_spread"]),
            value=K_mean,
        ),
    }
    conditions = {k: cond for k, cond in conditions.items() if cond}

    v = {k: cond.verdict for k, cond in conditions.items()}

    def implies(name, premises, conclusions):
        if all(k in v for k in premises + conclusions):
            if all(v[k] for k in premises) and not all(v[k] for k in conclusions):
                violations.append(f"implication violated: {name}")

    implies("parallel => constant Killing", ("beta_parallel",), ("beta_constant_killing",))
    implies("constant Killing => Killing", ("beta_constant_killing",), ("beta_killing",))
    implies("S == 0 => constant Killing", ("S_zero",), ("beta_constant_killing",))
    implies("constant Killing => S == 0", ("beta_constant_killing",), ("S_zero",))
    if spec.dim >= 3 and worst.get("beta", 0.0) > tol:
        implies(
            "Einstein F with constant |beta| => alpha Ricci-flat and beta parallel",
            ("F_einstein", "beta_norm_constant"),
            ("alpha_ricci_flat", "beta_parallel"),
        )
        implies("Einstein F with S == 0 => Ricci-flat F", ("F_einstein", "S_zero"), ("F_ricci_flat",))

    return ClassReport(
        metric=spec.name,
        config={
            "points": config.points,
            "y_per_point": config.y_per_point,
            "seed": config.seed,
            "tolerance": config.tolerance,
            "volume_form": config.volume_form,
            "mode": "matsumoto",
        },
        conditions=conditions,
        points=point_rows,
        consistency={"violations": violations},
        extremes=worst,
    )


class AppendixReport(NamedTuple):
    metric: str
    config: dict
    samples: list
    max_rel_dev: float
    max_parity_dev: float
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def run_appendix(spec: MetricSpec, config: RunConfig) -> AppendixReport:
    """Check the cleared identity and its parity split at sampled (x, y, sigma), one record each."""
    rng = np.random.default_rng(config.seed)
    pts = sample_domain(spec, config.points, rng, shrink=0.05)
    samples, rel_devs, parity_devs, failures = [], [], [], []
    for p_idx, bu in enumerate(_bundles(spec, pts)):
        y = finsler.unit_alpha_vectors(bu, 1, rng)[0]
        if config.sigma_policy == "random":
            sigma = float(rng.uniform(-1.0, 1.0))
        else:
            sigma = float(config.sigma_policy)
        rec = identity.verify_identity(bu, y, sigma)
        rel_devs.append(rec.rel_dev)
        parity_devs += [rec.even_dev, rec.odd_dev]
        row = {
            "point": p_idx,
            "sigma": sigma,
            "lhs": rec.lhs,
            "rhs": rec.rhs,
            "rel_dev": rec.rel_dev,
            "parity_even_dev": rec.even_dev,
            "parity_odd_dev": rec.odd_dev,
        }
        if rec.suspect is not None:
            row["suspect_m"] = rec.suspect
            failures.append(f"point {p_idx}: rel dev {rec.rel_dev:.3e}, most suspect t_{rec.suspect}")
        if not rec.parity_ok:
            failures.append(f"point {p_idx}: parity split even {rec.even_dev:.3e}, "
                            f"odd {rec.odd_dev:.3e}, terms {rec.term_parity_dev:.3e}")
        samples.append(row)
    return AppendixReport(
        metric=spec.name,
        config={"points": config.points, "seed": config.seed, "sigma": config.sigma_policy},
        samples=samples,
        # np.max, unlike max(), returns a NaN it meets
        max_rel_dev=float(np.max(rel_devs, initial=0.0)),
        max_parity_dev=float(np.max(parity_devs, initial=0.0)),
        failures=failures,
    )


class SweepReport(NamedTuple):
    rows: list  # one dict per swept metric: dim, metric, max_rel_dev, max_parity_dev, ok

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def run_dim_sweep(dims, config: RunConfig) -> SweepReport:
    """The cleared identity on a flat conformal and a seeded random metric of each dimension."""
    rows = []
    for n in dims:
        for spec in (testmetrics.euclidean_linear_beta(n), testmetrics.random_metric(n, config.seed + n)):
            rep = run_appendix(spec, config)
            rows.append(dict(dim=n, metric=spec.name, max_rel_dev=rep.max_rel_dev,
                             max_parity_dev=rep.max_parity_dev, ok=rep.ok))
    return SweepReport(rows)


# -- serialization -------------------------------------------------------------


def _check_as_dict(report: ClassReport) -> dict:
    return {
        "metric": report.metric,
        "config": report.config,
        "conditions": {k: c.as_dict() for k, c in report.conditions.items()},
        "points": report.points,
        "consistency": report.consistency,
    }


def emit_report(report: ClassReport, fmt: str = "text") -> str:
    """Serialize a classification report as text, json or csv, or as the scurv or flag view."""
    if fmt == "scurv":
        return _emit_scurv(report)
    if fmt == "flag":
        return _emit_flag(report)
    if fmt == "json":
        return json.dumps(_check_as_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv  # imported here: no other format needs it, and every run would pay for it at start-up

        buf = io.StringIO()
        wr = csv.writer(buf)
        head = ["point", "y_index"]
        nx = len(report.points[0]["x"]) if report.points else 0
        head += [f"x{i+1}" for i in range(nx)] + [f"y{i+1}" for i in range(nx)]
        head += ["Ric", "F2", "S", "K_fit", "flag_residual"]
        wr.writerow(head)
        for row in report.points:
            wr.writerow(
                [row["point"], row["y_index"], *row["x"], *row["y"],
                 row["Ric"], row["F2"], row["S"], row["K_fit"], row["flag_residual"]]
            )
        return buf.getvalue()
    lines = [f"metric: {report.metric}"]
    lines.append(f"config: {report.config}")
    lines.append(f"{'condition':28s} {'verdict':8s} {'residual':>12s}  value")
    for name, cond in report.conditions.items():
        mark = "yes" if cond.verdict else "no"
        val = "" if cond.value is None else f"{cond.value:+.6g}"
        lines.append(f"{name:28s} {mark:8s} {cond.residual:12.3e}  {val}")
    if report.consistency["violations"]:
        lines.append("ENGINE INCONSISTENCY:")
        lines += [f"  {v}" for v in report.consistency["violations"]]
    else:
        lines.append("cross-implication checks: all consistent")
    return "\n".join(lines) + "\n"


def _emit_scurv(report: ClassReport) -> str:
    worst, ck = report.extremes, report.conditions["beta_constant_killing"]
    violations = report.consistency["violations"]
    lines = [
        f"metric: {report.metric}   volume form: {report.config['volume_form']}",
        f"max |S| over samples: {report.conditions['S_zero'].residual:.3e}",
        f"closed-form vs definition route deviation: {worst['S-curvature routes']:.3e}",
        f"constant Killing form: {'yes' if ck.verdict else 'no'} "
        f"(max |r_ij| = {worst['r']:.3e}, max |s_i| = {worst['s_i']:.3e})",
        "INCONSISTENT: " + "; ".join(violations) if violations else "S == 0 iff constant Killing: consistent",
    ]
    return "\n".join(lines) + "\n"


def _emit_flag(report: ClassReport) -> str:
    worst, flag = report.extremes, report.conditions["constant_flag_curvature"]
    lines = [
        f"metric: {report.metric}",
        f"K fits: mean {flag.value:+.6g}  spread {worst['K_spread']:.3e}"
        f"  worst tensor residual {worst['flag_residual']:.3e}",
        f"constant flag curvature: {'yes, K = %.6g' % flag.value if flag.verdict else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def emit_appendix(report: AppendixReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {
                "metric": report.metric,
                "config": report.config,
                "max_rel_dev": report.max_rel_dev,
                "max_parity_dev": report.max_parity_dev,
                "samples": report.samples,
                "failures": report.failures,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    lines = [
        f"metric: {report.metric}",
        f"samples: {len(report.samples)}  sigma policy: {report.config['sigma']}",
        f"max relative deviation: {report.max_rel_dev:.3e}",
        f"max parity-split deviation: {report.max_parity_dev:.3e}",
    ]
    if report.failures:
        lines.append("FAILURES:")
        lines += [f"  {f}" for f in report.failures]
    else:
        lines.append("identity holds at every sample")
    return "\n".join(lines) + "\n"


def emit_sweep(report: SweepReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.rows, indent=2, sort_keys=True) + "\n"
    lines = [
        f"n={row['dim']} {row['metric']:18s} max rel dev {row['max_rel_dev']:.3e}"
        f"  parity {row['max_parity_dev']:.3e}  {'ok' if row['ok'] else 'FAIL'}"
        for row in report.rows
    ]
    worst = max([0.0] + [row["max_rel_dev"] for row in report.rows])
    lines.append(f"sweep worst relative deviation: {worst:.3e}")
    return "\n".join(lines) + "\n"
