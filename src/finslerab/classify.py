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

``run_check`` and ``run_appendix`` take the sampled points' bundles from
``riemann.bundles`` and run each, its checks and all that follows point by
point; a non-finite number to report or to compare stops the run with a
``GeometryError``.

Verdicts use the threshold  residual <= tol * max(1, scale)  where scale is
the magnitude of the quantity's own constituent terms at the point, so a
tiny metric does not pass checks by being tiny and a large one does not fail
them by being large.  y-samples are normalized to alpha = 1 throughout.
Every dual route (Ricci direct vs T-split, S by definition vs closed form)
must agree within ``ROUTE_TOL`` at every sample, whatever the tolerance;
the worst relative deviation of each is kept in ``ClassReport.extremes``.

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
from .riemann import _finite, bundles

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

# The per-y columns a report row files, and each dual route's filed side, check side and whether its gate widens.
_ROW_KEYS = ("Ric", "F2", "S", "K_fit", "flag_residual")
_ROUTES = {"Ricci": ("Ric", "Ric_T", False), "S-curvature": ("S", "S_closed", True)}


# Two routes disagree at a y-sample where |a - b| / max(1, |a|) > ROUTE_TOL, whatever the verdicts' tolerance, or
# for S > ROUTE_TOL / (1 - 2b), b = |beta|_alpha.  The spray divides by 2s - 1 and 3s - 2b^2 - 1, s = beta / alpha,
# which fall to order 1 - 2b at y along b^i; the S routes' deviation grows as 1/(1 - 2b) (3.7e-10 at 1 - 2b = 2e-8),
# the Ricci routes' does not.  Worst on the shipped metrics, random n = 2..16 and 32, the stiff a_11 = 1 + 1e12 x1^2
# and b up to 0.499999999, 20 points x 12 y, seeds 0-2, bh and ht: Ricci 2.4e-14, S times (1 - 2b) 1.2e-15.
ROUTE_TOL = 1e-10


def _thr(tol: float, scale: float) -> float:
    return tol * max(1.0, scale)


# The implication lattice in report order; the last two are the paper's theorem,
# asserted only where dim >= 3 and beta != 0.
_IMPLICATIONS = (
    ("parallel => constant Killing", ("beta_parallel",), ("beta_constant_killing",)),
    ("constant Killing => Killing", ("beta_constant_killing",), ("beta_killing",)),
    ("S == 0 => constant Killing", ("S_zero",), ("beta_constant_killing",)),
    ("constant Killing => S == 0", ("beta_constant_killing",), ("S_zero",)),
    ("Einstein F with constant |beta| => alpha Ricci-flat and beta parallel",
     ("F_einstein", "beta_norm_constant"), ("alpha_ricci_flat", "beta_parallel")),
    ("Einstein F with S == 0 => Ricci-flat F", ("F_einstein", "S_zero"), ("F_ricci_flat",)),
)


def _implication_violations(v: dict, theorem: bool) -> list:
    """A message per implication whose conditions were all computed, premises hold and a conclusion fails."""
    return [
        f"implication violated: {name}" for name, ps, cs in _IMPLICATIONS[: None if theorem else 4]
        if all(k in v for k in ps + cs) and all(v[k] for k in ps) and not all(v[k] for k in cs)
    ]


def run_check(spec: MetricSpec, config: RunConfig, groups=GROUPS) -> ClassReport:
    """Evaluate the classification conditions of ``groups`` at sampled points.

    The random stream is drawn in one order for every view: the points,
    then per point 2n unread normal n-vectors (with "fits" only, so each
    seed keeps its y-samples) and the y-samples.  When any group but
    "beta" runs, a point's y-samples are sprayed as one (y_per_point, n)
    stack.  "fits", "ricci" and "flag" make one call on it of the
    curvature, F, the scalar fits, the T-split Ricci route, the flag fit
    and Ricbar.  "S" evaluates each y on its own: its spray is a row of the
    point's stack, and it makes one call of each S route.  Every per-y
    quantity, each route's two sides too, is a column checked finite before
    any is compared.  Every measure a verdict reads (the beta tensors, the
    per-y magnitudes, each route's deviations) is reduced to its peak at the
    point in one pass over all of them, and the worst so far must stay
    finite.  A run files at least one row: it raises ``ValueError`` without
    a point or a y-sample, and "fits" below 2 y-samples per point, as one
    fits sigma exactly, whatever F is.
    """
    beta, fits, ricci, S, flag = (g in groups for g in GROUPS)
    least = 2 if fits else 1
    if config.points < 1 or config.y_per_point < least:
        raise ValueError(f"a run needs a point and at least {least} y-samples per point, "
                         f"got {config.points} points and {config.y_per_point} y-samples")
    tol = config.tolerance
    rng = np.random.default_rng(config.seed)
    pts = sample_domain(spec, config.points, rng, shrink=0.05)
    fit_list, point_rows, violations = [], [], []
    peaks = starts = None  # the worst of each measure over the points so far, and where each starts in a point's terms

    for p_idx, bu in enumerate(bundles(spec, pts)):
        # each measure's terms at this point, in one order at every point: the measure is their largest magnitude
        terms = {"beta": bu.b}
        if beta:
            gamma_b = np.einsum("mij,m->ij", bu.gamma, bu.b)
            terms.update(r=bu.r, s=bu.s, Db=bu.Db, s_i=bu.svec, norm_grad=bu.rvec + bu.svec,
                         Db_scale=np.concatenate([bu.db, gamma_b], axis=None))
        if fits:
            rng.standard_normal((2 * bu.n, bu.n))  # unread: see the docstring

        ys = finsler.unit_alpha_vectors(bu, config.y_per_point, rng)
        cols = {}  # each per-y quantity, shape (y_per_point,)
        if fits or ricci or S or flag:
            sp = finsler.spray(bu, ys)
        if fits or ricci or flag:
            R, ric = finsler.riemann_curvature(sp)
            F = finsler.metric_value(bu, ys)
            F2 = F * F
            if fits:
                fit_list.append(finsler.extract_scalars(bu, ric, F2))
        if ricci:
            cols.update(Ric=ric, F2=F2, Ric_T=finsler.ricci_via_T(sp), ricbar=bu.ricbar(ys))
        if S:
            cols["S"] = np.array([scurvature.s_curvature_def(finsler.spray(bu, y), config.volume_form) for y in ys])
            cols["S_closed"] = np.array([scurvature.s_curvature_closed(bu, y, config.volume_form) for y in ys])
        if flag:
            cols["K_fit"], cols["flag_residual"] = finsler.flag_curvature_fit(sp, R, F)
        # every number the point adds to the report, and each route's check side, before any is compared
        _finite("result", bu.x, dict(cols, fit=fit_list[-1]) if fits else cols)

        if ricci or flag:
            scale = np.maximum(1.0, F2)
        if ricci:
            terms["ricbar"], terms["Ric/F2"] = cols["ricbar"], np.abs(ric) / scale
        if S:
            terms["S"] = cols["S"]
        if flag:
            terms["flag_residual"] = cols["flag_residual"] / scale
        failing = []  # (y index, route, direct value, check value) of each row where a route disagrees
        for route, (direct, check, widens) in _ROUTES.items():
            if direct in cols:
                a, b = cols[direct], cols[check]
                dev = terms[f"{route} routes"] = np.abs(a - b) / np.maximum(1.0, np.abs(a))
                gate = ROUTE_TOL / (1.0 - 2.0 * bu.bsq**0.5) if widens else ROUTE_TOL
                failing += [(y, route, float(a[y]), float(b[y])) for y in np.flatnonzero(dev > gate)]
        # y-major, and at one y in route order: the sort is stable
        violations += [f"{route} routes disagree at point {p_idx}, y {y}: {a} vs {b}"
                       for y, route, a, b in sorted(failing, key=lambda f: f[0])]
        if peaks is None:  # the same measures and sizes at every point
            peaks, starts = np.zeros(len(terms)), np.cumsum([0] + [t.size for t in terms.values()][:-1])
        # one pass over every term; np.maximum, unlike max(), returns a NaN it meets
        np.maximum(peaks, np.maximum.reduceat(np.abs(np.concatenate(list(terms.values()), axis=None)), starts),
                   out=peaks)
        if not np.isfinite(peaks).all():
            _finite("result", bu.x, dict(zip(terms, peaks)))

        x, filed = bu.x.tolist(), [k for k in _ROW_KEYS if k in cols]
        row_keys = ("point", "y_index", "x", "y", *filed)
        point_rows += [dict(zip(row_keys, (p_idx, y_idx, list(x), *values)))
                       for y_idx, values in enumerate(zip(ys.tolist(), *(cols[k].tolist() for k in filed)))]
    worst = dict(zip(terms, peaks.tolist()))

    if fits:
        lam = float(np.mean([f.lam for f in fit_list]))
        c = float(np.mean([f.c for f in fit_list]))
        sig = float(np.mean([f.sigma for f in fit_list]))
        res_lam = max(f.resid_lambda for f in fit_list)
        res_c = max(f.resid_c for f in fit_list)
        res_sig = max(f.resid_sigma for f in fit_list)
    if flag:
        flag_K = [row["K_fit"] for row in point_rows]
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

    verdicts = {k: cond.verdict for k, cond in conditions.items()}
    violations += _implication_violations(verdicts, theorem=spec.dim >= 3 and worst.get("beta", 0.0) > tol)

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
    for p_idx, bu in enumerate(bundles(spec, pts)):
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


def _leaves(rows: list, keys) -> list:
    """The numbers of ``rows``, row by row and in each row key by key of ``keys``, a list's entries in its place."""
    many = [type(rows[0][k]) is list for k in keys]
    leaves = []
    for row in rows:
        for k, m in zip(keys, many):
            if m:
                leaves += row[k]
            else:
                leaves.append(row[k])
    return leaves


def _json_rows(rows: list) -> str:
    """The ``"points"`` list of a report as ``json.dumps(indent=2, sort_keys=True)`` lays it out, one level deep.

    ``run_check`` files every row with one key tuple, and its x and y hold n
    numbers each, so every row has the layout of the first.  The row
    template is ``json.dumps``'s own text of that layout, ``%s`` in place of
    each number, indented to the rows' depth.  All the numbers are encoded
    by one call of the C encoder, which gives each the text the indenting
    encoder would: ``repr`` of the float or int.
    """
    shape = {k: ["%s"] * len(v) if type(v) is list else "%s" for k, v in rows[0].items()}
    template = "    " + json.dumps(shape, indent=2, sort_keys=True).replace('"%s"', "%s").replace("\n", "\n    ")
    numbers = json.dumps(_leaves(rows, sorted(shape)))[1:-1].split(", ")
    return ",\n".join([template] * len(rows)) % tuple(numbers)


def emit_report(report: ClassReport, fmt: str = "text") -> str:
    """Serialize a classification report as text, json or csv, or as the scurv or flag view.

    json and csv write every row in the layout of the first: point, y_index,
    x, y and the columns ``run_check`` filed, in that order in csv.  The json
    text is ``json.dumps(_check_as_dict(report), indent=2, sort_keys=True)``
    and a newline, byte for byte.  The head, everything but the rows, goes
    through that call; ``"points"``, the last key in sorted order and nearly
    all of the text, through ``_json_rows``.
    """
    if fmt == "scurv":
        return _emit_scurv(report)
    if fmt == "flag":
        return _emit_flag(report)
    if fmt == "json":
        whole = _check_as_dict(report)
        rows = _json_rows(whole.pop("points"))
        # every other key sorts before "points", so the head's text ends where the rows begin
        head = json.dumps(whole, indent=2, sort_keys=True)
        return head[:-2] + ',\n  "points": [\n' + rows + "\n  ]\n}\n"
    if fmt == "csv":
        import csv  # imported here: no other format needs it, and every run would pay for it at start-up

        first, head = report.points[0], []
        for k, v in first.items():
            head += [f"{k}{i + 1}" for i in range(len(v))] if type(v) is list else [k]
        leaves, width = _leaves(report.points, list(first)), len(head)
        buf = io.StringIO()
        csv.writer(buf).writerows([head, *(leaves[i:i + width] for i in range(0, len(leaves), width))])
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
