"""Batch classification: sample a metric, run every check, aggregate verdicts.

Verdicts use the threshold  residual <= tol * max(1, scale)  where scale is
the magnitude of the quantity's own constituent terms at the point, so a
tiny metric does not pass checks by being tiny and a large one does not fail
them by being large.  y-samples are normalized to alpha = 1 throughout.

Cross-implication consistency (theorem-level) is asserted on every run: a
verdict combination that contradicts the implication lattice is flagged as
an engine inconsistency and surfaces as a dedicated exit code, never as a
silently emitted report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import finsler, identity, scurvature
from .dsl import MetricSpec, sample_domain, validate_spec
from .riemann import build_bundle

__all__ = ["RunConfig", "ClassReport", "run_check", "run_appendix", "emit_report"]


@dataclass
class RunConfig:
    metric_path: str = ""
    points: int = 20
    y_per_point: int = 12
    seed: int = 0
    tolerance: float = 1e-7
    volume_form: str = "bh"
    fmt: str = "text"
    out: str | None = None
    sigma_policy: str = "0"  # a float literal or "random"
    dim_sweep: list = field(default_factory=list)
    mode: str = "matsumoto"


@dataclass
class Condition:
    verdict: bool
    residual: float
    value: float | None = None

    def as_dict(self):
        d = {"verdict": bool(self.verdict), "residual": float(self.residual)}
        if self.value is not None:
            d["value"] = float(self.value)
        return d


@dataclass
class ClassReport:
    metric: str
    config: dict
    conditions: dict
    points: list
    consistency: dict

    @property
    def engine_inconsistent(self) -> bool:
        return bool(self.consistency["violations"])


def _thr(tol: float, scale: float) -> float:
    return tol * max(1.0, scale)


def run_check(spec: MetricSpec, config: RunConfig) -> ClassReport:
    """Evaluate every classification condition of ``spec`` at sampled points."""
    tol = config.tolerance
    rng = np.random.default_rng(config.seed)
    pts = sample_domain(spec, config.points, rng, shrink=0.05)
    n = spec.dim

    max_r = max_s = max_Db = max_svec = max_norm_grad = 0.0
    scale_Db = 0.0
    lam_fits, c_fits, sig_fits = [], [], []
    resid_lam = resid_c = resid_sig = 0.0
    max_ricbar = max_ricF = max_S = 0.0
    flag_K, flag_resid = [], 0.0
    beta_mag = 0.0
    cross_route_viol = []
    point_rows = []

    for p_idx, x in enumerate(pts):
        bu = build_bundle(spec, x)
        max_r = max(max_r, float(np.max(np.abs(bu.r))))
        max_s = max(max_s, float(np.max(np.abs(bu.s))))
        max_Db = max(max_Db, float(np.max(np.abs(bu.Db))))
        max_svec = max(max_svec, float(np.max(np.abs(bu.svec))))
        max_norm_grad = max(max_norm_grad, float(np.max(np.abs(bu.rvec + bu.svec))))
        gamma_b = np.einsum("mij,m->ij", bu.gamma, bu.b)
        scale_Db = max(scale_Db, float(np.max(np.abs(bu.db))), float(np.max(np.abs(gamma_b))))
        beta_mag = max(beta_mag, float(np.max(np.abs(bu.b))))

        fit = finsler.extract_scalars(bu, rng=rng, mode=config.mode)
        lam_fits.append(fit.lam)
        c_fits.append(fit.c)
        sig_fits.append(fit.sigma)
        resid_lam = max(resid_lam, fit.resid_lambda)
        resid_c = max(resid_c, fit.resid_c)
        resid_sig = max(resid_sig, fit.resid_sigma)

        ys = finsler.unit_alpha_vectors(bu, config.y_per_point, rng)
        for y_idx, y in enumerate(ys):
            G = finsler.spray(bu, y, mode=config.mode)
            _, ric = finsler.riemann_curvature(bu, y, mode=config.mode, G=G)
            ric_T = finsler.ricci_via_T(bu, y, mode=config.mode, G=G)
            if abs(ric - ric_T) > 100.0 * tol * max(1.0, abs(ric)):
                cross_route_viol.append(
                    f"Ricci routes disagree at point {p_idx}, y {y_idx}: {ric} vs {ric_T}"
                )
            F = finsler.metric_value(bu, y)
            ricbar = bu.ricbar(y)
            max_ricbar = max(max_ricbar, abs(ricbar))
            max_ricF = max(max_ricF, abs(ric) / max(1.0, F * F))
            s_def = scurvature.s_curvature_def(bu, y, config.volume_form, mode=config.mode, G=G)
            s_closed = scurvature.s_curvature_closed(bu, y, config.volume_form)
            if abs(s_def - s_closed) > 100.0 * tol * max(1.0, abs(s_def)):
                cross_route_viol.append(
                    f"S-curvature routes disagree at point {p_idx}, y {y_idx}: {s_def} vs {s_closed}"
                )
            max_S = max(max_S, abs(s_def))
            K, fres = finsler.flag_curvature_fit(bu, y, mode=config.mode, G=G)
            flag_K.append(K)
            flag_resid = max(flag_resid, fres / max(1.0, F * F))
            point_rows.append(
                {
                    "point": p_idx,
                    "y_index": y_idx,
                    "x": [float(v) for v in x],
                    "y": [float(v) for v in y],
                    "Ric": float(ric),
                    "F2": float(F * F),
                    "S": float(s_def),
                    "K_fit": float(K),
                    "flag_residual": float(fres),
                }
            )

    lam = float(np.mean(lam_fits))
    c = float(np.mean(c_fits))
    sig = float(np.mean(sig_fits))
    K_mean = float(np.mean(flag_K))
    K_spread = float(np.max(flag_K) - np.min(flag_K)) if flag_K else 0.0

    conditions = {
        "beta_killing": Condition(max_r <= _thr(tol, max_Db), max_r),
        "beta_closed": Condition(max_s <= _thr(tol, max_Db), max_s),
        "beta_constant_killing": Condition(
            max_r <= _thr(tol, max_Db) and max_svec <= _thr(tol, max_Db), max(max_r, max_svec)
        ),
        "beta_parallel": Condition(max_Db <= _thr(tol, scale_Db), max_Db),
        "beta_conformal": Condition(resid_c <= _thr(tol, abs(c)), resid_c, value=c),
        "beta_norm_constant": Condition(max_norm_grad <= _thr(tol, max_Db), max_norm_grad),
        "alpha_einstein": Condition(resid_lam <= _thr(tol, abs(lam)), resid_lam, value=lam),
        "alpha_ricci_flat": Condition(max_ricbar <= _thr(tol, 0.0), max_ricbar),
        "F_einstein": Condition(resid_sig <= _thr(tol, abs(sig)), resid_sig, value=sig),
        "F_ricci_flat": Condition(max_ricF <= _thr(tol, 0.0), max_ricF),
        "S_zero": Condition(max_S <= _thr(tol, 0.0), max_S),
        "constant_flag_curvature": Condition(
            flag_resid <= _thr(tol, 0.0) and K_spread <= 10.0 * _thr(tol, abs(K_mean)),
            max(flag_resid, K_spread),
            value=K_mean,
        ),
    }

    violations = list(cross_route_viol)
    v = {k: cond.verdict for k, cond in conditions.items()}
    nontrivial_beta = beta_mag > tol

    def implies(name, a, b):
        if a and not b:
            violations.append(f"implication violated: {name}")

    implies("parallel => constant Killing", v["beta_parallel"], v["beta_constant_killing"])
    implies("constant Killing => Killing", v["beta_constant_killing"], v["beta_killing"])
    implies("S == 0 => constant Killing", v["S_zero"], v["beta_constant_killing"])
    implies("constant Killing => S == 0", v["beta_constant_killing"], v["S_zero"])
    if n >= 3 and nontrivial_beta:
        implies(
            "Einstein F with constant |beta| => alpha Ricci-flat and beta parallel",
            v["F_einstein"] and v["beta_norm_constant"],
            v["alpha_ricci_flat"] and v["beta_parallel"],
        )
        implies(
            "Einstein F with S == 0 => Ricci-flat F",
            v["F_einstein"] and v["S_zero"],
            v["F_ricci_flat"],
        )

    return ClassReport(
        metric=spec.name,
        config={
            "points": config.points,
            "y_per_point": config.y_per_point,
            "seed": config.seed,
            "tolerance": config.tolerance,
            "volume_form": config.volume_form,
            "mode": config.mode,
        },
        conditions={k: cond for k, cond in conditions.items()},
        points=point_rows,
        consistency={"violations": violations},
    )


@dataclass
class AppendixReport:
    metric: str
    config: dict
    samples: list
    max_rel_dev: float
    max_parity_dev: float
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def run_appendix(spec: MetricSpec, config: RunConfig, threshold: float = 1e-6) -> AppendixReport:
    """Check the cleared polynomial identity at sampled (x, y, sigma)."""
    rng = np.random.default_rng(config.seed)
    pts = sample_domain(spec, config.points, rng, shrink=0.05)
    samples = []
    worst = worst_parity = 0.0
    failures = []
    for p_idx, x in enumerate(pts):
        bu = build_bundle(spec, x)
        y = finsler.unit_alpha_vectors(bu, 1, rng)[0]
        if config.sigma_policy == "random":
            sigma = float(rng.uniform(-1.0, 1.0))
        else:
            sigma = float(config.sigma_policy)
        diag = identity.verify_identity(bu, y, sigma, mode=config.mode, threshold=threshold)
        par = identity.parity_check(bu, y, sigma, mode=config.mode)
        worst = max(worst, diag.rel_dev)
        worst_parity = max(worst_parity, par.even_dev, par.odd_dev)
        row = {
            "point": p_idx,
            "sigma": sigma,
            "lhs": diag.lhs,
            "rhs": diag.rhs,
            "rel_dev": diag.rel_dev,
            "parity_even_dev": par.even_dev,
            "parity_odd_dev": par.odd_dev,
        }
        if diag.sensitivity is not None:
            best = min(diag.sensitivity.items(), key=lambda kv: kv[1])
            row["suspect_m"] = best[0]
            failures.append(f"point {p_idx}: rel dev {diag.rel_dev:.3e}, most suspect t_{best[0]}")
        samples.append(row)
    return AppendixReport(
        metric=spec.name,
        config={"points": config.points, "seed": config.seed, "sigma": config.sigma_policy},
        samples=samples,
        max_rel_dev=worst,
        max_parity_dev=worst_parity,
        failures=failures,
    )


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
    """Serialize a classification report as text, json or csv."""
    if fmt == "json":
        return json.dumps(_check_as_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
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
