"""Command-line front end.

Subcommands::

    finslerab check    <metric-file> [--points N] [--y-per-point M] [--seed S]
                       [--tol T] [--volume bh|ht] [--format text|json|csv] [--out PATH]
    finslerab appendix [metric-file] [--sigma VALUE|random] [--points N] [--seed S]
                       [--format text|json] [--dim-sweep 3,4,5]
    finslerab scurv    <metric-file> [--volume bh|ht] [--points N] [--seed S]
    finslerab flag     <metric-file> [--points N] [--seed S]
    finslerab validate <metric-file>

Exit status: 0 clean, 2 invalid metric file or arguments, 3 engine inconsistency detected.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import classify, finsler, scurvature, testmetrics
from .classify import RunConfig
from .dsl import MetricFileError, parse_metric, sample_domain, validate_spec
from .jets import JetError
from .riemann import GeometryError, build_bundle

EXIT_OK = 0
EXIT_INVALID_METRIC = 2
EXIT_INCONSISTENT = 3


def _load(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)
    try:
        return parse_metric(text, name=p.stem)
    except MetricFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)


def _validated(path: str, seed: int):
    spec = _load(path)
    report = validate_spec(spec, samples=200, seed=seed)
    if not report.valid:
        print(report.summary(), file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)
    return spec


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    spec = _validated(args.metric, args.seed)
    config = RunConfig(
        metric_path=args.metric,
        points=args.points,
        y_per_point=args.y_per_point,
        seed=args.seed,
        tolerance=args.tol,
        volume_form=args.volume,
        fmt=args.format,
        out=args.out,
    )
    report = classify.run_check(spec, config)
    _write_out(classify.emit_report(report, args.format), args.out)
    return EXIT_INCONSISTENT if report.engine_inconsistent else EXIT_OK


def cmd_appendix(args) -> int:
    config = RunConfig(points=args.points, seed=args.seed, sigma_policy=args.sigma)
    if args.dim_sweep:
        worst = 0.0
        lines = []
        ok = True
        for n in args.dim_sweep:
            for spec in (testmetrics.euclidean_linear_beta(n), testmetrics.random_metric(n, args.seed + n)):
                rep = classify.run_appendix(spec, config)
                worst = max(worst, rep.max_rel_dev)
                ok = ok and rep.ok
                lines.append(
                    f"n={n} {spec.name:18s} max rel dev {rep.max_rel_dev:.3e}"
                    f"  parity {rep.max_parity_dev:.3e}  {'ok' if rep.ok else 'FAIL'}"
                )
        lines.append(f"sweep worst relative deviation: {worst:.3e}")
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_OK if ok else EXIT_INCONSISTENT
    if not args.metric:
        print("error: need a metric file or --dim-sweep", file=sys.stderr)
        return EXIT_INVALID_METRIC
    spec = _validated(args.metric, args.seed)
    rep = classify.run_appendix(spec, config)
    _write_out(classify.emit_appendix(rep, args.format), args.out)
    return EXIT_OK if rep.ok else EXIT_INCONSISTENT


def cmd_scurv(args) -> int:
    spec = _validated(args.metric, args.seed)
    rng = np.random.default_rng(args.seed)
    pts = sample_domain(spec, args.points, rng, shrink=0.05)
    bundles = []
    max_s = 0.0
    max_route_dev = 0.0
    for x in pts:
        bu = build_bundle(spec, x)
        bundles.append(bu)
        for y in finsler.unit_alpha_vectors(bu, 6, rng):
            s_def = scurvature.s_curvature_def(bu, y, args.volume)
            s_closed = scurvature.s_curvature_closed(bu, y, args.volume)
            max_s = max(max_s, abs(s_def))
            max_route_dev = max(max_route_dev, abs(s_def - s_closed) / max(1.0, abs(s_def)))
    ck, resid = scurvature.constant_killing_verdict(bundles)
    lines = [
        f"metric: {spec.name}   volume form: {args.volume}",
        f"max |S| over samples: {max_s:.3e}",
        f"closed-form vs definition route deviation: {max_route_dev:.3e}",
        f"constant Killing form: {'yes' if ck else 'no'} "
        f"(max |r_ij| = {resid['max_r']:.3e}, max |s_i| = {resid['max_s_i']:.3e})",
    ]
    # vanishing S iff constant Killing: surface any mismatch as inconsistency
    s_zero = max_s <= 1e-7
    consistent = s_zero == ck
    lines.append("S == 0 iff constant Killing: consistent" if consistent else "INCONSISTENT")
    _write_out("\n".join(lines) + "\n", args.out)
    if max_route_dev > 1e-6:
        return EXIT_INCONSISTENT
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def cmd_flag(args) -> int:
    spec = _validated(args.metric, args.seed)
    rng = np.random.default_rng(args.seed)
    pts = sample_domain(spec, args.points, rng, shrink=0.05)
    Ks = []
    worst = 0.0
    for x in pts:
        bu = build_bundle(spec, x)
        for y in finsler.unit_alpha_vectors(bu, 6, rng):
            K, res = finsler.flag_curvature_fit(bu, y)
            F = finsler.metric_value(bu, y)
            Ks.append(K)
            worst = max(worst, res / max(1.0, F * F))
    spread = max(Ks) - min(Ks) if Ks else 0.0
    const = worst <= 1e-7 and spread <= 1e-6
    lines = [
        f"metric: {spec.name}",
        f"K fits: mean {np.mean(Ks):+.6g}  spread {spread:.3e}  worst tensor residual {worst:.3e}",
        f"constant flag curvature: {'yes, K = %.6g' % np.mean(Ks) if const else 'no'}",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _load(args.metric)
    report = validate_spec(spec, samples=400, seed=args.seed)
    print(report.summary())
    return EXIT_OK if report.valid else EXIT_INVALID_METRIC


def _arg(convert, ok, what: str):
    """argparse type: ``convert(text)``, rejected unless ``ok`` holds for it."""

    def parse(text: str):
        try:
            value = convert(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_COUNT = _arg(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _arg(int, lambda v: v >= 0, "an integer >= 0")
_TOL = _arg(float, lambda v: math.isfinite(v) and v > 0.0, "a positive finite number")
# kept as text: the report echoes the policy as given
_SIGMA = _arg(str, lambda v: v == "random" or math.isfinite(float(v)), "a finite number or 'random'")
_DIMS = _arg(
    lambda t: [int(d) for d in t.split(",")], lambda ds: min(ds) >= 2, "a comma list of integers >= 2"
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="finslerab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, metric_required=True):
        if metric_required:
            p.add_argument("metric", help="metric definition file")
        p.add_argument("--points", type=_COUNT, default=20)
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="full classification report")
    common(p)
    p.add_argument("--y-per-point", type=_COUNT, default=12)
    p.add_argument("--tol", type=_TOL, default=1e-7)
    p.add_argument("--volume", choices=("bh", "ht"), default="bh")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("appendix", help="cleared-identity check")
    p.add_argument("metric", nargs="?", default=None)
    p.add_argument("--points", type=_COUNT, default=20)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--sigma", type=_SIGMA, default="0", help="a number, or 'random'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--dim-sweep", type=_DIMS, default=None, help="comma list of dimensions, e.g. 3,4,5")
    p.set_defaults(fn=cmd_appendix)

    p = sub.add_parser("scurv", help="S-curvature report")
    common(p)
    p.add_argument("--volume", choices=("bh", "ht"), default="bh")
    p.set_defaults(fn=cmd_scurv)

    p = sub.add_parser("flag", help="flag-curvature constancy report")
    common(p)
    p.set_defaults(fn=cmd_flag)

    p = sub.add_parser("validate", help="domain validity of a metric file")
    p.add_argument("metric")
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # raised by argparse and the loaders with the proper status
        return int(exc.code)
    except (GeometryError, JetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_METRIC


if __name__ == "__main__":
    raise SystemExit(main())
