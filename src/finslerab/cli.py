"""Command-line front end.

Subcommands::

    finslerab check    <metric-file> [--points N] [--y-per-point M] [--seed S]
                       [--tol T] [--volume bh|ht] [--format text|json|csv] [--out PATH]
    finslerab appendix (metric-file | --dim-sweep 3,4,5) [--sigma VALUE|random]
                       [--points N] [--seed S] [--format text|json] [--out PATH]
    finslerab scurv    <metric-file> [--volume bh|ht] [--points N] [--seed S] [--out PATH]
    finslerab flag     <metric-file> [--points N] [--seed S] [--out PATH]
    finslerab validate <metric-file> [--seed S]

This module parses arguments, writes output and maps results to exit
statuses; every number and verdict comes from ``classify``.  ``check``,
``scurv`` and ``flag`` run the same evaluation (``classify.run_check``):
``scurv`` and ``flag`` ask only for the condition groups they print, with 6
y per point and the default tolerance, and exit 3 on any violation.
``check`` takes ``--y-per-point`` >= 2, as one y fits F's Einstein sigma exactly.
Its ``--tol``, in [``TOL_FLOOR``, 1) = [1e-14, 1), sets each verdict's threshold,
tol * max(1, scale), not the cross-route gates (``classify.ROUTE_TOL``); below
the floor it would test rounding, and from 1 up an order-one residual read as 0.
A run of more than ``MAX_SAMPLES`` samples (points x y per point) is refused.
``validate`` runs the validity check that the others run before sampling,
with the same ``--seed``.  A run also rejects its own sample points where
b^2 >= 1/4 (exit 2), which validate's 200 points may miss.

Exit status: 0 clean, 2 invalid metric file or arguments, 3 engine inconsistency detected.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import classify
from .classify import RunConfig
from .dsl import MAX_DIM, MetricFileError, parse_metric, validate_spec
from .jets import JetError
from .riemann import GeometryError

EXIT_OK = 0
EXIT_INVALID_METRIC = 2
EXIT_INCONSISTENT = 3


def _load(path: str):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)
    try:
        return parse_metric(text, name=p.stem)
    except MetricFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)


def _validated(path: str, seed: int):
    spec = _load(path)
    report = validate_spec(spec, seed=seed)
    if not report.valid:
        print(report.summary(), file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)
    return spec


def _write_out(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)


def _bounded(points: int, y_per_point: int):
    """Refuse a run of more than ``MAX_SAMPLES`` samples: exit 2."""
    if points * y_per_point > MAX_SAMPLES:
        print(f"error: {points} points x {y_per_point} y per point exceeds {MAX_SAMPLES} samples", file=sys.stderr)
        raise SystemExit(EXIT_INVALID_METRIC)


def cmd_check(args) -> int:
    """check, scurv and flag: the condition groups and the view come from the subcommand."""
    _bounded(args.points, args.y_per_point)
    spec = _validated(args.metric, args.seed)
    config = RunConfig(
        points=args.points,
        y_per_point=args.y_per_point,
        seed=args.seed,
        tolerance=args.tol,
        volume_form=args.volume,
    )
    report = classify.run_check(spec, config, args.groups)
    _write_out(classify.emit_report(report, args.format), args.out)
    return EXIT_INCONSISTENT if report.engine_inconsistent else EXIT_OK


def cmd_appendix(args) -> int:
    _bounded(args.points, 1)
    config = RunConfig(points=args.points, seed=args.seed, sigma_policy=args.sigma)
    if args.dim_sweep:
        rep = classify.run_dim_sweep(args.dim_sweep, config)
        _write_out(classify.emit_sweep(rep, args.format), args.out)
    elif not args.metric:
        print("error: need a metric file or --dim-sweep", file=sys.stderr)
        return EXIT_INVALID_METRIC
    else:
        rep = classify.run_appendix(_validated(args.metric, args.seed), config)
        _write_out(classify.emit_appendix(rep, args.format), args.out)
    return EXIT_OK if rep.ok else EXIT_INCONSISTENT


def cmd_validate(args) -> int:
    spec = _load(args.metric)
    report = validate_spec(spec, seed=args.seed)
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
_Y_COUNT = _arg(int, lambda v: v >= 2, "an integer >= 2")
_SEED = _arg(int, lambda v: v >= 0, "an integer >= 0")
# The dual routes agree only to rounding: where S = 0 the two S routes can
# differ by 1.1e-16, and at a tolerance near that "constant Killing => S == 0"
# fails on a constant-Killing metric.  A tolerance below this floor tests
# rounding, not the geometry, so it is refused.
TOL_FLOOR = 1e-14
# A report keeps one row per sample (point x y-sample): about 1 KB held and
# 3.9 KB at peak each on a 5-dimensional metric with --format json.  This cap
# bounds the report at about 0.4 GB, but not a point's y-stack, which is
# sprayed at once: about 133 KB per y at n = 12 (ROADMAP, item 5).  A pass of
# the y-stage holds several points' stacks only while their largest arrays
# fit the fixed float budget ``riemann._STACK_FLOATS``, and else one.
MAX_SAMPLES = 10**5
_TOL = _arg(float, lambda v: TOL_FLOOR <= v < 1, f"a number in [{TOL_FLOOR:g}, 1)")
# kept as text: the report echoes the policy as given
_SIGMA = _arg(str, lambda v: v == "random" or math.isfinite(float(v)), "a finite number or 'random'")
_DIMS = _arg(
    lambda t: [int(d) for d in t.split(",")],
    lambda ds: all(2 <= d <= MAX_DIM for d in ds),
    f"a comma list of integers in 2..{MAX_DIM}",
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; given ``command``, only its options are filled in, which saves start-up work and memory.

    Every subcommand is registered either way, so top-level help and errors are the same.
    """
    defaults = RunConfig()
    ap = argparse.ArgumentParser(prog="finslerab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        return p if command in (None, name) else None

    def common(p):
        p.add_argument("metric", help="metric definition file")
        p.add_argument("--points", type=_COUNT, default=20)
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--out", default=None)

    if p := add("check", help="full classification report"):
        common(p)
        p.add_argument("--y-per-point", type=_Y_COUNT, default=defaults.y_per_point)
        p.add_argument("--tol", type=_TOL, default=defaults.tolerance)
        p.add_argument("--volume", choices=("bh", "ht"), default=defaults.volume_form)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.set_defaults(fn=cmd_check, groups=classify.GROUPS)

    # argparse prints a group's positional apart from its options, so the usage
    # line is written out to show the metric file and the sweep as alternatives
    if p := add(
        "appendix",
        help="cleared-identity check",
        usage="%(prog)s [-h] [--points POINTS] [--seed SEED] [--out OUT] [--sigma SIGMA]\n"
        "       [--format {text,json}] (metric | --dim-sweep DIMS)",
    ):
        # the sweep uses built-in metrics, so a metric file with it is an error, not ignored
        source = p.add_mutually_exclusive_group()
        source.add_argument("metric", nargs="?", default=None)
        p.add_argument("--points", type=_COUNT, default=20)
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--sigma", type=_SIGMA, default="0", help="a number, or 'random' (negative: --sigma=-1e-3)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        source.add_argument(
            "--dim-sweep", type=_DIMS, default=None, metavar="DIMS", help="comma list of dimensions, e.g. 3,4,5"
        )
        p.set_defaults(fn=cmd_appendix)

    # the views of check that print only some condition groups, at fixed sampling
    views = dict(fn=cmd_check, y_per_point=6, tol=defaults.tolerance)
    if p := add("scurv", help="S-curvature report"):
        common(p)
        p.add_argument("--volume", choices=("bh", "ht"), default=defaults.volume_form)
        p.set_defaults(groups=("beta", "S"), format="scurv", **views)

    if p := add("flag", help="flag-curvature constancy report"):
        common(p)
        p.set_defaults(groups=("flag",), format="flag", volume=defaults.volume_form, **views)

    if p := add("validate", help="domain validity of a metric file"):
        p.add_argument("metric")
        p.add_argument("--seed", type=_SEED, default=0)
        p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # the top-level parser has no option that takes a value: its first other word names the subcommand
        args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # raised by argparse and the loaders with the proper status
        return int(exc.code)
    except (GeometryError, JetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_METRIC


if __name__ == "__main__":
    raise SystemExit(main())
