import argparse
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from finslerab import classify, cli, finsler, identity, riemann, scurvature, testmetrics
from finslerab.classify import GROUPS, RunConfig, emit_report, run_appendix, run_check
from finslerab.dsl import Bin, Const, Var, parse_metric, sample_domain, validate_spec
from finslerab.riemann import GeometryError, build_bundle
from .conftest import euclidean, unit_y


def small_config(**over):
    base = dict(points=4, y_per_point=3, seed=0, tolerance=1e-7)
    base.update(over)
    return RunConfig(**base)


def test_check_example_verdicts(example_spec):
    report = run_check(example_spec, small_config())
    v = {k: c.verdict for k, c in report.conditions.items()}
    assert v["beta_parallel"] and v["beta_constant_killing"] and v["beta_killing"]
    assert v["alpha_ricci_flat"] and v["F_ricci_flat"] and v["F_einstein"]
    assert v["S_zero"]
    # alpha is Ricci-flat but curved: no constant flag curvature
    assert not v["constant_flag_curvature"]
    assert not report.engine_inconsistent
    assert abs(report.conditions["F_einstein"].value) <= 1e-8


def test_check_trivial_euclidean():
    report = run_check(euclidean(3), small_config())
    v = {k: c.verdict for k, c in report.conditions.items()}
    assert all(
        v[k]
        for k in (
            "beta_killing", "beta_closed", "beta_constant_killing", "beta_parallel",
            "beta_conformal", "beta_norm_constant", "alpha_einstein",
            "alpha_ricci_flat", "F_einstein", "F_ricci_flat", "S_zero",
            "constant_flag_curvature",
        )
    )
    for k in ("beta_conformal", "alpha_einstein", "F_einstein", "constant_flag_curvature"):
        assert abs(report.conditions[k].value) <= 1e-12
    assert not report.engine_inconsistent


def test_check_negative_control(homothetic_spec):
    report = run_check(homothetic_spec, small_config(points=6, y_per_point=4))
    c = report.conditions
    assert c["beta_conformal"].verdict
    assert abs(c["beta_conformal"].value - 0.1) <= 1e-9
    assert not c["F_einstein"].verdict
    assert not c["beta_killing"].verdict
    assert not c["S_zero"].verdict
    assert not report.engine_inconsistent


def test_check_rotational_killing(rotational_spec):
    report = run_check(rotational_spec, small_config())
    c = report.conditions
    assert c["beta_killing"].verdict
    assert not c["beta_closed"].verdict
    assert not c["beta_constant_killing"].verdict  # s_i != 0 despite Killing
    assert not c["S_zero"].verdict
    assert not report.engine_inconsistent


def test_report_formats(example_spec):
    report = run_check(example_spec, small_config(points=2, y_per_point=2))
    text = emit_report(report, "text")
    assert "beta_parallel" in text and "yes" in text

    payload = json.loads(emit_report(report, "json"))
    assert set(payload) == {"metric", "config", "conditions", "points", "consistency"}
    cond = payload["conditions"]["F_ricci_flat"]
    assert cond["verdict"] is True and cond["residual"] <= 1e-8
    assert "value" in payload["conditions"]["F_einstein"]

    csv_text = emit_report(report, "csv")
    rows = [r for r in csv_text.strip().splitlines()[1:] if r]
    assert len(rows) == 2 * 2  # points x y-per-point


def test_json_determinism(example_spec):
    a = emit_report(run_check(example_spec, small_config()), "json")
    b = emit_report(run_check(example_spec, small_config()), "json")
    assert a == b


def _dumped(report) -> str:
    return json.dumps(classify._check_as_dict(report), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("name", testmetrics.list_shipped())
def test_json_writer_is_json_dumps_on_shipped_metrics(name, form):
    spec = testmetrics.shipped_metric(name)
    for seed in range(3):
        report = run_check(spec, RunConfig(seed=seed, volume_form=form))
        assert emit_report(report, "json") == _dumped(report), seed


@pytest.mark.parametrize("n", [3, 5, 8])
def test_json_writer_is_json_dumps_on_dense_metrics(n):
    report = run_check(testmetrics.random_metric(n, 40 + n), RunConfig())
    assert emit_report(report, "json") == _dumped(report)


# each view's condition groups, with the columns a row of it files after point, y_index, x and y
FILED = {
    GROUPS: ["Ric", "F2", "S", "K_fit", "flag_residual"],
    ("beta",): [],
    ("beta", "S"): ["S"],
    ("flag",): ["K_fit", "flag_residual"],
    ("fits",): [],
    ("ricci",): ["Ric", "F2"],
}


@pytest.mark.parametrize("groups", FILED)
def test_json_writer_is_json_dumps_on_one_point(example_spec, groups):
    report = run_check(example_spec, RunConfig(points=1, y_per_point=2), groups)
    assert len(report.points) == 2
    assert emit_report(report, "json") == _dumped(report)


@pytest.mark.parametrize("groups", FILED)
def test_csv_writes_the_filed_columns(example_spec, groups):
    """The header is point, y_index, x1.., y1.. and the filed columns; each row reads back to the report's numbers."""
    report = run_check(example_spec, RunConfig(points=2, y_per_point=2), groups)
    head, *lines = csv.reader(io.StringIO(emit_report(report, "csv")))
    n = example_spec.dim
    assert head == ["point", "y_index", *(f"x{i + 1}" for i in range(n)), *(f"y{i + 1}" for i in range(n)),
                    *FILED[groups]]
    assert len(lines) == len(report.points) == 4
    for line, row in zip(lines, report.points):
        assert [float(v) for v in line] == [row["point"], row["y_index"], *row["x"], *row["y"],
                                             *(row[k] for k in FILED[groups])]


def test_cli_json_is_json_dumps_with_an_escaped_metric_name(tmp_path):
    path = tmp_path / 'quote"d_é.metric'
    text = testmetrics.shipped_metric_path("euclidean_shear").read_text()
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main(["check", str(path), "--points", "3", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    report = run_check(parse_metric(text, name=path.stem), RunConfig(points=3))
    assert report.metric == 'quote"d_é'
    assert out.read_text() == _dumped(report)
    assert '"metric": "quote\\"d_\\u00e9"' in out.read_text()


def test_appendix_report(generic3d):
    rep = run_appendix(generic3d, small_config(points=6, sigma_policy="random"))
    assert rep.ok
    assert rep.max_rel_dev <= 1e-6
    assert rep.max_parity_dev <= 1e-6
    assert len(rep.samples) == 6


def test_appendix_one_record_per_sample(generic3d, monkeypatch):
    """Each sample makes one spray, for y and -y as a stack, and one contraction set at each of them."""
    calls = {"verify_identity": 0, "spray": 0, "contraction_set": 0}

    def count(module, name):
        orig = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    count(identity, "verify_identity")
    count(finsler, "spray")
    count(identity, "contraction_set")
    assert run_appendix(generic3d, small_config(points=3, sigma_policy="random")).ok
    assert calls == {"verify_identity": 3, "spray": 3, "contraction_set": 6}


def _rescaled(spec, c: float):
    """``spec`` with a -> c^2 a and b -> c b, rewritten in its expression trees."""

    def times(k, entries):
        return {key: Bin("*", Const(k), expr) for key, expr in entries.items()}

    return dataclasses.replace(spec, a_entries=times(c * c, spec.a_entries), b_entries=times(c, spec.b_entries))


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("name", testmetrics.list_shipped())
def test_check_rescales_with_the_metric(name, c):
    """A metamorphic oracle: a -> c^2 a and b -> c b make F -> c F with the same b^2.

    The spray is unchanged and the same seed draws the same points and the
    alpha-unit y / c, so every verdict stands, and per sample Ric scales by
    1/c^2, S by 1/c and F^2 not at all; lambda, sigma and K scale by 1/c^2.
    A slip that both routes of a cross-check share can still break these laws.
    Powers of two keep the rescaling exact in floating point.
    """
    spec = testmetrics.shipped_metric(name)
    base, scaled = run_check(spec, small_config()), run_check(_rescaled(spec, c), small_config())

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    assert {k: cond.verdict for k, cond in scaled.conditions.items()} == {
        k: cond.verdict for k, cond in base.conditions.items()
    }
    assert scaled.consistency == base.consistency
    for key in ("alpha_einstein", "F_einstein", "constant_flag_curvature"):
        assert close(scaled.conditions[key].value, base.conditions[key].value / c**2), key
    assert len(scaled.points) == len(base.points)
    for row, want in zip(scaled.points, base.points):
        assert row["x"] == want["x"] and row["y"] == [v / c for v in want["y"]]
        pairs = [("Ric", 1 / c**2), ("S", 1 / c), ("F2", 1.0), ("K_fit", 1 / c**2)]
        assert all(close(row[k], want[k] * f) for k, f in pairs), (row, want)


def _substituted(expr, sub):
    """``expr`` with every ``Var(k)`` replaced by the expression ``sub[k]``."""
    if isinstance(expr, Var):
        return sub[expr.index]
    children = {k: _substituted(v, sub) for k, v in expr._asdict().items() if not isinstance(v, (str, int, float))}
    return expr._replace(**children)


def _combination(terms):
    """The sum of c * e over the pairs (c, e) of ``terms``, where e = None stands for 1.

    A term with c = 0 or e = 0 is left out and a unit c is not written, so a
    sum with one term of c = 1 is that term's own tree.
    """
    out = None
    for c, e in terms:
        if c == 0.0 or (isinstance(e, Const) and e.value == 0.0):
            continue
        e = Const(float(c)) if e is None else e if c == 1.0 else Bin("*", Const(float(c)), e)
        out = e if out is None else Bin("+", out, e)
    return Const(0.0) if out is None else out


def _charted(spec, A, t, domain):
    """``spec`` in the chart x = A x' + t, over the box ``domain`` of x'.

    a'_ij = A_ki a_kl A_lj and b'_i = A_ki b_k, each at x = A x' + t: the
    expression trees are rewritten, with each x^k the expression of x' that
    ``_combination`` writes.  A permutation matrix relabels the trees and
    adds no arithmetic.
    """
    n = spec.dim
    x_of = [_combination([(A[k, j], Var(j)) for j in range(n)] + [(t[k], None)]) for k in range(n)]
    a_old = [[_substituted(spec.a_expr(k, l), x_of) for l in range(n)] for k in range(n)]
    b_old = [_substituted(spec.b_expr(k), x_of) for k in range(n)]
    a = {
        (i, j): _combination([(A[k, i] * A[l, j], a_old[k][l]) for k in range(n) for l in range(n)])
        for i in range(n)
        for j in range(i, n)
    }
    b = {i: _combination([(A[k, i], b_old[k]) for k in range(n)]) for i in range(n)}
    return dataclasses.replace(spec, a_entries=a, b_entries=b, domain=list(domain))


def _permuted(spec, perm):
    """``spec`` in the coordinates x'^i = x^perm[i]: a'_ij = a_perm[i]perm[j], b'_i = b_perm[i]."""
    n = spec.dim
    return _charted(spec, np.eye(n)[:, perm], np.zeros(n), [spec.domain[k] for k in perm])


def _pointwise_scalars(spec, x, y) -> dict:
    """Every per-(x, y) scalar that a run reports or cross-checks, each from its own route."""
    bu = build_bundle(spec, x)
    sp = finsler.spray(bu, y)
    R, ric = finsler.riemann_curvature(sp)
    F = finsler.metric_value(bu, y)
    K, resid = finsler.flag_curvature_fit(sp, R, F)
    check = identity.verify_identity(bu, y, 0.25)
    fit = finsler.extract_scalars(bu, np.array([ric]), np.array([F * F]))
    out = dict(Ric=ric, Ric_T=finsler.ricci_via_T(sp), F=F, Ricbar=bu.ricbar(y))
    out |= dict(lam=fit.lam, resid_lambda=fit.resid_lambda, c=fit.c, resid_c=fit.resid_c)
    for form in ("bh", "ht"):
        out[f"S_def_{form}"] = scurvature.s_curvature_def(sp, form)
        out[f"S_closed_{form}"] = scurvature.s_curvature_closed(bu, y, form)
    return out | dict(lhs=check.lhs, rhs=check.rhs, K_fit=K, flag_residual=resid)


def _shipped_or_random(source):
    """A shipped metric by name, or ``random_metric(n, 60 + n)`` for an int n."""
    if isinstance(source, int):
        return testmetrics.random_metric(source, 60 + source)
    return testmetrics.shipped_metric(source)


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8])
def test_pointwise_scalars_are_invariant_under_a_coordinate_permutation(source):
    """A metamorphic oracle: relabeling the coordinates changes no scalar at the relabeled (x, y).

    The metric's expression trees, its domain and the point are rewritten,
    not the engine's arrays, so a slip that both routes of a cross-check
    share still shows here.
    """
    spec = _shipped_or_random(source)
    perm = np.roll(np.arange(spec.dim), 1)
    moved = _permuted(spec, perm)
    rng = np.random.default_rng(23)
    for x in sample_domain(spec, 2, rng, shrink=0.05):
        for y in (unit_y(build_bundle(spec, x), rng) for _ in range(2)):
            want, got = _pointwise_scalars(spec, x, y), _pointwise_scalars(moved, x[perm], y[perm])
            for key, v in want.items():
                assert abs(got[key] - v) <= 1e-12 * max(1.0, abs(v)), (key, got[key], v)


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8])
def test_pointwise_scalars_are_invariant_under_an_affine_chart_change(source):
    """A metamorphic oracle: in the chart x = A x' + t, with y = A y', no scalar changes at the mapped (x', y').

    A is dense and not orthogonal, so the coordinate entries of every
    tensor change; Ric, S, F, Ricbar, the identity's sides, the flag fit's
    K and residual, which is taken in the g inner product, and lambda, c and
    their residuals, taken in the a inner product, must not.
    The moved metric's domain is the bounding box of the mapped points, the
    only points it is evaluated at.
    """
    spec = _shipped_or_random(source)
    n = spec.dim
    rng = np.random.default_rng(29)
    A = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
    t = rng.uniform(-0.2, 0.2, n)
    xs = sample_domain(spec, 2, rng, shrink=0.05)
    moved_xs = np.linalg.solve(A, (xs - t).T).T
    moved = _charted(spec, A, t, zip(moved_xs.min(axis=0).tolist(), moved_xs.max(axis=0).tolist()))
    for x, moved_x in zip(xs, moved_xs):
        for y in (unit_y(build_bundle(spec, x), rng) for _ in range(2)):
            want, got = _pointwise_scalars(spec, x, y), _pointwise_scalars(moved, moved_x, np.linalg.solve(A, y))
            for key, v in want.items():
                assert abs(got[key] - v) <= 1e-12 * max(1.0, abs(v)), (key, got[key], v)


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8])
def test_check_verdicts_are_invariant_under_a_coordinate_permutation(source):
    """A metamorphic oracle: ``run_check`` on the relabeled metric reaches the same verdicts, with no violation.

    ``sample_domain`` draws each coordinate in order, so the relabeled run
    samples other points: only the verdicts, not the rows, can be compared.
    """
    spec = _shipped_or_random(source)
    base = run_check(spec, small_config())
    moved = run_check(_permuted(spec, np.roll(np.arange(spec.dim), 1)), small_config())
    assert base.consistency == moved.consistency == {"violations": []}
    assert {k: c.verdict for k, c in moved.conditions.items()} == {k: c.verdict for k, c in base.conditions.items()}


# The implication lattice written out apart from the engine's table, so that an entry
# deleted there still has its case here: (name, premises, conclusions, asserted only
# for dim >= 3 and beta != 0, as the paper's theorem is)
_LATTICE = [
    ("parallel => constant Killing", ["beta_parallel"], ["beta_constant_killing"], False),
    ("constant Killing => Killing", ["beta_constant_killing"], ["beta_killing"], False),
    ("S == 0 => constant Killing", ["S_zero"], ["beta_constant_killing"], False),
    ("constant Killing => S == 0", ["beta_constant_killing"], ["S_zero"], False),
    ("Einstein F with constant |beta| => alpha Ricci-flat and beta parallel",
     ["F_einstein", "beta_norm_constant"], ["alpha_ricci_flat", "beta_parallel"], True),
    ("Einstein F with S == 0 => Ricci-flat F", ["F_einstein", "S_zero"], ["F_ricci_flat"], True),
]


def test_every_implication_reports_its_violation(generic3d):
    """Premises true and one conclusion false report exactly that implication; all verdicts true, none."""
    violations = classify._implication_violations
    for name, premises, conclusions, theorem in _LATTICE:
        for false in conclusions:
            verdicts = dict.fromkeys(premises + conclusions, True) | {false: False}
            assert violations(verdicts, theorem=True) == [f"implication violated: {name}"]
            assert violations(verdicts, theorem=False) == ([] if theorem else [f"implication violated: {name}"])
            # an implication naming a condition the run did not compute is not checked
            assert violations({k: v for k, v in verdicts.items() if k != premises[0]}, theorem=True) == []
    conditions = run_check(generic3d, small_config()).conditions
    assert len(conditions) == 12 and violations(dict.fromkeys(conditions, True), theorem=True) == []
    # several at once are reported in lattice order
    verdicts = dict.fromkeys(conditions, True) | dict.fromkeys(
        ["beta_constant_killing", "alpha_ricci_flat", "F_ricci_flat"], False
    )
    assert violations(verdicts, theorem=True) == [f"implication violated: {_LATTICE[i][0]}" for i in (0, 2, 4, 5)]


@pytest.mark.parametrize(
    "name, theorem",
    [("euclidean_rotational", False), ("sphere_round", False), ("euclidean_flat", False),
     ("euclidean_homothetic", True), ("matsumoto_example", True)],
)
def test_theorem_rows_are_asserted_where_dim_is_3_or_more_and_beta_is_not_zero(name, theorem, monkeypatch):
    """The paper's theorem needs n >= 3 and beta != 0: a run asks for its rows there alone.
    ``euclidean_rotational`` has dim 2 and beta != 0, ``euclidean_flat`` dim 3 and beta = 0."""
    asked, violations = [], classify._implication_violations
    monkeypatch.setattr(classify, "_implication_violations",
                        lambda v, theorem: asked.append(theorem) or violations(v, theorem))
    run_check(testmetrics.shipped_metric(name), small_config())
    assert asked == [theorem]


@pytest.mark.parametrize(
    "groups, per_pass",
    # the shape of y of each spray of generic3d (n = 3) with 4 points of 3 y, one pass;
    # a run with no per-y reader makes no spray
    [
        (("beta", "S"), [(4, 3, 3)] + [(3,)] * 12),
        (GROUPS, [(4, 3, 3)] + [(3,)] * 12),
        (("beta",), []),
    ],
    ids=["scurv", "check", "beta"],
)
def test_check_spray_order_follows_its_readers(generic3d, monkeypatch, groups, per_pass):
    """Every view with a per-y group makes one spray of all the pass's samples, first; the S group then
    asks for one spray per sample, each a row of that stack."""
    sprays = []
    orig = finsler.spray

    def wrapped(bundle, y):
        sprays.append(np.shape(y))
        return orig(bundle, y)

    monkeypatch.setattr(finsler, "spray", wrapped)
    run_check(generic3d, small_config(), groups)
    assert sprays == per_pass


@pytest.mark.parametrize("command, samples", [("check", 12), ("scurv", 6)])
def test_spray_inputs_evaluated_once_per_stack_or_sample(command, samples, monkeypatch):
    """``check`` and ``scurv`` evaluate the spray's inputs once per pass, for the stack of its 3 points'
    ``samples`` y-samples each, and serve each S sample's spray from that stack."""
    calls = []
    orig = finsler._spray_inputs

    def counted(bundle, y):
        calls.append(np.shape(y))
        return orig(bundle, y)

    monkeypatch.setattr(finsler, "_spray_inputs", counted)
    assert cli.main([command, _example_path(), "--points", "3"]) == cli.EXIT_OK
    assert calls == [(3, samples, 5)]


@pytest.mark.parametrize(
    "command, traffic",
    # matsumoto_example (n = 5) at the defaults: check and scurv spray 20 points in 5 passes of 4, with 12 and
    # 6 y-samples a point; appendix sprays the stack of each of its 20 points' y and -y at that point alone
    [
        ("check", {"pass stack": 5, "one y": 240, "inputs": 5, "memo": 5, "hit": 240}),
        ("scurv", {"pass stack": 5, "one y": 120, "inputs": 5, "memo": 5, "hit": 120}),
        ("appendix", {"bundle stack": 20, "inputs": 20}),
    ],
)
def test_spray_state_is_read_where_it_is_kept(command, traffic, monkeypatch, capsys):
    """A default CLI job forms the spray's inputs once per spray that computes, builds a memo for each
    pass's stack and for no other, and serves every S sample's one-y spray from it: a cache that nothing
    reads, or an S spray computed afresh per y, changes these counts."""
    counts = dict.fromkeys(("pass stack", "bundle stack", "one y", "inputs", "memo", "hit"), 0)
    spray, inputs, memo, row = finsler.spray, finsler._spray_inputs, finsler._Memo.__init__, finsler._Memo.row

    def count(key, value=True):
        counts[key] += bool(value)
        return value

    def counted_spray(bundle, y):
        over = isinstance(bundle, riemann.BundlePass)
        count("pass stack" if over else "bundle stack" if np.ndim(y) > 1 else "one y")
        return spray(bundle, y)

    monkeypatch.setattr(finsler, "spray", counted_spray)
    monkeypatch.setattr(finsler, "_spray_inputs", lambda bundle, y: count("inputs") and inputs(bundle, y))
    monkeypatch.setattr(finsler._Memo, "__init__", lambda self, *args: count("memo") and memo(self, *args))
    monkeypatch.setattr(finsler._Memo, "row", lambda self, k, y: count("hit", row(self, k, y)))
    assert cli.main([command, _example_path()]) == cli.EXIT_OK
    capsys.readouterr()
    assert {key: v for key, v in counts.items() if v} == traffic
    assert counts["inputs"] == counts["pass stack"] + counts["bundle stack"] + counts["one y"] - counts["hit"]
    assert counts["memo"] == counts["pass stack"] and counts["hit"] == counts["one y"]


def _check_json(path, form, out):
    assert cli.main(["check", str(path), "--format", "json", "--volume", form, "--out", str(out)]) == cli.EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("form", ["bh", "ht"])
@pytest.mark.parametrize("source", testmetrics.list_shipped() + [8])  # a shipped metric, or random_metric(8, 48)
def test_check_output_same_without_the_spray_memo(source, form, tmp_path, monkeypatch):
    """``check`` prints the same bytes, and the ``scurv`` view gives the same bits of every S, when every
    S sample's spray is computed afresh instead of served from the point's stack."""
    if isinstance(source, int):
        spec = testmetrics.random_metric(source, 40 + source)
        path = tmp_path / "dense.metric"
        path.write_text(testmetrics.random_metric_text(source, 40 + source))
    else:
        spec, path = testmetrics.shipped_metric(source), testmetrics.shipped_metric_path(source)
    config = RunConfig(y_per_point=6, volume_form=form)

    def s_bits():
        return [row["S"].hex() for row in run_check(spec, config, ("beta", "S")).points]

    served, served_s = _check_json(path, form, tmp_path / "served.json"), s_bits()
    monkeypatch.setattr(finsler._Memo, "row", lambda self, k, y: None)
    assert _check_json(path, form, tmp_path / "fresh.json") == served
    assert s_bits() == served_s


def test_check_reads_a_single_row_stack_and_no_fits_on_it(generic3d):
    """A stack of one y-sample runs every curvature reader without a numpy warning; the fits refuse it,
    since one sample fits sigma exactly whatever F is."""
    config = small_config(y_per_point=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_check(generic3d, config, ("beta", "ricci", "flag"))
    assert len(report.points) == config.points and not report.engine_inconsistent
    with pytest.raises(ValueError, match="at least 2 y-samples"):
        run_check(generic3d, config, ("fits",))


@pytest.mark.parametrize("groups", [(), ("beta",), ("S",)])
@pytest.mark.parametrize("points, y_per_point", [(0, 3), (2, 0)])
def test_check_refuses_a_run_that_files_no_row(generic3d, groups, points, y_per_point):
    """Every report has rows, and the writers lay each out as its first."""
    with pytest.raises(ValueError, match="a run needs a point and at least 1 y-samples"):
        run_check(generic3d, small_config(points=points, y_per_point=y_per_point), groups)


# the bundle's tensors formed on first use
_LAZY = ("riem4", "ricci_tensor", "Dr", "Ds", "Drvec", "Dsvec", "r_up", "supvec", "r_scalar")


def test_scurv_view_forms_no_curvature_tensor(generic3d, monkeypatch):
    """The scurv view reads neither the curvature of alpha nor the appendix tensors, so no bundle forms them."""
    bundles = []
    orig = riemann.build_bundle

    def wrapped(spec, x, point=None):
        bundles.append(orig(spec, x, point))
        return bundles[-1]

    monkeypatch.setattr(riemann, "build_bundle", wrapped)
    lazy = set(_LAZY)
    run_check(generic3d, small_config(), ("beta", "S"))
    assert len(bundles) == 4
    assert all(not lazy & set(vars(bu)) for bu in bundles)
    # the full check forms the curvature (the fits and the Ricci routes read it), but not the appendix tensors
    bundles.clear()
    run_check(generic3d, small_config(), GROUPS)
    assert len(bundles) == 4
    assert all(lazy & set(vars(bu)) == {"riem4", "ricci_tensor"} for bu in bundles)


# -- the metric walked a chunk of points at a time -------------------------------

# every function of the metric language, division, powers and constant entries
_EVERY_FORM = """dim = 3
domain x3 = [0.5, 2]
a 1 1 = 2 + 0.3 * sin(x1)
a 2 2 = 1 + exp(x2) / 4
a 3 3 = sqrt(x3) + log(x3 + 1)^2
a 1 2 = 0.1 * cos(x1 * x2)
a 1 3 = 0.05
a 2 3 = x1^3 / (x3^-0.5 + 2)
b 1 = 0.1 / x3
b 2 = -0.05
b 3 = 0.02 * x1^2 - 0.01 * sqrt(x3)^1.5
"""

def _bundle_bytes(bu) -> dict:
    names = [f.name for f in dataclasses.fields(bu) if f.name not in ("spec", "n")]
    return {name: np.asarray(getattr(bu, name)).tobytes() for name in names + list(_LAZY)}


def _walk_spec(name):
    if name == "every_form":
        return parse_metric(_EVERY_FORM, name)
    if name.startswith("random"):
        n = int(name.removeprefix("random"))
        return testmetrics.random_metric(n, 60 + n)
    return testmetrics.shipped_metric(name)


def _spy_walks(spec, monkeypatch) -> list:
    """The leading shape of the points of each walk of ``spec``'s metric, in order."""
    walks, walk = [], spec.chart_jets
    monkeypatch.setattr(spec, "chart_jets", lambda x: walks.append(np.shape(x)[:-1]) or walk(x))
    return walks


@pytest.mark.parametrize(
    "name", testmetrics.list_shipped() + [f"random{n}" for n in (2, 3, 5, 8, 12)] + ["every_form"]
)
def test_bundles_from_chunked_jets_match_per_point_bytes(name, monkeypatch):
    # each point's slice of a chunk's walk and pass builds, field for field, the bytes that its
    # own walk and a pass over a chunk of one build, in the same layout, and so do the fits and
    # the identity that read the bundle.  A strided slice of a builds the same bundle fields but
    # moves those readers in the last bit, so each point's arrays must be C-contiguous, as its
    # own walk's and pass's are.  Up to n = 13 a pass forms several points at once.
    spec = _walk_spec(name)
    assert validate_spec(spec).valid
    pts = sample_domain(spec, 25, np.random.default_rng(3), shrink=0.05)
    walks, passes, chunk_pass = _spy_walks(spec, monkeypatch), [], riemann._chunk_pass
    monkeypatch.setattr(riemann, "_chunk_pass", lambda A, B: passes.append(len(A.val)) or chunk_pass(A, B))
    batched = [point for formed in riemann._pass_fields(spec, pts) for point in riemann._points(*formed)]
    monkeypatch.undo()
    assert sum(size for size, in walks) == len(pts) and (spec.dim < 12 or len(walks) >= 2)
    assert sum(passes) == len(pts) and max(passes) > 1
    for p, (x, (fields, finite)) in enumerate(zip(pts, batched)):
        assert finite and all(v.flags.c_contiguous for v in fields.values() if isinstance(v, np.ndarray))
        one, alone = build_bundle(spec, x, (fields, finite)), build_bundle(spec, x)
        assert _bundle_bytes(one) == _bundle_bytes(alone)
        assert [np.shape(v) + np.asarray(v).strides for v in fields.values()] == [
            np.shape(getattr(alone, k)) + np.asarray(getattr(alone, k)).strides for k in fields
        ]
        assert type(one.bsq) is type(alone.bsq) is float
        ys = finsler.unit_alpha_vectors(alone, 2, np.random.default_rng(p))
        y = ys[0]
        readers = (
            lambda bu: identity.verify_identity(bu, y, 0.3),
            lambda bu: finsler.extract_scalars(
                bu, finsler.riemann_curvature(finsler.spray(bu, ys))[1], finsler.metric_value(bu, ys) ** 2
            ),
        )
        for read in readers:
            assert tuple(read(one)) == tuple(read(alone))


def _log_edge_metric(t: float):
    """A 12-dimensional metric whose a_11 takes log(x1 - t): it fails to evaluate where x1 <= t."""
    lines = ["dim = 12", f"a 1 1 = 1 + (x1 - ({t!r})) * log(x1 - ({t!r}))"]
    lines += [f"a {i} {i} = 1" for i in range(2, 13)] + ["b 2 = 0.1 * x3"]
    return parse_metric("\n".join(lines), "log_edge")


@pytest.mark.parametrize("run", ["check", "appendix"])
@pytest.mark.parametrize("chunk", ["first", "later"])
def test_metric_failure_names_first_failing_point(run, chunk, monkeypatch):
    # called directly, so validate_spec does not stop the metric first; the error is the one
    # the failing point's own walk raises, after the points before it ran in order
    config = RunConfig(points=30, y_per_point=2, seed=1)
    pts = sample_domain(euclidean(12), config.points, np.random.default_rng(config.seed), shrink=0.05)
    whole = _log_edge_metric(-1.0)  # evaluates at every sampled point
    walks = _spy_walks(whole, monkeypatch)
    next(riemann._pass_fields(whole, pts))
    (size,) = walks[0]
    # with t = x1 of a point below every earlier point, that point fails first
    lows = [k for k in range(1, len(pts)) if pts[k, 0] < pts[:k, 0].min()]
    k = next(k for k in lows if (k < size) == (chunk == "first"))
    spec = _log_edge_metric(float(pts[k, 0]))
    walks = _spy_walks(spec, monkeypatch)
    with pytest.raises(GeometryError) as failed:
        run_check(spec, config) if run == "check" else run_appendix(spec, config)
    assert str(failed.value) == f"metric evaluation failed at x={pts[k]}: log of non-positive value 0.0"
    # each chunk's walk up to the failing one, then one walk per point of it, as a chunk of one,
    # up to the failing point
    first = k - k % size
    assert walks == [(size,)] * (first // size + 1) + [(1,)] * (k - first + 1)


def test_chunked_walk_memory_is_bounded():
    # the walk holds one chunk at a time and the bundle algebra one pass, however many points
    # a run samples: at n = 12 a pass is 3 points and 20 points are two chunks; at n = 5 a
    # pass is 4 points and 600 points are three chunks
    budget = 8 * riemann._CHUNK_FLOATS
    for n, few in ((12, 20), (5, 600)):
        spec = testmetrics.random_metric(n, 60 + n)
        peaks = []
        for count in (few, 2000):
            pts = sample_domain(spec, count, np.random.default_rng(0), shrink=0.05)
            tracemalloc.start()
            try:
                for _ in riemann.bundles(spec, pts):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3 * budget
        assert peaks[1] < peaks[0] + budget // 4


def test_bundles_hold_no_bundle_the_caller_has_dropped():
    # 4 points of matsumoto_example (n = 5) are one pass; a bundle the caller drops is freed before
    # the next is asked for, with the tensors it cached, as appendix runs cache a point's curvature
    spec = testmetrics.shipped_metric("matsumoto_example")
    pts = sample_domain(spec, 4, np.random.default_rng(0), shrink=0.05)
    walk = riemann.bundles(spec, pts)
    first = weakref.ref(next(walk))
    assert first() is None
    assert [bu.x.tolist() for bu in walk] == pts[1:].tolist()


# Gamma's derivatives overflow where |x1 x2| is large, and forming them there meets inf - inf:
# the first such point of the 30 drawn at seed 3 is point 10
_OVERFLOWING = "dim = 2\na 1 1 = exp(600*x1*x2)\na 2 2 = exp(-600*x1*x2)\nb 1 = 0.4*exp(300*x1*x2)\n"


@pytest.mark.parametrize("failure", ["a(x) not positive definite", "non-finite geometry", "b^2 = 0.52 >= 1/4"])
def test_chunk_pass_raises_at_the_first_failing_point(failure, monkeypatch):
    # one pass forms all 30 points, and point k fails: the run raises the message the per-point
    # path raises there, after the k bundles before it, and no floating-point warning, though
    # point 10 of the pass overflows.  Every point before k is over 0.03 from point k in x1,
    # where a bump of width 0.01 centred on point k is below 2e-4.
    pts = sample_domain(parse_metric(_OVERFLOWING), 30, np.random.default_rng(3), shrink=0.05)
    k = 10 if failure == "non-finite geometry" else 3
    assert np.abs(pts[:k, 0] - pts[k, 0]).min() > 0.03
    bump = f"exp(-10000*(x1 - ({float(pts[k, 0])!r}))^2)"
    text = {
        "a(x) not positive definite": _OVERFLOWING.replace("exp(600*x1*x2)", f"exp(600*x1*x2)*(1 - 2*{bump})", 1),
        "non-finite geometry": _OVERFLOWING,
        "b^2 = 0.52 >= 1/4": _OVERFLOWING + f"b 2 = 0.6*{bump}*exp(-300*x1*x2)\n",  # b^2 = 0.16 + 0.36 bump^2
    }[failure]
    spec = parse_metric(text, "failing")
    passes, chunk_pass = [], riemann._chunk_pass
    monkeypatch.setattr(riemann, "_chunk_pass", lambda A, B: passes.append(len(A.val)) or chunk_pass(A, B))
    monkeypatch.setattr(riemann, "_PASS_POINTS", len(pts))
    built = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeometryError) as failed:
            for bu in riemann.bundles(spec, pts):
                built.append(bu.x)
        in_run = passes.copy()  # the lone point below is a pass of its own
        if failure.startswith("b^2"):
            expected = (f"b^2 = {build_bundle(spec, pts[k]).bsq:.6g} >= 1/4 at x={pts[k]}: "
                        "F = alpha^2/(alpha - beta) is not defined there")
        else:
            with pytest.raises(GeometryError) as alone:
                build_bundle(spec, pts[k])
            expected = str(alone.value)
    assert str(failed.value) == expected and expected.startswith(f"{failure} at x={pts[k]}")
    # one 30-point pass, and after a failed pass one pass of one point for each point up to k
    assert in_run == [len(pts)] + ([1] * (k + 1) if failure.startswith("a(x)") else [])
    assert np.array_equal(built, pts[:k])


# -- the y-stage in passes of points ----------------------------------------------

# each view's groups and y-samples per point, as the CLI runs them
_VIEWS = {"check": (GROUPS, 12), "scurv": (("beta", "S"), 6), "flag": (("flag",), 6)}


@pytest.mark.parametrize("source", testmetrics.list_shipped() + [3, 5, 8, 12])  # or random_metric(n, 40 + n)
def test_pass_y_stage_matches_point_by_point(source, monkeypatch):
    """A run's y-stage over passes of several points files what passes of one point file: every row,
    scalar fit, extreme, violation and condition, bit for bit, in each view, for point counts that fill
    their passes or not."""
    spec = testmetrics.random_metric(source, 40 + source) if isinstance(source, int) else testmetrics.shipped_metric(source)
    fits, widest = [], []
    extract, spray = finsler.extract_scalars, finsler.spray
    monkeypatch.setattr(finsler, "extract_scalars", lambda bu, ric, F2: fits.append(extract(bu, ric, F2)) or fits[-1])
    monkeypatch.setattr(finsler, "spray", lambda bundle, y: widest.append(np.shape(y)[:-2]) or spray(bundle, y))

    def run(config, groups, cap):
        fits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(riemann, "_PASS_POINTS", cap)
            rep = run_check(spec, config, groups)
        return rep.points, list(fits), rep.extremes, rep.consistency, rep.conditions

    for points in (1, 3, 4, 5, 9):
        for groups, y_per_point in _VIEWS.values():
            config = RunConfig(points=points, y_per_point=y_per_point)
            widest.clear()
            in_passes = run(config, groups, riemann._PASS_POINTS)
            # at n = 12 the y-stack cap splits the bundle algebra's passes of 3 points
            assert max(widest) == (min(points, 4 if spec.dim < 12 else {12: 1, 6: 2}[y_per_point]),)
            assert in_passes == run(config, groups, 1)


def test_y_stage_pass_stops_at_a_failing_point_as_one_point_passes_do(monkeypatch):
    # the _OVERFLOWING metric's 30 points drawn at seed 3 form one pass of the bundle algebra, which
    # stops at point 10, whose geometry overflows: the y-stage runs the 10 points before it as one
    # pass, and the run raises point 10's message as a run of one-point passes does, with no warning
    spec = parse_metric(_OVERFLOWING, "overflowing")
    config = RunConfig(points=30, seed=3)
    sprays, spray = [], finsler.spray
    monkeypatch.setattr(finsler, "spray", lambda bundle, y: sprays.append(np.shape(y)) or spray(bundle, y))
    raised = []
    for cap in (30, 1):
        monkeypatch.setattr(riemann, "_PASS_POINTS", cap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as failed:
                run_check(spec, config)
        raised.append(str(failed.value))
    pts = sample_domain(spec, 30, np.random.default_rng(3), shrink=0.05)
    assert raised[0] == raised[1] and raised[0].startswith(f"non-finite geometry at x={pts[10]}")
    assert sprays[0] == (10, 12, 2) and sprays.count((1, 12, 2)) == 10


@pytest.mark.parametrize("filtered", ["error", "recorded"])
def test_y_stage_pass_that_fails_is_redone_point_by_point(generic3d, filtered, monkeypatch):
    # in one pass of generic3d's 4 points, point 1's Ricbar is NaN, which the run reports at point 1,
    # and point 2's T-split Ricci route overflows: the overflow fails the pass, which is redone point
    # by point, so the run stops at point 1 as a run of one-point passes does, and no warning comes
    # from point 2, whether warnings are errors or only recorded
    config = small_config()
    pts = sample_domain(generic3d, config.points, np.random.default_rng(config.seed), shrink=0.05)
    ricbar, ricci_via_T = riemann.BundlePass.ricbar, finsler.ricci_via_T

    def at_point(bunch, values, k, change):
        for i, bu in enumerate(bunch.bundles):
            if np.array_equal(bu.x, pts[k]):
                values[i] = change(values[i])
        return values

    monkeypatch.setattr(riemann.BundlePass, "ricbar", lambda bunch, y: at_point(bunch, ricbar(bunch, y), 1,
                                                                               lambda v: np.nan))
    monkeypatch.setattr(finsler, "ricci_via_T", lambda sp: at_point(sp.bundle, ricci_via_T(sp), 2,
                                                                    lambda v: v * 1e308 * 1e308))
    raised = []
    for cap in (4, 1):
        monkeypatch.setattr(riemann, "_PASS_POINTS", cap)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error" if filtered == "error" else "always")
            with pytest.raises(GeometryError) as failed:
                run_check(generic3d, config)
        assert caught == []
        raised.append(str(failed.value))
    assert raised[0] == raised[1] == f"non-finite result at x={pts[1]}: Ric_T, ricbar"  # Ric_T reads Ricbar


def test_y_stage_memory_is_bounded():
    # a pass holds at most riemann._STACK_FLOATS of y-stack, so at n = 12 with 100 y per point it is one
    # point, whose y-stage is nearly all of a run's peak (about 14 MB), and no pass's stack outlives
    # it: 8 points peak within 1.5 times the peak of 1 point (1.2 times when this was written)
    spec = testmetrics.random_metric(12, 52)
    peaks = []
    for points in (1, 8):
        tracemalloc.start()
        try:
            run_check(spec, RunConfig(points=points, y_per_point=100))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


# -- CLI ------------------------------------------------------------------------


def _example_path():
    return str(testmetrics.shipped_metric_path("matsumoto_example"))


def test_cli_check_exit_ok(capsys):
    code = cli.main(["check", _example_path(), "--points", "2", "--y-per-point", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta_parallel" in out
    # a tolerance below the ceiling of 1 is taken
    assert cli.main(["check", _example_path(), "--points", "2", "--tol", "0.5"]) == 0


def test_cli_validate_bad_metric(tmp_path, capsys):
    bad = tmp_path / "bad.metric"
    bad.write_text("dim = 2\na 1 1 = 1\na 2 2 = 1\nb 1 = 0.51\n")
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INVALID_METRIC
    good = tmp_path / "good.metric"
    good.write_text("dim = 2\na 1 1 = 1\na 2 2 = 1\nb 1 = 0.2\n")
    assert cli.main(["validate", str(good)]) == 0


def test_cli_validate_previews_check(tmp_path, capsys):
    # validate runs the very check that check runs before sampling, so the two
    # exit statuses agree on every file.  This generated metric once passed
    # check but failed validate, which sampled twice as many points.
    generated = tmp_path / "rand12_505.metric"
    generated.write_text(testmetrics.random_metric_text(12, 505))
    paths = [str(generated)] + [str(testmetrics.shipped_metric_path(m)) for m in testmetrics.list_shipped()]
    for path in paths:
        assert cli.main(["validate", path]) == cli.main(["check", path, "--points", "1"]), path
    assert cli.main(["validate", str(generated)]) == cli.EXIT_OK


# b_1 reaches 0.6 only near x1 = 0.3: the 200 points validate samples at seed 31 miss that
# bump, and the points a run samples at seed 31 do not
_BUMP = "dim = 3\na 1 1 = 1\na 2 2 = 1\na 3 3 = 1\nb 1 = 0.6*exp(-400*(x1-0.3)^2)\n"


@pytest.mark.parametrize("view", ["check", "scurv", "flag", "appendix"])
def test_run_rejects_its_points_outside_the_domain_of_F(view):
    # called directly, so validate_spec does not stop the metric first: b^2 = 0.36 at every point
    spec = parse_metric("dim = 2\na 1 1 = 1\na 2 2 = 1\nb 1 = 0.6\n", "wide_beta")
    config = small_config()
    first = sample_domain(spec, config.points, np.random.default_rng(config.seed), shrink=0.05)[0]
    groups = {"check": GROUPS, "scurv": ("beta", "S"), "flag": ("flag",)}
    with pytest.raises(GeometryError) as failed:
        run_appendix(spec, config) if view == "appendix" else run_check(spec, config, groups[view])
    assert str(failed.value) == f"b^2 = 0.36 >= 1/4 at x={first}: F = alpha^2/(alpha - beta) is not defined there"


@pytest.mark.parametrize("command", ["check", "scurv", "flag", "appendix"])
def test_cli_run_rejects_its_points_outside_the_domain_of_F(command, tmp_path, capsys):
    metric = tmp_path / "bump.metric"
    metric.write_text(_BUMP)
    assert cli.main(["validate", str(metric), "--seed", "31"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main([command, str(metric), "--seed", "31"]) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: b^2 = 0.333219 >= 1/4 at x=[0.29016996")


# a_11 reaches about 1e187 near x = (-0.83, -0.87), where Gamma = a^-1 da overflows
# inside an einsum, which sets no floating-point flag; validate's 200 points miss it
_NON_FINITE = "dim = 2\na 1 1 = exp(600*x1*x2)\na 2 2 = exp(-600*x1*x2)\nb 1 = 0.4*exp(300*x1*x2)\n"


@pytest.mark.parametrize("command", ["check", "scurv", "flag", "appendix"])
def test_cli_run_rejects_a_non_finite_geometry(command, tmp_path, capsys):
    metric = tmp_path / "non_finite.metric"
    metric.write_text(_NON_FINITE)
    assert cli.main(["validate", str(metric)]) == cli.EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, str(metric)]) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert captured.out == "" and "Traceback" not in captured.err
    assert re.fullmatch(r"error: non-finite geometry at x=\[-0\.826\d* -0\.870\d*\]: .+\n", captured.err)


# a_11 = exp(1e120 x1) is finite on the domain, but the squares summed in the flag fit's
# residual overflow: that residual is the one number of the run that is not finite
_NON_FINITE_RESULT = "dim = 2\ndomain x1 = [-1e-120, 1e-120]\na 1 1 = exp(1e120*x1)\na 2 2 = 1\nb 2 = 0.1\n"


@pytest.mark.parametrize("command", ["check", "flag"])
def test_cli_run_rejects_a_non_finite_result(command, tmp_path, capsys):
    metric = tmp_path / "non_finite_result.metric"
    metric.write_text(_NON_FINITE_RESULT)
    assert cli.main(["validate", str(metric)]) == cli.EXIT_OK
    capsys.readouterr()
    extra = ["--format", "json"] if command == "check" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([command, str(metric), "--points", "2", *extra]) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == "" and "Infinity" not in captured.err and "Traceback" not in captured.err
    assert re.fullmatch(r"error: non-finite result at x=\[[^]]+\]: flag_residual\n", captured.err)
    # the S and identity views report no number that overflows here
    for view in ("scurv", "appendix"):
        assert cli.main([view, str(metric), "--points", "2"]) == cli.EXIT_OK


def test_check_random_stream_is_pinned():
    """The points and y-samples of one seeded run, bit for bit, for every view, and S at its pinned rows.

    ``check`` draws 2n unread normal vectors per point before the y-samples;
    the ``scurv`` and ``flag`` views do not, so their first y differs from
    ``check``'s.  Changing the draw order moves every row, which no
    tolerance-based test would notice.  S is pinned in ``check`` and in the
    ("beta", "S") view, on this metric, where it is 0, and on
    ``euclidean_shear``, where it is not: a change in how the spray or the S
    routes round moves these bits.
    """
    spec = testmetrics.shipped_metric("matsumoto_example")
    config = RunConfig(seed=3)
    x0 = ["-0x1.7ddda05247515p-1", "-0x1.e51c62411ba7cp-2", "0x1.15a79066a7255p-1", "0x1.5c652bce1f9b5p+0",
          "-0x1.760d112ca87d8p-1"]
    want = {
        (0, 0): (x0, ["0x1.7ab2684fd24b7p-2", "0x1.32dd13e3b6342p-1", "0x1.a790699b7f343p-8",
                      "0x1.dfcec4f78338ep-3", "0x1.4e7745fd40b63p-4"]),
        (1, 11): (["-0x1.ed0aac866ebe8p-4", "-0x1.34e6b39c37a00p-5", "-0x1.3995a969725f0p-1",
                   "0x1.9111e2937bc0fp+0", "-0x1.640a34afe1dfep-1"],
                  ["-0x1.8aeff272ef3d1p-2", "-0x1.c706f383a690fp-2", "-0x1.25b5057a92305p-7",
                   "0x1.34045e2a2005ep-2", "0x1.7830e7731074cp-4"]),
        (19, 11): (["0x1.53e1fd36de6a0p-5", "0x1.939171c25f1c8p-4", "-0x1.162f6ad5f1f86p-1",
                    "0x1.3e56361172e04p+0", "-0x1.5938fe47c4a30p-1"],
                   ["0x1.0a9334e6dba77p-1", "-0x1.07c579352549ep-2", "-0x1.2f8d3967187ffp-2",
                    "-0x1.ea45579ec5a9fp-4", "-0x1.3fa39b7204628p-1"]),
    }
    rows = {(r["point"], r["y_index"]): r for r in run_check(spec, config).points}
    for key, (x, y) in want.items():
        assert [v.hex() for v in rows[key]["x"]] == x, key
        assert [v.hex() for v in rows[key]["y"]] == y, key
    y0 = ["0x1.34e4a343e3f39p-1", "0x1.8164d3f788b40p-2", "0x1.b71f9acc16948p-4", "-0x1.42e84d9888ba6p-3",
          "0x1.2a8d38d2224fep-3"]
    for groups in (("beta", "S"), ("flag",)):
        first = run_check(spec, config, groups).points[0]
        assert [v.hex() for v in first["x"]] == x0 and [v.hex() for v in first["y"]] == y0, groups

    # S at the rows (0, 0), (1, 11) and (19, 11): of check, then of the ("beta", "S") view
    want_s = {
        "matsumoto_example": (["0x0.0p+0"] * 3, ["0x0.0p+0"] * 3),
        "euclidean_shear": (
            ["0x1.23bbdd37a38d0p-7", "0x1.a4cf20d3e60d4p-6", "-0x1.b40b9252a3232p-4"],
            ["-0x1.3fa6f9b5b432ap-4", "0x1.59b4c2bb47807p-4", "0x1.212c84ddc3c76p-5"],
        ),
    }
    for name, views in want_s.items():
        spec = testmetrics.shipped_metric(name)
        for groups, s_hex in zip((GROUPS, ("beta", "S")), views):
            rows = {(r["point"], r["y_index"]): r for r in run_check(spec, config, groups).points}
            assert [rows[key]["S"].hex() for key in ((0, 0), (1, 11), (19, 11))] == s_hex, (name, groups)


@pytest.mark.parametrize("name", testmetrics.list_shipped())
def test_flag_fit_reads_the_printed_F2(name, capsys):
    # the flag fit takes F from the function behind the F2 column, so K = Ric / ((n - 1) F2) exactly
    assert cli.main(["check", str(testmetrics.shipped_metric_path(name)), "--format", "json"]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)["points"]
    assert rows
    for row in rows:
        n = len(row["x"])
        assert row["K_fit"] == row["Ric"] / ((n - 1) * row["F2"]), (row["point"], row["y_index"])


def test_cli_check_rejects_invalid(tmp_path, capsys):
    bad = tmp_path / "syntax.metric"
    bad.write_text("dim = 2\na 1 1 = x9\n")
    assert cli.main(["check", str(bad)]) == cli.EXIT_INVALID_METRIC


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "METRIC", "--points", "-1"],
        ["flag", "METRIC", "--points", "0"],
        ["scurv", "METRIC", "--points", "two"],
        ["check", "METRIC", "--y-per-point", "0"],
        ["check", "METRIC", "--seed", "-1"],
        ["check", "METRIC", "--tol", "-1"],
        ["check", "METRIC", "--tol", "inf"],
        ["check", "METRIC", "--tol", "1e-16"],  # below cli.TOL_FLOOR: the routes agree only to rounding
        # at 1 or more a residual of order one reads as zero, and every cross-route gate is off
        ["check", "METRIC", "--tol", "1"],
        ["check", "METRIC", "--tol", "1e300"],
        ["appendix", "METRIC", "--sigma", "abc"],
        ["appendix", "METRIC", "--sigma", "nan"],
        ["appendix", "--dim-sweep", "x"],
        ["appendix", "--dim-sweep", "3,1"],
        ["appendix", "--dim-sweep", "3,40"],  # above dsl.MAX_DIM
        ["appendix", "METRIC", "--dim-sweep", "3"],  # the sweep would ignore the file
        ["appendix", "MISSING", "--dim-sweep", "3"],
        ["validate", "BINARY"],  # not UTF-8
        ["check", "BINARY"],
        ["check", "METRIC", "--y-per-point", "1"],  # one sample fits sigma exactly
        # more samples than cli.MAX_SAMPLES: refused before anything is allocated
        ["check", "METRIC", "--points", "10000000000000000"],
        ["scurv", "METRIC", "--points", "10000000000000000"],
        ["flag", "METRIC", "--points", "10000000000000000"],
        ["appendix", "METRIC", "--points", "10000000000000000"],
        ["check", "METRIC", "--points", "10000000000000000000"],
        ["check", "METRIC", "--y-per-point", "10000000000000000000"],
    ],
)
def test_cli_rejects_bad_arguments(argv, tmp_path, capsys):
    binary = tmp_path / "binary.metric"
    binary.write_bytes(b"dim = 2\na 1 1 = \xff\xfe\x00\x80\n")
    paths = {"METRIC": _example_path(), "MISSING": str(tmp_path / "missing.metric"), "BINARY": str(binary)}
    argv = [paths.get(a, a) for a in argv]
    assert cli.main(argv) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err and captured.out == ""


def test_cli_appendix_usage_shows_exclusive_sources(capsys):
    """The appendix usage line shows the metric file and --dim-sweep as alternatives, and every option."""
    assert cli.main(["appendix", "--help"]) == cli.EXIT_OK
    usage, body = capsys.readouterr().out.split("\n\n", 1)
    assert "(metric | --dim-sweep DIMS)" in " ".join(usage.split())
    options = set(re.findall(r"^  (--[a-z-]+)", body, re.M))
    assert "--dim-sweep" in options and all(option in usage for option in options)
    # an argparse error prints the same usage line
    assert cli.main(["appendix", _example_path(), "--dim-sweep", "3"]) == cli.EXIT_INVALID_METRIC
    assert capsys.readouterr().err.startswith(usage + "\n")


def test_usage_blocks_match_the_parser():
    """README's usage block is the cli docstring's, and each subcommand in it shows exactly the parser's options."""
    doc = textwrap.dedent(cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0])
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert doc == readme.split("## Command line\n\n```bash\n", 1)[1].split("\n```", 1)[0]
    shown = {entry.split()[0]: set(re.findall(r"--[a-z][a-z-]*", entry))
             for entry in re.split(r"^finslerab ", doc, flags=re.M)[1:]}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
               for name, p in sub.choices.items()}
    assert shown == options


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["bogus"], ["--bogus"]]
    + [[command, *extra] for command in ("check", "appendix", "scurv", "flag", "validate")
       for extra in (["--help"], ["x.metric", "--bogus"], ["--seed", "-1"])],
)
def test_cli_parses_as_the_full_parser(argv, capsys):
    """``main`` fills in only its subcommand's options, and prints and exits as the parser of every subcommand."""

    def run(parse):  # the exit status: main returns the one that argparse raises
        try:
            status = parse(argv)
        except SystemExit as exc:
            status = exc.code
        return (status, *capsys.readouterr())

    full = run(cli.build_parser().parse_args)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert run(cli.main) == full


def test_top_level_options_take_no_value():
    """``main`` names the subcommand by its first word that is not an option, which holds while none takes a value."""
    assert all(action.nargs == 0 for action in cli.build_parser()._actions if action.option_strings)


MALFORMED = {
    "dim_1e9": "dim = 1e9\n",
    "nested_parens": "dim = 2\na 1 1 = " + "(" * 250 + "1" + ")" * 250 + "\na 2 2 = 1\n",
    "flat_sum": "dim = 2\na 1 1 = 1" + " + x1*0" * 2000 + "\na 2 2 = 1\n",
    "domain_inf": "dim = 2\ndomain x1 = [0, inf]\na 1 1 = 1\na 2 2 = 1\n",
    "const_inf": "dim = 2\na 1 1 = 1e400\na 2 2 = 1\n",
    "const_nan": "dim = 2\na 1 1 = 1 + 0*1e400\na 2 2 = 1\n",
    "exp_overflow": "dim = 2\na 1 1 = 1 + exp(1000*x1)\na 2 2 = 1\n",
    "pow_overflow": "dim = 2\na 1 1 = 1 + (1e300*x1)^2\na 2 2 = 1\n",
    "product_overflow": "dim = 2\na 1 1 = 1 + 1e300*x1*1e300*x1\na 2 2 = 1\n",
    "sin_of_inf": "dim = 2\na 1 1 = 2 + sin(1e300*x1*1e300)\na 2 2 = 1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["validate", "check"])
def test_cli_malformed_metric_exits_2(name, command, tmp_path, capsys):
    metric = tmp_path / f"{name}.metric"
    metric.write_text(MALFORMED[name])
    extra = ["--points", "2", "--y-per-point", "2"] if command == "check" else []
    # a warning would reach stderr outside pytest, which records it instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, str(metric), *extra]) == cli.EXIT_INVALID_METRIC
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []


def test_cli_metric_evaluation_failure_exit(tmp_path, monkeypatch, capsys):
    # log(x1) cannot be evaluated on the default domain [-1, 1]: a clean
    # invalid-metric exit, not a JetError traceback
    bad = tmp_path / "log.metric"
    bad.write_text("dim = 2\na 1 1 = 1 + log(x1)\na 2 2 = 1\n")
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INVALID_METRIC
    assert "evaluation failed" in capsys.readouterr().out
    assert cli.main(["check", str(bad)]) == cli.EXIT_INVALID_METRIC
    assert "evaluation failed" in capsys.readouterr().err

    # a JetError raised past validation maps to the same status
    def failing(spec, config, groups):
        raise cli.JetError("log of non-positive value")

    monkeypatch.setattr(cli.classify, "run_check", failing)
    assert cli.main(["check", _example_path()]) == cli.EXIT_INVALID_METRIC


def test_cli_engine_inconsistency_exit(monkeypatch, capsys, example_spec):
    real = run_check

    def sabotaged(spec, config, groups):
        report = real(spec, config, groups)
        report.consistency["violations"].append("synthetic violation for exit-code test")
        return report

    monkeypatch.setattr(cli.classify, "run_check", sabotaged)
    code = cli.main(["check", _example_path(), "--points", "2", "--y-per-point", "2"])
    assert code == cli.EXIT_INCONSISTENT


def _spy_check_sides(monkeypatch, change):
    """Route every value of the check side of each dual route through ``change(route, point, y, value)``.

    ``ricci_via_T`` is called once per pass on its (p, m) stack, ``s_curvature_closed`` once per y-sample
    of ``check``'s default 12.
    """
    ricci_via_T, s_closed = finsler.ricci_via_T, scurvature.s_curvature_closed
    calls = {"Ricci": 0, "S-curvature": 0}

    def ricci(sp):
        rows = ricci_via_T(sp).tolist()
        first, calls["Ricci"] = calls["Ricci"], calls["Ricci"] + len(rows)
        return np.array([[change("Ricci", first + p, y, v) for y, v in enumerate(row)] for p, row in enumerate(rows)])

    def closed(bundle, y, form="bh"):
        k, calls["S-curvature"] = calls["S-curvature"], calls["S-curvature"] + 1
        return change("S-curvature", k // 12, k % 12, s_closed(bundle, y, form))

    monkeypatch.setattr(finsler, "ricci_via_T", ricci)
    monkeypatch.setattr(scurvature, "s_curvature_closed", closed)


def test_cli_check_reports_the_rows_where_a_route_disagrees(monkeypatch, capsys):
    """The check side of each dual route nudged by 1e-5 relative at chosen rows: ``check`` names exactly
    those rows, y-major and Ricci before S, with both values, and exits 3."""
    nudged = {}
    rows = (("S-curvature", 1, 0), ("Ricci", 1, 2), ("S-curvature", 1, 2))  # in the order they are reported

    def nudge(route, point, y, value):
        if (route, point, y) in rows:
            value = nudged[route, point, y] = value + 1e-5 * max(1.0, abs(value))
        return value

    _spy_check_sides(monkeypatch, nudge)
    sphere = str(testmetrics.shipped_metric_path("sphere_round"))
    assert cli.main(["check", sphere, "--points", "2", "--format", "json"]) == cli.EXIT_INCONSISTENT
    payload = json.loads(capsys.readouterr().out)
    direct = {(r["point"], r["y_index"]): {"Ricci": r["Ric"], "S-curvature": r["S"]} for r in payload["points"]}
    want = [f"{route} routes disagree at point {p}, y {y}: {direct[p, y][route]} vs {nudged[route, p, y]}"
            for route, p, y in rows]
    assert payload["consistency"]["violations"] == want


# A metric whose points all have 1 - 2b in [1.3e-6, 2e-6], b = |beta|_alpha: the S gate there is about 6e-5.
_NEAR_EDGE = "dim = 2\ndomain x1 = [0.999999, 1]\na 1 1 = 1\na 2 2 = 1 + 0.1*x1^2\nb 1 = 0.4999995 * x1\n"


@pytest.mark.parametrize("route, nudge, tol, metric", [
    *[(route, nudge, tol, "sphere_round") for route in ("Ricci", "S-curvature")
      for nudge, tol in ((1e-8, None), (1e-5, "1e-2"))],
    ("Ricci", 1e-8, None, "near_edge"),  # the Ricci gate does not widen as b -> 1/2
    ("S-curvature", 1e-3, None, "near_edge"),
])
def test_cli_check_route_gate_does_not_follow_tol(route, nudge, tol, metric, tmp_path, monkeypatch, capsys):
    """One route row nudged far above rounding exits 3 at the default ``--tol`` and at a loose one: the
    cross-route gate is ``classify.ROUTE_TOL``, not a multiple of the verdicts' tolerance.  Near b = 1/2
    the Ricci gate stays ``ROUTE_TOL``; only the S gate widens, as 1 / (1 - 2b)."""

    def change(r, p, y, value):
        return value + nudge * max(1.0, abs(value)) if (r, p, y) == (route, 1, 4) else value

    _spy_check_sides(monkeypatch, change)
    if metric == "sphere_round":
        path = str(testmetrics.shipped_metric_path(metric))
    else:
        path = tmp_path / "near_edge.metric"
        path.write_text(_NEAR_EDGE)
    args = ["check", str(path), "--points", "2"] + ([] if tol is None else ["--tol", tol])
    assert cli.main(args) == cli.EXIT_INCONSISTENT
    violations = capsys.readouterr().out.split("ENGINE INCONSISTENCY:\n")[1].splitlines()
    assert len(violations) == 1 and violations[0].startswith(f"  {route} routes disagree at point 1, y 4: ")


@pytest.mark.parametrize("culprit", ["Ric_T", "S_closed", "ricbar"])
def test_cli_check_rejects_a_non_finite_route_value(culprit, monkeypatch, capsys):
    """A NaN on the check side of a dual route, or in Ricbar, exits 2 naming it: it is not read as a
    deviation of 0."""
    if culprit == "ricbar":
        ricbar = riemann.BundlePass.ricbar
        monkeypatch.setattr(riemann.BundlePass, "ricbar", lambda bunch, y: ricbar(bunch, y) * math.nan)
    else:
        nan_row = ({"Ric_T": "Ricci", "S_closed": "S-curvature"}[culprit], 1, 3)
        _spy_check_sides(monkeypatch, lambda route, p, y, value: math.nan if (route, p, y) == nan_row else value)
    sphere = str(testmetrics.shipped_metric_path("sphere_round"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["check", sphere, "--points", "2"]) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert re.fullmatch(rf"error: non-finite result at x=\[[^]]+\]: (\w+, )*{culprit}(, \w+)*\n", captured.err)


def test_cli_check_rejects_an_overflowing_route_deviation(monkeypatch, capsys):
    """Both sides of the S route finite, their difference not: the route's worst deviation is infinite,
    and ``check`` exits 2 naming that worst value."""
    monkeypatch.setattr(scurvature, "s_curvature_def", lambda sp, form="bh": 1e308)
    monkeypatch.setattr(scurvature, "s_curvature_closed", lambda bundle, y, form="bh": -1e308)
    sphere = str(testmetrics.shipped_metric_path("sphere_round"))
    with np.errstate(over="ignore"):
        assert cli.main(["check", sphere, "--points", "2"]) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: non-finite result at x=\[[^]]+\]: S-curvature routes\n", captured.err)


def test_cli_appendix_and_sweep(capsys):
    assert cli.main(["appendix", _example_path(), "--sigma", "0", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert "identity holds" in out
    assert cli.main(["appendix", "--dim-sweep", "3", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert "sweep worst relative deviation" in out


def test_cli_negative_sigma_in_e_notation(capsys):
    """argparse reads '--sigma -1e-3' as an option without its value; '--sigma=-1e-3', as the help says, runs."""
    assert cli.main(["appendix", "--help"]) == cli.EXIT_OK
    assert "--sigma=-1e-3" in capsys.readouterr().out
    assert cli.main(["appendix", _example_path(), "--points", "2", "--sigma=-1e-3"]) == cli.EXIT_OK
    assert "sigma policy: -1e-3" in capsys.readouterr().out


def test_cli_appendix_with_a_huge_sigma(capsys):
    """A finite sigma that overflows a side of the cleared identity exits 2, naming sigma and x."""
    flat = str(testmetrics.shipped_metric_path("euclidean_flat"))
    # lhs = -sigma at y and at -y: their halves sum to it, where the sides' own sum overflows
    assert cli.main(["appendix", flat, "--points", "2", "--sigma", "1e308", "--format", "json"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_parity_dev"] == 0.0
    assert all(row["lhs"] == -1e308 and row["parity_even_dev"] == 0.0 for row in payload["samples"])
    for sigma in ("1e307", "1e308", "-1e308"):
        assert cli.main(["appendix", _example_path(), "--points", "2", f"--sigma={sigma}"]) == cli.EXIT_INVALID_METRIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: the cleared identity at sigma = {float(sigma)!r} is not finite at x=[")


def test_appendix_maxima_carry_a_nan(monkeypatch, example_spec):
    verify = identity.verify_identity
    calls = []

    def nan_at_second_point(bundle, y, sigma):
        rec = verify(bundle, y, sigma)
        calls.append(rec)
        return rec._replace(rel_dev=math.nan, even_dev=math.nan) if len(calls) == 2 else rec

    monkeypatch.setattr(identity, "verify_identity", nan_at_second_point)
    rep = run_appendix(example_spec, small_config(points=3))
    assert len(calls) == 3
    assert math.isnan(rep.max_rel_dev) and math.isnan(rep.max_parity_dev)


def test_cli_import_loads_no_unused_module():
    """``import finslerab.cli`` imports neither numpy.polynomial nor csv, and makes two dataclasses only."""
    probe = (
        "import sys\n"
        "import finslerab.cli\n"
        "loaded = [name for name in ('numpy.polynomial', 'csv') if name in sys.modules]\n"
        "import dataclasses, inspect\n"
        "mods = [m for name, m in list(sys.modules.items()) if name.split('.')[0] == 'finslerab']\n"
        "made = sorted(name for m in mods for name, obj in vars(m).items()\n"
        "              if inspect.isclass(obj) and obj.__module__ == m.__name__ and dataclasses.is_dataclass(obj))\n"
        "print(loaded, made)\n"
    )
    src = pathlib.Path(classify.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] ['AlphaBetaBundle', 'MetricSpec']\n"


def test_cli_appendix_fails_on_parity_split(monkeypatch, capsys):
    """A cleared residual perturbed only at -y breaks the parity split, not the identity at y."""
    cleared = identity._cleared_lhs

    def perturbed_at_minus_y(bundle, ys, sigma):
        # the stack is (y, -y): perturb row 1 only
        value = cleared(bundle, ys, sigma)
        assert np.array_equal(ys[1], -ys[0])
        value[1] += 0.1 * max(1.0, abs(value[1]))
        return value

    monkeypatch.setattr(identity, "_cleared_lhs", perturbed_at_minus_y)
    assert cli.main(["appendix", _example_path(), "--points", "2"]) == cli.EXIT_INCONSISTENT
    out = capsys.readouterr().out
    assert "max relative deviation: " in out and "most suspect" not in out
    assert "FAILURES:" in out and out.count(": parity split even ") == 2
    assert cli.main(["appendix", "--dim-sweep", "3", "--points", "2"]) == cli.EXIT_INCONSISTENT
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == 2 and all(row.endswith("  FAIL") for row in rows)


SHIPPED = [name.removesuffix(".metric") for name in testmetrics.list_shipped()]


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_scurv_and_flag(name, capsys):
    # scurv and flag are views of check: at the same seed they report its verdicts
    path = str(testmetrics.shipped_metric_path(name))
    assert cli.main(["check", path, "--points", "3", "--format", "json"]) == 0
    conds = json.loads(capsys.readouterr().out)["conditions"]
    assert cli.main(["scurv", path, "--points", "3"]) == 0
    out = capsys.readouterr().out
    killing = conds["beta_constant_killing"]["verdict"]
    assert f"constant Killing form: {'yes' if killing else 'no'} (" in out
    assert out.endswith("S == 0 iff constant Killing: consistent\n")
    assert cli.main(["flag", path, "--points", "3"]) == 0
    out = capsys.readouterr().out
    flag = conds["constant_flag_curvature"]["verdict"]
    assert f"constant flag curvature: {'yes, K = ' if flag else 'no'}" in out
    if name == "matsumoto_example":
        assert killing
    if name == "euclidean_flat":
        assert flag


def test_cli_scurv_constant_killing_below_absolute_bound(tmp_path, capsys):
    # r_11 = 1e-8 is within tol * max(1, max|Db|): scurv must agree with check
    # (constant Killing, S == 0), not report an engine inconsistency
    metric = tmp_path / "near_constant.metric"
    metric.write_text("dim = 3\na 1 1 = 1\na 2 2 = 1\na 3 3 = 1\nb 1 = 0.2 + 1e-8*x1\n")
    assert cli.main(["scurv", str(metric)]) == 0
    out = capsys.readouterr().out
    assert "constant Killing form: yes" in out
    assert "consistent" in out and "INCONSISTENT" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "METRIC", "--points", "2", "--y-per-point", "2"],
        ["scurv", "METRIC", "--points", "2"],
        ["appendix", "--dim-sweep", "3", "--points", "2"],
    ],
)
def test_cli_unwritable_out_exits_cleanly(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    argv = [_example_path() if a == "METRIC" else a for a in argv] + ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert f"error: cannot write {out}" in captured.err and "Traceback" not in captured.err
    assert not out.exists()


def test_cli_dim_sweep_json(capsys):
    assert cli.main(["appendix", "--dim-sweep", "3,4", "--points", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["dim"] for row in rows] == [3, 3, 4, 4]
    for row in rows:
        assert set(row) == {"dim", "metric", "max_rel_dev", "max_parity_dev", "ok"}
        assert row["ok"] and row["max_rel_dev"] <= 1e-6


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["check", _example_path(), "--points", "2", "--y-per-point", "2",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metric"] == "matsumoto_example"
