import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerab import testmetrics
from finslerab.dsl import (
    MAX_DEPTH,
    MAX_DIM,
    Bin,
    Const,
    Fun,
    MetricFileError,
    MetricSpec,
    Neg,
    Pow,
    Var,
    parse_metric,
    validate_spec,
)
from finslerab.jets import ArrayJet, Jet, JetError
from .conftest import expr_text, expression_jet
from .oracles import eval_jet, validate_spec_loop


def _parse(text: str, dim: int = 2):
    """An expression parsed as the body of the line ``b 1 = <text>``, the second line of a metric file."""
    return parse_metric(f"dim = {dim}\nb 1 = {text}").b_expr(0)


def _env(x):
    """Chart jets at the point x, or at each row of a batch of points: x^k seeded in direction k."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    lead = x.shape[:-1]
    hess = np.zeros(lead + (n, n))
    return [ArrayJet(x[..., k], np.broadcast_to(np.eye(n)[k], lead + (n,)), hess) for k in range(n)]


def test_parse_example_file(example_spec):
    assert example_spec.dim == 5
    assert example_spec.domain[3] == (0.5, 2.0)
    assert example_spec.domain[0] == (-1.0, 1.0)
    x = np.array([0.0, 0.0, 0.0, 2.0, 0.0])
    a = example_spec.a_values(x)
    assert np.allclose(np.diag(a), [4.0, 4.0, 0.5, 2.0, 1.0])
    assert np.allclose(a - np.diag(np.diag(a)), 0.0)
    b = example_spec.b_values(x)
    assert b.tolist() == [0.0, 0.0, 0.0, 0.0, 0.4]


def test_parse_euclidean_plane():
    spec = parse_metric("dim = 2\na 1 1 = 1\na 2 2 = 1")
    x = np.array([0.3, -0.8])
    assert np.allclose(spec.a_values(x), np.eye(2))
    assert not spec.b_values(x).any()


def test_symmetric_completion():
    spec = parse_metric("dim = 2\na 1 1 = 1\na 2 2 = 1\na 1 2 = x1")
    env = spec.chart_jets([0.7, 0.1])
    j12 = expression_jet(spec.a_expr(0, 1), env)
    j21 = expression_jet(spec.a_expr(1, 0), env)
    assert j12.val == j21.val == 0.7
    assert j12.grad.tolist() == j21.grad.tolist()


def test_eval_component_inverse_power():
    expr = _parse("x4^-1", 5)
    j = expression_jet(expr, _env([0.0, 0.0, 0.0, 2.0, 0.0]))
    assert j.val == 0.5 and j.grad[3] == -0.25 and j.hess[3, 3] == 0.25


def test_eval_component_square():
    expr = _parse("x4^2", 5)
    j = expression_jet(expr, _env([0.0, 0.0, 0.0, 3.0, 0.0]))
    assert j.val == 9.0 and j.grad[3] == 6.0 and j.hess[3, 3] == 2.0


# constant entries (explicit, a constant subtree, a negative zero), implicit zeros
# (a 2 3, b 2) and variable entries with constant subtrees inside
_MIXED = """dim = 3
a 1 1 = 2
a 1 2 = 0
a 1 3 = 0.5 * x2
a 2 2 = 1 + x1^2
a 3 3 = 3 * 2 - sin(x3)
b 1 = 0.2 * 0.5
b 3 = 0.05 * x1 * x2 + 2 * 3
b 2 = -0
"""


@pytest.mark.parametrize("x", [[0.3, -0.7, 0.2], [[0.3, -0.7, 0.2], [-0.9, 0.4, 0.8]]])
def test_stacks_match_per_entry_evaluation(x, example_spec):
    # a_jet and b_jet hold, bit for bit, what each entry gives when it is walked alone
    for spec in (parse_metric(_MIXED), example_spec):
        x_spec = np.resize(np.asarray(x, dtype=float), np.shape(x)[:-1] + (spec.dim,))
        for env in (_env(x_spec), spec._points(x_spec)):
            a, b = spec.a_jet(env), spec.b_jet(env)
            n = spec.dim
            entries = [((i, j), a, spec.a_expr(i, j)) for i in range(n) for j in range(n)]
            entries += [((i,), b, spec.b_expr(i)) for i in range(n)]
            for idx, stack, expr in entries:
                want = expression_jet(expr, env)
                at = (Ellipsis,) + idx
                for got, w in (
                    (stack.val[at], want.val),
                    (stack.grad[at + (slice(None),)], want.grad),
                    (stack.hess[at + (slice(None), slice(None))], want.hess),
                ):
                    w = np.ascontiguousarray(np.broadcast_to(w, got.shape))
                    assert np.ascontiguousarray(got).tobytes() == w.tobytes(), (idx, expr)


@pytest.mark.parametrize("entries", ["a", "b"])
@pytest.mark.parametrize("first", ["domain", "overflow"])
def test_stack_raises_first_failing_entry(entries, first):
    bad = {"domain": "log(x1 - 5)", "overflow": "1 + 1e300 * x2 * 1e300"}
    second = "overflow" if first == "domain" else "domain"
    if entries == "a":
        text = f"dim = 2\na 1 1 = 1\na 1 2 = {bad[first]}\na 2 2 = {bad[second]}\n"
    else:
        text = f"dim = 2\na 1 1 = 1\na 2 2 = 1\nb 1 = {bad[first]}\nb 2 = {bad[second]}\n"
    spec = parse_metric(text)
    for env in (spec.chart_jets([0.3, 0.4]), spec._points([[0.3, 0.4], [0.5, 0.6]])):
        messages = []
        for name in (first, second):
            with pytest.raises(JetError) as alone:
                expression_jet(_parse(bad[name]), env)
            messages.append(str(alone.value))
        assert messages[0] != messages[1]
        with pytest.raises(JetError) as stacked:
            spec.a_jet(env) if entries == "a" else spec.b_jet(env)
        assert str(stacked.value) == messages[0]


def test_example_a33_derivatives(example_spec):
    j = expression_jet(example_spec.a_expr(2, 2), _env([0.0, 0.0, 0.0, 1.0, 0.0]))
    # hand differentiation of 1/t at t = 1
    assert j.val == 1.0 and j.grad[3] == -1.0 and j.hess[3, 3] == 2.0


def test_grammar_unary_and_functions():
    expr = _parse("-x1^2 + sin(x2)*2 - 3/x1")
    j = expression_jet(expr, _env([2.0, 0.5]))
    # grammar binds '^' to the base after unary minus: (-x1)^2 = 4
    assert abs(j.val - (4.0 + 2 * np.sin(0.5) - 1.5)) < 1e-15


def test_grammar_chains_read_left_to_right():
    """A chain of + and - or of * and / groups to the left: at x1 = 2, 8 - x1 - 1 is 5 and not 7."""
    for text, want in (("8 - x1 - 1", 5.0), ("x1 - 1 + 3", 4.0), ("8 / x1 / 2", 2.0), ("8 / x1 * 2", 8.0)):
        assert expression_jet(_parse(text), _env([2.0, 0.5])).val == want


def _metric_text(spec):
    """The metric file of ``spec``, written entry by entry with the test printer."""
    lines = [f"dim = {spec.dim}"] + [f"domain x{k + 1} = [{lo!r}, {hi!r}]" for k, (lo, hi) in enumerate(spec.domain)]
    lines += [f"a {i + 1} {j + 1} = {expr_text(e)}" for (i, j), e in spec.a_entries.items()]
    return "\n".join(lines + [f"b {i + 1} = {expr_text(e)}" for i, e in spec.b_entries.items()])


@pytest.mark.parametrize("name", testmetrics.list_shipped())
def test_roundtrip_print_parse(name):
    """Parentheses add no node: a shipped metric printed fully parenthesised parses back to the same trees."""
    spec = testmetrics.shipped_metric(name)
    assert repr(parse_metric(_metric_text(spec), spec.name)) == repr(spec)  # repr also compares each node's type


def test_validate_example_boundary_case(example_spec):
    # shipped constant 0.4 keeps b^2 = 0.16: valid
    assert validate_spec(example_spec, samples=100, seed=0).valid
    # the same metric with constant 0.5 sits exactly at b^2 = 1/4: flagged
    text = testmetrics.shipped_metric_path("matsumoto_example").read_text().replace("0.4", "0.5")
    bad = parse_metric(text, "boundary")
    report = validate_spec(bad, samples=100, seed=0)
    assert not report.valid
    assert all(kind == "b^2 >= 1/4" for _, kind, _ in report.violations)


def test_random_metric_passes_validation():
    # the metrics of --dim-sweep 3,4,5 at seeds 0..59, and three at n = 12, each of which
    # failed validate_spec where the generator's own 60-point screen had passed it
    cases = [(n, n + k) for n in (3, 4, 5) for k in range(60)] + [(12, 507), (12, 508), (12, 512)]
    for n, seed in cases:
        assert validate_spec(testmetrics.random_metric(n, seed)).valid, (n, seed)


def _same_report(got, want):
    assert (got.spec_name, got.samples) == (want.spec_name, want.samples)
    assert [(kind, detail) for _, kind, detail in got.violations] == [
        (kind, detail) for _, kind, detail in want.violations
    ]
    assert all(np.array_equal(x, y) for (x, _, _), (y, _, _) in zip(got.violations, want.violations))


# one metric per kind of violation, each on part of the domain box only
VALIDATE_CASES = {
    # a_11 < 0 where x1 < -0.2; b^2 = 0.16 elsewhere
    "not positive definite": "dim = 2\na 1 1 = 1 + 5*x1\na 2 2 = 1\nb 2 = 0.4",
    # b^2 = (0.3 + 0.4 x2)^2 + x1^2 / 4
    "b^2 >= 1/4": "dim = 2\na 1 1 = 1\na 2 2 = 4\nb 1 = 0.3 + 0.4*x2\nb 2 = x1",
    # sqrt of a non-positive value where x1 <= -0.5
    "evaluation failed": "dim = 2\na 1 1 = 1 + sqrt(x1 + 0.5)\na 2 2 = 1\nb 2 = 0.2",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_batch_matches_loop_oracle(seed):
    """The batched factor-and-solve reports exactly what the per-point loop reports."""
    specs = [testmetrics.shipped_metric(name.removesuffix(".metric")) for name in testmetrics.list_shipped()]
    specs += [testmetrics.random_metric(n, 40 + n) for n in (2, 3, 5, 8)]
    # unscreened random metrics, scaled up until some are indefinite or have b^2 >= 1/4
    specs += [parse_metric(testmetrics._perturbed_text(n, 7 + n, eps, bscale), name=f"raw{n}")
              for n in (3, 5) for eps, bscale in ((0.15, 0.25), (0.6, 0.6), (1.2, 1.0))]
    for spec in specs:
        _same_report(validate_spec(spec, seed=seed), validate_spec_loop(spec, seed=seed))
    for kind, text in VALIDATE_CASES.items():
        spec = parse_metric(text, kind)
        want = validate_spec_loop(spec, seed=seed)
        assert 0 < len(want.violations) < want.samples
        assert {k for _, k, _ in want.violations} == {kind}
        _same_report(validate_spec(spec, seed=seed), want)


def test_validate_indefinite_flagged():
    spec = parse_metric("dim = 2\na 1 1 = -1\na 2 2 = 1")
    report = validate_spec(spec, samples=10, seed=0)
    assert not report.valid
    assert report.violations[0][1] == "not positive definite"


def test_parse_errors_carry_location():
    with pytest.raises(MetricFileError, match="line 2"):
        parse_metric("dim = 2\na 1 1 = x1 +")
    # an integer is named as written, not as the float it parses to
    for text, message in (
        ("dim = 2\na 1 3 = 1", "index must be an integer in 1..2, got 3 (line 2, col 5)"),
        ("dim = 2\na 0 1 = 1", "index must be an integer in 1..2, got 0 (line 2, col 3)"),
        ("dim = 1", "dim must be an integer in 2..32, got 1 (line 1, col 7)"),
        ("dim = 2.5", "dim must be an integer in 2..32, got 2.5 (line 1, col 7)"),
    ):
        with pytest.raises(MetricFileError, match=re.escape(message)):
            parse_metric(text)
    with pytest.raises(MetricFileError, match="out of range"):
        parse_metric("dim = 2\na 1 1 = x5")
    with pytest.raises(MetricFileError, match="dim"):
        parse_metric("a 1 1 = 1")
    with pytest.raises(MetricFileError, match="missing dim"):
        parse_metric("# nothing but comments\n")
    with pytest.raises(MetricFileError, match="conflicting"):
        parse_metric("dim = 2\na 1 2 = x1\na 2 1 = x2")
    # every line is read to its end, and a position counts from the start of its line
    for text, where in (
        ("dim = 2 7", "line 1, col 9"),
        ("dim = 3 junk", "line 1, col 9"),
        ("dim = 2\ndomain x1 foo = [0.5, 2]", "line 2, col 11"),
        ("dim = 2\ndomain (x1) = [0.5, 2]", "line 2, col 8"),
        ("dim = 2\ndomain -x1 = [0.5, 2]", "line 2, col 8"),
        ("dim = 2\ndomain x1 = [0.5, 2] 3", "line 2, col 22"),
        ("dim = 2\ndomain x1 = [0.5, 2]\ndomain x1 = [0.5, 3]", "line 3, col 1"),
        ("dim = 2\na 1 1 = 1 + x9", "line 2, col 13"),
        ("dim = 2\nb 1 = = 1", "line 2, col 7"),
        ("dim = 2\n   a 1 1 = x1 +", "line 2, col 16"),
        ("dim = 2\na 1 1 = x" + "1" * 5000, "line 2, col 9"),  # more digits than int() reads
        ("dim = 2\ndomain x" + "9" * 5000 + " = [0, 1]", "line 2, col 8"),
    ):
        with pytest.raises(MetricFileError, match=re.escape(f"({where})")):
            parse_metric(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim = 2 7", "expected 'end', found '7' (line 1, col 9)"),
        ("dim = 2\na 1 1 =", "unexpected end of line (line 2, col 8)"),
        ("dim = 2\na 1 1 = 1.50 )", "expected 'end', found ')' (line 2, col 14)"),
        ("dim =", "expected 'num', found end of line (line 1, col 6)"),
        ("dim = 2\ndomain x1 = [0.5 2]", "expected ',', found '2' (line 2, col 18)"),
    ],
)
def test_parse_errors_name_the_token_by_its_source_text(text, message):
    # a number as written, not as its float; the end of the line by name
    with pytest.raises(MetricFileError, match=re.escape(message) + "$"):
        parse_metric(text)


def test_duplicate_identical_entry_allowed():
    spec = parse_metric("dim = 2\na 1 1 = 1\na 2 2 = 1\na 1 2 = x1\na 2 1 = x1")
    assert repr(spec.a_expr(0, 1)) == repr(Var(0))
    spec = parse_metric("dim = 2\ndomain x1 = [0.5, 2]\ndomain x1 = [+0.5, 2.0]  # the same box")
    assert spec.domain == [(0.5, 2.0), (-1.0, 1.0)]


@pytest.mark.parametrize("first, second", [("x1", "0"), ("x2 + 1", "1 + 1"), ("x1^2", "0^2")])
def test_duplicate_rule_tells_node_types_apart(first, second):
    # Var(0) == Const(0.0) as tuples, but a variable and a number are not the same entry
    with pytest.raises(MetricFileError, match=r"conflicting duplicate of line 2 \(line 3, col 1\)"):
        parse_metric(f"dim = 2\na 1 1 = {first}\na 1 1 = {second}")


def test_digits_are_ascii_only():
    # U+FF11 is a fullwidth 1, U+0661 and U+0662 are Arabic-Indic 1 and 2: digits to str.isdigit
    for text, where in (
        ("dim = 2\na 1 1 = \uff11", "line 2, col 9"),
        ("dim = \u0662", "line 1, col 7"),
        ("dim = 2\na \u0661 \u0661 = 2", "line 2, col 3"),
        ("dim = 2\na 1 1 = 1 + x\u0661", "line 2, col 13"),
        ("dim = 2\ndomain x\u0661 = [0.5, 2]", "line 2, col 8"),
    ):
        with pytest.raises(MetricFileError, match=re.escape(f"({where})")):
            parse_metric(text)
    with pytest.raises(MetricFileError, match=re.escape("(line 2, col 11)")):
        _parse("1 + x\u0661")


# a token boundary: the start of a number, a name or any other non-space character
_TOKEN_START = re.compile(r"(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?|\w+|[^\s#]")


def test_a_junk_token_anywhere_is_an_error():
    """Every shipped file with ' zz ' inserted at any token boundary of any line fails to parse."""
    mutants = 0
    for name in testmetrics.list_shipped():
        lines = testmetrics.shipped_metric_path(name).read_text().splitlines()
        for k, line in enumerate(lines):
            code = line.split("#", 1)[0]
            cuts = [m.start() for m in _TOKEN_START.finditer(code)]
            for cut in cuts + [len(code.rstrip())] * bool(cuts):
                text = "\n".join(lines[:k] + [line[:cut] + " zz " + line[cut:]] + lines[k + 1:])
                with pytest.raises(MetricFileError, match=re.escape(f"(line {k + 1}, col ")):
                    parse_metric(text)
                mutants += 1
    assert mutants == 210


def test_parse_limits():
    parse_metric(f"dim = {MAX_DIM}\n")
    with pytest.raises(MetricFileError, match=r"dim must be an integer in 2\.\.32, got 33 \(line 1, col 7\)"):
        parse_metric(f"dim = {MAX_DIM + 1}\n")
    nested = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    node = _parse(nested)
    assert type(node) is Var and node == Var(0)
    chain = "x1" + " + 1" * (MAX_DEPTH - 1)
    assert expression_jet(_parse(chain), _env([0.5])).val == MAX_DEPTH - 0.5
    negated = parse_metric(f"dim = 2\na 1 1 = 2 + {'-' * (MAX_DEPTH - 2)}x1\na 2 2 = 1\n")
    assert expression_jet(negated.a_expr(0, 0), _env([0.5, 0.0])).val == 2.5  # an even count of minus signs
    for deeper in ("(" + nested + ")", "-" * (MAX_DEPTH + 1) + "x1", chain + " + 1"):
        with pytest.raises(MetricFileError, match="nested deeper than 100 levels .line 3"):
            parse_metric(f"dim = 2\na 2 2 = 1\na 1 1 = {deeper}\n")


def test_parse_rejects_non_finite_numbers():
    for line in (
        "a 1 1 = 1e400",
        "a 1 1 = 1 + 0*1e400",
        "domain x1 = [0, inf]",
        "domain x1 = [nan, 1]",
        "domain x1 = [-1e308, 1e308]",  # finite bounds whose width overflows
    ):
        with pytest.raises(MetricFileError, match="line 2"):
            parse_metric(f"dim = 2\n{line}\n")


# Pieces of the metric language, so that generated text often gets past the tokenizer.
_FRAGMENTS = [
    "dim", "domain", "a", "b", "x", "x1", "x2", "x0", "=", "[", "]", ",", "(", ")", "+", "-", "*", "/",
    "^", "sin", "exp", "log", "#", " ", "\n", "0", "1", "2", "33", "0.5", "1e9", "1e400", "inf", "nan", ".",
]
_METRIC_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join),
    # deep enough to exhaust the recursion limit, which hypothesis raises while it runs a test
    st.integers(0, 2000).map(lambda k: "dim = 2\na 1 1 = " + "(" * k + "1" + ")" * k),
    st.integers(0, 2000).map(lambda k: "dim = 2\na 1 1 = " + "-" * k + "x1"),
)


@given(_METRIC_TEXT)
@settings(max_examples=300, deadline=None)
def test_parse_metric_raises_only_metric_file_error(text):
    try:
        parse_metric(text)
    except MetricFileError:
        pass


_EXPR = st.recursive(
    st.one_of(st.floats(-1e3, 1e3).map(Const), st.integers(0, 1).map(Var)),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]), st.floats(-4, 4))),
        st.builds(Fun, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), sub),
    ),
    max_leaves=12,
)


def _jet_or_error(evaluate, expr, env):
    try:
        return evaluate(expr, env)
    except JetError:
        return None


@given(_EXPR)
@settings(max_examples=300, deadline=None)
def test_expression_text_roundtrip(expr):
    env = _env([0.3, -0.7])
    want = _jet_or_error(expression_jet, expr, env)
    got = _jet_or_error(expression_jet, _parse(expr_text(expr)), env)
    assert (want is None) == (got is None)
    if want is not None:
        for a, b in ((want.val, got.val), (want.grad, got.grad), (want.hess, got.hess)):
            assert np.array_equal(a, b)


# zeros and negative values, where log, sqrt, division and fractional powers fail
_POINTS = np.array([[0.3, -0.7], [-1.9, 0.0], [0.0, 2.5], [1.1, 1.1], [-0.25, 40.0]])


@given(_EXPR)
@settings(max_examples=300, deadline=None)
def test_batched_evaluation_matches_scalar_oracle(expr):
    # the batch fails exactly when the scalar oracle fails at one of its points;
    # then each point alone fails exactly where the oracle does.  Otherwise the
    # batch gives each point's value and derivatives bit for bit as its own walk.
    spec = MetricSpec(dim=2)
    envs = [[Jet.variable(v, k, 2) for k, v in enumerate(x)] for x in _POINTS]
    with np.errstate(all="ignore"):  # the oracle tests finiteness itself, node by node
        want = [_jet_or_error(eval_jet, expr, env) for env in envs]
    batch = _jet_or_error(expression_jet, expr, spec.chart_jets(_POINTS))
    assert (batch is None) == any(w is None for w in want)
    for p, w in enumerate(want):
        got = _jet_or_error(expression_jet, expr, spec.chart_jets(_POINTS[p]))
        assert (got is None) == (w is None)
        if w is None:
            continue
        for a, b in ((got.val, w.val), (got.grad, w.grad), (got.hess, w.hess_matrix())):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)
        if batch is not None:
            for rows, own in ((batch.val, got.val), (batch.grad, got.grad), (batch.hess, got.hess)):
                # a constant expression gives one jet for all points
                assert np.broadcast_to(rows, (len(_POINTS),) + own.shape)[p].tobytes() == own.tobytes()
