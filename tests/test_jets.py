import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerab.dsl import eval_component
from finslerab.jets import ArrayJet, Jet, JetError, elem, fd_oracle, jexp, jlog, jsqrt, seed


def test_seed_single_direction():
    (j,) = seed([3.0], {0})
    assert j.val == 3.0
    assert j.grad.tolist() == [1.0]
    assert j.hess.tolist() == [0.0]


def test_seed_constant():
    a, b = seed([5.0, 2.0], {1})
    assert a.val == 5.0 and not a.grad.any()
    assert b.grad.tolist() == [0.0, 1.0]


def test_seed_duplicate_direction_rejected():
    with pytest.raises(JetError):
        seed([1.0, 2.0], [0, 0])


def test_square_at_three():
    (x,) = seed([3.0], {0})
    f = x * x
    assert f.val == 9.0 and f.grad[0] == 6.0 and f.hess_entry(0, 0) == 2.0


def test_reciprocal():
    (x,) = seed([2.0], {0})
    f = 1.0 / x
    assert f.val == 0.5
    assert f.grad[0] == -0.25
    assert f.hess_entry(0, 0) == 0.25  # d2(1/x)/dx2 = 2/x^3


def test_pow_matches_div_route():
    (x,) = seed([4.0], {0})
    via_pow = x**-1.0
    via_div = Jet.constant(1.0, 1) / x
    assert abs(via_pow.val - via_div.val) < 1e-15
    assert abs(via_pow.grad[0] - via_div.grad[0]) < 1e-15
    assert abs(via_pow.hess_entry(0, 0) - via_div.hess_entry(0, 0)) < 1e-15


def test_sqrt_at_four():
    (x,) = seed([4.0], {0})
    f = jsqrt(x)
    assert f.val == 2.0
    assert abs(f.grad[0] - 0.25) < 1e-16
    assert abs(f.hess_entry(0, 0) + 1.0 / 32.0) < 1e-16


def test_exp_at_zero():
    f = elem(Jet.variable(0.0, 0, 1), "exp")
    assert f.val == 1.0 and f.grad[0] == 1.0 and f.hess_entry(0, 0) == 1.0


def test_log_exp_identity():
    (x,) = seed([1.3], {0})
    f = jlog(jexp(x))
    assert abs(f.val - 1.3) < 1e-14
    assert abs(f.grad[0] - 1.0) < 1e-14
    assert abs(f.hess_entry(0, 0)) < 1e-14


def test_trig_composition():
    (x,) = seed([0.7], {0})
    f = elem(x, "sin") * elem(x, "cos")  # = sin(2x)/2
    assert abs(f.val - 0.5 * math.sin(1.4)) < 1e-15
    assert abs(f.grad[0] - math.cos(1.4)) < 1e-14
    assert abs(f.hess_entry(0, 0) + 2.0 * math.sin(1.4)) < 1e-14


def test_fd_oracle_square():
    d = fd_oracle(lambda x: x[0] ** 2, [3.0], 0, 1e-5)
    assert abs(d - 6.0) < 1e-9


def test_fd_oracle_sin():
    d = fd_oracle(lambda x: math.sin(x[0]), [0.0], 0, 1e-5)
    assert abs(d - 1.0) < 1e-10


def test_domain_errors():
    (x,) = seed([-1.0], {0})
    with pytest.raises(JetError):
        jsqrt(x)
    with pytest.raises(JetError):
        jlog(x)
    with pytest.raises(JetError):
        x**0.5
    with pytest.raises(JetError):
        x / Jet.constant(0.0, 1)


def test_overflow_raises_jet_error():
    (x,) = seed([1000.0], {0})
    with pytest.raises(JetError, match="overflow"):
        jexp(x)
    with pytest.raises(JetError, match="overflow"):
        (x * 1e300) ** 2
    with pytest.raises(JetError, match="overflow"):
        jsqrt(Jet.constant(1e-272, 1))
    with pytest.raises(JetError, match="non-finite"):
        elem(Jet.constant(math.inf, 1), "sin")


def test_first_power_at_zero():
    (x,) = seed([0.0], {0})
    p = x**1
    assert p.val == 0.0 and p.grad[0] == 1.0 and p.hess[0] == 0.0


def _constant(v, like):
    """``v`` as a constant array jet in the directions of ``like``, as the metric walk lifts a number."""
    d = like.grad.shape[-1]
    return ArrayJet(v, np.zeros(d), np.zeros((d, d)))


# (ArrayJet form, scalar Jet form, plain numpy form) of every array-jet operation;
# an ArrayJet divides as the metric walk does, by multiplying with the reciprocal
ARRAY_OPS = {
    "add": (lambda a, b: a + b,) * 3,
    "sub": (lambda a, b: a - b,) * 3,
    "mul": (lambda a, b: a * b,) * 3,
    "div": (lambda a, b: a * b.reciprocal(), lambda a, b: a / b, lambda a, b: a / b),
    "radd": (lambda a, b: 2.5 + a,) * 3,
    "rsub": (lambda a, b: 2.5 - a,) * 3,
    "rmul": (lambda a, b: 2.5 * a,) * 3,
    "rdiv": (lambda a, b: 2.5 * a.reciprocal(), lambda a, b: 2.5 / a, lambda a, b: 2.5 / a),
    "div_const": (lambda a, b: a * _constant(2.5, a).reciprocal(), lambda a, b: a / 2.5, lambda a, b: a / 2.5),
    "neg": (lambda a, b: -a,) * 3,
    "reciprocal": (lambda a, b: a.reciprocal(), lambda a, b: 1.0 / a, lambda a, b: 1.0 / a),
    "sqrt": (lambda a, b: a.sqrt(), lambda a, b: jsqrt(a), lambda a, b: np.sqrt(a)),
    "exp": (lambda a, b: a.exp(), lambda a, b: jexp(a), lambda a, b: np.exp(a)),
    "log": (lambda a, b: a.log(), lambda a, b: jlog(a), lambda a, b: np.log(a)),
    "sin": (lambda a, b: a.sin(), lambda a, b: elem(a, "sin"), lambda a, b: np.sin(a)),
    "cos": (lambda a, b: a.cos(), lambda a, b: elem(a, "cos"), lambda a, b: np.cos(a)),
    "pow": (lambda a, b: a**2.5,) * 3,
    "pow_int": (lambda a, b: a**3,) * 3,
    "pow_neg": (lambda a, b: a**-1.5,) * 3,
}
# the operations this test covered first keep the random data they were drawn with
_SEED = {op: i for i, op in enumerate(sorted(list(ARRAY_OPS)[:12]) + list(ARRAY_OPS)[12:])}


def _quadratic_fields(rng, x0, count):
    """``count`` positive quadratic functions of x and their exact array jet at x0."""
    d = x0.size
    c0 = rng.uniform(1.0, 2.0, count)
    c1 = rng.uniform(-1.0, 1.0, (count, d))
    q = rng.uniform(-0.3, 0.3, (count, d, d))
    q = q + q.transpose(0, 2, 1)

    def plain(x):
        return c0 + c1 @ x + np.einsum("kij,i,j->k", q, x, x)

    grad = c1 + 2.0 * np.einsum("kij,j->ki", q, x0)
    return plain, ArrayJet(plain(x0), grad, 2.0 * q)


def _scalar_jets(aj):
    iu = np.triu_indices(aj.grad.shape[-1])
    return [Jet(v, g, h[iu]) for v, g, h in zip(aj.val, aj.grad, aj.hess)]


def _assert_matches(out, k, ref):
    assert out.val[k] == pytest.approx(ref.val, rel=1e-14, abs=1e-14)
    np.testing.assert_allclose(out.grad[k], ref.grad, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(out.hess[k], ref.hess_matrix(), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("op", sorted(ARRAY_OPS))
def test_array_jet_matches_scalar_jet_and_fd(op):
    fn_array, fn_jet, fn_plain = ARRAY_OPS[op]
    rng = np.random.default_rng(_SEED[op])
    x0 = rng.uniform(-0.5, 0.5, 4)
    plain_a, a = _quadratic_fields(rng, x0, 5)
    plain_b, b = _quadratic_fields(rng, x0, 5)
    out = fn_array(a, b)
    for k, (ja, jb) in enumerate(zip(_scalar_jets(a), _scalar_jets(b))):
        _assert_matches(out, k, fn_jet(ja, jb))
        for i in range(x0.size):
            fd = fd_oracle(lambda x: fn_plain(plain_a(x), plain_b(x))[k], x0, i)
            assert abs(out.grad[k, i] - fd) <= 1e-7 * max(1.0, abs(fd))


def test_array_jet_broadcasts_over_leading_shape():
    rng = np.random.default_rng(20)
    x0 = rng.uniform(-0.5, 0.5, 3)
    _, a = _quadratic_fields(rng, x0, 1)
    _, v = _quadratic_fields(rng, x0, 4)
    scalar = ArrayJet(a.val[0], a.grad[0], a.hess[0])
    (ja,) = _scalar_jets(a)
    for out in (scalar * v, v * scalar.reciprocal(), scalar + v):
        assert out.val.shape == (4,) and out.hess.shape == (4, 3, 3)
    for k, jv in enumerate(_scalar_jets(v)):
        _assert_matches(scalar * v, k, ja * jv)
        _assert_matches(v * scalar.reciprocal(), k, jv / ja)
        _assert_matches(scalar + v, k, ja + jv)


def _domain_cases():
    """(operation, message pattern) pairs that must raise ``JetError``."""

    def jet(val, grad):
        return ArrayJet(val, grad, np.zeros(grad.shape + grad.shape[-1:]))

    def arr(*vals):
        return jet(np.array(vals), np.ones((len(vals), 1)))

    v = jet(np.array([1.0, -1.0]), np.eye(2))
    # where the scalar functions raise, the array ones raise for any entry
    cases = [
        (lambda: v.sqrt(), "sqrt of non-positive value -1.0"),
        (lambda: (v - v).reciprocal(), "division by zero jet"),
        (lambda: v.log(), "log of non-positive value -1.0"),
        (lambda: arr(1.0, 0.0).log(), "log of non-positive value 0.0"),
        (lambda: v**0.5, "fractional power of non-positive base -1.0"),
        (lambda: arr(2.0, 0.0) ** -2, "negative power of zero"),
        (lambda: arr(1.0, 1000.0).exp(), r"overflow in exp\(1000.0\)"),
        (lambda: arr(1.0, 1e300) ** 2, "overflow"),
        (lambda: arr(1.0, 1e-272).sqrt(), "overflow"),
        (lambda: arr(1.0, 1e-200).log(), "overflow"),  # the second derivative -1/v^2
        (lambda: v ** jet(np.array(2.0), np.zeros(2)), "exponent must be a real constant"),
    ]
    for fn in (ArrayJet.sin, ArrayJet.cos, ArrayJet.exp, ArrayJet.log, ArrayJet.sqrt):
        cases.append((lambda fn=fn: fn(arr(1.0, math.inf)), "non-finite value"))
    return cases, arr


def test_array_jet_domain_errors():
    cases, arr = _domain_cases()
    for case, pattern in cases:
        with pytest.raises(JetError, match=pattern):
            case()
    # the scalar rules hold at the edges: x^0 = 1 anywhere, x^1 at 0, integer powers of negatives
    zeroth = arr(-3.0, 0.0) ** 0
    assert zeroth.val.tolist() == [1.0, 1.0] and not zeroth.hess.any()
    one = arr(0.0) ** 1
    assert one.val == 0.0 and one.grad[0, 0] == 1.0 and one.hess[0, 0, 0] == 0.0
    assert (arr(-2.0) ** 3).val.tolist() == [-8.0]


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_linearity_exact(av, ag, bv, bg, ca, cb):
    a = Jet(av, np.array([ag]), np.array([0.5 * ag]))
    b = Jet(bv, np.array([bg]), np.array([0.25 * bg]))
    lhs = ca * a + cb * b
    assert lhs.val == ca * av + cb * bv
    assert lhs.grad[0] == ca * ag + cb * bg
    assert lhs.hess[0] == ca * a.hess[0] + cb * b.hess[0]


@given(finite, finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_product_rule_exact(av, ag, bv, bg):
    a = Jet(av, np.array([ag]), np.array([0.0]))
    b = Jet(bv, np.array([bg]), np.array([0.0]))
    p = a * b
    # no truncation error at order <= 2: the rule holds in exact float arithmetic
    assert p.grad[0] == av * bg + bv * ag


def _all_expressions(spec):
    n = spec.dim
    for i in range(n):
        for j in range(i, n):
            yield spec.a_expr(i, j)
        yield spec.b_expr(i)


@pytest.mark.parametrize("name", ["matsumoto_example", "sphere_round", "euclidean_homothetic"])
def test_jets_match_fd_on_metric_expressions(name):
    from finslerab import testmetrics

    spec = testmetrics.shipped_metric(name)
    rng = np.random.default_rng(7)
    n = spec.dim
    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(lo + 2 * h, hi - 2 * h)
        env = spec.chart_jets(x)
        for expr in _all_expressions(spec):
            jet = eval_component(expr, env)

            def plain(pt, expr=expr):
                return float(eval_component(expr, spec.chart_jets(pt)).val)

            for k in range(n):
                d_fd = fd_oracle(plain, x, k, h)
                tol = max(1e-6, 1e-6 * abs(jet.val))
                assert abs(jet.grad[k] - d_fd) < tol
                # second derivative via central difference of the jet gradient
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                gp = eval_component(expr, spec.chart_jets(xp)).grad[k]
                gm = eval_component(expr, spec.chart_jets(xm)).grad[k]
                h2_fd = (gp - gm) / (2 * h)
                tol2 = max(1e-4, 1e-4 * abs(jet.val))
                assert abs(jet.hess[k, k] - h2_fd) < tol2
