"""Reproducible metric families for tests, demos and dimension sweeps.

The random family is a bounded perturbation of the Euclidean metric with a
small polynomial 1-form: coefficients are drawn from a seeded generator and
scaled so that, at sampled points, the matrix stays uniformly positive
definite (min eigenvalue >= 0.2) and b^2 stays <= 0.2, comfortably inside
the b < 1/2 validity region, and then further until ``validate_spec``
accepts the metric at its defaults.  Everything is emitted as metric-file text
(``random_metric_text``) and parsed through the normal front end, so generated
metrics exercise the same code path as shipped ones.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .dsl import MetricSpec, parse_metric, validate_spec

__all__ = [
    "shipped_metric_path",
    "shipped_metric",
    "list_shipped",
    "euclidean_linear_beta",
    "random_metric_text",
    "random_metric",
]


def shipped_metric_path(name: str):
    """Filesystem path of a shipped .metric file (name with or without suffix)."""
    if not name.endswith(".metric"):
        name += ".metric"
    path = resources.files("finslerab").joinpath("metrics").joinpath(name)
    if not path.is_file():
        raise FileNotFoundError(f"no shipped metric {name!r}; have {list_shipped()}")
    return path


def shipped_metric(name: str) -> MetricSpec:
    path = shipped_metric_path(name)
    return parse_metric(path.read_text(), name=name.removesuffix(".metric"))


def list_shipped() -> list[str]:
    folder = resources.files("finslerab").joinpath("metrics")
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".metric"))


def euclidean_linear_beta(n: int, k: float = 0.1) -> MetricSpec:
    """Flat metric with the radial form b_i = k x_i (conformal, c = k)."""
    lines = [f"dim = {n}"]
    lines += [f"a {i} {i} = 1" for i in range(1, n + 1)]
    lines += [f"b {i} = {k!r} * x{i}" for i in range(1, n + 1)]
    return parse_metric("\n".join(lines), name=f"euclid{n}_radial")


_SCREEN_POINTS = 60  # seeded points where the margins are checked, before the costlier validate_spec


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _perturbed_text(n: int, seed: int, eps: float, beta_scale: float) -> str:
    """Metric-file text for a seeded perturbed metric of dimension n, unscreened."""
    rng = np.random.default_rng(seed)

    def poly(scale, allow_const=True):
        terms = []
        if allow_const and rng.random() < 0.5:
            terms.append(_fmt(scale * rng.uniform(-1, 1)))
        k = int(rng.integers(1, n + 1))
        terms.append(f"{_fmt(scale * rng.uniform(-1, 1))}*x{k}")
        l = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, n + 1))
        terms.append(f"{_fmt(scale * rng.uniform(-1, 1))}*x{l}*x{m}")
        return " + ".join(terms).replace("+ -", "- ")

    lines = [f"dim = {n}"]
    for i in range(1, n + 1):
        lines.append(f"a {i} {i} = 1 + {poly(eps, allow_const=False)}")
        for j in range(i + 1, n + 1):
            lines.append(f"a {i} {j} = {poly(0.5 * eps)}")
    for i in range(1, n + 1):
        lines.append(f"b {i} = {poly(beta_scale)}")
    return "\n".join(lines) + "\n"


def _accepted(n: int, seed: int) -> tuple[str, MetricSpec]:
    """(text, spec) of the seeded random metric, rescaled until its margins hold and ``validate_spec`` accepts it."""
    eps, bscale = 0.15, 0.25
    for _ in range(8):
        text = _perturbed_text(n, seed, eps, bscale)
        spec = parse_metric(text, name=f"rand{n}_{seed}")
        pts = np.random.default_rng(seed + 991).uniform(-1, 1, size=(_SCREEN_POINTS, n))
        a, b = spec.a_values(pts), spec.b_values(pts)
        small_eig = np.linalg.eigvalsh(a)[:, 0].min() < 0.2
        large_bsq = np.einsum("pi,pi->p", b, np.linalg.solve(a, b[..., None])[..., 0]).max() > 0.2
        if not (small_eig or large_bsq):
            kinds = {kind for _, kind, _ in validate_spec(spec).violations}
            if not kinds:
                return text, spec
            small_eig, large_bsq = "not positive definite" in kinds, "b^2 >= 1/4" in kinds
        if small_eig:
            eps *= 0.6
        if large_bsq:
            bscale *= 0.6
    raise RuntimeError(f"could not scale random metric n={n} seed={seed} into bounds")


def random_metric_text(n: int, seed: int) -> str:
    """Metric-file text of ``random_metric(n, seed)``."""
    return _accepted(n, seed)[0]


def random_metric(n: int, seed: int) -> MetricSpec:
    """Seeded random metric of dimension n that ``validate_spec`` accepts at its defaults."""
    return _accepted(n, seed)[1]
