import numpy as np
import pytest

from finslerab import dsl, riemann, testmetrics
from finslerab.jets import ArrayJet

GENERIC_3D = """
dim = 3
a 1 1 = 1 + 0.1*x1^2 + 0.05*x2
a 2 2 = 1 + 0.08*sin(x1)
a 3 3 = 1 + 0.06*x3^2
a 1 2 = 0.04*x1*x3
a 1 3 = 0.03*x2
a 2 3 = 0.05*x1 + 0.02*x2^2
b 1 = 0.1*x2 + 0.05*x1
b 2 = 0.08*x3^2
b 3 = 0.07 + 0.04*x1*x2
"""


@pytest.fixture(scope="session")
def generic3d():
    return dsl.parse_metric(GENERIC_3D, "generic3d")


@pytest.fixture(scope="session")
def example_spec():
    return testmetrics.shipped_metric("matsumoto_example")


@pytest.fixture(scope="session")
def sphere_spec():
    return testmetrics.shipped_metric("sphere_round")


@pytest.fixture(scope="session")
def homothetic_spec():
    return testmetrics.shipped_metric("euclidean_homothetic")


@pytest.fixture(scope="session")
def rotational_spec():
    return testmetrics.shipped_metric("euclidean_rotational")


def example_point(rng):
    """Random chart point of the 5-D shipped example."""
    x = rng.uniform(-1, 1, 5)
    x[3] = rng.uniform(0.55, 1.95)
    return x


def unit_y(bundle, rng):
    y = rng.standard_normal(bundle.n)
    return y / bundle.alpha(y)


@pytest.fixture(scope="session")
def example_bundle(example_spec):
    return riemann.build_bundle(example_spec, np.array([0.1, -0.3, 0.5, 1.2, 0.4]))


@pytest.fixture(scope="session")
def generic_bundle(generic3d):
    return riemann.build_bundle(generic3d, np.array([0.3, -0.2, 0.4]))


def expression_jet(expr, env):
    """One metric expression over ``env`` by the program's evaluator: the entry of a one-entry ``b_jet``."""
    b = dsl.MetricSpec(dim=1, b_entries={0: expr}).b_jet(env)
    return ArrayJet(b.val[..., 0], b.grad[..., 0, :], b.hess[..., 0, :, :])
