"""Exact first and second derivatives through jet arithmetic.

An array jet carries values plus their gradients and Hessians with respect
to a fixed set of seed directions.  Arithmetic composes them by the exact
order-2 chain rule, so there is no step-size tuning and no truncation
noise -- the classic weakness of finite differences when you need second
derivatives of deeply composed quantities.
"""

import numpy as np

from finslerab.jets import ArrayJet


def seeded(points):
    """Points of shape S + (2,) as the jets of x and y: x in direction 0, y in direction 1."""
    points = np.asarray(points, dtype=float)
    return [ArrayJet(points[..., k], np.eye(2)[k], np.zeros((2, 2))) for k in range(2)]


# Seed (x, y) = (1.2, -0.7) with two active directions.
point = np.array([1.2, -0.7])
x, y = seeded(point)

f = (x * x + y * y).sqrt() * (0.3 * x).exp()
print("f(x, y) = sqrt(x^2 + y^2) exp(0.3 x) at (1.2, -0.7)")
print("  value   :", f.val)
print("  gradient:", f.grad)
print("  hessian :\n", f.hess)


def plain(pt):
    return float(np.hypot(pt[0], pt[1]) * np.exp(0.3 * pt[0]))


# A central difference of the plain function, which shares no code with the jets.
step = np.array([1e-5, 0.0])
fd = (plain(point + step) - plain(point - step)) / (2.0 * step[0])
print("\ncentral-difference check of df/dx:", fd)
print("difference from the jet gradient :", abs(f.grad[0] - fd))

# Compositions that should collapse to identities do so to machine precision.
g = x.exp().log()
print("\nlog(exp(x)) carries the identity jet:", g.val, g.grad, g.hess[0, 0])

# Derivative extraction: d f/dx and its gradient are the first gradient entry
# and the first Hessian row of the jet of f.
h = x * x * y
print("\nd(x^2 y)/dx: value", h.grad[0], "gradient", h.hess[0])

# One array jet holds many: f and its derivatives at three points in one evaluation.
xs, ys = seeded([[1.2, -0.7], [0.5, 0.5], [2.0, 1.0]])
fs = (xs * xs + ys * ys).sqrt() * (0.3 * xs).exp()
print("\nf at three points:", fs.val)
print("df/dx at each    :", fs.grad[:, 0])
