"""Exact first and second derivatives through jet arithmetic.

A jet carries a value plus its gradient and Hessian with respect to a fixed
set of seed directions.  Arithmetic composes them by the exact order-2 chain
rule, so there is no step-size tuning and no truncation noise -- the classic
weakness of finite differences when you need second derivatives of deeply
composed quantities.
"""

import numpy as np

from finslerab.jets import Jet, fd_oracle, jexp, jlog, jsqrt, seed

# Seed (x, y) = (1.2, -0.7) with two active directions.
x, y = seed([1.2, -0.7], {0, 1})

f = jsqrt(x * x + y * y) * jexp(0.3 * x)
print("f(x, y) = sqrt(x^2 + y^2) exp(0.3 x) at (1.2, -0.7)")
print("  value   :", f.val)
print("  gradient:", f.grad)
print("  hessian :\n", f.hess_matrix())


def plain(pt):
    return float(np.hypot(pt[0], pt[1]) * np.exp(0.3 * pt[0]))


print("\ncentral-difference check of df/dx:", fd_oracle(plain, [1.2, -0.7], 0))
print("difference from the jet gradient :", abs(f.grad[0] - fd_oracle(plain, [1.2, -0.7], 0)))

# Compositions that should collapse to identities do so to machine precision.
g = jlog(jexp(x))
print("\nlog(exp(x)) carries the identity jet:", g.val, g.grad, g.hess_matrix()[0, 0])

# Derivative extraction: d f/dx and its gradient are the first gradient entry
# and the first Hessian row of the jet of f.
h = x * x * y
print("\nd(x^2 y)/dx: value", h.grad[0], "gradient", h.hess_matrix()[0])
