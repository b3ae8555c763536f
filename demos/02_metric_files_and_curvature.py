"""From a metric definition file to curvature, in a few lines.

A metric file declares a_ij(x) and b_i(x) as closed-form expressions.  The
bundle built at a chart point holds the Christoffel symbols, the curvature
tensor of alpha, and the full covariant calculus of the 1-form: everything
downstream (sprays, Ricci, S-curvature) reads from it.
"""

import numpy as np

from finslerab import build_bundle, parse_metric, validate_spec

TEXT = """
dim = 2
domain x1 = [0.6, 2.5]
a 1 1 = 1
a 2 2 = sin(x1)^2
"""

sphere = parse_metric(TEXT, "round_sphere_patch")
print(validate_spec(sphere).summary())

bu = build_bundle(sphere, np.array([1.1, 0.4]))
print("\nChristoffel symbols at x = (1.1, 0.4):")
for i in range(2):
    print(f"  Gamma^{i+1} =\n{bu.gamma[i]}")

y = np.array([0.3, 0.7])
print("\nRicci curvature of alpha along y:", bu.ricbar(y))
print("alpha^2 along y                  :", bu.alpha2(y))
print("ratio (sectional curvature)      :", bu.ricbar(y) / bu.alpha2(y))
