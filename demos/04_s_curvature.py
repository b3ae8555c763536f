"""S-curvature: volume-form factors by quadrature and the closed form.

The distortion factor f(b) of the Busemann-Hausdorff / Holmes-Thompson
volume forms is a ratio of integrals over [0, pi]; one fixed Gauss-Legendre
rule evaluates it, with f'(b) and f''(b) differentiated under the integral
in the same pass.  The S-curvature is then computed both from its definition (spray divergence
minus the log-volume drift) and from the closed rational form; the two
routes agree to machine precision -- and both vanish exactly when the
1-form is constant Killing.
"""

import numpy as np

from finslerab import build_bundle, shipped_metric
from finslerab.classify import RunConfig, run_check
from finslerab.finsler import spray
from finslerab.scurvature import s_curvature_closed, s_curvature_def, volume_factor

for form in ("bh", "ht"):
    vf = volume_factor(3, 0.3, form)
    print(f"{form.upper()}: f(0.3) = {vf.f:.12f}  f'(0.3) = {vf.fprime:+.12f}  Lambda = {vf.Lambda:+.6f}")

print("\nshipped metrics under the BH volume form:")
rng = np.random.default_rng(1)
for name in ("matsumoto_example", "euclidean_homothetic", "euclidean_rotational"):
    spec = shipped_metric(name)
    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])
    x = rng.uniform(lo + 0.05, hi - 0.05)
    bu = build_bundle(spec, x)
    y = rng.standard_normal(spec.dim)
    y /= np.sqrt(y @ bu.a @ y)  # alpha(x, y) = 1
    # the definition reads the spray's divergence; the closed form reads no spray at all
    s_def = s_curvature_def(spray(bu, y), "bh")
    s_cl = s_curvature_closed(bu, y, "bh")
    # the beta conditions of `finslerab check`, sampled over the whole domain
    ck = run_check(spec, RunConfig(points=4, y_per_point=1), ("beta",)).conditions["beta_constant_killing"]
    print(
        f"  {name:22s} S = {s_def:+.3e} (routes differ by {abs(s_def - s_cl):.1e})"
        f"  constant Killing: {ck.verdict}"
    )
print("\nS vanishes exactly on the constant-Killing metric and only there.")
