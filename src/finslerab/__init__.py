"""Numerical invariants of slope-type (alpha, beta)-metrics F = alpha^2/(alpha - beta).

Exact-derivative (jet) evaluation of sprays, Riemann/Ricci curvature,
S-curvature under Busemann-Hausdorff / Holmes-Thompson volume forms, and
pointwise verification of the cleared Einstein-condition polynomial identity,
for analytic metrics defined in a small text format.
"""

from .jets import JetError
from .dsl import MetricFileError, MetricSpec, parse_metric, validate_spec
from .riemann import AlphaBetaBundle, GeometryError, build_bundle
from .finsler import extract_scalars, flag_curvature_fit, ricci_via_T, riemann_curvature, spray
from .scurvature import VolumeFactor, s_curvature_closed, s_curvature_def, volume_factor
from .identity import appendix_terms, contraction_set, verify_identity
from .testmetrics import list_shipped, random_metric, shipped_metric, shipped_metric_path

__version__ = "0.1.0"

__all__ = [
    "JetError",
    "MetricSpec",
    "MetricFileError",
    "parse_metric",
    "validate_spec",
    "AlphaBetaBundle",
    "GeometryError",
    "build_bundle",
    "spray",
    "riemann_curvature",
    "ricci_via_T",
    "extract_scalars",
    "flag_curvature_fit",
    "VolumeFactor",
    "volume_factor",
    "s_curvature_closed",
    "s_curvature_def",
    "contraction_set",
    "appendix_terms",
    "verify_identity",
    "shipped_metric",
    "shipped_metric_path",
    "list_shipped",
    "random_metric",
    "__version__",
]
