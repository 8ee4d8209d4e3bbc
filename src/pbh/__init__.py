"""Numerical verification of p-harmonic / p-biharmonic map identities and
stress p-bienergy tensors on chart-described Riemannian manifolds."""

from .errors import (DomainError, ExprSyntaxError, JetOrderError, PbhError,
                     RankDeficiencyError, SchemaError, SingularityError,
                     SingularMatrixError, UnknownIdentifierError)
from .expr import Expression, differentiate, eval_jet, parse
from .geometry import ChartMetric, euclidean_chart, sectional_curvature, space_form_chart
from .jets import JetScalar, JetSpace, lift_point
from .mapcalc import SmoothMap, p_bienergy_box, p_bitension, p_energy_box, p_tension, tension
from .scenarios import ResidualReport, Scenario, builtin, load_scenario, run, sweep
from .stress import stress_divergence_check, stress_tensor, stress_trace
from .submanifold import (CmcResult, Immersion, bitension_split, cmc_proper_p,
                          theorem21_residuals, theorem23_residuals)

__version__ = "0.1.0"
