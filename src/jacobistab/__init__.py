"""Numerical toolkit comparing trajectory stability with Jacobi-metric
geodesic stability for natural mechanical systems."""

from .errors import (ChartDomainError, ConfigError, DegenerateMetricError,
                     EnergyDriftError, ForbiddenRegionError, GeometryError)
from .geometry import (ChartMetric, SampledCurve, ScalarField, christoffel,
                       cov_derivative_along, flat_metric, grad_scalar,
                       hessian_form, hyperbolic_metric, metric_by_name,
                       riemann, sphere_metric)
from .conformal import (ConformalFactor, conformal_connection,
                        conformal_curvature, conformal_rescale,
                        conformal_second_cov, lemma_residuals, reparam_cov)
from .dynamics import (DeviationField, MechanicalSystem, Trajectory,
                       brute_force_deviation, hessian_operator,
                       integrate_deviation, integrate_newton)
from .jacobi import (STENCIL_CORE, STENCIL_PAD, GeodesicRecord, JacobiMetric,
                     geodesic_from_trajectory, integrate_geodesic, jacobi_metric,
                     jacobi_operator_direct, jacobi_operator_via_g,
                     equal_energy_projection, maupertuis_roundtrip, padded_span,
                     relation_equal_energy)
from .variation import (FunctionalReport, ProperVariation,
                        action_second_difference, evaluate_functionals,
                        make_proper_variation, second_variation_LJ,
                        second_variation_S, second_variation_S0J)
from .systems import BUILTIN_SYSTEMS, SystemSetup, builtin_setup

__version__ = "0.1.0"
