"""Numerical toolkit comparing trajectory stability with Jacobi-metric
geodesic stability for natural mechanical systems."""

from .errors import (ChartDomainError, ConfigError, DegenerateMetricError,
                     EnergyDriftError, ForbiddenRegionError, GeometryError)
from .geometry import (ChartMetric, CurveGeometry, ScalarField, christoffel,
                       cov_derivative_along, fd_field, fd_metric, hessian_form, riemann)
from .conformal import (conformal_connection, conformal_curvature,
                        conformal_rescale, conformal_second_cov,
                        lemma_residuals, reparam_cov)
from .dynamics import (DeviationField, MechanicalSystem, Trajectory,
                       brute_force_deviation, hessian_operator,
                       integrate_deviation, integrate_newton, integrate_with_deviation)
from .jacobi import (STENCIL_CORE, STENCIL_PAD, GeodesicRecord, JacobiMetric,
                     geodesic_from_trajectory, integrate_geodesic, jacobi_metric,
                     jacobi_operator_direct, jacobi_operator_via_g,
                     equal_energy_projection, maupertuis_roundtrip, padded_span,
                     relation_equal_energy)
from .variation import (FunctionalReport, ProperVariation,
                        action_second_difference, evaluate_functionals,
                        make_proper_variation, second_variation_LJ,
                        second_variation_S, second_variation_S0J)
from .systems import (BUILTIN_SYSTEMS, SystemSetup, builtin_setup, flat_metric,
                      hyperbolic_metric, metric_by_name, sphere_metric)

__version__ = "0.1.0"
