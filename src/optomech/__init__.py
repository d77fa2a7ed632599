"""Nonlinear optomechanics: decoupled dynamics, non-Gaussianity, metrology."""

__version__ = "0.1.0"

from .params import (Drive, ModelSpec, InitialState, FabryPerot, Levitated,
                     ColdAtoms, evaluate_drive, coupling_constant,
                     coupling_constant_hz, thermal_parameter)
from .mechanics import (SubsystemSolution, JSet, TOLERANCES, solve_subsystem,
                        j_coefficients, j_coefficients_ode, compose_bogoliubov,
                        mathieu_perturbative, map_constant_squeezing)
from .coefficients import (FSet, DerivedScalars, Trajectory, f_integrated,
                           f_closed_form, derived_scalars, CatalogMiss,
                           catalog_entry)
from .moments import (MomentSet, CovarianceMatrix, evolve_moments, covariance,
                      covariance_from_moments, symplectic_eigenvalues,
                      subsystem_eigenvalues, subsystem_eigenvalues_closed,
                      quadratures, damped_coherent)
from .nongaussianity import (NonGaussReport, entropy_sv, delta, delta_bounds,
                             delta_asymptotic)
from .nongaussianity import report as nongauss_report
from .metrology import (QfiCoefficients, SensitivityReport, qfi_coefficients,
                        qfi_thermal, qfi_coherent, qfi_fock, qfi_closed_form,
                        cfi_homodyne, gravimetry, acceleration_qfi,
                        measurement_window, qfi_route)
from .oracle import (TruncatedState, propagate, oracle_moments,
                     analytic_state_coefficients, recommended_dims)
