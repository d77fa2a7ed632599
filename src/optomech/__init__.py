"""Nonlinear optomechanics: decoupled dynamics, non-Gaussianity, metrology.

The names in ``__all__`` are loaded from their submodules on first access
(PEP 562), so ``import optomech`` imports no numpy. The CLI relies on that
to parse its arguments, and to set the BLAS thread count, before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "params": ("Drive", "ModelSpec", "InitialState", "FabryPerot", "Levitated",
               "ColdAtoms", "evaluate_drive", "coupling_constant",
               "coupling_constant_hz", "thermal_parameter"),
    "mechanics": ("JSet", "solve_subsystem",
                  "j_coefficients", "j_coefficients_ode", "compose_bogoliubov",
                  "mathieu_perturbative", "map_constant_squeezing"),
    "coefficients": ("FSet", "DerivedScalars", "Trajectory", "f_integrated",
                     "f_closed_form", "derived_scalars", "CatalogMiss",
                     "catalog_entry"),
    "moments": ("MomentSet", "CovarianceMatrix", "evolve_moments", "covariance",
                "covariance_from_moments", "symplectic_eigenvalues",
                "subsystem_eigenvalues", "subsystem_eigenvalues_closed",
                "quadratures", "damped_coherent"),
    "nongaussianity": ("NonGaussReport", "entropy_sv", "delta", "delta_bounds",
                       "delta_asymptotic"),
    "metrology": ("QfiCoefficients", "SensitivityReport", "qfi_coefficients",
                  "qfi_thermal", "qfi_coherent", "qfi_fock", "qfi_closed_form",
                  "cfi_homodyne", "gravimetry", "acceleration_qfi",
                  "measurement_window", "qfi_route"),
    "oracle": ("TruncatedState", "propagate", "oracle_moments",
               "analytic_state_coefficients", "recommended_dims"),
}

# exported name -> (submodule, attribute)
_ORIGIN = {name: (module, name)
           for module, names in _EXPORTS.items() for name in names}
_ORIGIN["nongauss_report"] = ("nongaussianity", "report")

__all__ = list(_ORIGIN)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from optomech import
    # metrology` falls through to importing the submodule
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), attr)


def __dir__():
    return sorted({*globals(), *__all__})
