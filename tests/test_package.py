import importlib
import json
import subprocess
import sys

import pytest

import optomech
from test_cli import child_env

# The names the package re-exports, by the submodule that defines them.
EXPORTS = {
    "params": ["Drive", "ModelSpec", "InitialState", "FabryPerot", "Levitated",
               "ColdAtoms", "evaluate_drive", "coupling_constant",
               "coupling_constant_hz", "thermal_parameter"],
    "mechanics": ["JSet", "solve_subsystem",
                  "j_coefficients", "j_coefficients_ode", "compose_bogoliubov",
                  "mathieu_perturbative", "map_constant_squeezing"],
    "coefficients": ["FSet", "DerivedScalars", "Trajectory", "f_integrated",
                     "f_closed_form", "derived_scalars", "CatalogMiss",
                     "catalog_entry"],
    "moments": ["MomentSet", "CovarianceMatrix", "evolve_moments", "covariance",
                "covariance_from_moments", "symplectic_eigenvalues",
                "subsystem_eigenvalues", "subsystem_eigenvalues_closed",
                "quadratures", "damped_coherent"],
    "nongaussianity": ["NonGaussReport", "entropy_sv", "delta", "delta_bounds",
                       "delta_asymptotic"],
    "metrology": ["QfiCoefficients", "SensitivityReport", "qfi_coefficients",
                  "qfi_thermal", "qfi_coherent", "qfi_fock", "qfi_closed_form",
                  "cfi_homodyne", "gravimetry", "acceleration_qfi",
                  "measurement_window", "qfi_route"],
    "oracle": ["TruncatedState", "propagate", "oracle_moments",
               "analytic_state_coefficients", "recommended_dims"],
}


def run_python(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_loads_no_numpy():
    report = run_python(
        "import json, sys\n"
        "import optomech\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "                  'version': optomech.__version__}))\n")
    assert report == {"numpy": False, "version": optomech.__version__}


def test_submodule_import_falls_through_the_lazy_names():
    report = run_python(
        "import json\n"
        "from optomech import metrology\n"
        "print(json.dumps(metrology.__name__))\n")
    assert report == "optomech.metrology"


def test_every_export_is_its_submodules_object():
    expected = {name: (module, name)
                for module, names in EXPORTS.items() for name in names}
    expected["nongauss_report"] = ("nongaussianity", "report")
    assert sorted(optomech.__all__) == sorted(expected)
    for name, (module, attr) in expected.items():
        source = importlib.import_module(f"optomech.{module}")
        assert getattr(optomech, name) is getattr(source, attr), name
    assert set(optomech.__all__) <= set(dir(optomech))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        optomech.no_such_name
    assert not hasattr(optomech, "report")
