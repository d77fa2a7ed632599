"""The library names the benchmark under ``bench/`` imports or wraps.

The benchmark runs the committed code of two revisions side by side, so a
renamed or removed name breaks it on one side only. These checks fail first.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from optomech import coefficients, mechanics, metrology, oracle

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    for name in ("workloads", "trace_shim"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return (importlib.import_module("workloads"),
            importlib.import_module("trace_shim"))


def test_workloads_import(bench):
    workloads, _ = bench
    assert callable(workloads.read_table)


def test_traced_names_exist(bench):
    _, shim = bench
    for mod_name, attr, _span in shim.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), \
            f"{mod_name}.{attr}"
    for mod_name, _span in shim.ODE_BOUNDARIES:
        assert callable(importlib.import_module(mod_name).solve_ivp), mod_name
    for module, attr in ((oracle, "eig_banded"), (oracle, "eigh_tridiagonal"),
                         (metrology, "_hermite_functions"),
                         (metrology, "_assemble_coefficients")):
        assert callable(getattr(module, attr)), attr


@pytest.mark.parametrize("fn, args", [
    (mechanics.solve_subsystem, ("spec", "tau")),
    (mechanics.j_coefficients_ode, ("spec", "tau")),
    (coefficients.f_path, ("spec", "sol", "tau_max")),
    (coefficients.f_integrated, ("spec", "sol", "tau")),
    (coefficients.f_closed_form, ("spec", "tau")),
    (metrology._assemble_coefficients, ("tau", "f", "df", "j", "dj")),
])
def test_called_signatures_bind(fn, args):
    # the benchmark calls these positionally with exactly these arguments
    inspect.signature(fn).bind(*args)


def test_ode_boundary_returns_what_the_shim_reads():
    # trace_shim counts result.nfev and len(result.t) - 1 of every call,
    # and the library reads result.success
    result = mechanics.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0],
                                 rtol=1e-10, atol=1e-12)
    assert result.success
    assert result.nfev > 0
    assert len(result.t) >= 2
