import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from optomech import (coefficients, dop853, mechanics, metrology,
                      nongaussianity, oracle)
from optomech.cli import (FORMATS, ConfigError, _tau_grid, main,
                          model_from_config, resolve_config,
                          validate_sweep_config)
from optomech.coefficients import (CatalogMiss, FSet, Trajectory,
                                   f_closed_form, f_integrated)
from optomech.mechanics import JSet, solve_subsystem
from optomech.metrology import qfi_coefficients, qfi_thermal
from optomech.moments import evolve_moments
from optomech.nongaussianity import report
from optomech.params import FabryPerot, coupling_constant

from conftest import finite_diff_qfi_budget, richardson_derivatives

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "config.json")
CONFIG_DISPLACED = str(GOLDEN / "config_displaced.json")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """This environment with the source tree first on PYTHONPATH, so a child
    interpreter imports the package under test without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args):
    result = subprocess.run([sys.executable, "-m", "optomech.cli", *args],
                            capture_output=True, text=True, env=child_env())
    return result


def check_golden(tmp_path, golden_name, *args):
    out = tmp_path / golden_name
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


# The last digits of LAPACK- and quadrature-derived values change with the
# numpy/SciPy/LAPACK build, so those goldens are compared at the accuracy the
# method promises rather than byte for byte.
# cfi_homodyne accepts its quadrature once two node counts agree to 1e-10
# relative.
CFI_RTOL = 1e-10
# oracle-check residuals must stay below the strict profile's RTOL.
ORACLE_MAX_DEVIATION = 1e-10


def cfi_close(got, want):
    return math.isclose(got, want, rel_tol=CFI_RTOL, abs_tol=0.0)


def oracle_within(got, want):
    return math.isfinite(got) and 0.0 <= got <= ORACLE_MAX_DEVIATION


def assert_matches_golden(text, golden_name, accept):
    """Compare a two-column golden: the `#` header lines, the column line and
    the first column of every row byte for byte, the second column by
    `accept(got, want)`."""
    got = text.split("\n")
    want = (GOLDEN / golden_name).read_text().split("\n")
    assert len(got) == len(want)
    assert got[:3] == want[:3]
    for g, w in zip(got[3:], want[3:]):
        g_key, g_sep, g_val = g.partition(",")
        w_key, w_sep, w_val = w.partition(",")
        assert (g_key, g_sep) == (w_key, w_sep)
        if w_sep:
            assert accept(float(g_val), float(w_val)), (g, w)


def check_golden_within(tmp_path, golden_name, accept, *args):
    out = tmp_path / golden_name
    result = run_cli(*args, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert_matches_golden(out.read_text(), golden_name, accept)


def test_golden_drive_eval(tmp_path):
    check_golden(tmp_path, "drive_eval.csv",
                 "drive-eval", "--config", CONFIG, "--steps", "5")


def test_golden_mechanics(tmp_path):
    check_golden(tmp_path, "mechanics.csv",
                 "mechanics", "--config", CONFIG, "--steps", "5")


def test_golden_coeffs(tmp_path):
    check_golden(tmp_path, "coeffs.csv",
                 "coeffs", "--config", CONFIG, "--steps", "5")


def test_golden_moments(tmp_path):
    check_golden(tmp_path, "moments.csv",
                 "moments", "--config", CONFIG_DISPLACED, "--steps", "5")


def test_golden_quadratures(tmp_path):
    check_golden(tmp_path, "quadratures.csv",
                 "moments", "--config", CONFIG_DISPLACED, "--steps", "5",
                 "--quadratures")


def test_golden_nongauss(tmp_path):
    check_golden(tmp_path, "nongauss.csv",
                 "nongauss", "--config", CONFIG, "--steps", "5")


def test_golden_qfi(tmp_path):
    check_golden(tmp_path, "qfi.csv",
                 "qfi", "--config", CONFIG, "--param", "g0",
                 "--tau", "6.283185307179586")


def test_golden_qfi_sweep(tmp_path):
    check_golden(tmp_path, "qfi_sweep.csv",
                 "qfi", "--config", CONFIG, "--param", "g0",
                 "--tau", "3.141592653589793", "--sweep", "g0", "0.5:1.5:0.5")


def test_golden_cfi(tmp_path):
    check_golden_within(tmp_path, "cfi.csv", cfi_close,
                        "cfi", "--config", CONFIG_DISPLACED,
                        "--tau", "6.283185307179586")


def test_golden_gravimetry(tmp_path):
    check_golden(tmp_path, "gravimetry.csv", "gravimetry", "--table")


def test_gravimetry_setup_writes_its_platform(tmp_path):
    setup, out = tmp_path / "setup.json", tmp_path / "gravimetry.csv"
    setup.write_text(json.dumps(FABRY_PEROT))
    assert main(["gravimetry", "--setup", str(setup), "--photons", "1e4",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2] == \
        "g0_dimensionless,qfi_dimensionless,qfi_si,delta_g"
    platform = FabryPerot(**{k: v for k, v in FABRY_PEROT.items()
                             if k != "kind"})
    rep = metrology.gravimetry(platform, math.sqrt(1e4))
    assert _read_rows(out) == [[coupling_constant(platform),
                                rep.qfi_dimensionless, rep.qfi_dimensionful,
                                rep.std_dev]]


def test_golden_oracle_check(tmp_path):
    check_golden_within(tmp_path, "oracle_check.csv", oracle_within,
                        "oracle-check", "--config", CONFIG, "--tau", "1.0")


def _set_value(lines, i, value):
    key, _, _ = lines[i].partition(",")
    lines[i] = key + "," + format(value, ".17g")


def _scale_cfi(lines):
    _set_value(lines, 3, float(lines[3].partition(",")[2]) * (1 + 1e-8))


def _large_deviation(lines):
    _set_value(lines, 4, 1e-9)


def _swap_rows(lines):
    lines[3], lines[4] = lines[4], lines[3]


def _change_fingerprint(lines):
    lines[1] = "# fingerprint: 0000000000000000"


@pytest.mark.parametrize("golden_name, accept, perturb", [
    ("cfi.csv", cfi_close, _scale_cfi),
    ("cfi.csv", cfi_close, _change_fingerprint),
    ("oracle_check.csv", oracle_within, _large_deviation),
    ("oracle_check.csv", oracle_within, _swap_rows),
    ("oracle_check.csv", oracle_within, _change_fingerprint),
], ids=["cfi-scaled", "cfi-fingerprint", "oracle-deviation",
        "oracle-swapped-rows", "oracle-fingerprint"])
def test_golden_within_rejects_perturbed(tmp_path, golden_name, accept,
                                         perturb):
    text = (GOLDEN / golden_name).read_text()
    assert_matches_golden(text, golden_name, accept)
    lines = text.split("\n")
    perturb(lines)
    copy = tmp_path / golden_name
    copy.write_text("\n".join(lines))
    with pytest.raises(AssertionError):
        assert_matches_golden(copy.read_text(), golden_name, accept)


def test_golden_moments_json(tmp_path):
    check_golden(tmp_path, "moments.json",
                 "moments", "--config", CONFIG_DISPLACED, "--steps", "3",
                 "--format", "json")


def test_golden_sweep(tmp_path):
    config = json.loads((GOLDEN / "sweep_config.json").read_text())
    config["output"] = str(tmp_path / "sweep_qfi.csv")
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config, indent=1, sort_keys=True))
    result = run_cli("sweep", "--config", str(cfg_path))
    assert result.returncode == 0, result.stderr
    got = (tmp_path / "sweep_qfi.csv").read_text().splitlines()
    want = (GOLDEN / "sweep_qfi.csv").read_text().splitlines()
    # header fingerprints differ (output path is part of the config)
    assert got[2:] == want[2:]


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        result = run_cli("nongauss", "--config", CONFIG, "--steps", "4",
                         "--out", str(out))
        assert result.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g0": 1.0, "coupling_strength": 2.0}')
    result = run_cli("drive-eval", "--config", str(bad))
    assert result.returncode == 2
    assert "coupling_strength" in result.stderr


def test_resolve_config_validations():
    with pytest.raises(ConfigError, match="optical"):
        resolve_config({"optical": "squeezed"})


def test_validate_sweep_unknown_name():
    data = {"command": "qfi", "model": {"g0": 1.0},
            "swept": {"name": "bogus", "start": 0, "stop": 1, "step": 0.5},
            "output": "x.csv"}
    with pytest.raises(ConfigError, match="swept.name"):
        validate_sweep_config(data)


def test_validate_only_flag(tmp_path):
    config = json.loads((GOLDEN / "sweep_config.json").read_text())
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    result = run_cli("sweep", "--config", str(cfg_path), "--validate-only")
    assert result.returncode == 0
    assert "ok" in result.stdout


@pytest.mark.parametrize("fmt", FORMATS)
def test_stdout_gets_the_bytes_of_the_output_file(fmt, tmp_path):
    # "--out -" and no --out both write to stdout what --out FILE writes
    out = tmp_path / f"drives.{fmt}"
    argv = [sys.executable, "-m", "optomech.cli", "drive-eval", "--config",
            CONFIG, "--steps", "5", "--format", fmt]
    written = [subprocess.run([*argv, *extra], capture_output=True,
                              env=child_env(), check=True).stdout
               for extra in (["--out", str(out)], ["--out", "-"], [])]
    assert written[0] == b""
    assert written[1] == written[2] == out.read_bytes()


# modulated coupling, cosine displacement and squeezing modulated at
# Omega = 2: no closed-form F catalog entry covers it
MISS_CONFIG = {"g0": 0.3, "epsilon": 0.4, "omega_g": 0.7,
               "d1": 0.2, "omega_d1": 0.6, "d2": 0.05, "omega_d2": 2.0,
               "mu_c_re": 1.0, "mu_m_re": 0.5}


def test_fingerprint_covers_cfi_n_max(tmp_path):
    headers = []
    for extra in ([], ["--n-max", "40"]):
        out = tmp_path / "cfi.csv"
        assert main(["cfi", "--config", CONFIG_DISPLACED, "--tau",
                     "6.283185307179586", *extra, "--out", str(out)]) == 0
        headers.append(out.read_text().splitlines()[1])
    # the default cut-off keeps the golden fingerprint
    assert headers[0] == (GOLDEN / "cfi.csv").read_text().splitlines()[1]
    assert headers[1] != headers[0]


def _read_rows(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or "," not in line or line[0].isalpha():
            continue
        rows.append([float(x) for x in line.split(",")])
    return rows


def test_nongauss_sweep_starts_and_ends_at_zero(tmp_path):
    data = {"command": "nongauss", "model": {"g0": 1.0, "mu_c_re": 1.0},
            "swept": {"name": "tau", "start": 0.0,
                      "stop": 2 * math.pi, "step": math.pi / 4},
            "fixed": {}, "output": str(tmp_path / "ng.csv"), "format": "csv"}
    cfg = tmp_path / "ng.json"
    cfg.write_text(json.dumps(data))
    result = run_cli("sweep", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    rows = _read_rows(tmp_path / "ng.csv")
    assert abs(rows[0][1]) < 1e-8
    assert abs(rows[-1][1]) < 1e-8
    assert max(r[1] for r in rows) > 1.0


def test_qfi_frequency_sweep_peaks_at_resonance(tmp_path):
    data = {"command": "qfi",
            "model": {"g0": 1.0, "epsilon": 0.5, "omega_g": 1.0, "mu_c_re": 1.0},
            "swept": {"name": "omega_g", "start": 0.1, "stop": 2.0, "step": 0.05},
            "fixed": {"param": "g0", "tau": 10 * math.pi},
            "output": str(tmp_path / "qfi.csv"), "format": "csv"}
    cfg = tmp_path / "qfi.json"
    cfg.write_text(json.dumps(data))
    result = run_cli("sweep", "--config", str(cfg))
    assert result.returncode == 0, result.stderr
    rows = _read_rows(tmp_path / "qfi.csv")
    best = max(rows, key=lambda r: r[1])
    assert abs(best[0] - 1.0) <= 0.1


def count_passes(monkeypatch):
    """Record the arguments of every coefficients.decoupled_pass."""
    passes = []
    decoupled_pass = coefficients.decoupled_pass

    def counted(*args, **kwargs):
        passes.append(args)
        return decoupled_pass(*args, **kwargs)

    monkeypatch.setattr(coefficients, "decoupled_pass", counted)
    return passes


def test_grid_commands_integrate_once_on_catalog_miss(tmp_path, monkeypatch):
    cfg = tmp_path / "miss.json"
    cfg.write_text(json.dumps(MISS_CONFIG))
    spec = model_from_config(resolve_config(MISS_CONFIG))
    tau_max, steps = 4 * math.pi, 21
    with pytest.raises(CatalogMiss):
        f_closed_form(spec, tau_max)

    # reference: F integrated afresh at every grid point
    mu_c, mu_m = MISS_CONFIG["mu_c_re"], MISS_CONFIG["mu_m_re"]
    sol = solve_subsystem(spec, tau_max + 1e-12)
    taus = np.linspace(0.0, tau_max, steps)
    moments_ref, nongauss_ref = [], []
    for t in taus:
        f = f_integrated(spec, sol, t)
        alpha, beta = sol.bogoliubov(t)
        m = evolve_moments(f, alpha, beta, mu_c, mu_m)
        moments_ref.append((t, m.a.real, m.a.imag, m.b.real, m.b.imag,
                            m.a2.real, m.a2.imag, m.b2.real, m.b2.imag,
                            m.adag_a, m.bdag_b, m.ab.real, m.ab.imag,
                            m.abdag.real, m.abdag.imag))
        # a stand-in trajectory that serves this point's own F
        point = SimpleNamespace(f=lambda _: f, bogoliubov=sol.bogoliubov)
        rep = report(spec, mu_c, mu_m, t, traj=point)
        nongauss_ref.append((t, rep.delta, rep.delta_min, rep.delta_max,
                             rep.nu_op, rep.nu_me))

    passes = count_passes(monkeypatch)
    for command, reference in (("moments", moments_ref),
                               ("nongauss", nongauss_ref)):
        passes.clear()
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg), "--tau-max", repr(tau_max),
                     "--steps", str(steps), "--out", str(out)]) == 0
        assert len(passes) == 1, command
        rows = np.array(_read_rows(out))
        assert rows.shape == (steps, len(reference[0]))
        assert np.max(np.abs(rows - np.array(reference))) <= 1e-8, command


def _nongauss_delta(spec, mu_c, mu_m, tau):
    """nongauss's delta solved and integrated afresh at tau, and its bound."""
    return report(spec, mu_c, mu_m, tau).delta, 1e-8


def _fd_qfi(spec, mu_c, mu_m, tau):
    """The finite_diff d2 QFI with its passes integrated afresh on [0, tau],
    and its relative budget as an absolute bound."""
    qfi = qfi_thermal(qfi_coefficients(spec, "d2", tau, mode="finite_diff"), mu_c)
    return qfi, finite_diff_qfi_budget(spec, "d2", tau) * abs(qfi)


@pytest.mark.parametrize("command, fixed, single, reference, n_passes", [
    pytest.param("nongauss", {}, ["--steps", "2", "--tau-max"],
                 _nongauss_delta, 1, id="nongauss"),
    # one stepped pass carries the values and their derivatives
    pytest.param("qfi", {"param": "d2", "mode": "finite_diff"},
                 ["--param", "d2", "--mode", "finite_diff", "--tau"], _fd_qfi,
                 1, id="qfi-finite-diff"),
])
def test_tau_sweep_integrates_once_on_catalog_miss(command, fixed, single,
                                                   reference, n_passes,
                                                   tmp_path, monkeypatch):
    spec = model_from_config(resolve_config(MISS_CONFIG))
    mu_c, mu_m = MISS_CONFIG["mu_c_re"], MISS_CONFIG["mu_m_re"]
    start, stop, step = 0.0, 4 * math.pi, math.pi / 4
    # reference: every swept tau solved and integrated afresh
    taus = [start + i * step for i in range(17)]
    expected = [reference(spec, mu_c, mu_m, t) for t in taus]

    passes = count_passes(monkeypatch)
    data = {"command": command, "model": MISS_CONFIG,
            "swept": {"name": "tau", "start": start, "stop": stop, "step": step},
            "fixed": fixed, "output": str(tmp_path / "sweep.csv"), "format": "csv"}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg), "--validate-only"]) == 0
    assert passes == []
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(passes) == n_passes
    rows = _read_rows(tmp_path / "sweep.csv")
    assert [row[0] for row in rows] == taus
    for row, (value, bound) in zip(rows, expected):
        assert abs(row[1] - value) <= bound, row
    assert rows[-1][1] == expected[-1][0]  # read at the end of the range
    # the last row is the value the command computes at that tau alone, on
    # as many passes; a sweep writes its first value column
    miss = tmp_path / "miss.json"
    miss.write_text(json.dumps(MISS_CONFIG))
    out = tmp_path / "single.csv"
    passes.clear()
    assert main([command, "--config", str(miss), *single, repr(taus[-1]),
                 "--out", str(out)]) == 0
    assert len(passes) == n_passes
    assert _read_rows(out)[-1][:2] == rows[-1]


@pytest.mark.parametrize("config, fixed", [
    pytest.param(MISS_CONFIG, {"param": "d2", "mode": "finite_diff"},
                 id="integrated"),
    pytest.param({"g0": 1.0, "mu_c_re": 1.0}, {"param": "g0"}, id="catalog"),
])
def test_qfi_route_is_decided_once_per_prepare(config, fixed, tmp_path,
                                               monkeypatch):
    # a tau sweep prepares once, and its rows reuse the route decided there
    routes = []
    qfi_route = metrology.qfi_route

    def counted(*args):
        routes.append(args)
        return qfi_route(*args)

    monkeypatch.setattr(metrology, "qfi_route", counted)
    data = {"command": "qfi", "model": config,
            "swept": {"name": "tau", "start": 0.0, "stop": 4 * math.pi,
                      "step": math.pi / 4},
            "fixed": fixed, "output": str(tmp_path / "sweep.csv"),
            "format": "csv"}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(_read_rows(tmp_path / "sweep.csv")) == 17
    assert len(routes) == 1


def test_catalog_qfi_row_evaluates_its_closed_form_once(tmp_path,
                                                        monkeypatch):
    # F is the real part of the complex call that gives dF: after the
    # prepare has decided the route, each row of a 17-point tau sweep calls
    # the entry once, and neither f_closed_form nor catalog_entry
    calls = {}

    def count(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (coefficients, metrology):
        for name in ("entry_f", "f_closed_form", "catalog_entry"):
            if hasattr(module, name):
                count(module, name)
    prepare = metrology.qfi_derivatives

    def prepared(*args, **kwargs):
        read = prepare(*args, **kwargs)
        calls.clear()  # the rows' calls alone from here on
        return read

    monkeypatch.setattr(metrology, "qfi_derivatives", prepared)
    data = {"command": "qfi", "model": {"g0": 1.0, "d1": 0.5, "mu_c_re": 1.0},
            "swept": {"name": "tau", "start": 0.0, "stop": 4 * math.pi,
                      "step": math.pi / 4},
            "output": str(tmp_path / "sweep.csv")}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(_read_rows(tmp_path / "sweep.csv")) == 17
    assert calls == {"entry_f": 17}


# Run in a fresh interpreter: prints the scipy modules loaded after importing
# the CLI and whether the library's stepper is, then the scipy modules loaded
# after each command in argv.
IMPORT_PROBE = """
import json, sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


from optomech.cli import main
report = {"scipy": scipy_modules(), "stepper": "optomech.dop853" in sys.modules,
          "after": []}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    report["after"].append(scipy_modules())
print(json.dumps(report))
"""


def test_closed_form_commands_do_not_import_scipy_integrate(tmp_path):
    # catalog misses integrate on the library's own stepper, so neither a
    # catalog hit nor a miss loads any SciPy module
    miss = tmp_path / "miss.json"
    miss.write_text(json.dumps(MISS_CONFIG))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "command": "qfi", "model": MISS_CONFIG, "output": str(tmp_path / "s.csv"),
        "swept": {"name": "tau", "start": 0.5, "stop": 1.0, "step": 0.5},
        "fixed": {"mode": "finite_diff"}}))
    out = ["--out", str(tmp_path / "out.csv")]
    hits = [["coeffs", "--config", CONFIG, "--steps", "5", *out],
            ["nongauss", "--config", CONFIG, "--steps", "5", *out],
            ["qfi", "--config", CONFIG, "--tau", "6.283185307179586", *out],
            ["gravimetry", "--table", *out],
            ["cfi", "--config", CONFIG_DISPLACED, "--tau", "6.283185307179586",
             *out]]
    misses = [[command, "--config", str(miss), "--steps", "3", *out]
              for command in ("drive-eval", "mechanics", "coeffs", "moments",
                              "nongauss")]
    misses += [["qfi", "--config", str(miss), "--tau", "1.0",
                "--mode", "finite_diff", *out],
               ["sweep", "--config", str(sweep)]]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(hits + misses)],
        capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["scipy"] == []
    assert report["stepper"] is False
    assert report["after"] == [[]] * len(hits + misses)


def test_constant_drive_oracle_loads_no_scipy(tmp_path):
    # the constant-drive oracle is a numpy Chebyshev pass, and modulated
    # drives run on the library's end-state DOP853 pass, so neither loads
    # any SciPy module
    miss = tmp_path / "miss.json"
    miss.write_text(json.dumps(MISS_CONFIG))
    out = ["--out", str(tmp_path / "out.csv")]
    commands = [["oracle-check", "--config", CONFIG, "--tau", "1.0", *out],
                ["oracle-check", "--config", str(miss), "--tau", "1.0", *out]]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["after"] == [[], []]


# Run in a fresh interpreter: runs the CLI as `python -m optomech.cli` does
# ("main") or as the console script does ("launch"), each with --help; calls
# main in-process ("call"), or only imports the module ("import"). Then
# prints OPENBLAS_NUM_THREADS and the process's thread count as the
# interpreter exits.
PIN_PROBE = """
import atexit, json, os, runpy, sys


def report():
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
    print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))


atexit.register(report)
how, sys.argv[1:] = sys.argv[1], ["--help"]
if how == "main":
    runpy.run_module("optomech.cli", run_name="__main__")
elif how == "launch":
    from optomech.cli import launch
    launch()
elif how == "call":
    from optomech.cli import main
    main(["--help"])
else:
    import optomech.cli
"""


def _uses_openblas():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _uses_openblas(),
                    reason="reads /proc/self/status; pins OpenBLAS only")
@pytest.mark.parametrize("how, preset, expected", [
    ("main", None, ["1", 1]),
    ("main", "2", ["2", None]),
    ("import", None, [None, None]),
    ("launch", None, ["1", 1]),
    ("launch", "2", ["2", None]),
    ("call", None, [None, None]),
])
def test_cli_main_pins_one_blas_thread(how, preset, expected):
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run([sys.executable, "-c", PIN_PROBE, how],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    variable, threads = json.loads(result.stdout.splitlines()[-1])
    assert variable == expected[0]
    if expected[1] is not None:
        assert threads == expected[1]


def test_console_script_is_the_launcher():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"optomech": "optomech.cli:launch"}


# Run in a fresh interpreter: runs the CLI as `python -m optomech.cli` does
# with the arguments after "main", or only imports it ("import"), then prints
# whether numpy is loaded and which optomech submodules have run, as the
# interpreter exits; only plain modules count as run
LOADED_PROBE = """
import atexit, importlib, json, runpy, sys, types


def report():
    ran = sorted(name for name, module in sys.modules.items()
                 if (name == "numpy" or name.startswith("optomech."))
                 and type(module) is types.ModuleType)
    print(json.dumps({"ran": ran}))


atexit.register(report)
if sys.argv[1] == "main":
    sys.argv[1:] = sys.argv[2:]
    runpy.run_module("optomech.cli", run_name="__main__")
else:
    importlib.import_module(sys.argv[1])
"""

LAYERS = {f"optomech.{name}" for name in (
    "mechanics", "coefficients", "moments", "nongaussianity", "metrology",
    "oracle", "dop853")}


def modules_loaded_by(*argv):
    """The modules that ran in a fresh interpreter that either runs the CLI
    on ``argv[1:]`` (argv[0] == "main") or imports the module argv[0]."""
    result = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1])["ran"])


@pytest.mark.parametrize("argv", [["main", "--help"], ["optomech.cli"]])
def test_help_and_import_load_no_numpy(argv):
    assert not {"numpy", *LAYERS} & modules_loaded_by(*argv)


# Run in a fresh interpreter: imports the CLI, then the layer modules, then
# calls one array path, and reports what sys.modules holds after each step
LIBRARY_PROBE = """
import json, sys, types


def state():
    entries = {name: module for name, module in sys.modules.items()
               if name == "numpy" or name.startswith("optomech.")}
    return ["numpy" in entries,
            all(type(module) is types.ModuleType for module in entries.values())]


import optomech.cli
steps = [state()]
from optomech import coefficients, mechanics, metrology, moments
steps.append(state())
moments.symplectic_eigenvalues([[3.0, 0.0], [0.0, 3.0]])
steps.append(state())
print(json.dumps(steps))
"""


def test_library_import_loads_no_numpy():
    # the CLI puts no stand-in modules into sys.modules, and the layer
    # modules import numpy inside the functions that build arrays, so the
    # library loads numpy on its first array and not before
    result = subprocess.run([sys.executable, "-c", LIBRARY_PROBE],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[False, True], [False, True],
                                         [True, True]]


# a coupling g0 (1 + eps sin(tau)): the 'resonant-g' catalog entry, whose
# closed forms, like the omega_g sweep's 'modulated-g', run on math alone
RESONANT_G_MODEL = {"g0": 0.5, "epsilon": 0.5, "omega_g": 1.0,
                    "mu_c_re": 1.0, "mu_m_re": 0.5}
# constant coupling, displacement and squeezing: the 'all-constant' entry,
# whose subsystem is the constant-squeezing closed form
CONSTANT_D2_MODEL = {"g0": 0.6, "d1": 0.3, "d2": 0.05,
                     "mu_c_re": 1.0, "mu_m_re": 0.5}


# a catalog hit computes on closed forms and loads no stepper
HIT = {"numpy", "optomech.oracle", "optomech.dop853"}


@pytest.mark.parametrize("argv, ran, not_ran", [
    (["drive-eval", "--config", CONFIG, "--steps", "3"], set(),
     {"numpy", *LAYERS}),
    (["gravimetry", "--table"], {"optomech.metrology"}, HIT),
    (["qfi", "--config", CONFIG], {"optomech.metrology"}, HIT),
    (["cfi", "--config", CONFIG_DISPLACED], {"numpy", "optomech.oracle"},
     {"optomech.dop853"}),
    (["qfi", "--config", RESONANT_G_MODEL, "--tau", repr(10 * math.pi)],
     {"optomech.metrology"}, HIT),
    (["qfi", "--config", RESONANT_G_MODEL, "--sweep", "omega_g",
      "0.3:0.5:0.1"], {"optomech.metrology"}, HIT),
    # the grid commands on a catalog hit without squeezing, and the epsilon
    # QFI's complex step through its closed form, are scalar arithmetic on
    # math and cmath
    (["mechanics", "--config", CONFIG, "--steps", "3"],
     {"optomech.mechanics"}, HIT),
    (["coeffs", "--config", CONFIG, "--steps", "3"],
     {"optomech.coefficients"}, HIT),
    (["moments", "--config", CONFIG, "--steps", "3"],
     {"optomech.moments"}, HIT),
    (["qfi", "--config", RESONANT_G_MODEL, "--param", "epsilon"],
     {"optomech.metrology"}, HIT),
    # a catalog miss integrates its pass on lists, without numpy
    (["moments", "--config", MISS_CONFIG, "--steps", "3"],
     {"optomech.moments", "optomech.dop853"}, {"numpy", "optomech.oracle"}),
    (["mechanics", "--config", MISS_CONFIG, "--steps", "3"],
     {"optomech.mechanics", "optomech.dop853"}, {"numpy", "optomech.oracle"}),
    # so do they with a constant squeezing: one closed form, at zeta != 1
    (["mechanics", "--config", CONSTANT_D2_MODEL, "--steps", "3"],
     {"optomech.mechanics"}, HIT),
    (["moments", "--config", CONSTANT_D2_MODEL, "--steps", "3"],
     {"optomech.moments"}, HIT),
    (["coeffs", "--config", CONSTANT_D2_MODEL, "--steps", "3"],
     {"optomech.coefficients"}, HIT),
    # so is that complex step in mode finite_diff
    (["qfi", "--config", RESONANT_G_MODEL, "--param", "epsilon",
      "--mode", "finite_diff"], {"optomech.metrology"}, HIT),
    (["coeffs", "--config", MISS_CONFIG, "--steps", "3"],
     {"optomech.coefficients", "optomech.dop853"},
     {"numpy", "optomech.oracle"}),
    # the stepped pass too
    (["qfi", "--config", MISS_CONFIG, "--param", "g0", "--mode",
      "finite_diff"], {"optomech.metrology", "optomech.dop853"},
     {"numpy", "optomech.oracle"}),
    # numpy serves nongauss's symplectic spectrum and oracle-check's
    # truncated state
    (["nongauss", "--config", MISS_CONFIG, "--steps", "3"],
     {"numpy", "optomech.nongaussianity", "optomech.dop853"},
     {"optomech.oracle"}),
    (["oracle-check", "--config", CONFIG, "--tau", "1.0"],
     {"numpy", "optomech.oracle"}, set()),
])
def test_command_runs_only_the_layers_it_uses(tmp_path, argv, ran, not_ran):
    # cfi, nongauss and oracle-check are the controls: they do run numpy and
    # the probe sees it. A dict in argv is a config, written to a file.
    config = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    loaded = modules_loaded_by("main", *argv, "--out", str(tmp_path / "o.csv"))
    assert ran <= loaded
    assert not not_ran & loaded


@pytest.mark.parametrize("steps", [1, 2, 3, 101, 201, 10001])
@pytest.mark.parametrize("tau_max", [0.0, 5e-324, 1e-300, 1.0, 4 * math.pi,
                                     1e308])
def test_tau_grid_is_linspace_bit_for_bit(tau_max, steps):
    grid = _tau_grid(SimpleNamespace(tau_max=tau_max, steps=steps))
    assert (np.asarray(grid).tobytes()
            == np.linspace(0.0, tau_max, steps).tobytes())


@pytest.mark.parametrize("grid", ["1:2", "a:b:c", "1:0:0.1", "0:nan:1",
                                  "0:inf:1", "nan:1:1", "0:1:inf",
                                  # more points than MAX_SWEEP_POINTS, or a
                                  # count that overflows: no list is built
                                  "0:1000000:1", "0:1:1e-7", "0:1e308:1e-10"])
def test_malformed_sweep_range_is_a_config_error(grid, capsys):
    assert main(["qfi", "--config", CONFIG, "--sweep", "g0", grid]) == 2
    assert capsys.readouterr().err.startswith("error: sweep range")


@pytest.mark.parametrize("dims", ["5", "5,x", "0,10"])
def test_malformed_oracle_dims_are_a_config_error(dims, capsys):
    assert main(["oracle-check", "--config", CONFIG, "--dims", dims]) == 2
    assert capsys.readouterr().err.startswith(f"error: dims '{dims}'")


@pytest.mark.parametrize("argv", [
    ["mechanics", "--tau-max", "-1"], ["coeffs", "--tau-max", "-1"],
    ["moments", "--tau-max", "-1"], ["nongauss", "--tau-max", "-1"],
    ["qfi", "--mode", "finite_diff", "--tau", "-1"],
    ["oracle-check", "--tau", "-1"],
    # nor after any finite time
    ["qfi", "--tau", "nan"], ["qfi", "--tau", "inf"],
    ["coeffs", "--tau-max", "inf"], ["drive-eval", "--tau-max", "nan"],
    ["oracle-check", "--tau", "nan"],
])
def test_negative_tau_is_a_config_error(argv, capsys):
    # a catalog hit: every value has a closed form, yet the evolution
    # starts at tau = 0 and nothing before it is read
    assert main([*argv[:1], "--config", CONFIG, *argv[1:]]) == 2
    expected = "must be >= 0" if argv[-1] == "-1" else "must be finite"
    assert capsys.readouterr().err.startswith(f"error: tau {expected}")


@pytest.mark.parametrize("swept, fixed", [
    ({"name": "tau", "start": -2.0, "stop": 1.0, "step": 1.0}, {}),
    ({"name": "g0", "start": 0.5, "stop": 1.0, "step": 0.5}, {"tau": -1.0}),
])
def test_negative_tau_in_a_sweep_config_is_a_config_error(swept, fixed, tmp_path):
    data = {"command": "nongauss", "model": {"g0": 1.0, "mu_c_re": 1.0},
            "swept": swept, "fixed": fixed,
            "output": str(tmp_path / "ng.csv")}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="tau must be >= 0"):
        validate_sweep_config(data)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert not (tmp_path / "ng.csv").exists()


CFI_MODEL = {"g0": 1.0, "d1": 1.0, "mu_c_re": 1.0}


TAU_SWEEP = {"name": "tau", "start": 1.0, "stop": 2.0, "step": 1.0}
# in the catalog, with constant drives: the omega_g derivative at
# omega_g = 0 goes to the pass, which mode analytic refuses
ROUTE_MODEL = {"g0": 1.0, "d1": 0.5, "mu_c_re": 1.0}
# constant squeezing with 1 + 4 d2 <= 0: the subsystem has no bounded solution
UNSTABLE_MODEL = {"g0": 1, "d2": -0.3, "mu_c_re": 1}
UNSTABLE = "constant squeezing d2=-0.3 gives 1+4*d2 <= 0"
FABRY_PEROT = {"kind": "fabry-perot", "length": 1e-5, "mass": 1e-6,
               "omega_c": 1e14, "omega_m": 1e3}

GOLDEN_MODEL = {"g0": 1.0, "mu_c_re": 1.0}  # tests/golden/config.json
# values past the float range, refused after the arithmetic that overflows
# (so no prepare sees them) and before any output is written
OVERFLOW_INPUT = [
    pytest.param(["qfi", "--tau", "1.3e154"], GOLDEN_MODEL,
                 "qfi overflows at tau=1.3e+154: ", id="overflow-qfi-tau"),
    # sums and products past the float range, which Python's float
    # arithmetic makes inf, or nan once multiplied by 0, without raising
    pytest.param(["qfi", "--tau", "1.2e153"], GOLDEN_MODEL,
                 "qfi overflows at tau=1.2e+153: a value is inf",
                 id="overflow-qfi-sum"),
    pytest.param(["cfi", "--tau", "1e154"], CFI_MODEL,
                 "cfi overflows at tau=1e+154: a value is inf",
                 id="overflow-cfi-product"),
    pytest.param(["coeffs", "--steps", "2"],
                 {**GOLDEN_MODEL, "g0": 1e150, "d1": 1e158},
                 "coeffs overflows at tau=0.0: a value is nan",
                 id="overflow-coeffs-product"),
    pytest.param(["moments", "--tau-max", "8e307", "--steps", "2"],
                 GOLDEN_MODEL, "moments overflows at tau=8e+307: the phases",
                 id="overflow-moments-tau"),
    pytest.param(["nongauss", "--tau-max", "8e307", "--steps", "2"],
                 GOLDEN_MODEL, "nongauss overflows at tau=8e+307: the phases",
                 id="overflow-nongauss-tau"),
    # finite phases whose float spacing alone moves a moment by more than
    # STRICT's rtol: past 2^55 it exceeds 2 pi, an arbitrary phase
    pytest.param(["moments", "--tau-max", "1e17", "--steps", "2"],
                 GOLDEN_MODEL, "moments overflows at tau=1e+17: the phases",
                 id="overflow-moments-phase-spacing"),
    pytest.param(["nongauss", "--tau-max", "1e17", "--steps", "2"],
                 GOLDEN_MODEL, "nongauss overflows at tau=1e+17: the phases",
                 id="overflow-nongauss-phase-spacing"),
    # a modulated coupling in the catalog: oracle-check reaches the phases,
    # which no Chebyshev term count refuses first
    pytest.param(["oracle-check", "--tau", "1e17"],
                 {**GOLDEN_MODEL, "epsilon": 0.5, "omega_g": 0.7},
                 "oracle-check overflows at tau=1e+17: the phases",
                 id="overflow-oracle-check-phase-spacing"),
    # a deviation of nan is refused, not written as one within --tolerance
    pytest.param(["oracle-check", "--tau", "1", "--dims", "4,12"],
                 {"g0": -1e154}, "oracle-check overflows at tau=1.0: a value "
                 "is nan", id="overflow-oracle-check-nan-deviation"),
    # photon weights and reduced states past the float range: eigh would
    # turn the latter into a finite CFI
    pytest.param(["cfi", "--n-max", "24", "--tau", "100"], {"g0": -1e154},
                 "cfi overflows at tau=100.0: a photon weight passes the "
                 "float range", id="overflow-cfi-weights"),
    # a quadrature angle lambda - 2 g0 Im(eta mu_m) formed from terms whose
    # float spacing alone moves the CFI past its rtol (at g0 = 0 mu_m turns
    # nothing: test_cfi_zero_coupling)
    pytest.param(["cfi", "--n-max", "24"], {"g0": 1.0, "mu_m_im": 1e300},
                 "cfi overflows at tau=6.283185307179586: the quadrature angle "
                 "1.5707963267948966, formed from terms up to 2e+300, has a "
                 "float spacing past what rtol 1e-10 allows at |mu_c|^2 = 0.0",
                 id="overflow-cfi-state"),
    pytest.param(["cfi", "--tau", "1"], {"mu_m_im": 1e7, "mu_c_re": 1, "g0": 1},
                 "cfi overflows at tau=1.0: the quadrature angle "
                 "-9193952.311840877, formed from terms up to 20000000.0",
                 id="overflow-cfi-angle"),
    pytest.param(["coeffs", "--tau-max", "1e308", "--steps", "2"],
                 GOLDEN_MODEL, "coeffs overflows at tau=1e+308: sinc of inf",
                 id="overflow-coeffs-tau"),
    pytest.param(["cfi", "--tau", "1e200"], CFI_MODEL,
                 "cfi overflows at tau=1e+200: ", id="overflow-cfi-tau"),
    *(pytest.param([command], {**GOLDEN_MODEL, "g0": 1e160},
                   f"{command} overflows at tau=", id=f"overflow-{command}-g0")
      for command in ("coeffs", "nongauss", "qfi")),
    pytest.param(["qfi", "--sweep", "g0", "1e150:1e160:1e159"], GOLDEN_MODEL,
                 "qfi overflows at g0=1.000000001e+159, tau=6.283185307179586",
                 id="overflow-qfi-g0-sweep"),
    # a squeezing whose rates overflow: the decoupled pass's step underflows
    # at its start, and IntegrationError names it; the command names the
    # range the pass integrates
    pytest.param(["coeffs"], {**GOLDEN_MODEL, "d2": -1e300, "omega_d2": 1e6},
                 "coeffs cannot integrate over [0, 6.283185307179586]: "
                 "decoupled-solution integration failed near tau=0: Required "
                 "step size is less than spacing between numbers.",
                 id="overflow-coeffs-integration"),
    pytest.param(["qfi", "--param", "omega_g", "--mode", "finite_diff"],
                 {**GOLDEN_MODEL, "d2": 1e300},
                 "qfi cannot integrate over [0, 6.283185307179586]: "
                 "decoupled-solution integration failed near tau=0: Required "
                 "step size is less than spacing between numbers.",
                 id="overflow-qfi-fd-integration"),
    # a constant squeezing whose closed form overflows: the Bogoliubov pair
    # it gives is refused as a domain error (ValueError)
    *(pytest.param(["coeffs", "--steps", "3"], config,
                   "coeffs has no valid value at tau=3.141592653589793: "
                   "|alpha|^2 - |beta|^2 = 0.0, not a Bogoliubov pair",
                   id=f"overflow-coeffs-bogoliubov-{name}")
      for name, config in (("d2", {"d2": 1e300}),
                           ("d1-d2", {"d1": -1e300, "d2": 1e300}))),
    # a dimensionful QFI of inf would write a delta_g of 0
    pytest.param(["gravimetry", "--table", "--photons", "1e300"], FABRY_PEROT,
                 "gravimetry overflows at tau=6.283185307179586: the "
                 "dimensionful QFI is inf", id="overflow-gravimetry-table"),
    pytest.param(["gravimetry", "--photons", "1e300"], FABRY_PEROT,
                 "gravimetry overflows at tau=6.283185307179586: the "
                 "dimensionful QFI is inf", id="overflow-gravimetry-setup"),
]

# (argv, config, message): argv[0] is the command, the config file holds
# json.dumps(config), or config itself when it is a str, and is missing when
# config is None (gravimetry then names no --setup); a sweep config without
# an "output" field gets one. {path}
# in the message stands for the config file's path, and {tmp} in argv, the
# config or the message for the test's temporary directory.
REJECTED_INPUT = [
    pytest.param(["cfi"], {**CFI_MODEL, "d2": 0.3, "omega_g": 0.7,
                           "epsilon": 0.5},
                 "cfi needs a constant coupling", id="cfi-modulated"),
    pytest.param(["cfi"], {**CFI_MODEL, "omega_d1": 0.5},
                 "cfi needs a constant coupling", id="cfi-displacement-drive"),
    pytest.param(["cfi"], {**CFI_MODEL, "d2": 0.1}, "cfi needs d2 = 0",
                 id="cfi-squeezed"),
    pytest.param(["cfi"], {**CFI_MODEL, "optical": "fock"},
                 "cfi requires coherent", id="cfi-fock"),
    pytest.param(["cfi"], {**CFI_MODEL, "mechanical": "thermal"},
                 "cfi requires coherent", id="cfi-thermal"),
    pytest.param(["sweep"], {"command": "cfi", "model": {**CFI_MODEL, "d2": 0.1},
                             "swept": TAU_SWEEP},
                 "cfi needs d2 = 0", id="cfi-sweep-squeezed"),
    pytest.param(["cfi", "--n-max", "0"], CFI_MODEL, "--n-max must be >= 1",
                 id="n-max-zero"),
    # a cut-off that drops more of the input than cfi_homodyne's warning
    # bound, refused before computing; at |mu_c| = 30 the mass is formed
    # without underflow
    pytest.param(["cfi", "--n-max", "2"], CFI_MODEL,
                 "--n-max 2 cuts a photon tail mass 2.64e-01 off the input, "
                 "above 1e-10; increase --n-max", id="n-max-tail"),
    pytest.param(["cfi", "--n-max", "1000"], {**CFI_MODEL, "mu_c_re": 30.0},
                 "--n-max 1000 cuts a photon tail mass 5.50e-04 off the input",
                 id="n-max-tail-large-amplitude"),
    # a cut-off whose dense state would pass the cap's memory bound, given or
    # the default at a large amplitude, refused before anything is built
    pytest.param(["cfi", "--n-max", "1000000000"], CFI_MODEL,
                 "--n-max 1000000000 exceeds the cap 2896, above which cfi's "
                 "dense state passes 128 MiB", id="n-max-cap"),
    pytest.param(["cfi"], {**CFI_MODEL, "mu_c_re": 1000.0},
                 "the default --n-max 1010020 exceeds the cap 2896",
                 id="n-max-default-cap"),
    pytest.param(["sweep", "--validate-only"],
                 {"command": "cfi", "model": {**CFI_MODEL, "mu_c_re": 1000.0},
                  "swept": TAU_SWEEP},
                 "the default --n-max 1010020 exceeds the cap 2896",
                 id="validate-n-max-default-cap"),
    # a sweep document sets no cut-off
    pytest.param(["sweep"], {"command": "cfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"n_max": 2}},
                 "unknown config field 'fixed.n_max'", id="sweep-fixed-n-max"),
    pytest.param(["coeffs", "--steps", "0"], CFI_MODEL, "--steps must be >= 1",
                 id="steps-zero"),
    pytest.param(["drive-eval", "--steps", "-1"], CFI_MODEL,
                 "--steps must be >= 1", id="steps-negative"),
    # a grid of more than MAX_SWEEP_POINTS, refused before its list is built
    pytest.param(["coeffs", "--steps", "1000001"], CFI_MODEL,
                 "--steps must be >= 1 and <= 1000000, got 1000001",
                 id="steps-over-cap"),
    pytest.param(["qfi", "--param", "bogus"], CFI_MODEL,
                 "unknown parameter id 'bogus'", id="qfi-unknown-param"),
    pytest.param(["coeffs"], {"g0": 1.0, "omega_g": -1},
                 "drive frequency must be >= 0", id="negative-frequency"),
    pytest.param(["moments"], {**CFI_MODEL, "optical": "fock", "fock_n": 0},
                 "Fock superposition requires n >= 1", id="fock-zero"),
    # a Fock level is a finite integer, whichever optical input is chosen
    pytest.param(["qfi"], {**CFI_MODEL, "fock_n": math.inf},
                 "field 'fock_n' must be an integer, got inf",
                 id="fock-n-infinite"),
    pytest.param(["moments"], {**CFI_MODEL, "optical": "fock", "fock_n": 2.5},
                 "field 'fock_n' must be an integer, got 2.5",
                 id="fock-n-fraction"),
    pytest.param(["sweep", "--validate-only"],
                 {"command": "qfi", "model": CFI_MODEL,
                  "swept": {"name": "g0", "start": 1.0, "stop": 0.0,
                            "step": 0.1}},
                 "sweep range '1.0:0.0:0.1' is empty", id="sweep-empty-range"),
    # --validate-only refuses what the run refuses
    pytest.param(["sweep", "--validate-only"],
                 {"command": "cfi", "model": {**CFI_MODEL, "d2": 0.1},
                  "swept": TAU_SWEEP},
                 "cfi needs d2 = 0", id="validate-cfi-squeezed"),
    pytest.param(["sweep", "--validate-only"],
                 {"command": "qfi", "model": {"g0": 1.0, "omega_g": -1},
                  "swept": TAU_SWEEP},
                 "drive frequency must be >= 0",
                 id="validate-negative-frequency"),
    pytest.param(["sweep", "--validate-only"],
                 {"command": "qfi", "model": CFI_MODEL,
                  "swept": {"name": "omega_g", "start": -1.0, "stop": 1.0,
                            "step": 1.0}},
                 "drive frequency must be >= 0",
                 id="validate-swept-negative-frequency"),
    pytest.param(["sweep"],
                 {"command": "nongauss",
                  "model": {**CFI_MODEL, "mechanical": "thermal"},
                  "swept": TAU_SWEEP},
                 "the non-Gaussianity measure requires pure",
                 id="sweep-nongauss-thermal"),
    # the QFI takes a coherent optical input, the oracle coherent x coherent
    pytest.param(["qfi"], {"g0": 0.5, "optical": "fock", "fock_n": 3},
                 "qfi requires coherent x coherent or thermal input",
                 id="qfi-fock"),
    pytest.param(["sweep", "--validate-only"],
                 {"command": "qfi",
                  "model": {"g0": 0.5, "optical": "fock", "fock_n": 3},
                  "swept": TAU_SWEEP},
                 "qfi requires coherent x coherent or thermal input",
                 id="validate-qfi-fock"),
    pytest.param(["oracle-check"], {**CFI_MODEL, "mechanical": "thermal"},
                 "oracle-check requires coherent x coherent input",
                 id="oracle-thermal"),
    pytest.param(["oracle-check"], {**CFI_MODEL, "optical": "fock"},
                 "oracle-check requires coherent x coherent input",
                 id="oracle-fock"),
    # a sweep's fields and fixed settings are checked like config fields
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"parm": "d1"}},
                 "unknown config field 'fixed.parm'", id="sweep-fixed-typo"),
    pytest.param(["sweep"], {"command": "cfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"param": "d1"}},
                 "unknown config field 'fixed.param'",
                 id="sweep-fixed-other-command"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "formt": "csv"},
                 "unknown config field 'formt'", id="sweep-unknown-field"),
    pytest.param(["sweep"], {"command": "qfi", "model": [CFI_MODEL],
                             "swept": TAU_SWEEP},
                 "model must be a JSON object", id="sweep-model-list"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL},
                 "missing config field 'swept'", id="sweep-missing-swept"),
    pytest.param(["qfi", "--sweep", "foo", "0:1:0.5"], CFI_MODEL,
                 "unknown swept name 'foo'", id="qfi-sweep-unknown-name"),
    pytest.param(["qfi", "--sweep", "g0", "0:1:0"], CFI_MODEL,
                 "sweep step must be > 0", id="qfi-sweep-zero-step"),
    pytest.param(["gravimetry"], None, "provide --setup JSON or --table",
                 id="gravimetry-no-setup"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": {**TAU_SWEEP, "stpe": 1.0}},
                 "unknown config field 'swept.stpe'",
                 id="sweep-unknown-swept-field"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"param": "bogus"}},
                 "unknown parameter id 'bogus'", id="sweep-fixed-param"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"mode": "nonsense"}},
                 "field 'mode' must be one of", id="sweep-fixed-mode"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "format": "xml"},
                 "field 'format' must be one of", id="sweep-format"),
    # non-numeric values
    pytest.param(["sweep"], {"command": "nongauss", "model": CFI_MODEL,
                             "swept": {"name": "g0", "start": 0.5,
                                       "stop": 1.0, "step": 0.5},
                             "fixed": {"tau": "abc"}},
                 "field 'tau' must be a number", id="sweep-fixed-tau-text"),
    pytest.param(["sweep"], {"command": "cfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"lambda": "abc"}},
                 "field 'lambda' must be a number",
                 id="sweep-fixed-lambda-text"),
    pytest.param(["sweep"], {"command": "cfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"lambda": [1]}},
                 "field 'lambda' must be a number",
                 id="sweep-fixed-lambda-list"),
    pytest.param(["sweep"], {"command": "qfi", "model": {"g0": "abc"},
                             "swept": TAU_SWEEP},
                 "field 'g0' must be a number", id="sweep-model-text"),
    pytest.param(["qfi"], {"g0": "abc"}, "field 'g0' must be a number",
                 id="model-text"),
    pytest.param(["qfi"], {"g0": True}, "field 'g0' must be a number",
                 id="model-bool"),
    # input files that cannot be read
    pytest.param(["qfi"], None, "cannot read '{path}': [Errno 2]",
                 id="config-missing"),
    pytest.param(["qfi"], '{"g0": 1.0', "cannot read '{path}': Expecting",
                 id="config-malformed"),
    pytest.param(["qfi"], [1.0], "'{path}' does not hold a JSON object",
                 id="config-not-object"),
    pytest.param(["sweep"], ["qfi"], "'{path}' does not hold a JSON object",
                 id="sweep-config-not-object"),
    pytest.param(["gravimetry"], {**FABRY_PEROT, "kind": "bogus"},
                 "field 'kind' must be one of", id="setup-unknown-kind"),
    pytest.param(["gravimetry"], {k: v for k, v in FABRY_PEROT.items()
                                  if k != "kind"},
                 "field 'kind' must be one of", id="setup-missing-kind"),
    pytest.param(["gravimetry"], {**FABRY_PEROT, "lenght": 1e-5},
                 "setup: ", id="setup-unknown-field"),
    pytest.param(["gravimetry"], [FABRY_PEROT],
                 "'{path}' does not hold a JSON object", id="setup-not-object"),
    # the cavity frequency drops out of every result, so it must be 0
    pytest.param(["qfi"], {"g0": 1, "mu_c_re": 1, "omega_c_ratio": 0.5},
                 "field 'omega_c_ratio' must be 0, got 0.5",
                 id="omega-c-ratio"),
    # output targets that cannot be written, refused before computing
    pytest.param(["qfi", "--out", "{tmp}/no-such-dir/x.csv"], CFI_MODEL,
                 "cannot write '{tmp}/no-such-dir/x.csv': no directory",
                 id="out-missing-dir"),
    pytest.param(["oracle-check", "--out", "{tmp}/no-such-dir/x.csv"],
                 CFI_MODEL,
                 "cannot write '{tmp}/no-such-dir/x.csv': no directory",
                 id="oracle-out-missing-dir"),
    pytest.param(["coeffs", "--out", "{tmp}"], CFI_MODEL,
                 "cannot write '{tmp}': it is a directory", id="out-directory"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": TAU_SWEEP,
                             "output": "{tmp}/no-such-dir/x.csv"},
                 "cannot write '{tmp}/no-such-dir/x.csv': no directory",
                 id="sweep-output-missing-dir"),
    pytest.param(["sweep"], {"command": "nongauss", "model": CFI_MODEL,
                             "swept": TAU_SWEEP, "output": 99},
                 "field 'output' must be a string, got 99",
                 id="sweep-output-number"),
    # a qfi parameter, mode and model without a derivative route, refused
    # from the drives before any value is computed
    pytest.param(["sweep"], {"command": "qfi", "model": ROUTE_MODEL,
                             "swept": TAU_SWEEP, "fixed": {"param": "omega_g"}},
                 "no analytic derivative route for parameter 'omega_g'",
                 id="sweep-qfi-analytic-frequency"),
    pytest.param(["sweep"], {"command": "qfi",
                             "model": {"g0": 1.0, "d2": 0.1, "mu_c_re": 1.0},
                             "swept": TAU_SWEEP},
                 "no analytic derivative route for parameter 'g0' at 1.0: "
                 "the catalog does not cover a squeezing term; use mode "
                 "finite_diff", id="sweep-qfi-g0-squeezed"),
    # d2 moves a squeezing term on: the pass is its one route
    pytest.param(["qfi", "--param", "d2"],
                 {"g0": 1.0, "d2": 0.1, "mu_c_re": 1.0},
                 "no analytic derivative route for parameter 'd2' at 0.1: "
                 "the catalog does not cover a squeezing term",
                 id="qfi-analytic-d2"),
    pytest.param(["sweep"], {"command": "qfi",
                             "model": {"g0": 1.0, "d2": 0.1, "mu_c_re": 1.0},
                             "swept": TAU_SWEEP, "fixed": {"param": "d2"}},
                 "no analytic derivative route for parameter 'd2' at 0.1: "
                 "the catalog does not cover a squeezing term",
                 id="sweep-qfi-analytic-d2"),
    pytest.param(["sweep"], {"command": "qfi",
                             "model": {"g0": 0.0, "epsilon": 0.3,
                                       "omega_g": 0.7, "d1": 0.5,
                                       "mu_c_re": 1.0},
                             "swept": TAU_SWEEP},
                 "no analytic derivative route for parameter 'g0' at 0.0: "
                 "the closed-form F catalog misses the model near it",
                 id="sweep-qfi-catalog-variant-miss"),
    pytest.param(["qfi", "--param", "omega_g"], ROUTE_MODEL,
                 "no analytic derivative route for parameter 'omega_g'",
                 id="qfi-analytic-frequency"),
    pytest.param(["qfi", "--param", "d2", "--mode", "finite_diff"],
                 UNSTABLE_MODEL, UNSTABLE, id="qfi-stencil-unstable"),
    # every command that solves the subsystem refuses an unstable squeezing
    # from the drives, before computing
    *(pytest.param([command], UNSTABLE_MODEL, UNSTABLE, id=f"{command}-unstable")
      for command in ("mechanics", "coeffs", "moments", "nongauss",
                      "oracle-check")),
    pytest.param(["sweep"], {"command": "nongauss", "model": UNSTABLE_MODEL,
                             "swept": TAU_SWEEP},
                 UNSTABLE, id="sweep-nongauss-unstable"),
    # non-finite numbers, refused before any arithmetic
    pytest.param(["qfi", "--tau", "nan"], CFI_MODEL,
                 "tau must be finite, got nan", id="qfi-tau-nan"),
    pytest.param(["coeffs", "--tau-max", "inf"], CFI_MODEL,
                 "tau must be finite, got inf", id="coeffs-tau-max-inf"),
    pytest.param(["oracle-check", "--tau", "nan"], CFI_MODEL,
                 "tau must be finite, got nan", id="oracle-tau-nan"),
    pytest.param(["sweep"], {"command": "nongauss", "model": CFI_MODEL,
                             "swept": {"name": "g0", "start": 0.5,
                                       "stop": 1.0, "step": 0.5},
                             "fixed": {"tau": math.nan}},
                 "tau must be finite, got nan", id="sweep-fixed-tau-nan"),
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": {**TAU_SWEEP, "stop": math.inf}},
                 "sweep range '1.0:inf:1.0' has a field that is not finite",
                 id="sweep-range-inf"),
    # a range whose point count overflows, or passes the ceiling, refused
    # before its list is built
    pytest.param(["sweep"], {"command": "qfi", "model": CFI_MODEL,
                             "swept": {"name": "g0", "start": -1e308,
                                       "stop": 1e308, "step": 1.0}},
                 "sweep range '-1e+308:1e+308:1.0' holds more than 1000000 "
                 "points", id="sweep-range-overflow"),
    pytest.param(["gravimetry", "--photons", "nan"], FABRY_PEROT,
                 "--photons must be finite and >= 0, got nan",
                 id="photons-nan"),
    pytest.param(["gravimetry", "--photons", "-1"], FABRY_PEROT,
                 "--photons must be finite and >= 0, got -1.0",
                 id="photons-negative"),
    pytest.param(["cfi", "--quadrature-angle", "nan"], CFI_MODEL,
                 "lambda must be finite, got nan", id="cfi-angle-nan"),
    pytest.param(["oracle-check", "--tolerance", "nan"], CFI_MODEL,
                 "--tolerance must be finite and > 0, got nan",
                 id="oracle-tolerance-nan"),
    # the truncation the oracle would need exceeds its cap
    pytest.param(["oracle-check"], {"g0": 3, "mu_c_re": 4},
                 "parameters need N_b ~ 85849 > cap 4000", id="oracle-cap"),
    # explicit dims above the same caps, refused before any allocation
    pytest.param(["oracle-check", "--dims", "402,10"], CFI_MODEL,
                 "dims '402,10' exceed the oracle's caps NA <= 401, NB <= 4000",
                 id="oracle-dims-na-cap"),
    pytest.param(["oracle-check", "--dims", "10,4001"], CFI_MODEL,
                 "dims '10,4001' exceed the oracle's caps NA <= 401, NB <= 4000",
                 id="oracle-dims-nb-cap"),
    # a constant-drive Chebyshev series longer than the oracle's term cap,
    # refused before its Bessel table of 1.1e8 rows of 17 branches is built,
    # from recommended and explicit dims alike
    pytest.param(["oracle-check", "--tau", "1e5"], GOLDEN_MODEL,
                 "the Chebyshev series needs up to 110345871 terms > cap "
                 "450359; outside the validity envelope of the truncated "
                 "oracle", id="oracle-terms-cap"),
    pytest.param(["oracle-check", "--tau", "1e5", "--dims", "17,961"],
                 GOLDEN_MODEL, "the Chebyshev series needs up to 110345871 "
                 "terms > cap 450359", id="oracle-dims-terms-cap"),
    # no photons, so no phase is refused first
    pytest.param(["oracle-check", "--tau", "1e17"], {"g0": 1.0},
                 "the Chebyshev series needs up to ",
                 id="oracle-terms-cap-vacuum"),
    # a branch box past the float range is inf, refused as past the cap
    pytest.param(["oracle-check", "--tau", "1"],
                 {"g0": 0.5, "d2": -1e300, "omega_d2": 1e6, "mu_c_re": 1},
                 "parameters need N_b ~ inf > cap 4000",
                 id="oracle-cap-squeezing-boost-inf"),
    pytest.param(["oracle-check", "--tau", "1"], {"g0": 1e300, "mu_c_re": 1},
                 "parameters need N_b ~ inf > cap 4000",
                 id="oracle-cap-coupling-inf"),
    pytest.param(["oracle-check", "--tau", "1"],
                 {"g0": 0.5, "d1": 1e300, "omega_d1": 2, "mu_c_re": 1},
                 "parameters need N_b ~ inf > cap 4000",
                 id="oracle-cap-displacement-inf"),
    pytest.param(["oracle-check", "--tau", "1", "--dims", "3,3"],
                 {"g0": 1e300, "mu_c_re": 1},
                 "dims 3,3 cut an initial tail mass 8.03e-02 off the input",
                 id="oracle-dims-box-inf"),
    # labels past the float range, whose |mu|^2 saturates, and a phase that
    # underflows: no amplitude within the dims
    pytest.param(["oracle-check", "--tau", "1", "--dims", "4,12"],
                 {"mu_m_im": 1e300},
                 "dims 4,12 cut an initial tail mass 1.00e+00 off the input",
                 id="oracle-dims-label-inf"),
    pytest.param(["oracle-check", "--tau", "1", "--dims", "4,12"],
                 {"g0": 0.5, "mu_m_re": 1e6, "mu_m_im": 1e-320},
                 "dims 4,12 cut an initial tail mass 1.00e+00 off the input",
                 id="oracle-dims-phase-underflow"),
    # a branch band past the float range needs inf Chebyshev terms
    pytest.param(["oracle-check", "--tau", "1", "--dims", "20,3"],
                 {"g0": 1e308, "mu_c_re": 1},
                 "the Chebyshev series needs up to inf terms > cap 450359",
                 id="oracle-dims-terms-inf"),
    pytest.param(["cfi", "--n-max", "24"], {"mu_c_re": 1e300},
                 "--n-max 24 cuts a photon tail mass 1.00e+00 off the input",
                 id="cfi-tail-label-inf"),
    pytest.param(["cfi"], {"mu_c_re": 1e300},
                 "the default --n-max inf exceeds the cap 2896",
                 id="cfi-default-cut-inf"),
    # explicit dims that cut off more of the input than the oracle allows,
    # refused before propagating: a deviation that the cut input causes is
    # the truncation's, and exit 1 would blame the library for it
    pytest.param(["oracle-check", "--tau", "0.5", "--dims", "8,60"],
                 {"g0": 1.0, "mu_c_re": 1.0},
                 "dims 8,60 cut an initial tail mass 1.02e-05 off the input, "
                 "above 1e-12; increase dims", id="oracle-dims-tail"),
    *OVERFLOW_INPUT,
]


def write_config(tmp_path, argv, config):
    """The argv that runs ``argv`` on a file holding ``config`` (see
    REJECTED_INPUT), the output path a sweep config names, and the file."""
    out = tmp_path / "out.csv"
    if argv[0] == "sweep" and isinstance(config, dict):
        config = {"output": str(out), **config}
    cfg = tmp_path / "config.json"
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        cfg.write_text(text.replace("{tmp}", str(tmp_path)))
    flag = "--setup" if argv[0] == "gravimetry" else "--config"
    named = [] if flag == "--setup" and config is None else [flag, str(cfg)]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    return [*argv[:1], *named, *argv[1:]], out, cfg


def refuse_computing(monkeypatch):
    """Make the value kernels fail, so a refusal that comes only after
    computing fails the test."""
    def computed(*_args, **_kwargs):
        raise AssertionError("computed before refusing")

    # commands look each function up on its module when they call it
    for module, name in ((metrology, "qfi_coefficients"),
                         (metrology, "cfi_homodyne"), (nongaussianity, "report"),
                         (coefficients, "Trajectory"),
                         (mechanics, "solve_subsystem"), (oracle, "propagate")):
        monkeypatch.setattr(module, name, computed)


@pytest.mark.parametrize("argv, config, message", REJECTED_INPUT)
def test_rejected_input_is_a_config_error(argv, config, message, tmp_path,
                                          capsys, monkeypatch, request):
    # an overflow is refused after the arithmetic that overflows
    if not request.node.callspec.id.startswith("overflow-"):
        refuse_computing(monkeypatch)
    argv, out, cfg = write_config(tmp_path, argv, config)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=cfg, tmp=tmp_path)}")
    assert "\n" not in err[:-1]  # a single error line
    assert not out.exists()


# the config of a pass past the step cap: the squeezing's frequency sets
# about 0.4 omega_d2 tau steps, so both passes need more than MAX_STEPS
STEP_CAP_MODEL = {"g0": 0.5, "d2": 0.01, "omega_d2": 1e6, "mu_c_re": 1}


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--tau-max", "1", "--steps", "3"],
     "coeffs cannot integrate over [0, 1.0]: decoupled-solution integration "
     "failed near tau=0.000114242: Required number of steps exceeds "
     "50."),
    (["oracle-check", "--tau", "1"],
     "oracle-check cannot integrate over [0, 1.0]: decoupled-solution "
     "integration failed near tau=0.000114242: Required number of steps "
     "exceeds 50."),
    # a modulated coupling alone is a catalog hit, so only the oracle's
    # pass integrates
    (["oracle-check", "--tau", "1", "--config",
      {"g0": 0.5, "epsilon": 0.4, "omega_g": 1e3, "mu_c_re": 1}],
     "oracle-check cannot integrate over [0, 1.0]: branch integration failed: "
     "Required number of steps exceeds 50."),
], ids=["coeffs", "oracle-check", "oracle-check-truncated-pass"])
def test_a_pass_past_the_step_cap_is_refused(argv, message, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.setattr(dop853, "MAX_STEPS", 50)
    config = argv.pop() if isinstance(argv[-1], dict) else STEP_CAP_MODEL
    argv = [arg for arg in argv if arg != "--config"]
    argv, out, _ = write_config(tmp_path, argv, config)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The no-traceback sweep: config values at and past the float range's
# edges, near the model's resonances and at the squeezing's stability edge,
# each command form that computes, and tau from 1e-300 to 100
SWEEP_KEYS = ("g0", "epsilon", "omega_g", "d1", "omega_d1", "d2", "omega_d2",
              "mu_c_re", "mu_c_im", "mu_m_re", "mu_m_im")
SWEEP_VALUES = (0.0, 1e300, -1e300, 1e154, -1e154, 1e-320, 1.0 + 1e-12,
                -0.2499999, 1e6, 0.5, 3.0)
SWEEP_TAUS = ("1e-300", "1", repr(2 * math.pi), "100")
SWEEP_FORMS = (
    ("drive-eval", "--steps", "3", "--tau-max"),
    ("mechanics", "--steps", "3", "--tau-max"),
    ("coeffs", "--steps", "3", "--tau-max"),
    ("moments", "--steps", "3", "--tau-max"),
    ("nongauss", "--steps", "3", "--tau-max"),
    ("qfi", "--tau"),
    ("qfi", "--mode", "finite_diff", "--tau"),
    ("qfi", "--param", "omega_g", "--mode", "finite_diff", "--tau"),
    ("cfi", "--n-max", "24", "--tau"),
    ("oracle-check", "--dims", "4,12", "--tau"),
)


def _finite_fields(path):
    """Whether every number the output file holds is finite."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")][1:]  # the header names the columns
    for field in (x for line in lines for x in line.split(",")):
        try:
            value = float(field)
        except ValueError:  # a name: oracle-check's quantity
            continue
        if not math.isfinite(value):
            return False
    return True


@pytest.mark.parametrize("seed", [1, 2])
def test_extreme_configs_exit_cleanly(seed, tmp_path, capsys, monkeypatch):
    # every case exits 0 with finite rows, 2 with one error line and no
    # output, or, for oracle-check alone, 1 with finite rows (a deviation
    # past --tolerance, which dims this small allow). The lowered cap keeps
    # each pass within a fraction of a second
    monkeypatch.setattr(dop853, "MAX_STEPS", 300)
    rng = random.Random(seed)
    cfg, out = tmp_path / "config.json", tmp_path / "out.csv"
    codes = []
    for _ in range(150):
        config = {key: rng.choice(SWEEP_VALUES)
                  for key in rng.sample(SWEEP_KEYS, rng.randint(1, 4))}
        form = rng.choice(SWEEP_FORMS)
        argv = [form[0], "--config", str(cfg), *form[1:],
                rng.choice(SWEEP_TAUS), "--out", str(out)]
        cfg.write_text(json.dumps(config))
        code = main(argv)
        err = capsys.readouterr().err
        case = (argv, config, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, case
            assert not out.exists(), case
        else:
            assert code == 0 or (code == 1 and form[0] == "oracle-check"), case
            assert err == "" and _finite_fields(out), case
            out.unlink()
        codes.append(code)
    assert 0 in codes and 2 in codes


@pytest.mark.parametrize("argv, config", [
    (["cfi", "--n-max", "24", "--tau", "100"], {"g0": -1e154}),
    (["oracle-check", "--tau", "1", "--dims", "20,3"],
     {"g0": 1e308, "mu_c_re": 1}),
], ids=["cfi", "oracle-check"])
def test_a_refused_command_prints_its_error_line_alone(argv, config, tmp_path):
    # the arithmetic a refused command ran raised numpy warnings; they go
    # with the refusal (in-process, pytest would capture them)
    argv, out, _ = write_config(tmp_path, argv, config)
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1, result.stderr


def test_a_command_that_is_not_refused_shows_its_warnings(tmp_path,
                                                            monkeypatch):
    # held while the command runs, then shown as the filters outside have them
    qfi_thermal = metrology.qfi_thermal

    def warning(*args):
        warnings.warn("a floating-point warning", RuntimeWarning)
        return qfi_thermal(*args)

    monkeypatch.setattr(metrology, "qfi_thermal", warning)
    argv, out, _ = write_config(tmp_path, ["qfi"], GOLDEN_MODEL)
    with pytest.warns(RuntimeWarning, match="a floating-point warning"):
        assert main([*argv, "--out", str(out)]) == 0
    assert out.exists()


def test_unstable_squeezing_leaves_what_needs_no_subsystem(tmp_path, capsys):
    # the drives do not solve the subsystem, so they still serve the model
    # the other commands refuse; a d2 QFI has no analytic route to serve it
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps(UNSTABLE_MODEL))
    drives = tmp_path / "drives.csv"
    assert main(["drive-eval", "--config", str(cfg), "--steps", "3",
                 "--out", str(drives)]) == 0
    assert [row[3] for row in _read_rows(drives)] == [-0.3] * 3
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--config", str(cfg), "--param", "d2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: no analytic derivative route for parameter 'd2' at -0.3: "
        "the catalog does not cover a squeezing term; use mode finite_diff\n")
    assert not out.exists()


@pytest.mark.parametrize("model", [ROUTE_MODEL, {**ROUTE_MODEL, "epsilon": 0.4}],
                         ids=["route-model", "offset"])
def test_qfi_at_zero_frequency_matches_the_differences(model, tmp_path):
    # omega_g = 0 goes to the complex pass; its finite_diff row is held to
    # the QFI of the Richardson differences. The QFI is a positive
    # semidefinite quadratic form of the nine derivatives d, so its square
    # root is a seminorm, and the rows differ by at most
    # sum_k bound sqrt(QFI(e_k)) in it
    cfg, out = tmp_path / "model.json", tmp_path / "qfi.csv"
    cfg.write_text(json.dumps(model))
    assert main(["qfi", "--config", str(cfg), "--param", "omega_g", "--mode",
                 "finite_diff", "--tau", "2.0", "--out", str(out)]) == 0
    [(tau, qfi)] = _read_rows(out)
    spec = model_from_config(resolve_config(model))
    traj = Trajectory(spec, tau)
    f, j = traj.f(tau), traj.j(tau)

    def qfi_of(d):
        coeffs = metrology._assemble_coefficients(tau, f, FSet(*d[:6]), j,
                                                  JSet(*d[6:]))
        return qfi_thermal(coeffs, model["mu_c_re"])

    df, dj, bound = richardson_derivatives(spec, "omega_g", tau)
    reference = qfi_of([*astuple(df), *astuple(dj)])
    slack = sum(bound * math.sqrt(qfi_of(np.eye(9)[k])) for k in range(9))
    assert abs(math.sqrt(qfi) - math.sqrt(reference)) <= slack
    if "epsilon" in model:
        assert qfi > 0.0


@pytest.mark.parametrize("argv, config, message", [
    case for case in REJECTED_INPUT if case.values[0][0] == "sweep"])
def test_validate_only_refuses_what_the_run_refuses(argv, config, message,
                                                    tmp_path, capsys):
    argv, out, cfg = write_config(tmp_path, ["sweep"], config)
    outcomes = []
    for extra in ([], ["--validate-only"]):
        code = main([*argv, *extra])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2
    assert outcomes[0][1].startswith(
        f"error: {message.format(path=cfg, tmp=tmp_path)}")
    assert not out.exists()
