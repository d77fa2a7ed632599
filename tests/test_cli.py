import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from optomech import cli, coefficients
from optomech.cli import (ConfigError, main, model_from_config, resolve_config,
                          validate_sweep_config)
from optomech.coefficients import (CatalogMiss, Trajectory, derived_scalars,
                                   f_closed_form, f_integrated)
from optomech.mechanics import TOLERANCES, solve_subsystem
from optomech.metrology import qfi_coefficients, qfi_thermal
from optomech.moments import evolve_moments
from optomech.nongaussianity import report

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


def test_validate_sweep_d2_validity_warning():
    data = {"command": "qfi",
            "model": {"g0": 1.0, "d2": 0.5, "mu_c_re": 1.0},
            "swept": {"name": "tau", "start": 0.5, "stop": 2.0, "step": 0.5},
            "fixed": {"param": "d2"},
            "output": "x.csv"}
    notes = validate_sweep_config(data)
    assert any("validity" in n for n in notes)


@pytest.mark.parametrize("argv", [
    ["qfi", "--param", "d2"],
    ["qfi", "--param", "d2", "--sweep", "tau", "0.5:1.0:0.5"],
    ["sweep"]])
def test_d2_validity_is_one_warning_line(argv, tmp_path):
    model = {"g0": 1.0, "d2": 0.5, "mu_c_re": 1.0}
    config = model
    if argv == ["sweep"]:
        config = {"command": "qfi", "model": model, "fixed": {"param": "d2"},
                  "swept": {"name": "tau", "start": 0.5, "stop": 1.0,
                            "step": 0.5}, "output": str(tmp_path / "o.csv")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    result = run_cli(argv[0], "--config", str(cfg), *argv[1:])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ("# warning: d2 = 0.5 exceeds the small-d2 "
                             "validity bound 0.2; results are indicative "
                             "only\n")


def test_validate_only_flag(tmp_path):
    config = json.loads((GOLDEN / "sweep_config.json").read_text())
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    result = run_cli("sweep", "--config", str(cfg_path), "--validate-only")
    assert result.returncode == 0
    assert "ok" in result.stdout


# modulated coupling, cosine displacement and squeezing modulated at
# Omega = 2: no closed-form F catalog entry covers it
MISS_CONFIG = {"g0": 0.3, "epsilon": 0.4, "omega_g": 0.7,
               "d1": 0.2, "omega_d1": 0.6, "d2": 0.05, "omega_d2": 2.0,
               "mu_c_re": 1.0, "mu_m_re": 0.5}


def record_tolerances(monkeypatch, module):
    """Record the (rtol, atol) of every ``module.solve_ivp`` call."""
    tolerances = []
    solve_ivp = module.solve_ivp

    def recording(*args, **kwargs):
        tolerances.append((kwargs["rtol"], kwargs["atol"]))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", recording)
    return tolerances


# the decoupled-solution pass scales both tolerances by sqrt(3/15), so
# that its smallest block (J, 3 of 15 states) meets them on its own
BLOCK_SCALE = math.sqrt(3 / 15)


def test_fast_tolerance_profile(tmp_path, monkeypatch):
    result = run_cli("--tolerance-profile", "fast", "nongauss",
                     "--config", CONFIG, "--steps", "3",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 0
    # the profile must reach the integration on a catalog miss
    cfg = tmp_path / "miss.json"
    cfg.write_text(json.dumps(MISS_CONFIG))
    tolerances = record_tolerances(monkeypatch, coefficients)
    assert main(["--tolerance-profile", "fast", "coeffs", "--config", str(cfg),
                 "--steps", "3", "--out", str(tmp_path / "c.csv")]) == 0
    fast = (1e-8 * BLOCK_SCALE, 1e-10 * BLOCK_SCALE)
    assert tolerances == [fast]
    # and J of a trajectory built at that profile, from that one pass
    spec = model_from_config(resolve_config(MISS_CONFIG))
    tolerances.clear()
    traj = Trajectory(spec, 2.0, TOLERANCES["fast"])
    traj.j(2.0)
    traj.f(2.0)
    assert tolerances == [fast]


def test_fast_profile_ends_with_its_command(tmp_path, monkeypatch):
    cfg = tmp_path / "miss.json"
    cfg.write_text(json.dumps(MISS_CONFIG))
    assert main(["--tolerance-profile", "fast", "coeffs", "--config", str(cfg),
                 "--steps", "3", "--out", str(tmp_path / "c.csv")]) == 0
    # a later library call integrates at the strict default
    spec = model_from_config(resolve_config(MISS_CONFIG))
    tolerances = record_tolerances(monkeypatch, coefficients)
    f_integrated(spec, solve_subsystem(spec, 1.0), 1.0)
    assert tolerances == [(1e-10 * BLOCK_SCALE, 1e-12 * BLOCK_SCALE)]


def test_fingerprint_covers_tolerance_profile(tmp_path):
    cfg = tmp_path / "miss.json"
    cfg.write_text(json.dumps(MISS_CONFIG))
    headers = {}
    for profile in ("strict", "fast"):
        out = tmp_path / f"{profile}.csv"
        assert main(["--tolerance-profile", profile, "moments", "--config",
                     str(cfg), "--steps", "3", "--out", str(out)]) == 0
        headers[profile] = out.read_text().splitlines()[1]
    assert headers["strict"].startswith("# fingerprint: ")
    assert headers["fast"].startswith("# fingerprint: ")
    assert headers["strict"] != headers["fast"]


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
        d = derived_scalars(f, alpha, beta, mu_m)
        m = evolve_moments(f, alpha, beta, mu_c, mu_m, derived=d)
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


def test_tau_sweep_integrates_once_on_catalog_miss(tmp_path, monkeypatch):
    spec = model_from_config(resolve_config(MISS_CONFIG))
    mu_c, mu_m = MISS_CONFIG["mu_c_re"], MISS_CONFIG["mu_m_re"]
    start, stop, step = 0.0, 4 * math.pi, math.pi / 4
    # reference: every swept tau solved and integrated afresh
    reference = [(t, report(spec, mu_c, mu_m, t).delta)
                 for t in (start + i * step for i in range(17))]

    passes = count_passes(monkeypatch)
    data = {"command": "nongauss", "model": MISS_CONFIG,
            "swept": {"name": "tau", "start": start, "stop": stop, "step": step},
            "fixed": {}, "output": str(tmp_path / "ng.csv"), "format": "csv"}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(passes) == 1
    rows = np.array(_read_rows(tmp_path / "ng.csv"))
    assert rows.shape == (len(reference), 2)
    assert np.max(np.abs(rows - np.array(reference))) <= 1e-8


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


@pytest.mark.parametrize("grid", ["1:2", "a:b:c", "1:0:0.1"])
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
])
def test_negative_tau_is_a_config_error(argv, capsys):
    # a catalog hit: every value has a closed form, yet the evolution
    # starts at tau = 0 and nothing before it is read
    assert main([*argv[:1], "--config", CONFIG, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: tau must be >= 0")


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
# in the catalog, with constant drives: no analytic omega_g derivative, and
# a finite-difference stencil around omega_g = 0 reaches below 0
ROUTE_MODEL = {"g0": 1.0, "d1": 0.5, "mu_c_re": 1.0}
# constant squeezing with 1 + 4 d2 <= 0: the subsystem has no bounded solution
UNSTABLE_MODEL = {"g0": 1, "d2": -0.3, "mu_c_re": 1}
UNSTABLE = "constant squeezing d2=-0.3 gives 1+4*d2 <= 0"
FABRY_PEROT = {"kind": "fabry-perot", "length": 1e-5, "mass": 1e-6,
               "omega_c": 1e14, "omega_m": 1e3}

# (argv, config, message): argv[0] is the command, the config file holds
# json.dumps(config), or config itself when it is a str, and is missing when
# config is None; a sweep config without an "output" field gets one. {path}
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
    pytest.param(["coeffs", "--steps", "0"], CFI_MODEL, "--steps must be >= 1",
                 id="steps-zero"),
    pytest.param(["drive-eval", "--steps", "-1"], CFI_MODEL,
                 "--steps must be >= 1", id="steps-negative"),
    pytest.param(["qfi", "--param", "bogus"], CFI_MODEL,
                 "unknown parameter id 'bogus'", id="qfi-unknown-param"),
    pytest.param(["coeffs"], {"g0": 1.0, "omega_g": -1},
                 "drive frequency must be >= 0", id="negative-frequency"),
    pytest.param(["moments"], {**CFI_MODEL, "optical": "fock", "fock_n": 0},
                 "Fock superposition requires n >= 1", id="fock-zero"),
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
                 "analytic derivatives with a squeezing term are only "
                 "available for the d2 parameter", id="sweep-qfi-g0-squeezed"),
    pytest.param(["sweep"], {"command": "qfi",
                             "model": {"g0": 0.0, "epsilon": 0.3,
                                       "omega_g": 0.7, "d1": 0.5,
                                       "mu_c_re": 1.0},
                             "swept": TAU_SWEEP},
                 "no analytic derivative route for parameter 'g0': the "
                 "closed-form F catalog misses the model or its variant at "
                 "g0 in (1.0,)", id="sweep-qfi-catalog-variant-miss"),
    pytest.param(["sweep"], {"command": "qfi", "model": ROUTE_MODEL,
                             "swept": TAU_SWEEP,
                             "fixed": {"param": "omega_g",
                                       "mode": "finite_diff"}},
                 "the finite-difference stencil for 'omega_g' reaches -1e-06, "
                 "a negative drive frequency", id="sweep-qfi-stencil-frequency"),
    pytest.param(["qfi", "--param", "omega_g"], ROUTE_MODEL,
                 "no analytic derivative route for parameter 'omega_g'",
                 id="qfi-analytic-frequency"),
    pytest.param(["qfi", "--param", "omega_g", "--mode", "finite_diff"],
                 ROUTE_MODEL,
                 "the finite-difference stencil for 'omega_g' reaches -1e-06, "
                 "a negative drive frequency", id="qfi-stencil-frequency"),
    pytest.param(["qfi", "--param", "d2", "--mode", "finite_diff"],
                 {"g0": 1.0, "d2": -0.3, "mu_c_re": 1.0},
                 "finite differences integrate constant squeezing "
                 "d2 = -0.300001, unstable", id="qfi-stencil-unstable"),
    # every command that solves the subsystem refuses an unstable squeezing
    # from the drives, before computing
    *(pytest.param([command], UNSTABLE_MODEL, UNSTABLE, id=f"{command}-unstable")
      for command in ("mechanics", "coeffs", "moments", "nongauss",
                      "oracle-check")),
    pytest.param(["sweep"], {"command": "nongauss", "model": UNSTABLE_MODEL,
                             "swept": TAU_SWEEP},
                 UNSTABLE, id="sweep-nongauss-unstable"),
    # the truncation the oracle would need exceeds its cap
    pytest.param(["oracle-check"], {"g0": 3, "mu_c_re": 4},
                 "parameters need N_b ~ 85849 > cap 4000", id="oracle-cap"),
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
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    return [*argv[:1], flag, str(cfg), *argv[1:]], out, cfg


def refuse_computing(monkeypatch):
    """Make the value kernels fail, so a refusal that comes only after
    computing fails the test."""
    def computed(*_args, **_kwargs):
        raise AssertionError("computed before refusing")

    for name in ("qfi_coefficients", "cfi_homodyne", "nongauss_report",
                 "Trajectory", "solve_subsystem", "propagate"):
        monkeypatch.setattr(cli, name, computed)


@pytest.mark.parametrize("argv, config, message", REJECTED_INPUT)
def test_rejected_input_is_a_config_error(argv, config, message, tmp_path,
                                          capsys, monkeypatch):
    refuse_computing(monkeypatch)
    argv, out, cfg = write_config(tmp_path, argv, config)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=cfg, tmp=tmp_path)}")
    assert "\n" not in err[:-1]  # a single error line
    assert not out.exists()


def test_unstable_squeezing_leaves_what_needs_no_subsystem(tmp_path):
    # the drives and the small-d2 ledger's analytic d2 estimate do not solve
    # the subsystem, so they still serve the model the other commands refuse
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps(UNSTABLE_MODEL))
    drives = tmp_path / "drives.csv"
    assert main(["drive-eval", "--config", str(cfg), "--steps", "3",
                 "--out", str(drives)]) == 0
    assert [row[3] for row in _read_rows(drives)] == [-0.3] * 3
    out = tmp_path / "qfi.csv"
    assert main(["qfi", "--config", str(cfg), "--param", "d2",
                 "--out", str(out)]) == 0
    spec = model_from_config(resolve_config(UNSTABLE_MODEL))
    with pytest.warns(UserWarning, match="small-d2 validity"):
        coeffs = qfi_coefficients(spec, "d2", 2 * math.pi)
    expected = qfi_thermal(coeffs, 1.0, 0.0)
    assert _read_rows(out) == [[2 * math.pi, expected]]


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
