"""Seeded workloads for the optomech CLI benchmark.

A workload is a fixed list of CLI commands. ``build`` draws the configs
from ``--seed`` (narrow ranges, so the work per pass stays comparable
across seeds), writes them into the run directory, checks that each
config lands on the catalog route it is meant to stress, and attaches to
every command an output check against a reference the CLI does not use.
The tolerances are the acceptance suite's own.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from optomech import metrology
from optomech.cli import (REFERENCE_PLATFORMS, load_config, model_from_config,
                          state_from_config)
from optomech.coefficients import CatalogMiss, FSet, f_closed_form, f_integrated
from optomech.mechanics import JSet, j_coefficients_ode, solve_subsystem
from optomech.metrology import (gravimetry_qfi_closed, qfi_closed_form,
                                qfi_thermal)
from optomech.oracle import recommended_dims

TWO_PI = 2.0 * math.pi
GRID_TAU_MAX = 4.0 * math.pi
GRID_STEPS = 201
CFI_AMPLITUDES = (1, 3, 10)

# acceptance-suite tolerances (tests/test_acceptance.py)
F_ATOL = 1e-8            # catalog integrity: F catalog vs defining integrals
QFI_RTOL = 1e-8          # catalog integrity: QFI closed forms vs generic path
CFI_RTOL = 1e-4          # homodyne optimality: CFI(2 pi) vs QFI
BOGOLIUBOV_ANALYTIC = 1e-9
BOGOLIUBOV_ODE = 1e-7
SANDWICH_SLACK = 1e-8
GRAVIMETRY_RTOL = 0.02   # published sensitivities at 2%
PUBLISHED_DELTA_G = {"fabry-perot": 7.96e-15, "levitated": 2.94e-15,
                     "cold-atoms": 2.5165e-12}
# finite-difference QFI against exact g0-homogeneity: the suite's tolerance
# for finite_diff against analytic derivatives (tests/test_metrology.py).
# The error is the ODE tolerance divided by the step h = 1e-6: typically
# 1e-9, but 1e-6 to 9e-6 on about 1 config in 50 at the strict profile.
FD_QFI_RTOL = 1e-5

Check = Callable[[int, Path], "str | None"]


@dataclass
class Command:
    label: str        # stable name; per-command metrics are cli.<label>.wall_s
    argv: list        # arguments after `python -m optomech.cli`
    out: Path         # the command's --out file
    check: Check      # (exit code, out file) -> failure message or None


def read_table(path: Path):
    """Columns and rows of a CLI CSV output (header comments skipped)."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def numeric_rows(path: Path):
    columns, rows = read_table(path)
    return [dict(zip(columns, map(float, row))) for row in rows]


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _exit_ok(code: int):
    return None if code == 0 else f"exit code {code}"


def exit_only(code: int, _out: Path):
    """oracle-check exits 0 only when it agrees with the oracle at 1e-6."""
    return _exit_ok(code)


def _grid_args(label, config):
    return [label, "--config", str(config), "--tau-max", repr(GRID_TAU_MAX),
            "--steps", str(GRID_STEPS)]


def _write_config(workdir: Path, name: str, cfg: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _require_route(config: Path, route: str):
    """Fail unless ``config`` is a catalog ``route`` ("hit" or "miss")."""
    try:
        f_closed_form(model_from_config(load_config(config)), GRID_TAU_MAX)
        found = "hit"
    except CatalogMiss:
        found = "miss"
    if found != route:
        raise RuntimeError(f"{config.name} is a catalog {found}, "
                           f"the workload needs a {route}")


def _require_dims_under_cap(config: Path, tau: float):
    cfg = load_config(config)
    # raises TruncationError above its N_b cap
    recommended_dims(model_from_config(cfg), state_from_config(cfg), tau)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def with_exit(check):
    """A check that first requires exit code 0, then inspects the output."""
    def run(code: int, out: Path):
        return _exit_ok(code) or check(out)
    return run


def check_bogoliubov(tol: float):
    def check(out):
        for row in numeric_rows(out):
            norm = (row["re_alpha"] ** 2 + row["im_alpha"] ** 2
                    - row["re_beta"] ** 2 - row["im_beta"] ** 2)
            if abs(norm - 1.0) > tol:
                return f"|alpha|^2-|beta|^2 = {norm!r} at tau={row['tau']}"
        return None
    return with_exit(check)


def check_photon_number(mu_c: float):
    nc = mu_c ** 2

    def check(out):
        for row in numeric_rows(out):
            if abs(row["adag_a"] - nc) > 1e-8 * max(1.0, nc):
                return f"<a+a> = {row['adag_a']!r} != |mu_c|^2 at tau={row['tau']}"
        return None
    return with_exit(check)


def check_sandwich(out):
    for row in numeric_rows(out):
        if not (row["delta_min"] - SANDWICH_SLACK <= row["delta"]
                <= row["delta_max"] + SANDWICH_SLACK):
            return f"delta outside its Araki-Lieb bounds at tau={row['tau']}"
    return None


F_COLUMNS = (("F_Na", "f_na"), ("F_Na2", "f_na2"), ("F_B+", "f_bp"),
             ("F_B-", "f_bm"), ("F_NaB+", "f_nabp"), ("F_NaB-", "f_nabm"))


def check_coeffs_against_integrals(config: Path, every: int):
    """F columns against f_integrated at every ``every``-th grid point."""
    spec = model_from_config(load_config(config))
    references = {}  # tau -> FSet, computed once per run

    def check(out):
        rows = numeric_rows(out)
        if len(rows) != GRID_STEPS:
            return f"{len(rows)} rows, expected {GRID_STEPS}"
        for row in rows[every::every]:
            tau = row["tau"]
            if tau not in references:
                references[tau] = f_integrated(spec, solve_subsystem(spec, tau), tau)
            ref = references[tau]
            worst = max(abs(row[col] - getattr(ref, attr))
                        for col, attr in F_COLUMNS)
            if worst > F_ATOL:
                return f"F deviates by {worst:.2e} from f_integrated at tau={tau}"
        return None
    return with_exit(check)


def check_drive_eval(cfg: dict):
    def check(out):
        for row in numeric_rows(out):
            tau = row["tau"]
            g = cfg["g0"] * (1.0 + cfg["epsilon"] * math.sin(cfg["omega_g"] * tau))
            if abs(row["G"] - g) > 1e-12 * max(1.0, abs(g)) or row["D1"] or row["D2"]:
                return f"drive values wrong at tau={tau}"
        return None
    return with_exit(check)


def check_qfi_rows(reference: Callable[[float], float], rtol: float,
                   min_rows: int = 1):
    """Each (x, qfi) row against reference(x) at relative tolerance."""
    def check(out):
        columns, rows = read_table(out)
        if len(rows) < min_rows:
            return f"{len(rows)} rows, expected at least {min_rows}"
        for x, q in ((float(a), float(b)) for a, b in rows):
            ref = reference(x)
            if not _rel(q, ref) <= rtol:
                return f"qfi {q!r} vs reference {ref!r} at {columns[0]}={x}"
        return None
    return with_exit(check)


def homogeneity_qfi(config: Path, tau: float) -> float:
    """g0 QFI with the exact derivative dF/dg0 from g0-homogeneity.

    F_Na, F_NaB+ and F_NaB- are linear and F_Na2 quadratic in g0, and J does
    not depend on g0, so the derivatives need no finite differences.
    """
    cfg = load_config(config)
    spec, state = model_from_config(cfg), state_from_config(cfg)
    g0 = cfg["g0"]
    f = f_integrated(spec, solve_subsystem(spec, tau), tau)
    df = FSet(f_na=f.f_na / g0, f_na2=2.0 * f.f_na2 / g0, f_bp=0.0, f_bm=0.0,
              f_nabp=f.f_nabp / g0, f_nabm=f.f_nabm / g0)
    j = j_coefficients_ode(spec, tau)
    # the library's generator assembly (private: no public entry takes
    # derivatives from the caller)
    coeffs = metrology._assemble_coefficients(tau, f, df, j, JSet(0.0, 0.0, 0.0))
    return qfi_thermal(coeffs, state.mu_c, 0.0)


def check_gravimetry(photons: float):
    mu_c = math.sqrt(photons)

    def check(out):
        _, rows = read_table(out)
        if {r[0] for r in rows} != set(REFERENCE_PLATFORMS):
            return "platform rows missing"
        for name, _g0, qfi_si, delta_g in rows:
            ref = gravimetry_qfi_closed(REFERENCE_PLATFORMS[name], mu_c)
            if not _rel(float(qfi_si), ref) <= QFI_RTOL:
                return f"{name}: qfi_si {qfi_si} vs closed form {ref!r}"
            if not _rel(float(delta_g), PUBLISHED_DELTA_G[name]) <= GRAVIMETRY_RTOL:
                return f"{name}: delta_g {delta_g} vs published value"
        return None
    return with_exit(check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def miss_grid(rng: random.Random, workdir: Path) -> list:
    """Catalog-miss route: modulated coupling, cosine displacement and
    squeezing modulated at Omega = 2, so F is integrated per grid point."""
    cfg = {"g0": _uniform(rng, 0.28, 0.32), "epsilon": _uniform(rng, 0.35, 0.45),
           "omega_g": _uniform(rng, 0.65, 0.75),
           "d1": _uniform(rng, 0.18, 0.22), "omega_d1": _uniform(rng, 0.55, 0.65),
           "d2": _uniform(rng, 0.045, 0.055), "omega_d2": 2.0,
           "mu_c_re": _uniform(rng, 0.9, 1.1), "mu_m_re": _uniform(rng, 0.4, 0.6)}
    oracle_cfg = {"g0": 0.5, "d2": 0.05, "omega_d2": 2.0, "mu_c_re": 1.0,
                  "mu_m_re": _uniform(rng, 0.0, 0.2)}
    config = _write_config(workdir, "miss", cfg)
    oracle_config = _write_config(workdir, "miss_oracle", oracle_cfg)
    for path in (config, oracle_config):
        _require_route(path, "miss")
    _require_dims_under_cap(oracle_config, math.pi)

    fd_reference = homogeneity_qfi(config, TWO_PI)
    return [
        Command("mechanics", _grid_args("mechanics", config), workdir / "mechanics.csv",
                check_bogoliubov(BOGOLIUBOV_ODE)),
        Command("coeffs", _grid_args("coeffs", config), workdir / "coeffs.csv",
                check_coeffs_against_integrals(config, every=25)),
        Command("moments", _grid_args("moments", config), workdir / "moments.csv",
                check_photon_number(cfg["mu_c_re"])),
        Command("nongauss", _grid_args("nongauss", config), workdir / "nongauss.csv",
                with_exit(check_sandwich)),
        Command("qfi-fd", ["qfi", "--config", str(config), "--param", "g0",
                           "--mode", "finite_diff", "--tau", repr(TWO_PI)],
                workdir / "qfi_fd.csv",
                check_qfi_rows(lambda _tau: fd_reference, FD_QFI_RTOL)),
        Command("oracle-check", ["oracle-check", "--config", str(oracle_config),
                                 "--tau", repr(math.pi)],
                workdir / "oracle.csv", exit_only),
    ]


def hit_cli(rng: random.Random, workdir: Path) -> list:
    """Catalog-hit route: an offset-sinusoid coupling at resonance and the
    constant-drive golden config, so compute is small next to start-up;
    plus the homodyne CFI at |mu_c| = 1."""
    cfg = {"g0": _uniform(rng, 0.45, 0.55), "epsilon": _uniform(rng, 0.4, 0.6),
           "omega_g": 1.0, "mu_c_re": _uniform(rng, 0.9, 1.1),
           "mu_m_re": _uniform(rng, 0.4, 0.6)}
    constant_cfg = {"g0": 1.0, "d1": 1.0, "mu_c_re": 1.0, "mu_m_re": 0.5}
    config = _write_config(workdir, "hit", cfg)
    constant_config = _write_config(workdir, "hit_constant", constant_cfg)
    for path in (config, constant_config):
        _require_route(path, "hit")
    _require_dims_under_cap(constant_config, math.pi)

    # omega_g sweep of 21 points from 0.31-0.34: none is within 0.01 of 1
    step = 0.05
    start = round(0.3 + step * rng.uniform(0.2, 0.8), 6)
    sweep = f"{start!r}:{start + 20 * step!r}:{step!r}"

    nc = cfg["mu_c_re"] ** 2
    g0, eps = cfg["g0"], cfg["epsilon"]
    resonant = lambda tau: qfi_closed_form("g0-resonant", tau, g0=g0, epsilon=eps,
                                           n_photons=nc)
    general = lambda w: qfi_closed_form("g0-general-omega", TWO_PI, g0=g0,
                                        epsilon=eps, omega=w, n_photons=nc)
    return [
        Command("drive-eval", _grid_args("drive-eval", config), workdir / "drive.csv",
                check_drive_eval(cfg)),
        Command("mechanics", _grid_args("mechanics", config), workdir / "mechanics.csv",
                check_bogoliubov(BOGOLIUBOV_ANALYTIC)),
        Command("coeffs", _grid_args("coeffs", config), workdir / "coeffs.csv",
                check_coeffs_against_integrals(config, every=1)),
        Command("moments", _grid_args("moments", config), workdir / "moments.csv",
                check_photon_number(cfg["mu_c_re"])),
        Command("nongauss", _grid_args("nongauss", config), workdir / "nongauss.csv",
                with_exit(check_sandwich)),
        Command("qfi", ["qfi", "--config", str(config), "--param", "g0",
                        "--tau", repr(5.0 * TWO_PI)],
                workdir / "qfi.csv", check_qfi_rows(resonant, QFI_RTOL)),
        Command("qfi-sweep", ["qfi", "--config", str(config), "--param", "g0",
                              "--sweep", "omega_g", sweep],
                workdir / "qfi_sweep.csv", check_qfi_rows(general, QFI_RTOL, 20)),
        Command("gravimetry", ["gravimetry", "--table"], workdir / "gravimetry.csv",
                check_gravimetry(1e6)),
        Command("oracle-check", ["oracle-check", "--config", str(constant_config),
                                 "--tau", repr(math.pi)],
                workdir / "oracle.csv", exit_only),
        # the one amplitude of homodyne-cfi that passes at the seed, so the
        # CFI kernel is also timed on a workload where nothing fails
        cfi_command(rng, workdir, 1),
    ]


def cfi_command(rng: random.Random, workdir: Path, amplitude: int) -> Command:
    """Homodyne CFI at |mu_c| = ``amplitude`` (g0 = d1 = 1, tau = 2 pi).

    The seed picks the phase of mu_c from the four quarter turns (so |mu_c|
    stays exact and the Fock cut-off does not move), the matching quadrature
    angle pi/2 + phase, and mu_m. At tau = 2 pi the CFI of the matched
    quadrature equals the d1 QFI for every such draw.
    """
    quarter = rng.randrange(4)
    mu_c = amplitude * (1j ** quarter)
    cfg = {"g0": 1.0, "d1": 1.0, "mu_c_re": mu_c.real, "mu_c_im": mu_c.imag,
           "mu_m_re": _uniform(rng, 0.0, 0.3)}
    config = _write_config(workdir, f"cfi_{amplitude}", cfg)
    qfi = qfi_closed_form("d1-constant", TWO_PI, g0=1.0,
                          n_photons=float(amplitude ** 2))
    angle = 0.5 * math.pi * (1 + quarter)
    return Command(
        f"cfi-{amplitude}",
        ["cfi", "--config", str(config), "--tau", repr(TWO_PI),
         "--quadrature-angle", repr(angle)],
        workdir / f"cfi_{amplitude}.csv",
        check_qfi_rows(lambda _tau: qfi, CFI_RTOL))


def homodyne_cfi(rng: random.Random, workdir: Path) -> list:
    """Homodyne CFI at |mu_c| = 1, 3, 10, in seeded order."""
    commands = [cfi_command(rng, workdir, a) for a in CFI_AMPLITUDES]
    rng.shuffle(commands)
    return commands


WORKLOADS = {"miss-grid": miss_grid, "hit-cli": hit_cli,
             "homodyne-cfi": homodyne_cfi}

# every per-command label any workload uses, for the cli.<label>.wall_s metrics
COMMAND_LABELS = ("drive-eval", "mechanics", "coeffs", "moments", "nongauss",
                  "qfi", "qfi-fd", "qfi-sweep", "gravimetry", "oracle-check",
                  "cfi-1", "cfi-3", "cfi-10")


def build(name: str, seed: int, workdir: Path) -> list:
    """The seeded command list of workload ``name``, configs in ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    commands = WORKLOADS[name](rng, workdir)
    for cmd in commands:
        if cmd.label not in COMMAND_LABELS:
            raise RuntimeError(f"label {cmd.label!r} is missing from COMMAND_LABELS")
        cmd.argv += ["--out", str(cmd.out)]
    return commands
