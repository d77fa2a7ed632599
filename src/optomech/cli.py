"""Command-line interface.

Subcommands: drive-eval, coeffs, mechanics, moments, nongauss, qfi, cfi,
gravimetry, oracle-check, sweep. Model and state are described by a flat
JSON config (see CONFIG_KEYS); outputs are deterministic CSV or JSON whose
header embeds the resolved-config fingerprint, so repeated runs of one config
on one install yield byte-identical files. Across numpy/SciPy/LAPACK builds the
last digits of LAPACK- and quadrature-derived values (cfi, oracle-check) may
differ; their goldens are compared at the accuracy each method promises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .coefficients import Trajectory, derived_scalars
from .mechanics import TOLERANCES, check_squeezing, j_coefficients, solve_subsystem
from .metrology import (D2_VALIDITY, QFI_MODES, cfi_homodyne, gravimetry,
                        qfi_coefficients, qfi_route, qfi_thermal)
from .moments import covariance, covariance_from_moments, evolve_moments, quadratures
from .nongaussianity import report as nongauss_report
from .oracle import TruncationError, oracle_moments, propagate, recommended_dims
from .params import (ColdAtoms, Drive, FabryPerot, InitialState, Levitated,
                     ModelSpec, coupling_constant, evaluate_drive)

CONFIG_KEYS = {
    "omega_c_ratio": 0.0,
    "g0": 0.0, "epsilon": 0.0, "omega_g": 0.0,
    "d1": 0.0, "omega_d1": 0.0,
    "d2": 0.0, "omega_d2": 0.0,
    "optical": "coherent", "mu_c_re": 0.0, "mu_c_im": 0.0, "fock_n": 1,
    "mechanical": "coherent", "mu_m_re": 0.0, "mu_m_im": 0.0, "r_T": 0.0,
}

SWEPT_NAMES = ("tau", "g0", "epsilon", "omega_g", "d1", "omega_d1",
               "d2", "omega_d2", "mu_c_re", "mu_m_re", "r_T")

FORMATS = ("csv", "json")


class ConfigError(ValueError):
    pass


def _read_json(path):
    """The JSON object in the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not text or not JSON
        raise ConfigError(f"cannot read '{path}': {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"'{path}' does not hold a JSON object")
    return data


def _fields(obj, known, path: str = "", required=()) -> dict:
    """``obj``, a JSON object with every ``required`` and only ``known`` key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown config field '{prefix}{key}'")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing config field '{prefix}{key}'")
    return obj


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{name}' must be a number, got {value!r}")
    return float(value)


def _one_of(name: str, value, choices):
    if value not in choices:
        raise ConfigError(f"field '{name}' must be one of {choices}, "
                          f"got {value!r}")
    return value


def load_config(path: str) -> dict:
    return resolve_config(_read_json(path))


def resolve_config(raw: dict) -> dict:
    cfg = {**CONFIG_KEYS, **_fields(raw, CONFIG_KEYS)}
    for key, default in CONFIG_KEYS.items():
        if not isinstance(default, str):
            _number(key, cfg[key])
    _one_of("optical", cfg["optical"], ("coherent", "fock"))
    _one_of("mechanical", cfg["mechanical"], ("coherent", "thermal"))
    # every result is computed in the frame rotating at the cavity frequency,
    # where Omega_c drops out; the key stays, so fingerprints do not change
    if cfg["omega_c_ratio"] != 0:
        raise ConfigError(f"field 'omega_c_ratio' must be 0, got "
                          f"{cfg['omega_c_ratio']!r}: results are computed in "
                          "the frame rotating at the cavity frequency")
    return cfg


def model_from_config(cfg: dict) -> ModelSpec:
    try:
        return ModelSpec(
            omega_c_ratio=cfg["omega_c_ratio"],
            coupling=Drive.offset_sinusoid(cfg["g0"], cfg["epsilon"],
                                           cfg["omega_g"]),
            displacement=Drive.cosine(cfg["d1"], cfg["omega_d1"]),
            squeezing=Drive.cosine(cfg["d2"], cfg["omega_d2"]),
        )
    except ValueError as exc:  # a drive the library refuses
        raise ConfigError(str(exc)) from None


def subsystem_model(cfg: dict) -> ModelSpec:
    """The model of a command that solves its mechanical subsystem."""
    spec = model_from_config(cfg)
    try:
        check_squeezing(spec.squeezing)
    except ValueError as exc:  # an unstable constant squeezing
        raise ConfigError(str(exc)) from None
    return spec


def state_from_config(cfg: dict) -> InitialState:
    try:
        return InitialState(
            optical=cfg["optical"],
            mu_c=complex(cfg["mu_c_re"], cfg["mu_c_im"]),
            fock_n=int(cfg["fock_n"]),
            mechanical=cfg["mechanical"],
            mu_m=complex(cfg["mu_m_re"], cfg["mu_m_im"]),
            r_T=cfg["r_T"],
        )
    except ValueError as exc:  # an input state the library refuses
        raise ConfigError(str(exc)) from None


def fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # normalise -0.0
        return format(value, ".17g")
    return str(value)


def write_records(path, fmt: str, meta: dict, columns, rows):
    header = [f"# optomech {__version__}", f"# fingerprint: {fingerprint(meta)}"]
    if fmt == "csv":
        lines = header + [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:  # json; argparse and _sweep_plan admit FORMATS only
        payload = {"library": f"optomech {__version__}",
                   "fingerprint": fingerprint(meta),
                   "columns": list(columns),
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _meta(args, **fields) -> dict:
    """The fingerprinted description of a command's output."""
    meta = {"cmd": args.command, **fields}
    # strict, the default, is left out, so strict fingerprints (and with
    # them the golden headers) do not depend on the profile being recorded
    if args.tolerance_profile != "strict":
        meta["tolerance_profile"] = args.tolerance_profile
    return meta


def _check_output(path):
    """Refuse an output file that cannot be created, before computing it;
    None and "-" stand for stdout."""
    if path is None or path == "-":
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write '{path}': no directory '{directory}'")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write '{path}': it is a directory")


def _check_tau(tau):
    """Every command reads the evolution from its start at tau = 0 on."""
    if _number("tau", tau) < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")


def _tau_grid(args) -> np.ndarray:
    _check_tau(args.tau_max)
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    return np.linspace(0.0, args.tau_max, args.steps)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_drive_eval(args):
    cfg = load_config(args.config)
    _check_output(args.out)
    spec = model_from_config(cfg)
    taus = _tau_grid(args)
    rows = [(t, evaluate_drive(spec.coupling, t),
             evaluate_drive(spec.displacement, t),
             evaluate_drive(spec.squeezing, t)) for t in taus]
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps),
                  ("tau", "G", "D1", "D2"), rows)
    return 0


def cmd_mechanics(args):
    cfg = load_config(args.config)
    _check_output(args.out)
    spec = subsystem_model(cfg)
    taus = _tau_grid(args)
    sol = solve_subsystem(spec, args.tau_max,
                          tol=TOLERANCES[args.tolerance_profile])
    p11, _, i_p22, _ = sol.state_at(taus)
    rows = []
    for i, t in enumerate(taus):
        alpha, beta = sol.bogoliubov(t)
        rows.append((t, p11[i], i_p22[i],
                     alpha.real, alpha.imag, beta.real, beta.imag))
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps),
                  ("tau", "P11", "I_P22", "re_alpha", "im_alpha",
                   "re_beta", "im_beta"), rows)
    return 0


def _coeff_rows(cfg, taus, tol):
    traj = Trajectory(subsystem_model(cfg), float(max(taus)), tol)
    rows = []
    for t in taus:
        f = traj.f(t)
        alpha, beta = traj.bogoliubov(t)
        j = j_coefficients(alpha, beta)
        d = derived_scalars(f, alpha, beta)
        rows.append((t, f.f_na, f.f_na2, f.f_bp, f.f_bm, f.f_nabp, f.f_nabm,
                     j.j_b, j.j_plus, j.j_minus, d.theta,
                     d.k_na.real, d.k_na.imag))
    return rows


def cmd_coeffs(args):
    cfg = load_config(args.config)
    _check_output(args.out)
    taus = _tau_grid(args)
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps),
                  ("tau", "F_Na", "F_Na2", "F_B+", "F_B-", "F_NaB+", "F_NaB-",
                   "J_b", "J_+", "J_-", "theta", "re_K_Na", "im_K_Na"),
                  _coeff_rows(cfg, taus, TOLERANCES[args.tolerance_profile]))
    return 0


def _moments_at(state, traj, t):
    f = traj.f(t)
    alpha, beta = traj.bogoliubov(t)
    d = derived_scalars(f, alpha, beta, state.mu_m)
    m = evolve_moments(f, alpha, beta, state.mu_c, state.mu_m, derived=d)
    return f, alpha, beta, d, m


def cmd_moments(args):
    cfg = load_config(args.config)
    _check_output(args.out)
    spec, state = subsystem_model(cfg), state_from_config(cfg)
    if state.optical != "coherent" or state.mechanical != "coherent":
        raise ConfigError("moments require coherent x coherent input")
    taus = _tau_grid(args)
    traj = Trajectory(spec, args.tau_max, TOLERANCES[args.tolerance_profile])
    rows = []
    for t in taus:
        *_, m = _moments_at(state, traj, t)
        if args.quadratures:
            rows.append((t, *quadratures(m)))
        else:
            rows.append((t, m.a.real, m.a.imag, m.b.real, m.b.imag,
                         m.a2.real, m.a2.imag, m.b2.real, m.b2.imag,
                         m.adag_a, m.bdag_b, m.ab.real, m.ab.imag,
                         m.abdag.real, m.abdag.imag))
    if args.quadratures:
        cols = ("tau", "x_c", "p_c", "x_m", "p_m")
    else:
        cols = ("tau", "re_a", "im_a", "re_b", "im_b", "re_a2", "im_a2",
                "re_b2", "im_b2", "adag_a", "bdag_b", "re_ab", "im_ab",
                "re_abdag", "im_abdag")
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps,
                        quadratures=bool(args.quadratures)),
                  cols, rows)
    return 0


def _prepare_nongauss(cfg: dict, fixed: dict, tau_max: float, tol):
    spec, state = subsystem_model(cfg), state_from_config(cfg)
    if state.optical != "coherent" or state.mechanical != "coherent":
        raise ConfigError("the non-Gaussianity measure requires pure "
                          "coherent x coherent input")
    traj = Trajectory(spec, tau_max, tol)  # integrates on first use

    def value(tau):
        rep = nongauss_report(spec, state.mu_c, state.mu_m, tau, traj=traj)
        return rep.delta, rep.delta_min, rep.delta_max, rep.nu_op, rep.nu_me
    return value


def cmd_nongauss(args):
    cfg = load_config(args.config)
    rows = _sweep_rows(_prepare_nongauss, cfg, {}, "tau", _tau_grid(args),
                       TOLERANCES[args.tolerance_profile], args.out)
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps),
                  ("tau", "delta", "delta_min", "delta_max", "nu_op", "nu_me"),
                  [(v, *value(t)) for v, value, t in rows])
    return 0


def _parse_sweep(text: str):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:  # not three fields, or one is not a number
        raise ConfigError(f"sweep range '{text}' is not START:STOP:STEP "
                          "with numeric fields") from None
    if step <= 0:
        raise ConfigError("sweep step must be > 0")
    if stop < start:
        raise ConfigError(f"sweep range '{text}' is empty")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _prepare_qfi(cfg: dict, fixed: dict, tau_max: float, tol):
    spec, state = model_from_config(cfg), state_from_config(cfg)
    param, mode = fixed["param"], _one_of("mode", fixed["mode"], QFI_MODES)
    try:
        qfi_route(spec, param, mode)
    except ValueError as exc:  # a parameter or model with no derivative route
        raise ConfigError(str(exc)) from None
    r_T = state.r_T if state.mechanical == "thermal" else 0.0
    return lambda tau: (qfi_thermal(qfi_coefficients(
        spec, param, tau, mode=mode, tol=tol), state.mu_c, r_T),)


def _prepare_cfi(cfg: dict, fixed: dict, tau_max: float, tol):
    spec, state = model_from_config(cfg), state_from_config(cfg)
    if not (spec.coupling.is_constant and spec.displacement.is_constant):
        raise ConfigError("cfi needs a constant coupling and displacement")
    if not spec.squeezing.is_zero:
        raise ConfigError("cfi needs d2 = 0")
    if state.optical != "coherent" or state.mechanical != "coherent":
        raise ConfigError("cfi requires coherent x coherent input")
    lam, n_max = _number("lambda", fixed["lambda"]), fixed.get("n_max")
    if n_max is not None and n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {n_max}")
    return lambda tau: (cfi_homodyne(
        spec.coupling.amplitude, spec.displacement.amplitude, state.mu_c,
        state.mu_m, lam, tau, n_max=n_max),)


def _sweep_rows(prepare, cfg: dict, fixed: dict, name: str, values, tol,
                out):
    """Prepared rows (v, value, t) over the swept values v of ``name``;
    value(t) computes the row's value columns. A tau sweep prepares once at
    the largest tau, any other name overrides that field of ``cfg`` and
    prepares each point at ``fixed["tau"]``. ``out`` is the output file the
    rows go to.

    prepare(cfg, fixed, tau_max, tol) -> value applies every refusal of a
    value command's run and computes nothing; ``fixed`` holds its settings.
    """
    _check_output(out)
    if name not in SWEPT_NAMES:
        raise ConfigError(f"unknown swept name '{name}'")
    if name == "tau":
        _check_tau(min(values))
        value = prepare(cfg, fixed, max(values), tol)
        return [(v, value, v) for v in values]
    _check_tau(fixed["tau"])
    tau = float(fixed["tau"])
    return [(v, prepare({**cfg, name: v}, fixed, tau, tol), tau) for v in values]


def _notes(cfg: dict, fixed: dict, name: str, values):
    """A run's warnings: the small-d2 ledger used beyond its validity."""
    d2 = max(map(abs, values)) if name == "d2" else abs(cfg["d2"])
    if fixed.get("param") != "d2" or fixed["mode"] != "analytic" or d2 <= D2_VALIDITY:
        return []
    return [f"d2 = {d2} exceeds the small-d2 validity bound {D2_VALIDITY}; "
            "results are indicative only"]


def cmd_qfi(args):
    cfg = load_config(args.config)
    name, values = "tau", [args.tau]
    if args.sweep:
        name, values = args.sweep[0], _parse_sweep(args.sweep[1])
    fixed = {"param": args.param, "mode": args.mode, "tau": args.tau}
    rows = _sweep_rows(_prepare_qfi, cfg, fixed, name, values,
                       TOLERANCES[args.tolerance_profile], args.out)
    for note in _notes(cfg, fixed, name, values):
        print(f"# warning: {note}", file=sys.stderr)
    write_records(args.out, args.format,
                  _meta(args, config=cfg, sweep=args.sweep, **fixed),
                  (name, "qfi"), [(v, *value(t)) for v, value, t in rows])
    return 0


def cmd_cfi(args):
    cfg = load_config(args.config)
    fixed = {"lambda": args.quadrature_angle, "n_max": args.n_max,
             "tau": args.tau}
    rows = _sweep_rows(_prepare_cfi, cfg, fixed, "tau", [args.tau],
                       TOLERANCES[args.tolerance_profile], args.out)
    # the default cut-off (None) is left out, so default fingerprints (and
    # the golden header) do not depend on it being recorded
    fields = {key: v for key, v in fixed.items() if v is not None}
    write_records(args.out, args.format, _meta(args, config=cfg, **fields),
                  ("tau", "cfi"), [(v, *value(t)) for v, value, t in rows])
    return 0


REFERENCE_PLATFORMS = {
    "fabry-perot": FabryPerot(length=1e-5, mass=1e-6, omega_c=1e14, omega_m=1e3),
    "levitated": Levitated(volume=1e-18, cavity_volume=1e-14,
                           relative_permittivity=5.7, wavelength=1064e-9,
                           mass=1e-14, omega_c=1e14, omega_m=1e2),
    "cold-atoms": ColdAtoms(n_atoms=10 ** 5, single_atom_coupling=1e7,
                            laser_wavevector=1e8, atom_mass=1e-25,
                            detuning=1e11, omega_m=1e2),
}


def setup_from_json(path: str):
    """The platform in a JSON file: ``kind`` names a reference platform."""
    data = _read_json(path)
    kind = _one_of("kind", data.pop("kind", None), tuple(REFERENCE_PLATFORMS))
    try:
        return type(REFERENCE_PLATFORMS[kind])(**data)
    except (TypeError, ValueError) as exc:  # a field it does not take or refuses
        raise ConfigError(f"setup: {exc}") from None


def cmd_gravimetry(args):
    _check_output(args.out)
    if args.table:
        rows = []
        for name, setup in REFERENCE_PLATFORMS.items():
            rep = gravimetry(setup, mu_c=math.sqrt(args.photons))
            rows.append((name, coupling_constant(setup),
                         rep.qfi_dimensionful, rep.std_dev))
        write_records(args.out, args.format,
                      _meta(args, table=True, photons=args.photons),
                      ("platform", "g0_dimensionless", "qfi_si", "delta_g"), rows)
        return 0
    if not args.setup:
        raise ConfigError("provide --setup JSON or --table")
    setup = setup_from_json(args.setup)
    rep = gravimetry(setup, mu_c=math.sqrt(args.photons))
    write_records(args.out, args.format,
                  _meta(args, setup=args.setup, photons=args.photons),
                  ("g0_dimensionless", "qfi_dimensionless", "qfi_si", "delta_g"),
                  [(coupling_constant(setup), rep.qfi_dimensionless,
                    rep.qfi_dimensionful, rep.std_dev)])
    return 0


def _parse_dims(text: str):
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:  # a field is not an integer
        dims = ()
    if len(dims) != 2 or min(dims) < 1:
        raise ConfigError(f"dims '{text}' is not NA,NB with two positive "
                          "integers")
    return dims


def cmd_oracle_check(args):
    cfg = load_config(args.config)
    _check_output(args.out)
    spec, state = subsystem_model(cfg), state_from_config(cfg)
    tau = args.tau
    _check_tau(tau)
    try:
        dims = _parse_dims(args.dims) if args.dims else \
            recommended_dims(spec, state, tau)
    except TruncationError as exc:  # more levels than the oracle's cap
        raise ConfigError(str(exc)) from None
    traj = Trajectory(spec, tau, TOLERANCES[args.tolerance_profile])
    f, alpha, beta, d, m = _moments_at(state, traj, tau)
    st = propagate(spec, state, tau, dims)
    mo = oracle_moments(st)
    names = ("a", "b", "a2", "b2", "adag_a", "bdag_b", "ab", "abdag")
    rows = [(k, abs(getattr(m, k) - getattr(mo, k))) for k in names]
    cov_dev = np.max(np.abs(covariance(m, d, alpha, beta, state.mu_c).matrix
                            - covariance_from_moments(mo).matrix))
    rows.append(("covariance", float(cov_dev)))
    rows.append(("norm_defect", st.norm_defect))
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau=tau, dims=list(dims)),
                  ("quantity", "max_deviation"), rows)
    worst = max(r[1] for r in rows[:-1])
    return 0 if worst < args.tolerance else 1


# the fields of a sweep document, the first four required; and each
# command's prepare with the defaults of its fixed settings besides tau
SWEEP_FIELDS = ("command", "model", "swept", "output", "fixed", "format")
SWEPT_FIELDS = ("name", "start", "stop", "step")
SWEEP_COMMANDS = {"qfi": (_prepare_qfi, {"param": "g0", "mode": "analytic"}),
                  "cfi": (_prepare_cfi, {"lambda": math.pi / 2}),
                  "nongauss": (_prepare_nongauss, {})}


def _sweep_plan(data: dict, tol):
    """(prepared rows, warnings) of a sweep document, refused as its run is."""
    _fields(data, SWEEP_FIELDS, required=SWEEP_FIELDS[:4])
    cfg = resolve_config(_fields(data["model"], CONFIG_KEYS, "model"))
    swept = _fields(data["swept"], SWEPT_FIELDS, "swept", SWEPT_FIELDS)
    _one_of("swept.name", swept["name"], SWEPT_NAMES)
    values = _parse_sweep(f"{swept['start']}:{swept['stop']}:{swept['step']}")
    command = _one_of("command", data["command"], tuple(SWEEP_COMMANDS))
    prepare, defaults = SWEEP_COMMANDS[command]
    fixed = {"tau": 2.0 * math.pi, **defaults}
    fixed.update(_fields(data.get("fixed", {}), fixed, "fixed"))
    _one_of("format", data.get("format", "csv"), FORMATS)
    if not isinstance(data["output"], str):
        raise ConfigError(f"field 'output' must be a string, got "
                          f"{data['output']!r}")
    rows = _sweep_rows(prepare, cfg, fixed, swept["name"], values, tol,
                       data["output"])
    return rows, _notes(cfg, fixed, swept["name"], values)


def validate_sweep_config(data: dict):
    """Every refusal of the sweep's run, computing nothing; returns warnings."""
    return _sweep_plan(data, TOLERANCES["strict"])[1]


def cmd_sweep(args):
    data = _read_json(args.config)
    rows, notes = _sweep_plan(data, TOLERANCES[args.tolerance_profile])
    for note in notes:
        print(f"# warning: {note}", file=sys.stderr)
    if args.validate_only:
        print("ok")
        return 0
    # a sweep records the first value column: nongauss's delta
    write_records(data["output"], data.get("format", "csv"),
                  _meta(args, sweep_config=data),
                  (data["swept"]["name"], data["command"]),
                  [(v, value(t)[0]) for v, value, t in rows])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optomech")
    parser.add_argument("--tolerance-profile", choices=("strict", "fast"),
                        default="strict")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, func, grid=False):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=FORMATS, default="csv")
        if grid:
            p.add_argument("--tau-max", type=float, default=2.0 * math.pi)
            p.add_argument("--steps", type=int, default=101)
        return p

    common("drive-eval", cmd_drive_eval, grid=True)
    common("mechanics", cmd_mechanics, grid=True)
    common("coeffs", cmd_coeffs, grid=True)
    p = common("moments", cmd_moments, grid=True)
    p.add_argument("--quadratures", action="store_true")
    common("nongauss", cmd_nongauss, grid=True)

    p = common("qfi", cmd_qfi)
    p.add_argument("--param", default="g0")
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--mode", choices=QFI_MODES, default="analytic")
    p.add_argument("--sweep", nargs=2, metavar=("NAME", "START:STOP:STEP"))

    p = common("cfi", cmd_cfi)
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--quadrature-angle", type=float, default=math.pi / 2)
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("gravimetry")
    p.add_argument("--table", action="store_true")
    p.add_argument("--setup", default=None)
    p.add_argument("--photons", type=float, default=1e6)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.set_defaults(func=cmd_gravimetry)

    p = common("oracle-check", cmd_oracle_check)
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--dims", default=None, help="NA,NB")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--validate-only", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a run prints its small-d2 validity note once, as a # warning: line
        warnings.filterwarnings("ignore", r"\|d2\| = .* small-d2 validity")
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
