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
import sys

import numpy as np

from . import __version__
from .coefficients import Trajectory, derived_scalars
from .mechanics import TOLERANCES, j_coefficients, solve_subsystem
from .metrology import (D2_VALIDITY, cfi_homodyne, gravimetry,
                        qfi_coefficients, qfi_thermal)
from .moments import covariance, covariance_from_moments, evolve_moments, quadratures
from .nongaussianity import report as nongauss_report
from .oracle import oracle_moments, propagate, recommended_dims
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


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return resolve_config(raw)


def resolve_config(raw: dict) -> dict:
    cfg = dict(CONFIG_KEYS)
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config field '{key}'")
        cfg[key] = value
    if cfg["optical"] not in ("coherent", "fock"):
        raise ConfigError("field 'optical' must be 'coherent' or 'fock'")
    if cfg["mechanical"] not in ("coherent", "thermal"):
        raise ConfigError("field 'mechanical' must be 'coherent' or 'thermal'")
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
    elif fmt == "json":
        payload = {"library": f"optomech {__version__}",
                   "fingerprint": fingerprint(meta),
                   "columns": list(columns),
                   "rows": [[_fmt(v) for v in row] for row in rows]}
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format '{fmt}'")
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


def _check_tau(*taus):
    """Every command reads the evolution from its start at tau = 0 on."""
    if min(taus) < 0:
        raise ConfigError(f"tau must be >= 0, got {min(taus)}")


def _check_counts(args):
    """--steps counts grid points and --n-max Fock levels: one at least."""
    for option in ("steps", "n_max"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{option.replace('_', '-')} must be >= 1, "
                              f"got {value}")


def _tau_grid(args) -> np.ndarray:
    return np.linspace(0.0, args.tau_max, args.steps)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_drive_eval(args):
    cfg = load_config(args.config)
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
    spec = model_from_config(cfg)
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
    traj = Trajectory(model_from_config(cfg), float(max(taus)), tol)
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
    spec, state = model_from_config(cfg), state_from_config(cfg)
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


def _inputs(cfg: dict):
    """(model, state) of a config."""
    return model_from_config(cfg), state_from_config(cfg)


def _nongauss_inputs(cfg: dict):
    """(model, state) of a config, refused unless the input state is pure."""
    spec, state = _inputs(cfg)
    if state.optical != "coherent" or state.mechanical != "coherent":
        raise ConfigError("the non-Gaussianity measure requires pure "
                          "coherent x coherent input")
    return spec, state


def cmd_nongauss(args):
    cfg = load_config(args.config)
    spec, state = _nongauss_inputs(cfg)
    taus = _tau_grid(args)
    traj = Trajectory(spec, args.tau_max, TOLERANCES[args.tolerance_profile])
    rows = []
    for t in taus:
        rep = nongauss_report(spec, state.mu_c, state.mu_m, t, traj=traj)
        rows.append((t, rep.delta, rep.delta_min, rep.delta_max,
                     rep.nu_op, rep.nu_me))
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau_max=args.tau_max, steps=args.steps),
                  ("tau", "delta", "delta_min", "delta_max", "nu_op", "nu_me"),
                  rows)
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


def _qfi_value(cfg: dict, param: str, tau: float, mode: str, tol) -> float:
    spec, state = _inputs(cfg)
    try:
        coeffs = qfi_coefficients(spec, param, tau, mode=mode, tol=tol)
    except ValueError as exc:  # a parameter, mode or model it has no route for
        raise ConfigError(str(exc)) from None
    r_T = cfg["r_T"] if cfg["mechanical"] == "thermal" else 0.0
    return qfi_thermal(coeffs, state.mu_c, r_T)


def _cfi_inputs(cfg: dict):
    """(model, state) of a config, refused unless the CFI kernel covers it."""
    spec, state = _inputs(cfg)
    if not (spec.coupling.is_constant and spec.displacement.is_constant):
        raise ConfigError("cfi needs a constant coupling and displacement")
    if not spec.squeezing.is_zero:
        raise ConfigError("cfi needs d2 = 0")
    if state.optical != "coherent" or state.mechanical != "coherent":
        raise ConfigError("cfi requires coherent x coherent input")
    return spec, state


def _cfi_value(cfg: dict, lam: float, tau: float, n_max) -> float:
    spec, state = _cfi_inputs(cfg)
    return cfi_homodyne(spec.coupling.amplitude, spec.displacement.amplitude,
                        state.mu_c, state.mu_m, lam, tau, n_max=n_max)


def _sweep_rows(cfg: dict, name: str, values, tau: float, value_at):
    """Rows (v, value_at(config, tau)) over the swept values v of ``name``.

    Sweeping ``tau`` replaces ``tau``; any other name overrides that field
    of ``cfg``.
    """
    if name not in SWEPT_NAMES:
        raise ConfigError(f"unknown swept name '{name}'")
    if name == "tau":
        return [(v, value_at(cfg, v)) for v in values]
    return [(v, value_at({**cfg, name: v}, tau)) for v in values]


def cmd_qfi(args):
    cfg = load_config(args.config)
    meta = _meta(args, config=cfg, param=args.param, tau=args.tau,
                 mode=args.mode, sweep=args.sweep)

    def value_at(local, tau):
        return _qfi_value(local, args.param, tau, args.mode,
                          TOLERANCES[args.tolerance_profile])

    if args.sweep:
        name, grid_text = args.sweep
        rows = _sweep_rows(cfg, name, _parse_sweep(grid_text), args.tau,
                           value_at)
        write_records(args.out, args.format, meta, (name, "qfi"), rows)
    else:
        write_records(args.out, args.format, meta, ("tau", "qfi"),
                      [(args.tau, value_at(cfg, args.tau))])
    return 0


def cmd_cfi(args):
    cfg = load_config(args.config)
    value = _cfi_value(cfg, args.quadrature_angle, args.tau, args.n_max)
    fields = {"config": cfg, "tau": args.tau, "lambda": args.quadrature_angle}
    # the default cut-off is left out, so default fingerprints (and the
    # golden header) do not depend on it being recorded
    if args.n_max is not None:
        fields["n_max"] = args.n_max
    write_records(args.out, args.format, _meta(args, **fields),
                  ("tau", "cfi"), [(args.tau, value)])
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    kind = data.pop("kind")
    cls = {"fabry-perot": FabryPerot, "levitated": Levitated,
           "cold-atoms": ColdAtoms}[kind]
    return cls(**data)


def cmd_gravimetry(args):
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
    spec, state = model_from_config(cfg), state_from_config(cfg)
    tau = args.tau
    dims = _parse_dims(args.dims) if args.dims else \
        recommended_dims(spec, state, tau)
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


def validate_sweep_config(data: dict):
    """Dry-run schema and validity checks; returns a list of warnings."""
    problems, notes = [], []
    for field in ("command", "model", "swept", "output"):
        if field not in data:
            problems.append(f"missing field '{field}'")
    if problems:
        raise ConfigError("; ".join(problems))
    try:
        cfg = resolve_config(data["model"])
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from exc
    swept = data["swept"]
    for field in ("name", "start", "stop", "step"):
        if field not in swept:
            raise ConfigError(f"swept: missing field '{field}'")
    if swept["name"] not in SWEPT_NAMES:
        raise ConfigError(f"swept.name: unknown name '{swept['name']}'")
    values = _parse_sweep(f"{swept['start']}:{swept['stop']}:{swept['step']}")
    fixed = data.get("fixed", {})
    _check_tau(swept["start"] if swept["name"] == "tau"
               else fixed.get("tau", 0.0))
    if data["command"] not in ("qfi", "cfi", "nongauss"):
        raise ConfigError(f"command: unknown command '{data['command']}'")
    # build, at every sweep point, the model and state the run would build,
    # with the same refusals, and compute nothing
    inputs = {"qfi": _inputs, "cfi": _cfi_inputs,
              "nongauss": _nongauss_inputs}[data["command"]]
    _sweep_rows(cfg, swept["name"], values, 0.0,
                lambda local, tau: inputs(local))
    if data["command"] == "qfi" and fixed.get("param", "g0") == "d2":
        d2 = abs(cfg["d2"])
        if swept["name"] == "d2":
            d2 = max(d2, abs(swept["start"]), abs(swept["stop"]))
        if d2 > D2_VALIDITY:
            notes.append(f"d2 = {d2} exceeds the small-d2 validity bound "
                         f"{D2_VALIDITY}; results are indicative only")
    return notes


def cmd_sweep(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    notes = validate_sweep_config(data)
    for note in notes:
        print(f"# warning: {note}", file=sys.stderr)
    if args.validate_only:
        print("ok")
        return 0
    cfg = resolve_config(data["model"])
    swept, fixed, command = data["swept"], data.get("fixed", {}), data["command"]
    values = _parse_sweep(f"{swept['start']}:{swept['stop']}:{swept['step']}")
    tol = TOLERANCES[args.tolerance_profile]
    shared = None
    if command == "nongauss" and swept["name"] == "tau":
        # the model is fixed, so one trajectory serves every swept tau
        shared = Trajectory(model_from_config(cfg), max(values), tol)

    def value_at(local, tau):
        if command == "qfi":
            return _qfi_value(local, fixed.get("param", "g0"), tau,
                              fixed.get("mode", "analytic"), tol)
        if command == "cfi":
            return _cfi_value(local, float(fixed.get("lambda", math.pi / 2)),
                              tau, None)
        spec, state = _nongauss_inputs(local)
        rep = nongauss_report(spec, state.mu_c, state.mu_m, tau,
                              traj=shared or Trajectory(spec, tau, tol))
        return rep.delta

    rows = _sweep_rows(cfg, swept["name"], values,
                       float(fixed.get("tau", 2.0 * math.pi)), value_at)
    write_records(data["output"], data.get("format", "csv"),
                  _meta(args, sweep_config=data), (swept["name"], command), rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optomech")
    parser.add_argument("--tolerance-profile", choices=("strict", "fast"),
                        default="strict")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if grid:
            p.add_argument("--tau-max", type=float, default=2.0 * math.pi)
            p.add_argument("--steps", type=int, default=101)

    p = sub.add_parser("drive-eval"); common(p, grid=True)
    p.set_defaults(func=cmd_drive_eval)
    p = sub.add_parser("mechanics"); common(p, grid=True)
    p.set_defaults(func=cmd_mechanics)
    p = sub.add_parser("coeffs"); common(p, grid=True)
    p.set_defaults(func=cmd_coeffs)
    p = sub.add_parser("moments"); common(p, grid=True)
    p.add_argument("--quadratures", action="store_true")
    p.set_defaults(func=cmd_moments)
    p = sub.add_parser("nongauss"); common(p, grid=True)
    p.set_defaults(func=cmd_nongauss)

    p = sub.add_parser("qfi"); common(p)
    p.add_argument("--param", default="g0")
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--mode", choices=("analytic", "finite_diff"),
                   default="analytic")
    p.add_argument("--sweep", nargs=2, metavar=("NAME", "START:STOP:STEP"))
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("cfi"); common(p)
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--quadrature-angle", type=float, default=math.pi / 2)
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_cfi)

    p = sub.add_parser("gravimetry")
    p.add_argument("--table", action="store_true")
    p.add_argument("--setup", default=None)
    p.add_argument("--photons", type=float, default=1e6)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_gravimetry)

    p = sub.add_parser("oracle-check"); common(p)
    p.add_argument("--tau", type=float, default=math.pi)
    p.add_argument("--dims", default=None, help="NA,NB")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--validate-only", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_tau(getattr(args, "tau", 0.0), getattr(args, "tau_max", 0.0))
        _check_counts(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
