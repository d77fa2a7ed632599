"""Command-line interface.

Subcommands: drive-eval, coeffs, mechanics, moments, nongauss, qfi, cfi,
gravimetry, oracle-check, sweep. Model and state are described by a flat
JSON config (see CONFIG_KEYS); outputs are deterministic CSV or JSON whose
header embeds the resolved-config fingerprint, so repeated runs of one config
on one install yield byte-identical files. Across numpy/SciPy/LAPACK builds and
BLAS thread counts the last digits of LAPACK- and quadrature-derived values
(cfi, oracle-check) may differ; their goldens are compared at the accuracy each
method promises.

The seven value commands, drive-eval through cfi, are one table,
VALUE_COMMANDS: each entry is a prepare, its value columns and the args its
fingerprint records. One runner, cmd_values, reads the swept values (the tau
grid, --tau or qfi's --sweep), refuses an output it cannot write, prepares
(every other refusal, the input state's first; no arithmetic) and writes one
row per value; sweep runs the qfi, cfi and nongauss prepares of the same
table.

Every refusal reaches ``main`` as a ConfigError and exits 2 with one error
line; the library's own refusals become one at one boundary per phase.
``_refused`` wraps each prepare and oracle-check's set-up, and passes on the
message of a ValueError (and of ``oracle.TruncationError`` for
oracle-check's dims). These refusals come before any arithmetic, among them
a Fock input to qfi, a thermal or Fock input to oracle-check, a fock_n that
is not an integer, a --steps above MAX_SWEEP_POINTS, a cfi cut-off above
metrology.N_MAX_CAP and oracle-check dims that oracle.check_dims refuses,
recommended or given. ``_refusing`` wraps the computing, and its line names
the command and tau (or the swept point). It refuses a value that passes the
float range (the library raises OverflowError, or returns inf or nan), after
the arithmetic that overflowed and before any output is written, so no
prepare and no ``sweep --validate-only`` sees it; a pass whose step
underflows or that needs more than ``dop853.MAX_STEPS`` steps
(``IntegrationError``, or ``oracle.TruncationError`` from ``propagate``),
named by the range [0, tau] it integrates, or in a sweep over a model key
by its point; and a result the library refuses as a domain error
(``ValueError``), such as a Bogoliubov pair that overflowed. ``main`` holds the warnings a command raises and shows
them once it returns: a refused command prints its error line alone.

Importing this module loads the standard library and ``params`` only. Each
function imports the layer modules it calls where it calls them, so parsing
and ``--help`` load no numpy, and each command loads what it calls:
``drive-eval`` loads no layer module, and only ``cfi`` and ``oracle-check``
load the oracle. The layer modules import numpy inside the functions that
build arrays, the closed forms run on ``math`` and ``cmath`` alone, and the
integrated route's DOP853 pass on lists of floats, so ``drive-eval``,
``gravimetry``, ``qfi`` (on any route, in either mode; a single tau or a
sweep), ``mechanics``, ``coeffs`` and ``moments`` run no numpy, whose
subsystem, F, J and moments are scalars; ``nongauss`` loads it for the
symplectic spectrum. Only a command that reads a decoupled pass loads
``dop853``. Every library function is looked up on its module when it is
called, so a function rebound on its module is the one that runs.

``launch``, the entry point of the ``optomech`` console script and of
``python -m optomech.cli``, pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set, then runs ``main``: every BLAS call a
command makes is small, so a second thread buys no wall time but costs CPU at
load and while it spins after each call. The pin moves oracle-check residuals
at the 1e-14 level (b2 1.1031e-12 -> 1.1049e-12 at g0 = d1 = 1, mu_c = 1,
mu_m = 0.5, tau = pi), because zdotc no longer splits its sum across threads;
they stay deterministic per process. Importing the module, or calling
``main``, leaves the variable alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from collections import namedtuple
from contextlib import contextmanager

from . import __version__
from .params import (QFI_MODES, ColdAtoms, Drive, FabryPerot, InitialState,
                     IntegrationError, Levitated, ModelSpec, coupling_constant,
                     evaluate_drive)


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

# the most points a sweep range may hold, checked before its list is built
MAX_SWEEP_POINTS = 10 ** 6


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


def _finite(name: str, value) -> float:
    value = _number(name, value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


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
    fock_n = cfg["fock_n"]
    if isinstance(fock_n, float) and not fock_n.is_integer():  # inf, nan too
        raise ConfigError(f"field 'fock_n' must be an integer, got {fock_n!r}")
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
    return ModelSpec(
        coupling=Drive.offset_sinusoid(cfg["g0"], cfg["epsilon"], cfg["omega_g"]),
        displacement=Drive.cosine(cfg["d1"], cfg["omega_d1"]),
        squeezing=Drive.cosine(cfg["d2"], cfg["omega_d2"]),
    )


def subsystem_model(cfg: dict) -> ModelSpec:
    """The model of a command that solves its mechanical subsystem."""
    from . import mechanics
    spec = model_from_config(cfg)
    mechanics.check_squeezing(spec.squeezing)
    return spec


def state_from_config(cfg: dict) -> InitialState:
    return InitialState(
        optical=cfg["optical"],
        mu_c=complex(cfg["mu_c_re"], cfg["mu_c_im"]),
        fock_n=int(cfg["fock_n"]),
        mechanical=cfg["mechanical"],
        mu_m=complex(cfg["mu_m_re"], cfg["mu_m_im"]),
        r_T=cfg["r_T"],
    )


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


# a setting a fingerprint leaves out at this value: cfi's default cut-off,
# so default fingerprints (and with them the golden headers) do not depend
# on it being recorded
UNRECORDED = ("n_max", None)


def _meta(args, **fields) -> dict:
    """The fingerprinted description of a command's output."""
    meta = {"cmd": args.command, **fields}
    return {key: v for key, v in meta.items() if (key, v) != UNRECORDED}


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
    """Every command reads the evolution from its start at tau = 0 on, up to
    a finite time."""
    if _number("tau", tau) < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    _finite("tau", tau)


def _tau_grid(args):
    """np.linspace(0, tau_max, steps), bit for bit, as a list of floats."""
    _check_tau(args.tau_max)
    if not 1 <= args.steps <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--steps must be >= 1 and <= {MAX_SWEEP_POINTS}, "
                          f"got {args.steps}")
    tau_max, div = args.tau_max, args.steps - 1
    if div == 0:
        return [0.0]
    step = tau_max / div
    if step == 0:  # the step underflows: numpy scales i / div by tau_max
        grid = [i / div * tau_max for i in range(args.steps)]
    else:
        grid = [i * step for i in range(args.steps)]
    grid[-1] = tau_max
    return grid


def _parse_sweep(text: str):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:  # not three fields, or one is not a number
        raise ConfigError(f"sweep range '{text}' is not START:STOP:STEP "
                          "with numeric fields") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"sweep range '{text}' has a field that is not "
                          "finite")
    if step <= 0:
        raise ConfigError("sweep step must be > 0")
    if stop < start:
        raise ConfigError(f"sweep range '{text}' is empty")
    last = (stop - start) / step + 1e-9  # inf when the span overflows
    if not last < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep range '{text}' holds more than "
                          f"{MAX_SWEEP_POINTS} points")
    return [start + i * step for i in range(math.floor(last) + 1)]


def _input_state(cfg: dict, who: str, mechanical=("coherent",)) -> InitialState:
    """The input state of ``cfg``, refused unless it is a coherent optical
    state and one of the ``mechanical`` states, which ``who`` requires."""
    state = state_from_config(cfg)
    if state.optical != "coherent" or state.mechanical not in mechanical:
        raise ConfigError(f"{who} coherent x {' or '.join(mechanical)} input")
    return state


@contextmanager
def _refused(*failures):
    """Refuse, as a ConfigError with its message, an input the library
    refuses while a command is set up (a ValueError, or one of ``failures``);
    a set-up computes nothing."""
    try:
        yield
    except (ValueError, *failures) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# value commands: prepare(cfg, fixed, tau_max) -> value applies every
# refusal of the command, its input state's first, and builds the model it
# reads on [0, tau_max], computing nothing; value(tau) computes one row's
# value columns, integrating on the first read. ``fixed`` holds the
# command's settings.
# ---------------------------------------------------------------------------


def _prepare_drives(cfg: dict, fixed: dict, tau_max: float):
    spec = model_from_config(cfg)
    return lambda tau: (evaluate_drive(spec.coupling, tau),
                        evaluate_drive(spec.displacement, tau),
                        evaluate_drive(spec.squeezing, tau))


def _prepare_mechanics(cfg: dict, fixed: dict, tau_max: float):
    from . import coefficients
    traj = coefficients.Trajectory(subsystem_model(cfg), tau_max)

    def value(tau):
        p11, _, i_p22, _ = traj.state_at(tau)
        alpha, beta = traj.bogoliubov(tau)
        return p11, i_p22, alpha.real, alpha.imag, beta.real, beta.imag
    return value


def _prepare_coeffs(cfg: dict, fixed: dict, tau_max: float):
    from . import coefficients, mechanics
    traj = coefficients.Trajectory(subsystem_model(cfg), tau_max)

    def value(tau):
        f = traj.f(tau)
        alpha, beta = traj.bogoliubov(tau)
        j = mechanics.j_coefficients(alpha, beta)
        d = coefficients.derived_scalars(f, alpha, beta)
        return (f.f_na, f.f_na2, f.f_bp, f.f_bm, f.f_nabp, f.f_nabm,
                j.j_b, j.j_plus, j.j_minus, d.theta, d.k_na.real, d.k_na.imag)
    return value


def _prepare_moments(cfg: dict, fixed: dict, tau_max: float):
    from . import coefficients, moments
    state = _input_state(cfg, "moments require")
    spec = subsystem_model(cfg)
    traj = coefficients.Trajectory(spec, tau_max)

    def value(tau):
        m = moments.evolve_moments(traj.f(tau), *traj.bogoliubov(tau),
                                   state.mu_c, state.mu_m)
        if fixed["quadratures"]:
            return moments.quadratures(m)
        return (m.a.real, m.a.imag, m.b.real, m.b.imag, m.a2.real, m.a2.imag,
                m.b2.real, m.b2.imag, m.adag_a, m.bdag_b, m.ab.real, m.ab.imag,
                m.abdag.real, m.abdag.imag)
    return value


def _prepare_nongauss(cfg: dict, fixed: dict, tau_max: float):
    from . import coefficients
    state = _input_state(cfg, "the non-Gaussianity measure requires pure")
    spec = subsystem_model(cfg)
    traj = coefficients.Trajectory(spec, tau_max)  # integrates on first use

    def value(tau):
        from . import nongaussianity
        rep = nongaussianity.report(spec, state.mu_c, state.mu_m, tau, traj=traj)
        return rep.delta, rep.delta_min, rep.delta_max, rep.nu_op, rep.nu_me
    return value


def _prepare_qfi(cfg: dict, fixed: dict, tau_max: float):
    from . import metrology
    state = _input_state(cfg, "qfi requires", ("coherent", "thermal"))
    spec = model_from_config(cfg)
    param, mode = fixed["param"], _one_of("mode", fixed["mode"], QFI_MODES)
    derivatives = metrology.qfi_derivatives(spec, param, tau_max, mode)
    r_T = state.r_T if state.mechanical == "thermal" else 0.0
    return lambda tau: (metrology.qfi_thermal(metrology.qfi_coefficients(
        spec, param, tau, mode=mode, derivatives=derivatives),
        state.mu_c, r_T),)


def _prepare_cfi(cfg: dict, fixed: dict, tau_max: float):
    state = _input_state(cfg, "cfi requires")
    spec = model_from_config(cfg)
    if not (spec.coupling.is_constant and spec.displacement.is_constant):
        raise ConfigError("cfi needs a constant coupling and displacement")
    if not spec.squeezing.is_zero:
        raise ConfigError("cfi needs d2 = 0")
    lam, n_max = _finite("lambda", fixed["lambda"]), fixed.get("n_max")
    if n_max is not None and n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {n_max}")
    from . import metrology
    cut = metrology.default_n_max(state.mu_c) if n_max is None else n_max
    if cut > metrology.N_MAX_CAP:
        which = "the default --n-max" if n_max is None else "--n-max"
        raise ConfigError(f"{which} {cut} exceeds the cap {metrology.N_MAX_CAP}, "
                          "above which cfi's dense state passes 128 MiB")
    tail = 0.0 if n_max is None else metrology.photon_tail(state.mu_c, n_max)
    if tail > metrology.PHOTON_TAIL_LIMIT:
        raise ConfigError(f"--n-max {n_max} cuts a photon tail mass {tail:.2e} "
                          "off the input, above 1e-10; increase --n-max")
    return lambda tau: (metrology.cfi_homodyne(
        spec.coupling.amplitude, spec.displacement.amplitude, state.mu_c,
        state.mu_m, lam, tau, n_max=n_max),)


# a value command: its prepare, its value columns and the args its
# fingerprint records
ValueCommand = namedtuple("ValueCommand", "prepare columns records")
GRID = ("tau_max", "steps")
QUADRATURE_COLUMNS = ("x_c", "p_c", "x_m", "p_m")  # moments --quadratures
VALUE_COMMANDS = {
    "drive-eval": ValueCommand(_prepare_drives, ("G", "D1", "D2"), GRID),
    "mechanics": ValueCommand(
        _prepare_mechanics, ("P11", "I_P22", "re_alpha", "im_alpha",
                             "re_beta", "im_beta"), GRID),
    "coeffs": ValueCommand(
        _prepare_coeffs, ("F_Na", "F_Na2", "F_B+", "F_B-", "F_NaB+", "F_NaB-",
                          "J_b", "J_+", "J_-", "theta", "re_K_Na", "im_K_Na"),
        GRID),
    "moments": ValueCommand(
        _prepare_moments, ("re_a", "im_a", "re_b", "im_b", "re_a2", "im_a2",
                           "re_b2", "im_b2", "adag_a", "bdag_b", "re_ab",
                           "im_ab", "re_abdag", "im_abdag"),
        (*GRID, "quadratures")),
    "nongauss": ValueCommand(
        _prepare_nongauss, ("delta", "delta_min", "delta_max", "nu_op", "nu_me"),
        GRID),
    "qfi": ValueCommand(_prepare_qfi, ("qfi",), ("sweep", "param", "mode", "tau")),
    "cfi": ValueCommand(_prepare_cfi, ("cfi",), ("lambda", "n_max", "tau")),
}


def _sweep_rows(command: str, cfg: dict, fixed: dict, name: str, values, out):
    """The rows (v, value, t) of the value command ``command`` over the swept
    values v of ``name``, prepared and refused, computing nothing; value(t)
    computes the row's value columns. A tau sweep prepares once at the
    largest tau, so it integrates the one pass it reads once: the model's,
    or for a qfi off the catalog the stepped pass of its values and
    derivatives. Any other name overrides that field of ``cfg`` and prepares
    each point at ``fixed["tau"]``. ``out`` is the output file the rows go to.
    """
    _check_output(out)
    if name not in SWEPT_NAMES:
        raise ConfigError(f"unknown swept name '{name}'")
    entry = VALUE_COMMANDS[command]

    def prepare(point, tau_max):
        with _refused():
            return entry.prepare(point, fixed, tau_max)

    if name == "tau":
        _check_tau(min(values))
        value = prepare(cfg, max(values))
        return [(v, value, v) for v in values]
    _check_tau(fixed["tau"])
    tau = float(fixed["tau"])
    return [(v, prepare({**cfg, name: v}, tau), tau) for v in values]


@contextmanager
def _refusing(command: str, at: str, *failures, over=None):
    """Refuse, as one ConfigError naming ``command`` and ``at``, a value past
    the float range (OverflowError), a pass that fails (IntegrationError or
    ``failures``; named by the range ``over`` it integrates, if given) and a
    domain error (ValueError)."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError(f"{command} overflows at {at}: {exc}") from None
    except (IntegrationError, *failures) as exc:
        where = f"over {over}" if over else f"at {at}"
        raise ConfigError(f"{command} cannot integrate {where}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{command} has no valid value at {at}: "
                          f"{exc}") from None


def _overflowed(values):
    for x in values:  # a value computed as inf or nan is past the float range
        if not math.isfinite(x):
            raise OverflowError(f"a value is {x}")


def _computed(command: str, name: str, rows):
    """The records (v, *value(t)) of the rows of ``_sweep_rows``; a value
    past the float range is refused naming v and tau, and a failed pass
    naming its point, or for a tau sweep the range [0, tau_max] it reads."""
    records = []
    over = f"[0, {max(t for *_, t in rows)!r}]" if name == "tau" else None
    for v, value, t in rows:
        at = f"tau={t!r}" if name == "tau" else f"{name}={v!r}, tau={t!r}"
        with _refusing(command, at, over=over):
            record = (v, *value(t))
            _overflowed(record[1:])
        records.append(record)
    return records


def cmd_values(args):
    """Run a value command: one row per tau of its grid, its --tau or the
    values of qfi's --sweep, fingerprinted with the config and the args the
    command records."""
    entry = VALUE_COMMANDS[args.command]
    cfg = load_config(args.config)
    fixed = {key: getattr(args, key) for key in entry.records}
    name, values = "tau", (_tau_grid(args) if "steps" in fixed else [args.tau])
    if fixed.get("sweep"):
        name, values = fixed["sweep"][0], _parse_sweep(fixed["sweep"][1])
    rows = _sweep_rows(args.command, cfg, fixed, name, values, args.out)
    columns = QUADRATURE_COLUMNS if fixed.get("quadratures") else entry.columns
    write_records(args.out, args.format, _meta(args, config=cfg, **fixed),
                  (name, *columns), _computed(args.command, name, rows))
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


def _sensitivity(setup, photons: float):
    """The gravimetric sensitivity of ``setup`` at tau = 2 pi; one past the
    float range is refused."""
    from . import metrology
    with _refusing("gravimetry", f"tau={metrology.TWO_PI!r}"):
        return metrology.gravimetry(setup, mu_c=math.sqrt(photons))


def cmd_gravimetry(args):
    _check_output(args.out)
    if not 0 <= args.photons < math.inf:
        raise ConfigError(f"--photons must be finite and >= 0, got "
                          f"{args.photons}")
    if args.table:
        rows = []
        for name, setup in REFERENCE_PLATFORMS.items():
            rep = _sensitivity(setup, args.photons)
            rows.append((name, coupling_constant(setup),
                         rep.qfi_dimensionful, rep.std_dev))
        write_records(args.out, args.format,
                      _meta(args, table=True, photons=args.photons),
                      ("platform", "g0_dimensionless", "qfi_si", "delta_g"), rows)
        return 0
    if not args.setup:
        raise ConfigError("provide --setup JSON or --table")
    setup = setup_from_json(args.setup)
    rep = _sensitivity(setup, args.photons)
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
    from . import coefficients, moments, oracle
    # the set-up computes nothing; the dims the oracle cannot take are refused
    with _refused(oracle.TruncationError):
        spec = subsystem_model(cfg)
        # the oracle propagates coherent x coherent inputs only
        state = _input_state(cfg, "oracle-check requires")
        tau = args.tau
        _check_tau(tau)
        if not 0 < args.tolerance < math.inf:
            raise ConfigError(f"--tolerance must be finite and > 0, got "
                              f"{args.tolerance}")
        dims = _parse_dims(args.dims) if args.dims else \
            oracle.recommended_dims(spec, state, tau)
        # kept out of propagate, whose pass must wait for the phase refusal
        oracle.check_dims(spec, state, tau, dims)
    traj = coefficients.Trajectory(spec, tau)
    # phases past their float spacing overflow, either pass may fail, and a
    # deviation of inf or nan is refused rather than compared
    with _refusing("oracle-check", f"tau={tau!r}", oracle.TruncationError,
                   over=f"[0, {tau!r}]"):
        f = traj.f(tau)
        alpha, beta = traj.bogoliubov(tau)
        m = moments.evolve_moments(f, alpha, beta, state.mu_c, state.mu_m)
        st = oracle.propagate(spec, state, tau, dims)
        mo = oracle.oracle_moments(st)
        names = ("a", "b", "a2", "b2", "adag_a", "bdag_b", "ab", "abdag")
        rows = [(k, abs(getattr(m, k) - getattr(mo, k))) for k in names]
        d = coefficients.derived_scalars(f, alpha, beta, state.mu_m)
        cov_dev = abs(moments.covariance(d, alpha, beta, state.mu_c).matrix
                      - moments.covariance_from_moments(mo).matrix).max()
        rows.append(("covariance", float(cov_dev)))
        rows.append(("norm_defect", st.norm_defect))
        _overflowed(row[1] for row in rows)
    write_records(args.out, args.format,
                  _meta(args, config=cfg, tau=tau, dims=list(dims)),
                  ("quantity", "max_deviation"), rows)
    worst = max(r[1] for r in rows[:-1])
    return 0 if worst < args.tolerance else 1


# the fields of a sweep document, the first four required; and the value
# commands a sweep runs, with the defaults of their fixed settings besides tau
SWEEP_FIELDS = ("command", "model", "swept", "output", "fixed", "format")
SWEPT_FIELDS = ("name", "start", "stop", "step")
SWEEP_COMMANDS = {"qfi": {"param": "g0", "mode": "analytic"},
                  "cfi": {"lambda": math.pi / 2}, "nongauss": {}}


def _sweep_plan(data: dict):
    """The prepared rows of a sweep document, refused as its run is."""
    _fields(data, SWEEP_FIELDS, required=SWEEP_FIELDS[:4])
    cfg = resolve_config(_fields(data["model"], CONFIG_KEYS, "model"))
    swept = _fields(data["swept"], SWEPT_FIELDS, "swept", SWEPT_FIELDS)
    _one_of("swept.name", swept["name"], SWEPT_NAMES)
    values = _parse_sweep(f"{swept['start']}:{swept['stop']}:{swept['step']}")
    command = _one_of("command", data["command"], tuple(SWEEP_COMMANDS))
    fixed = {"tau": 2.0 * math.pi, **SWEEP_COMMANDS[command]}
    fixed.update(_fields(data.get("fixed", {}), fixed, "fixed"))
    _one_of("format", data.get("format", "csv"), FORMATS)
    if not isinstance(data["output"], str):
        raise ConfigError(f"field 'output' must be a string, got "
                          f"{data['output']!r}")
    return _sweep_rows(command, cfg, fixed, swept["name"], values,
                       data["output"])


def validate_sweep_config(data: dict) -> None:
    """Every refusal of the sweep's run, as a ConfigError; computes nothing."""
    _sweep_plan(data)


def cmd_sweep(args):
    data = _read_json(args.config)
    rows = _sweep_plan(data)
    if args.validate_only:
        print("ok")
        return 0
    # a sweep records the first value column: nongauss's delta
    write_records(data["output"], data.get("format", "csv"),
                  _meta(args, sweep_config=data),
                  (data["swept"]["name"], data["command"]),
                  [record[:2] for record in _computed(
                      data["command"], data["swept"]["name"], rows)])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optomech")
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

    values = {name: common(name, cmd_values, grid="steps" in entry.records)
              for name, entry in VALUE_COMMANDS.items()}
    values["moments"].add_argument("--quadratures", action="store_true")
    p = values["qfi"]
    p.add_argument("--param", default="g0")
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--mode", choices=QFI_MODES, default="analytic")
    p.add_argument("--sweep", nargs=2, metavar=("NAME", "START:STOP:STEP"))
    p = values["cfi"]
    p.add_argument("--tau", type=float, default=2.0 * math.pi)
    p.add_argument("--quadrature-angle", dest="lambda", type=float,
                   default=math.pi / 2)
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
    # the command's warnings are held, so a refused command prints its error
    # line alone: the warnings of what it refuses go with it
    try:
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("default")  # once per place; never raised
            return args.func(args)
    except ConfigError as exc:
        held = []
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:  # shown as the filters outside the command have them
        for w in held:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def launch():
    """Run ``main`` on the command line and exit with its code, with OpenBLAS
    pinned to one thread unless OPENBLAS_NUM_THREADS is set. OpenBLAS reads
    the variable once, when numpy loads, which parsing does not do."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    launch()
