"""Fisher-information metrology for the decoupled dynamics.

The generator of parameter changes, -i U^dag dU/dtheta, lives in the same
Lie algebra as the Hamiltonian; its ten real coefficients are assembled
from the F- and J-coefficients and their parameter derivatives. The
quantum Fisher information then follows for coherent, thermal-mechanical
and Fock-superposition inputs, with closed forms for the worked estimation
schemes. A homodyne classical Fisher information (the reduced cavity state
factored by its eigenvectors, then a quadrature integral) complements the
bound, and the dimensionful layer turns everything into gravimetric and
force sensitivities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR
from .coefficients import (FSet, Trajectory, catalog_entry, f_closed_form,
                           f_small_d2_constant, f_small_d2_resonant)
from .mechanics import STRICT, JSet, unstable_squeezing
from .oracle import analytic_state_coefficients
from .params import ModelSpec, PhysicalSetup, coupling_constant, oscillator_mass

D2_VALIDITY = 0.2
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QfiCoefficients:
    """Coefficients of the estimation generator on the Lie-algebra basis.

    c_e and c_k drop out of every Fisher information; they are carried for
    ledger completeness only.
    """

    c_a: float
    c_b: float
    c_cp: float
    c_cm: float
    c_cnp: float
    c_cnm: float
    c_e: float
    c_f: float
    c_g: float
    c_k: float


def _assemble_coefficients(tau: float, f: FSet, df: FSet, j: JSet,
                           dj: JSet) -> QfiCoefficients:
    """Generator coefficients from F/J values and their theta-derivatives."""
    r0 = 2.0 * dj.j_minus - math.sinh(4.0 * j.j_plus) * dj.j_b
    rp = 2.0 * dj.j_plus - math.cosh(4.0 * j.j_plus) * dj.j_b
    rm = 2.0 * dj.j_plus + math.cosh(4.0 * j.j_plus) * dj.j_b
    em = math.exp(-4.0 * j.j_minus)
    ep = math.exp(4.0 * j.j_minus)

    c_a = (-df.f_na2 - 2.0 * f.f_nabm * df.f_nabp
           + 2.0 * f.f_nabm * f.f_nabp * r0
           + em * f.f_nabp ** 2 * rp - ep * f.f_nabm ** 2 * rm)
    c_b = (-df.f_na - 2.0 * f.f_bm * df.f_nabp - 2.0 * f.f_nabm * df.f_bp
           + 2.0 * (f.f_bp * f.f_nabm + f.f_bm * f.f_nabp) * r0
           + 2.0 * em * f.f_bp * f.f_nabp * rp
           - 2.0 * ep * f.f_bm * f.f_nabm * rm)
    c_cp = -df.f_bp + f.f_bp * r0 - ep * f.f_bm * rm
    c_cm = -df.f_bm - f.f_bm * r0 - em * f.f_bp * rp
    c_cnp = -df.f_nabp + f.f_nabp * r0 - ep * f.f_nabm * rm
    c_cnm = -df.f_nabm - f.f_nabm * r0 - em * f.f_nabp * rp
    c_e = -(ep * rm - em * rp) / 2.0
    c_f = -(ep * rm + em * rp) / 4.0
    c_g = -r0 / 2.0
    c_k = (-2.0 * f.f_bm * df.f_bp + 2.0 * f.f_bm * f.f_bp * r0
           + em * f.f_bp ** 2 * rp - ep * f.f_bm ** 2 * rm
           + dj.j_b / 2.0 + c_e / 2.0)
    return QfiCoefficients(c_a=c_a, c_b=c_b, c_cp=c_cp, c_cm=c_cm,
                           c_cnp=c_cnp, c_cnm=c_cnm, c_e=c_e, c_f=c_f,
                           c_g=c_g, c_k=c_k)


# the parameters qfi_coefficients estimates, each a field of a model drive,
# and its two derivative modes
QFI_FIELDS = {"g0": ("coupling", "amplitude"), "epsilon": ("coupling", "offset"),
              "d1": ("displacement", "amplitude"), "d2": ("squeezing", "amplitude"),
              "omega_g": ("coupling", "frequency"),
              "omega_d1": ("displacement", "frequency"),
              "omega_d2": ("squeezing", "frequency")}
QFI_PARAMS = tuple(QFI_FIELDS)
QFI_MODES = ("analytic", "finite_diff")
# each catalog route's name and the parameter values of its model variants
CATALOG_ROUTES = {"g0": ("g0-homogeneity", (1.0,)), "d1": ("d1-homogeneity", (1.0,)),
                  "epsilon": ("epsilon-polynomial", (0.0, 1.0, -1.0))}


def _with_param(spec: ModelSpec, name: str, value: float) -> ModelSpec:
    drive, field = QFI_FIELDS[name]
    return replace(spec, **{drive: replace(getattr(spec, drive), **{field: value})})


def _param_value(spec: ModelSpec, name: str) -> float:
    drive, field = QFI_FIELDS[name]
    return getattr(getattr(spec, drive), field)


def _fd_step(theta: float) -> float:
    return 1e-6 * max(1.0, abs(theta))


def qfi_route(spec: ModelSpec, param: str, mode: str) -> str:
    """The derivative route of ``qfi_coefficients(spec, param, tau, mode)``,
    decided from the drives alone; raises the ValueError that call raises.

    'finite-diff' differentiates the integrated paths, 'd2-constant' and
    'd2-resonant' the small-d2 ledgers, and the CATALOG_ROUTES catalog
    evaluations of the model and of each of its variants.
    """
    if param not in QFI_FIELDS:
        raise ValueError(f"unknown parameter id {param!r}; "
                         f"expected one of {QFI_PARAMS}")
    g, d1, d2 = spec.coupling, spec.displacement, spec.squeezing
    if mode == "finite_diff":
        theta = _param_value(spec, param)
        low = theta - _fd_step(theta)
        if QFI_FIELDS[param][1] == "frequency" and low < 0:
            raise ValueError(f"the finite-difference stencil for {param!r} "
                             f"reaches {low:.3g}, a negative drive frequency")
        sq = _with_param(spec, param, low).squeezing if param == "d2" else d2
        if unstable_squeezing(sq):
            raise ValueError(f"finite differences integrate constant squeezing d2 = "
                             f"{sq.amplitude:.7g}, unstable with 1 + 4 d2 <= 0")
        return "finite-diff"
    if mode != "analytic":
        raise ValueError(f"mode must be one of {QFI_MODES}, got {mode!r}")
    if param == "d2":
        if not (g.is_constant and d1.is_zero):
            raise ValueError("analytic d2 estimation needs a constant coupling "
                             "and no displacement")
        if d2.is_constant:
            return "d2-constant"
        if d2.frequency == 2.0 and d2.phase == "cos":
            return "d2-resonant"
        raise ValueError("analytic d2 estimation covers constant or "
                         "parametric-resonant (frequency 2) modulation only")
    if not d2.is_zero:
        raise ValueError("analytic derivatives with a squeezing term are only "
                         "available for the d2 parameter; use finite differences")
    if param not in CATALOG_ROUTES:
        raise ValueError(f"no analytic derivative route for parameter {param!r}")
    route, values = CATALOG_ROUTES[param]
    if any(catalog_entry(_with_param(spec, param, v)) is None
           for v in (_param_value(spec, param), *values)):
        raise ValueError(f"no analytic derivative route for parameter "
                         f"{param!r}: the closed-form F catalog misses the "
                         f"model or its variant at {param} in {values}")
    return route


def _analytic_derivatives(spec: ModelSpec, param: str, route: str, tau: float):
    """(F, dF/dtheta, J, dJ/dtheta) on an analytic :func:`qfi_route`: the
    small-d2 ledgers of the worked schemes, or catalog evaluations, as g0 and
    d1 enter the exact coefficients homogeneously and epsilon polynomially.
    """
    g0, d2 = spec.coupling.amplitude, spec.squeezing.amplitude
    if route in ("d2-constant", "d2-resonant") and abs(d2) > D2_VALIDITY:
        warnings.warn(f"|d2| = {abs(d2)} exceeds the small-d2 validity "
                      f"bound {D2_VALIDITY}; treat results as indicative",
                      stacklevel=3)
    if route == "d2-constant":
        sigma = 1.0 + 2.0 * d2
        f = f_small_d2_constant(g0, d2, tau)
        df = FSet(f_na=0.0,
                  f_na2=-2.0 * g0 ** 2 * tau * (1.0 - math.cos(2.0 * sigma * tau)),
                  f_bp=0.0, f_bm=0.0,
                  f_nabp=-2.0 * g0 * tau * math.cos(sigma * tau),
                  f_nabm=-2.0 * g0 * tau * math.sin(sigma * tau))
        j = JSet(j_b=sigma * tau, j_plus=0.0, j_minus=0.0)
        dj = JSet(j_b=2.0 * tau, j_plus=0.0, j_minus=0.0)
        return f, df, j, dj
    if route == "d2-resonant":
        ch, sh = math.cosh(d2 * tau), math.sinh(d2 * tau)
        c, s = math.cos(tau), math.sin(tau)
        f = f_small_d2_resonant(g0, d2, tau)
        df = FSet(f_na=0.0,
                  f_na2=g0 ** 2 * tau * (math.sinh(2 * d2 * tau) * math.sin(2 * tau)
                                         + math.cosh(2 * d2 * tau)),
                  f_bp=0.0, f_bm=0.0,
                  f_nabp=-g0 * tau * (sh * s + ch * c),
                  f_nabm=g0 * tau * (sh * c + ch * s))
        j = JSet(j_b=tau, j_plus=0.5 * d2 * tau, j_minus=0.0)
        dj = JSet(j_b=0.0, j_plus=0.5 * tau, j_minus=0.0)
        return f, df, j, dj

    j, zero = JSet(j_b=tau, j_plus=0.0, j_minus=0.0), JSet(0.0, 0.0, 0.0)
    f = f_closed_form(spec, tau)
    variants = [f_closed_form(_with_param(spec, param, v), tau)
                for v in CATALOG_ROUTES[param][1]]
    unit = variants[0]
    if route == "g0-homogeneity":
        df = FSet(f_na=unit.f_na, f_na2=2.0 * g0 * unit.f_na2,
                  f_bp=0.0, f_bm=0.0,
                  f_nabp=unit.f_nabp, f_nabm=unit.f_nabm)
        return f, df, j, zero
    if route == "d1-homogeneity":
        df = FSet(f_na=unit.f_na, f_na2=0.0,
                  f_bp=unit.f_bp, f_bm=unit.f_bm, f_nabp=0.0, f_nabm=0.0)
        return f, df, j, zero
    # epsilon-polynomial: F_NaB+- are linear and F_Na2 quadratic in epsilon,
    # so the polynomial is differentiated through three catalog evaluations
    f0, fp, fm = (v.as_array() for v in variants)
    lin = 0.5 * (fp - fm)
    quad = 0.5 * (fp + fm - 2.0 * f0)
    return f, FSet(*(lin + 2.0 * spec.coupling.offset * quad)), j, zero


def _finite_diff_derivatives(spec: ModelSpec, name: str, tau: float, tol):
    """Central differences with one Richardson refinement on the F/J paths."""
    theta = _param_value(spec, name)
    h = _fd_step(theta)

    def f_j(model: ModelSpec):
        traj = Trajectory(model, tau, tol)
        return traj.f(tau), traj.j(tau)

    def diff(step: float):
        f_hi, j_hi = f_j(_with_param(spec, name, theta + step))
        f_lo, j_lo = f_j(_with_param(spec, name, theta - step))
        darr = (f_hi.as_array() - f_lo.as_array()) / (2.0 * step)
        djay = np.array([j_hi.j_b - j_lo.j_b, j_hi.j_plus - j_lo.j_plus,
                         j_hi.j_minus - j_lo.j_minus]) / (2.0 * step)
        return darr, djay

    d1, dj1 = diff(h)
    d2_, dj2 = diff(h / 2.0)
    darr = (4.0 * d2_ - d1) / 3.0
    djay = (4.0 * dj2 - dj1) / 3.0
    f, j = f_j(spec)
    return f, FSet(*darr), j, JSet(*djay)


def qfi_coefficients(spec: ModelSpec, theta_param: str, tau: float,
                     mode: str = "analytic", tol=STRICT) -> QfiCoefficients:
    """Generator coefficients for estimating ``theta_param`` at time tau.

    ``mode='analytic'`` differentiates the closed-form F/J ledgers
    (available for g0, epsilon, d1 and the worked small-d2 schemes);
    ``mode='finite_diff'`` differentiates the generic paths numerically,
    integrating at ``tol`` = (rtol, atol), for any parameter id (a drive
    frequency needs its stencil to stay >= 0). :func:`qfi_route` names the
    route, or raises, before any arithmetic.
    """
    route = qfi_route(spec, theta_param, mode)
    tau = float(tau)
    if route == "finite-diff":
        f, df, j, dj = _finite_diff_derivatives(spec, theta_param, tau, tol)
    else:
        f, df, j, dj = _analytic_derivatives(spec, theta_param, route, tau)
    return _assemble_coefficients(tau, f, df, j, dj)


# ---------------------------------------------------------------------------
# Fisher information from the coefficients
# ---------------------------------------------------------------------------


def qfi_thermal(coeffs: QfiCoefficients, mu_c: complex, r_T: float = 0.0) -> float:
    """QFI for a coherent optical and thermal mechanical input."""
    if r_T < 0:
        raise ValueError("r_T must be >= 0")
    nc = abs(complex(mu_c)) ** 2
    ch = math.cosh(2.0 * r_T)
    a, b = coeffs.c_a, coeffs.c_b
    quad = ((4.0 * nc ** 3 + 6.0 * nc ** 2 + nc) * a ** 2
            + (4.0 * nc ** 2 + 2.0 * nc) * a * b + nc * b ** 2)
    cn_sq = coeffs.c_cnp ** 2 + coeffs.c_cnm ** 2
    mixed = ((coeffs.c_cp + coeffs.c_cnp * nc) ** 2
             + (coeffs.c_cm + coeffs.c_cnm * nc) ** 2)
    sq = coeffs.c_f ** 2 + coeffs.c_g ** 2
    return 4.0 * (quad + ch * cn_sq * nc + mixed / ch
                  + 4.0 * ch ** 2 / (ch ** 2 + 1.0) * sq)


def qfi_coherent(c_b: float, c_cp: float, c_cm: float, mu_c: complex) -> float:
    """QFI for coherent x coherent input and a displacement-type generator."""
    return 4.0 * (c_b ** 2 * abs(complex(mu_c)) ** 2 + c_cp ** 2 + c_cm ** 2)


def qfi_fock(c_b: float, c_cp: float, c_cm: float, n: int) -> float:
    """QFI for the (|0> + |n>)/sqrt2 optical input, displacement generator."""
    return n ** 2 * c_b ** 2 + 4.0 * (c_cp ** 2 + c_cm ** 2)


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


def qfi_closed_form(case: str, tau: float, g0: float = 0.0, epsilon: float = 0.0,
                    omega: float = 0.0, n_photons: float = 0.0,
                    r_T: float = 0.0) -> float:
    """Worked closed-form QFI expressions.

    Cases: ``g0-general-omega``, ``g0-resonant``, ``g0-resonant-asymptotic``,
    ``d1-general-omega``, ``d1-constant``, ``d1-resonant``,
    ``d2-constant-approx``, ``d2-resonant-approx``. ``n_photons`` is
    |mu_c|^2 and ``omega`` the relevant modulation frequency.
    """
    nc = float(n_photons)
    ch = math.cosh(2.0 * r_T)
    s, c = math.sin(tau), math.cos(tau)

    if case == "g0-general-omega":
        w, e = omega, epsilon
        sw, cw = math.sin(w * tau), math.cos(w * tau)
        big = (2.0 * tau * w ** 5 - 4.0 * tau * w ** 3 + 2.0 * tau * w
               - tau * w ** 3 * e ** 2 + 0.5 * w ** 2 * e ** 2 * math.sin(2 * w * tau)
               + 2.0 * w ** 2 * e ** 2 * c * sw + tau * w * e ** 2
               - 4.0 * w ** 4 * e * c * math.sin(w * tau / 2.0) ** 2
               - 2.0 * (w ** 2 - 1.0) * w * s * (w ** 2 - e * sw - 1.0)
               + 4.0 * w ** 2 * e * c * math.sin(w * tau / 2.0) ** 2
               - e * cw * (2.0 * w ** 3 * e * s + e * sw
                           + 2.0 * w ** 4 - 6.0 * w ** 2 + 4.0)
               + 2.0 * w ** 4 * e - 6.0 * w ** 2 * e + 4.0 * e)
        first = (4.0 * g0 ** 2 / (w ** 2 * (1.0 - w ** 2) ** 4)
                 * nc * (4.0 * nc ** 2 + 6.0 * nc + 1.0) * big ** 2)
        cnm = (1.0 - c - e * (w * cw * s - c * sw) / (w ** 2 - 1.0))
        cnp = (s + e * (w * (1.0 - c * cw) - s * sw) / (w ** 2 - 1.0))
        second = (4.0 * nc * ch * (1.0 + nc / ch ** 2) * (cnm ** 2 + cnp ** 2))
        return first + second

    if case == "g0-resonant":
        e = epsilon
        s2, c2 = math.sin(2.0 * tau), math.cos(2.0 * tau)
        bracket = (4.0 * tau * e ** 2 - 3.0 * e ** 2 * s2 - 8.0 * tau * e * s
                   - 32.0 * e * c + 2.0 * e * (tau * e + 2.0) * c2
                   + 16.0 * tau - 16.0 * s + 28.0 * e)
        first = g0 ** 2 * (4.0 * nc ** 2 + 6.0 * nc + 1.0) * bracket ** 2
        second = (16.0 * ch * (nc / ch ** 2 + 1.0)
                  * (s ** 2 * (e * s + 2.0) ** 2
                     + (tau * e - c * (e * s + 2.0) + 2.0) ** 2))
        return nc / 16.0 * (first + second)

    if case == "g0-resonant-asymptotic":
        return 16.0 * g0 ** 2 * tau ** 2 * nc * (4.0 * nc ** 2 + 6.0 * nc + 1.0)

    if case == "d1-general-omega":
        w = omega
        sw, cw = math.sin(w * tau), math.cos(w * tau)
        first = 4.0 * g0 ** 2 * nc * (sw * (w ** 2 * (1.0 - c) - 1.0)
                                      + w * s * cw) ** 2
        second = (w ** 2 / (2.0 * ch)
                  * (3.0 - (w ** 2 - 1.0) * math.cos(2.0 * w * tau)
                     - 4.0 * w * s * sw - 4.0 * c * cw + w ** 2))
        return 4.0 / (w ** 2 * (1.0 - w ** 2) ** 2) * (first + second)

    if case == "d1-constant":
        return 16.0 * (g0 ** 2 * nc * (tau - s) ** 2
                       + math.sin(tau / 2.0) ** 2 / ch)

    if case == "d1-resonant":
        return (4.0 * g0 ** 2 * nc * (tau + s * (c - 2.0)) ** 2
                + (tau ** 2 + 2.0 * tau * s * c + s ** 2) / ch)

    if case == "d2-constant-approx":
        return 16.0 * g0 ** 2 * tau ** 2 * nc * (nc + ch ** 2) / ch

    if case == "d2-resonant-approx":
        return 4.0 * tau ** 2 * (g0 ** 4 * (4.0 * nc ** 3 + 6.0 * nc ** 2 + nc)
                                 + g0 ** 2 * nc * (nc + ch ** 2) / ch
                                 + ch ** 2 / (ch ** 2 + 1.0))

    raise ValueError(f"unknown closed-form case {case!r}")


# ---------------------------------------------------------------------------
# homodyne classical Fisher information
# ---------------------------------------------------------------------------


def default_n_max(mu_c: complex) -> int:
    nc = abs(complex(mu_c)) ** 2
    return int(math.ceil(nc + 10.0 * math.sqrt(nc) + 20.0))


def cfi_homodyne(g0: float, d1: float, mu_c: complex, mu_m: complex,
                 lam: float, tau: float, n_max: int | None = None) -> float:
    """Classical Fisher information of a homodyne quadrature measurement.

    Only for the model of ``oracle.analytic_state_coefficients``: constant
    coupling and displacement, no squeezing, coherent optical and mechanical
    inputs. The traced-out cavity state rho_nm = w_n w_m* <phi_m|phi_n> is
    measured in the quadrature x_lambda = (a e^{-i lam} + a^dag e^{i lam})
    / sqrt2. rho is factored once as L L^H from its eigenvectors, so the
    quadrature density s0 = sum_k |(L^T u)_k|^2 is non-negative by
    construction and its parameter derivative is a product of the same
    rank-sized rows. Equals the coherent-input QFI at tau = 2 pi for
    integer g0, d1 and a matched quadrature angle.
    """
    mu_c, mu_m = complex(mu_c), complex(mu_m)
    if n_max is None:
        n_max = default_n_max(mu_c)
    weights, labels = analytic_state_coefficients(g0, d1, mu_c, mu_m, tau, n_max)
    tail = 1.0 - float(np.sum(np.abs(weights) ** 2))
    if tail > 1e-10:
        warnings.warn(f"photon tail mass {tail:.2e} beyond n_max={n_max} "
                      "exceeds 1e-10; increase n_max", stacklevel=2)

    # the mechanical overlaps <phi_m|phi_n> are exponentiated in one go:
    # only the combined exponent has a non-positive real part
    half_sq = 0.5 * np.abs(labels) ** 2
    rho = np.outer(weights, np.conj(weights)) * np.exp(
        np.conj(labels)[None, :] * labels[:, None]
        - half_sq[:, None] - half_sq[None, :])
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-15 * evals[-1]
    n = np.arange(n_max)
    # rho = L L^H with the quadrature phase e^{-i lam n} folded into L
    factor = (np.exp(-1j * lam * n)[:, None] * evecs[:, keep]
              * np.sqrt(evals[keep]))

    half_width = math.sqrt(2.0 * n_max) + 8.0

    def integral(n_nodes: int) -> float:
        x, wts = _trapezoid_nodes(half_width, n_nodes)
        psi = _hermite_functions(n_max, x)  # (n_max, nx)
        b = factor.T @ psi
        a = (n[:, None] * factor).T @ psi
        s0 = np.sum(b.real ** 2 + b.imag ** 2, axis=0)
        s1 = 2.0 * np.sum((a * np.conj(b)).imag, axis=0)
        # Cauchy-Schwarz bounds s1^2 / s0 by 4 sum |a_k|^2, so nodes where
        # the density vanishes carry no information
        live = s0 > 0.0
        return float(np.sum(wts[live] * s1[live] ** 2 / s0[live]))

    coarse = integral(1200)
    fine = integral(2400)
    if abs(fine - coarse) > 1e-10 * max(1.0, abs(fine)):
        fine = integral(4800)
    return 4.0 * g0 ** 2 * (tau - math.sin(tau)) ** 2 * fine


def _trapezoid_nodes(half_width: float, n_nodes: int):
    """Uniform nodes on [-half_width, half_width] and trapezoid weights.

    The CFI integrand decays like a Gaussian well inside the window, so the
    rule converges geometrically in the node count.
    """
    x = np.linspace(-half_width, half_width, n_nodes)
    wts = np.full(n_nodes, x[1] - x[0])
    wts[[0, -1]] *= 0.5
    return x, wts


def _hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalised oscillator eigenfunctions psi_n(x), stable to large n."""
    psi = np.zeros((n_max, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if n_max > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for k in range(2, n_max):
        psi[k] = (math.sqrt(2.0 / k) * x * psi[k - 1]
                  - math.sqrt((k - 1.0) / k) * psi[k - 2])
    return psi


# ---------------------------------------------------------------------------
# dimensionful sensitivities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityReport:
    """Dimensionless and dimensionful Fisher information with its bound.

    std_dev = 1 / sqrt(n_measurements * qfi_dimensionful) by the
    Cramer-Rao inequality.
    """

    qfi_dimensionless: float
    qfi_dimensionful: float
    std_dev: float
    n_measurements: int


def _report(qfi_dimless: float, jacobian_sq: float,
            n_measurements: int) -> SensitivityReport:
    qfi_dim = jacobian_sq * qfi_dimless
    std = 1.0 / math.sqrt(n_measurements * qfi_dim) if qfi_dim > 0 else math.inf
    return SensitivityReport(qfi_dimensionless=qfi_dimless,
                             qfi_dimensionful=qfi_dim, std_dev=std,
                             n_measurements=n_measurements)


def gravimetry(setup: PhysicalSetup, mu_c: complex,
               state_family: str = "coherent", fock_n: int | None = None,
               r_T: float = 0.0, tau: float = TWO_PI,
               n_measurements: int = 1) -> SensitivityReport:
    """Gravimetric sensitivity of a platform at the disentangling time.

    The dimensionless d1-estimation QFI is converted through the chain rule
    d(d1)/dg = cos(tilt) sqrt(m / (2 hbar omega_m^3)), so qfi_dimensionful
    is in s^4 m^-2 and std_dev in m s^-2. Thermal mechanical occupation
    leaves the tau = 2 pi value untouched.
    """
    g0 = coupling_constant(setup)
    nc = abs(complex(mu_c)) ** 2
    if state_family == "coherent":
        qfi = qfi_closed_form("d1-constant", tau, g0=g0, n_photons=nc)
    elif state_family == "thermal":
        qfi = qfi_closed_form("d1-constant", tau, g0=g0, n_photons=nc, r_T=r_T)
    elif state_family == "fock":
        if fock_n is None:
            raise ValueError("state_family='fock' needs fock_n")
        s = math.sin(tau)
        qfi = 4.0 * (g0 ** 2 * fock_n ** 2 * (tau - s) ** 2
                     + math.sin(tau / 2.0) ** 2)
    else:
        raise ValueError(f"unknown state family {state_family!r}")
    mass = oscillator_mass(setup)
    jac_sq = (math.cos(setup.tilt_angle) ** 2 * mass
              / (2.0 * HBAR * setup.omega_m ** 3))
    return _report(qfi, jac_sq, n_measurements)


def acceleration_qfi(mass: float, omega_m: float, g0: float, mu_c: complex,
                     r_T: float = 0.0, tau: float = TWO_PI,
                     scheme: str = "resonant",
                     n_measurements: int = 1) -> SensitivityReport:
    """Sensitivity to the amplitude a0 of an acceleration a0 cos(Omega tau).

    Uses d1 = a0 sqrt(m / (2 hbar omega_m^3)); ``scheme`` picks the
    resonant (Omega = 1) or constant displacement ledger. std_dev is the
    acceleration uncertainty in m s^-2; multiply by the mass for the force.
    """
    nc = abs(complex(mu_c)) ** 2
    case = {"resonant": "d1-resonant", "constant": "d1-constant"}[scheme]
    qfi = qfi_closed_form(case, tau, g0=g0, n_photons=nc, r_T=r_T)
    jac_sq = mass / (2.0 * HBAR * omega_m ** 3)
    return _report(qfi, jac_sq, n_measurements)


def measurement_window(g0_hz: float) -> float:
    """Homodyne timing window around tau = 2 pi, in seconds (~ 1/g0).

    The Fisher-information peak has a dimensionless width set by
    sigma = 1/(2 g0/omega_m); the corresponding laboratory timescale is
    1/g0.
    """
    if g0_hz <= 0:
        raise ValueError("g0 must be positive")
    return 1.0 / g0_hz


def gravimetry_qfi_closed(setup: PhysicalSetup, mu_c: complex) -> float:
    """I_g = 32 pi^2 g0^2 m |mu_c|^2 cos^2(tilt) / (hbar omega_m^3)."""
    g0 = coupling_constant(setup)
    mass = oscillator_mass(setup)
    return (32.0 * math.pi ** 2 * g0 ** 2 * mass * abs(complex(mu_c)) ** 2
            * math.cos(setup.tilt_angle) ** 2 / (HBAR * setup.omega_m ** 3))
