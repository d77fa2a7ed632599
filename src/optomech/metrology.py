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

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import astuple, dataclass, replace
from types import SimpleNamespace

from . import coefficients
from .constants import HBAR
from .coefficients import STEP, FSet, catalog_entry, entry_f
from .mechanics import STRICT, JSet, check_squeezing
from .params import (QFI_MODES, ModelSpec, PhysicalSetup, coupling_constant,
                     oscillator_mass)

TWO_PI = 2.0 * math.pi
_UNIT_ROUNDOFF = 2.0 ** -53  # half the float64 machine epsilon
# the most photon-number mass of the input cfi_homodyne cuts off silently
PHOTON_TAIL_LIMIT = 1e-10
# the relative accuracy cfi_homodyne holds its value to
CFI_RTOL = 1e-10
# the largest photon cut-off the cfi command takes: cfi_homodyne's state
# rho and its eigenvectors are dense complex matrices of up to n_max x n_max
# 16-byte entries, and the cap keeps each within 128 MiB
N_MAX_CAP = math.isqrt(2 ** 27 // 16)  # 2896
# _hermite_functions: the start e^{-x^2/2} is kept unscaled down to
# 2^-_START_BITS, and no mantissa grows past 2^_GROWTH_BITS
_LN2 = math.log(2.0)
_START_BITS = 1000
_GROWTH_BITS = 512


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


# the parameters qfi_coefficients estimates, each a field of a model drive
QFI_FIELDS = {"g0": ("coupling", "amplitude"), "epsilon": ("coupling", "offset"),
              "d1": ("displacement", "amplitude"), "d2": ("squeezing", "amplitude"),
              "omega_g": ("coupling", "frequency"),
              "omega_d1": ("displacement", "frequency"),
              "omega_d2": ("squeezing", "frequency")}
QFI_PARAMS = tuple(QFI_FIELDS)


def _with_param(spec: ModelSpec, name: str, value: float) -> ModelSpec:
    drive, field = QFI_FIELDS[name]
    return replace(spec, **{drive: replace(getattr(spec, drive), **{field: value})})


def _param_value(spec: ModelSpec, name: str) -> float:
    drive, field = QFI_FIELDS[name]
    return getattr(getattr(spec, drive), field)


def _near(spec: ModelSpec, param: str) -> ModelSpec | None:
    """The model with ``param`` moved off the values :func:`catalog_entry`
    dispatches on, which has the catalog entry of every model near it: an
    amplitude at 0 moves to 1. A frequency at 0 or 1 gives None: the general
    closed forms divide by w and 1 - w^2, and the entries there take no w.
    """
    field, theta = QFI_FIELDS[param][1], _param_value(spec, param)
    if field == "frequency" and theta in (0.0, 1.0):
        return None
    if field == "amplitude" and theta == 0.0:
        return _with_param(spec, param, 1.0)
    return spec


def qfi_route(spec: ModelSpec, param: str, mode: str) -> str:
    """The derivative route of ``qfi_coefficients(spec, param, tau, mode)``,
    decided from the drives alone; raises the ValueError that call raises.

    It is the :func:`catalog_entry` of the model near theta (see
    :func:`_near`) when that has no squeezing, else 'integrated', one
    decoupled pass, which mode 'finite_diff' takes and 'analytic' refuses.
    """
    if param not in QFI_FIELDS:
        raise ValueError(f"unknown parameter id {param!r}; "
                         f"expected one of {QFI_PARAMS}")
    if mode not in QFI_MODES:
        raise ValueError(f"mode must be one of {QFI_MODES}, got {mode!r}")
    near = _near(spec, param)
    entry = near is not None and near.squeezing.is_zero and catalog_entry(near)
    if entry:
        return entry
    if mode == "analytic":
        why = ("the closed forms divide by w and 1 - w^2 there" if near is None
               else "the catalog does not cover a squeezing term"
               if not near.squeezing.is_zero
               else "the closed-form F catalog misses the model near it")
        raise ValueError(f"no analytic derivative route for parameter {param!r} "
                         f"at {_param_value(spec, param)!r}: {why}; use mode "
                         "finite_diff")
    check_squeezing(spec.squeezing)
    return "integrated"


def qfi_derivatives(spec: ModelSpec, param: str, tau_max: float,
                    mode: str = "finite_diff", tol=STRICT):
    """The reader tau -> (F, dF/dtheta, J, dJ/dtheta) on [0, tau_max] of the
    :func:`qfi_route` in ``mode``, decided once (raising its refusal); it
    computes nothing before the first read. A derivative is one complex step,
    Im v(theta + ih) / h with h = STEP, through the code that computes v. On
    a catalog route one call of the entry's closed form on complex arguments
    gives F as its real part and dF as its imaginary part over h, and
    J = (tau, 0, 0); on 'integrated' all four come from one stepped
    :func:`decoupled_pass` at ``tol``, whose dense output refuses a tau
    outside [0, tau_max].
    """
    route = qfi_route(spec, param, mode)
    # theta + ih goes into an object with a Drive's fields, unchecked
    name, field = QFI_FIELDS[param]
    step = complex(_param_value(spec, param), STEP)
    stepped = SimpleNamespace(**{**vars(getattr(spec, name)), field: step})
    drives = [stepped if drive == name else getattr(spec, drive)
              for drive in ("coupling", "displacement", "squeezing")]
    states = functools.cache(
        lambda: coefficients.decoupled_pass(spec, tau_max, tol, drives))

    def derivatives(tau: float):
        if route != "integrated":
            f = astuple(entry_f(route, *drives, tau))
            return (FSet(*(v.real for v in f)),
                    FSet(*(v.imag / STEP for v in f)),
                    JSet(float(tau), 0.0, 0.0), JSet(0.0, 0.0, 0.0))
        v = states()(tau)
        return FSet(*v[6:12]), FSet(*v[21:27]), JSet(*v[12:15]), JSet(*v[27:])
    return derivatives


def qfi_coefficients(spec: ModelSpec, theta_param: str, tau: float,
                     mode: str = "analytic", tol=STRICT,
                     derivatives=None) -> QfiCoefficients:
    """Generator coefficients for estimating ``theta_param`` at time tau.

    ``mode='analytic'`` takes a catalog route only (no squeezing, and the
    catalog covering the model near theta); ``mode='finite_diff'`` takes
    every parameter id and model. Values and derivatives are read from
    ``derivatives``, the :func:`qfi_derivatives` of the same model,
    parameter and mode on a range that holds tau, or from one built on
    [0, tau] at ``tol`` = (rtol, atol), which decides the route or raises.
    """
    tau = float(tau)
    read = derivatives or qfi_derivatives(spec, theta_param, tau, mode, tol)
    return _assemble_coefficients(tau, *read(tau))


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

    ``d2-resonant-approx`` equals the exact d2 QFI, the ``finite_diff`` QFI
    of d2 cos 2 tau at d2 = 0, only at tau = 2 pi k; at other tau it is off
    by O(1). ``d2-constant-approx`` is not the d2 -> 0 limit at any tau: it
    drops the secular dF_Na2/dd2 term.
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


def default_n_max(mu_c: complex):
    """The photon cut-off of |mu_c>; inf past the float range."""
    nc = min(abs(complex(mu_c)), 1e154) ** 2  # 1e308 stands for past it
    return math.ceil(nc + 10.0 * math.sqrt(nc) + 20.0) if nc < 1e308 else math.inf


def photon_tail(mu_c: complex, n_max: int) -> float:
    """The photon-number mass of |mu_c> on n >= n_max, which cfi_homodyne cuts
    off: Poisson terms formed in log space, where none underflows, summed from
    the cut away from the mean until one is below the sum's unit roundoff."""
    nc = min(abs(complex(mu_c)), 1e154) ** 2  # 1e308: all of it past the cut
    if nc == 0.0:
        return float(n_max < 1)
    above, total = n_max > nc, 0.0
    for n in itertools.count(n_max) if above else range(n_max - 1, -1, -1):
        term = math.exp(n * math.log(nc) - nc - math.lgamma(n + 1.0))
        total += term
        if term <= _UNIT_ROUNDOFF * total:
            break
    return total if above else max(0.0, 1.0 - total)


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

    mu_m enters the state only as a phase e^{i phi n} on photon row n, with
    phi = 2 g0 Im(eta mu_m), eta = 1 - e^{-i tau} (half from the weights'
    drift, half from the overlaps), so the state is built at mu_m = 0 and
    measured at the angle lam - phi; an angle whose float spacing alone
    moves the value past CFI_RTOL raises OverflowError.
    """
    import numpy as np
    # imported here, so the QFI and gravimetry paths never load the oracle
    from .oracle import analytic_state_coefficients

    mu_c, mu_m = complex(mu_c), complex(mu_m)
    angle = lam - 2.0 * g0 * ((1.0 - cmath.exp(-1j * tau)) * mu_m).imag
    # the angle is formed from terms up to |lam| and 2 |g0 mu_m| (eta, of
    # size 1, rounds to its ulp), and row n carries it as e^{-i angle n}; so,
    # as moments._check_phases derives, one ulp of the largest term moves the
    # value by up to (1 + 2 n_c) ulp of its size
    nc, size = abs(mu_c) ** 2, max(abs(lam), 2.0 * abs(g0 * mu_m))
    if not (1.0 + 2.0 * nc) * math.ulp(size) <= CFI_RTOL:
        raise OverflowError(f"the quadrature angle {angle}, formed from terms "
                            f"up to {size}, has a float spacing past what rtol "
                            f"{CFI_RTOL} allows at |mu_c|^2 = {nc}")
    if n_max is None:
        n_max = default_n_max(mu_c)
    tail = photon_tail(mu_c, n_max)
    if tail > PHOTON_TAIL_LIMIT:
        warnings.warn(f"photon tail mass {tail:.2e} beyond n_max={n_max} "
                      "exceeds 1e-10; increase n_max", stacklevel=2)
    weights, labels = analytic_state_coefficients(g0, d1, mu_c, 0.0, tau, n_max)
    if not np.all(np.isfinite(weights)):
        raise OverflowError("a photon weight passes the float range")

    # |rho_nm| <= |w_n| |w_m| <= max |rho| |w_n| / max |w|, so a photon row
    # with |w_n| <= u max |w| (u the unit roundoff) lies below the rounding
    # of rho's largest entry; only the rows [first, last) between the
    # outermost larger weights are factored (all rows if every weight is 0)
    big = np.flatnonzero(np.abs(weights) >= _UNIT_ROUNDOFF * np.max(np.abs(weights)))
    first, last = int(big[0]), int(big[-1]) + 1
    weights, labels = weights[first:last], labels[first:last]
    # at mu_m = 0 every label phi_n = (g0 n - d1) eta is a real multiple of
    # eta, so the overlap <phi_m|phi_n> has no phase and is formed from the
    # labels' differences, not from a difference of their squares
    rho = np.outer(weights, np.conj(weights)) * np.exp(
        -0.5 * np.abs(np.subtract.outer(labels, labels)) ** 2)
    if not np.all(np.isfinite(rho)):  # eigh would make it a finite CFI
        raise OverflowError("the optical state passes the float range")
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-15 * evals[-1]
    n = np.arange(first, last)
    # rho = L L^H with the quadrature phase e^{-i angle n} folded into L
    factor = (np.exp(-1j * angle * n)[:, None] * evecs[:, keep]
              * np.sqrt(evals[keep]))
    # the real and imaginary parts of L and of N L as the rows of one real
    # matrix, so the products with the real psi need no complex copy of it
    n_factor = n[:, None] * factor
    parts = np.concatenate([factor.real, factor.imag, n_factor.real,
                            n_factor.imag], axis=1).T

    half_width = math.sqrt(2.0 * n_max) + 8.0

    def integral(n_nodes: int) -> float:
        x, wts = _trapezoid_nodes(half_width, n_nodes)
        psi = _hermite_functions(last, x, first)  # (last - first, nx)
        b_re, b_im, a_re, a_im = np.split(parts @ psi, 4)
        s0 = np.sum(b_re ** 2 + b_im ** 2, axis=0)
        s1 = 2.0 * np.sum(a_im * b_re - a_re * b_im, axis=0)
        # Cauchy-Schwarz bounds s1^2 / s0 by 4 sum |a_k|^2, so nodes where
        # the density vanishes carry no information
        live = s0 > 0.0
        return float(np.sum(wts[live] * s1[live] ** 2 / s0[live]))

    coarse = integral(1200)
    fine = integral(2400)
    if abs(fine - coarse) > CFI_RTOL * max(1.0, abs(fine)):
        fine = integral(4800)
    return 4.0 * g0 ** 2 * (tau - math.sin(tau)) ** 2 * fine


def _trapezoid_nodes(half_width: float, n_nodes: int):
    """Uniform nodes on [-half_width, half_width] and trapezoid weights.

    The CFI integrand decays like a Gaussian well inside the window, so the
    rule converges geometrically in the node count.
    """
    import numpy as np
    x = np.linspace(-half_width, half_width, n_nodes)
    wts = np.full(n_nodes, x[1] - x[0])
    wts[[0, -1]] *= 0.5
    return x, wts


def _hermite_functions(n_max: int, x: np.ndarray, first: int = 0) -> np.ndarray:
    """Normalised oscillator eigenfunctions psi_n(x) for first <= n < n_max,
    stable to large n and large |x|.

    The start pi^-1/4 e^{-x^2/2} underflows for |x| > 38.6, yet psi_n(x) is
    of order one there once n passes x^2 / 2. So the recurrence runs on
    mantissas m_n = psi_n 2^-p with an integer exponent p <= 0 per node,
    p = 0 wherever e^{-x^2/2} exceeds about 2^-_START_BITS (B. Bunck, BIT
    Numer. Math. 49, 281 (2009)). A step grows a mantissa by at most
    |x| + 1, and every few steps each node moves its mantissas' excess over
    1 into p, so no mantissa passes 2^_GROWTH_BITS. Where p = 0 the values
    are those of the unscaled recurrence, bit for bit.
    """
    import numpy as np
    psi = np.empty((n_max - first, x.size))
    half_sq = 0.5 * x ** 2
    p = np.minimum(0.0, np.ceil(-half_sq / _LN2) + _START_BITS).astype(np.intc)
    m_k = np.pi ** -0.25 * np.exp(-half_sq - _LN2 * p)
    m_next = math.sqrt(2.0) * x * m_k
    every = max(1, int(_GROWTH_BITS
                       / math.log2(np.max(np.abs(x), initial=0.0) + 2.0)))
    for k in range(n_max):
        if k >= first:
            np.ldexp(m_k, p, out=psi[k - first])
        m_k, m_next = m_next, (math.sqrt(2.0 / (k + 2)) * x * m_next
                               - math.sqrt((k + 1.0) / (k + 2)) * m_k)
        if k % every == 0:
            _, bits = np.frexp(np.maximum(np.abs(m_k), np.abs(m_next)))
            shift = np.clip(bits, 0, -p)
            m_k, m_next = np.ldexp(m_k, -shift), np.ldexp(m_next, -shift)
            p += shift
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
    if not math.isfinite(qfi_dim):  # its std_dev would read 0
        raise OverflowError(f"the dimensionful QFI is {qfi_dim}")
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
    leaves the tau = 2 pi value untouched. A qfi_dimensionful past the float
    range raises OverflowError.
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
        # qfi_fock of the d1 coefficients: c_b^2 = 4 g0^2 (tau - sin tau)^2
        # and c_cp^2 + c_cm^2 = 4 sin^2(tau / 2)
        qfi = (4.0 * g0 ** 2 * fock_n ** 2 * (tau - math.sin(tau)) ** 2
               + 16.0 * math.sin(tau / 2.0) ** 2)
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
