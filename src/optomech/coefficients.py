"""The six F-coefficients of the decoupled evolution operator.

The coefficients are the single and nested integrals

    F_Na    = -2 int D1 Im(xi) int' G Re(xi)  -  2 int G Im(xi) int' D1 Re(xi),
    F_Na2   =  2 int G Im(xi) int' G Re(xi),
    F_B+    =  int D1 Re(xi),       F_B-    = -int D1 Im(xi),
    F_NaB+  = -int G Re(xi),        F_NaB-  =  int G Im(xi),

with all outer integrals over [0, tau] and primed integrals over [0, tau'].
``f_path`` evaluates them by co-integrating the inner cumulative
integrals as auxiliary ODE states (exactly equivalent to the nested
quadrature, with one adaptive pass and dense output); ``f_closed_form``
dispatches to the catalog of analytic solutions for constant and
sinusoidally modulated drives. The two paths must agree to fine tolerance
and are tested against each other. :class:`Trajectory` is the one route
from a model to its decoupled solution on a whole range: the subsystem,
F(tau) from the catalog when it covers the model or else a single
``f_path`` pass, and J(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanics import (STRICT, IntegrationError, JSet, SubsystemSolution,
                        j_coefficients_ode, solve_ivp, solve_subsystem)
from .params import ModelSpec, evaluate_drive


def sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class FSet:
    """The six F-coefficients at a fixed time."""

    f_na: float
    f_na2: float
    f_bp: float
    f_bm: float
    f_nabp: float
    f_nabm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f_na, self.f_na2, self.f_bp,
                         self.f_bm, self.f_nabp, self.f_nabm])

    @classmethod
    def zero(cls) -> "FSet":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DerivedScalars:
    """Scalars combining the F-coefficients and the Bogoliubov pair."""

    theta: float
    varphi: float
    k_na: complex
    gamma: complex
    delta: complex
    e_bpbm: complex


class CatalogMiss(ValueError):
    """The drive combination has no exact closed form; use f_integrated."""


def f_path(spec: ModelSpec, sol: SubsystemSolution, tau_max: float):
    """Dense evaluation of all six F-coefficients on [0, tau_max].

    Returns a callable tau -> FSet. The inner cumulative integrals
    I_G = int G Re(xi) and I_D = int D1 Re(xi) ride along as ODE states,
    so a single adaptive integration yields every coefficient. It runs at
    the tolerances that solved ``sol``.
    """
    g, d1 = spec.coupling, spec.displacement

    def rhs(tau, y):
        p11, _, i22, _ = sol.state_at(tau)
        re_xi, im_xi = p11, -i22
        gv = evaluate_drive(g, tau)
        dv = evaluate_drive(d1, tau)
        i_g, i_d = y[0], y[1]
        return [
            gv * re_xi,                                # I_G
            dv * re_xi,                                # I_D
            -2.0 * (dv * im_xi * i_g + gv * im_xi * i_d),  # F_Na
            2.0 * gv * im_xi * i_g,                    # F_Na2
            dv * re_xi,                                # F_B+
            -dv * im_xi,                               # F_B-
            -gv * re_xi,                               # F_NaB+
            gv * im_xi,                                # F_NaB-
        ]

    rtol, atol = sol.tol
    ivp = solve_ivp(rhs, (0.0, tau_max), np.zeros(8), rtol=rtol, atol=atol)
    if not ivp.success:
        raise IntegrationError(
            f"coefficient integration failed near tau={ivp.t[-1]:.6g}: {ivp.message}")

    def at(tau) -> FSet:
        y = ivp.sol(float(tau))
        return FSet(f_na=y[2], f_na2=y[3], f_bp=y[4], f_bm=y[5],
                    f_nabp=y[6], f_nabm=y[7])

    return at


def f_integrated(spec: ModelSpec, sol: SubsystemSolution, tau: float) -> FSet:
    """Evaluate the defining F-integrals numerically at a single time."""
    return f_path(spec, sol, float(tau))(tau)


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


def _f_all_constant(g0: float, d1: float, d2: float, tau: float) -> FSet:
    """All drives constant; zeta = sqrt(1 + 4 d2) (= 1 without squeezing)."""
    zeta2 = 1.0 + 4.0 * d2
    if zeta2 <= 0:
        raise CatalogMiss("constant squeezing with 1+4*d2 <= 0 is unstable")
    zeta = math.sqrt(zeta2)
    zt = zeta * tau
    common = (1.0 - float(sinc(2.0 * zt))) * tau
    return FSet(
        f_na=2.0 * g0 * d1 / zeta2 * common,
        f_na2=-(g0 ** 2) / zeta2 * common,
        f_bp=d1 * math.sin(zt) / zeta,
        f_bm=d1 * (1.0 - math.cos(zt)) / zeta2,
        f_nabp=-g0 * math.sin(zt) / zeta,
        f_nabm=g0 * (math.cos(zt) - 1.0) / zeta2,
    )


def _f_modulated_g(g0: float, eps: float, w: float, tau: float) -> FSet:
    """G = g0 (1 + eps sin(w tau)), no displacement or squeezing, w not in {0, 1}."""
    s, c = math.sin(tau), math.cos(tau)
    sw, cw = math.sin(w * tau), math.cos(w * tau)
    s2, c2 = math.sin(2 * tau), math.cos(2 * tau)
    s2w, c2w = math.sin(2 * w * tau), math.cos(2 * w * tau)
    shalf = math.sin(0.5 * (1.0 - w) * tau)

    f_na2 = (
        -g0 ** 2 * (tau - s * c)
        + 2.0 * eps * g0 ** 2 / w * (s ** 2 * cw - 2.0 * math.sin(tau / 2.0) ** 2)
        - eps * g0 ** 2 / (w * (1.0 + w)) * s2 * sw
        - 4.0 * eps * g0 ** 2 / (w * (1.0 - w ** 2)) * c * shalf ** 2
        + eps ** 2 * g0 ** 2 / (4.0 * w * (1.0 + w))
        * (2.0 * tau - 4.0 * s * cw * (c * cw - 2.0))
        + eps ** 2 * g0 ** 2 / (4.0 * w * (1.0 - w ** 2))
        * (4.0 * s * cw * (c * cw - 2.0) + 8.0 * c * sw
           + (1.0 - 2.0 * c2) * s2w - 2.0 * tau)
        + eps ** 2 * g0 ** 2 / (4.0 * w * (1.0 - w ** 2) ** 2)
        * (8.0 * w * s * cw - 2.0 * w * s2 * c2w - 8.0 * c * sw + 2.0 * c2 * s2w)
    )
    f_nabp = (
        -g0 / (1.0 + w) * eps * s * sw
        + 2.0 * w * g0 / (1.0 - w ** 2) * eps * shalf ** 2
        - g0 * s
    )
    f_nabm = (
        -g0 / (1.0 - w) * eps * s * cw
        + g0 / (1.0 - w ** 2) * eps * math.sin((1.0 + w) * tau)
        - 2.0 * g0 * math.sin(tau / 2.0) ** 2
    )
    return FSet(f_na=0.0, f_na2=f_na2, f_bp=0.0, f_bm=0.0,
                f_nabp=f_nabp, f_nabm=f_nabm)


def _f_resonant_g(g0: float, eps: float, tau: float) -> FSet:
    """G = g0 (1 + eps sin(tau)): coupling modulated at mechanical resonance."""
    s, c = math.sin(tau), math.cos(tau)
    s2, c2 = math.sin(2 * tau), math.cos(2 * tau)
    f_na2 = -(g0 ** 2) / 16.0 * (
        16.0 * tau - 8.0 * s2
        + eps * (32.0 - 36.0 * c + 4.0 * math.cos(3.0 * tau))
        + eps ** 2 * (6.0 * tau - 4.0 * s2 + s2 * c2)
    )
    f_nabp = -g0 * s * (1.0 + 0.5 * eps * s)
    f_nabm = 0.25 * g0 * eps * (s2 - 2.0 * tau) - 2.0 * g0 * math.sin(tau / 2.0) ** 2
    return FSet(f_na=0.0, f_na2=f_na2, f_bp=0.0, f_bm=0.0,
                f_nabp=f_nabp, f_nabm=f_nabm)


def _f_modulated_d1(g0: float, d1: float, w: float, tau: float) -> FSet:
    """D1 = d1 cos(w tau) with constant coupling g0, w not in {0, 1}."""
    s, c = math.sin(tau), math.cos(tau)
    sw, cw = math.sin(w * tau), math.cos(w * tau)
    f_na = -g0 * d1 / (2.0 * w * (w ** 2 - 1.0)) * (
        2.0 * w ** 2 * c ** 2 * sw
        - 4.0 * w * s * c * cw
        + sw * (w ** 2 * math.cos(2.0 * tau) - 3.0 * w ** 2 + 4.0)
    )
    f_na2 = 0.5 * g0 ** 2 * (math.sin(2.0 * tau) - 2.0 * tau)
    f_bp = -d1 * (w * c * sw - s * cw) / (1.0 - w ** 2)
    f_bm = -d1 * (w * s * sw + c * cw - 1.0) / (1.0 - w ** 2)
    return FSet(f_na=f_na, f_na2=f_na2, f_bp=f_bp, f_bm=f_bm,
                f_nabp=-g0 * s, f_nabm=g0 * (c - 1.0))


def _f_resonant_d1(g0: float, d1: float, tau: float) -> FSet:
    """D1 = d1 cos(tau) with constant coupling g0: resonant displacement."""
    s, c = math.sin(tau), math.cos(tau)
    f_na = -0.25 * g0 * d1 * (math.sin(3.0 * tau) - 7.0 * s + 4.0 * tau * c)
    f_na2 = 0.5 * g0 ** 2 * (math.sin(2.0 * tau) - 2.0 * tau)
    f_bp = 0.5 * d1 * (tau + s * c)
    f_bm = 0.5 * d1 * s ** 2
    return FSet(f_na=f_na, f_na2=f_na2, f_bp=f_bp, f_bm=f_bm,
                f_nabp=-g0 * s, f_nabm=g0 * (c - 1.0))


def f_closed_form(spec: ModelSpec, tau: float) -> FSet:
    """Catalog of exact closed-form F-coefficients.

    Covers: all-constant drives (optionally with constant squeezing), a
    coupling modulated as g0 (1 + eps sin(w tau)) alone, and a displacement
    d1 cos(w tau) with a constant coupling. Resonances (w = 1) dispatch to
    dedicated entries; anything else raises :class:`CatalogMiss`.
    """
    tau = float(tau)
    g, d1, d2 = spec.coupling, spec.displacement, spec.squeezing

    if g.is_constant and d1.is_constant and d2.is_constant:
        return _f_all_constant(g.amplitude, d1.amplitude, d2.amplitude, tau)

    if not d2.is_constant or d2.amplitude != 0.0:
        raise CatalogMiss("no exact catalog entry with both time-dependent "
                          "drives and squeezing; use f_integrated")

    if not g.is_constant:
        if g.phase != "sin":
            raise CatalogMiss("modulated couplings follow the offset-sinusoid form")
        if not (d1.is_constant and d1.amplitude == 0.0):
            raise CatalogMiss("modulated coupling entries require D1 = 0")
        if g.frequency == 1.0:
            return _f_resonant_g(g.amplitude, g.offset, tau)
        return _f_modulated_g(g.amplitude, g.offset, g.frequency, tau)

    # constant coupling, modulated displacement
    if d1.phase != "cos":
        raise CatalogMiss("modulated displacements follow the plain-cosine form")
    if d1.frequency == 1.0:
        return _f_resonant_d1(g.amplitude, d1.amplitude, tau)
    return _f_modulated_d1(g.amplitude, d1.amplitude, d1.frequency, tau)


class Trajectory:
    """The decoupled solution of one model on [0, tau_max] at ``tol``.

    Reads the subsystem (``bogoliubov``), the F-coefficients (``f``) and the
    J parameters (``j``) at any tau in the range; each part is computed on
    first use. F is read from the closed-form catalog per point. Catalog
    coverage depends on the drives only, so the first :class:`CatalogMiss`
    switches ``f``, once, to a single :func:`f_path` pass over the range; a
    hit costs one catalog call per point. ``Trajectory(spec, tau).f(tau)``
    equals ``f_integrated(spec, solve_subsystem(spec, tau), tau)`` on a miss.
    """

    def __init__(self, spec: ModelSpec, tau_max: float, tol=STRICT):
        self.spec, self.tau_max, self.tol = spec, float(tau_max), tol
        self._sol = self._f_path = self._j = None

    @property
    def sol(self) -> SubsystemSolution:
        if self._sol is None:
            self._sol = solve_subsystem(self.spec, self.tau_max, tol=self.tol)
        return self._sol

    def bogoliubov(self, tau):
        return self.sol.bogoliubov(tau)

    def f(self, tau) -> FSet:
        if self._f_path is None:
            try:
                return f_closed_form(self.spec, tau)
            except CatalogMiss:
                self._f_path = f_path(self.spec, self.sol, self.tau_max)
        return self._f_path(tau)

    def j(self, tau) -> JSet:
        if self._j is None:
            self._j = j_coefficients_ode(self.spec, self.tau_max, dense=True,
                                         tol=self.tol)
        return self._j(tau)


def f_small_d2_constant(g0: float, d2: float, tau: float) -> FSet:
    """Leading-order coefficients for weak constant squeezing (d2 << 1).

    Keeps terms proportional to d2*tau while discarding bare d2 terms; the
    companion rotation parameter is J_b = (1 + 2 d2) tau with J_+- = 0.
    """
    sigma = 1.0 + 2.0 * d2
    return FSet(
        f_na=0.0,
        f_na2=-0.5 * g0 ** 2 * (2.0 * sigma * tau - math.sin(2.0 * sigma * tau)),
        f_bp=0.0, f_bm=0.0,
        f_nabp=-g0 * math.sin(sigma * tau),
        f_nabm=-g0 * (1.0 - math.cos(sigma * tau)),
    )


def f_small_d2_resonant(g0: float, d2: float, tau: float) -> FSet:
    """Leading-order coefficients for weak squeezing modulated at Omega = 2.

    Companion rotation/squeezing parameters: J_b = tau, J_+ = d2 tau / 2,
    J_- = 0.
    """
    ch, sh = math.cosh(d2 * tau), math.sinh(d2 * tau)
    c, s = math.cos(tau), math.sin(tau)
    return FSet(
        f_na=0.0,
        f_na2=0.5 * g0 ** 2 * (math.cosh(2 * d2 * tau) * math.sin(2 * tau)
                               + math.sinh(2 * d2 * tau) - 2.0 * tau),
        f_bp=0.0, f_bm=0.0,
        f_nabp=-g0 * (ch * s + sh * c),
        f_nabm=g0 * (ch * c + sh * s - 1.0),
    )


# ---------------------------------------------------------------------------
# derived scalars
# ---------------------------------------------------------------------------


def derived_scalars(f: FSet, alpha: complex, beta: complex,
                    mu_m: complex = 0j) -> DerivedScalars:
    """Combinations of F-coefficients entering moments and covariances.

    theta   = 2 (F_Na2 + F_NaB+ F_NaB-)
    varphi  = F_Na + F_Na2 + 2 F_NaB+ F_B-
    K_Na    = F_NaB- + i F_NaB+
    Gamma   = (alpha+beta) F_B-  - i (alpha-beta) F_B+
    Delta   = (alpha+beta) F_NaB- - i (alpha-beta) F_NaB+
    E_B+B-  = exp[ (-F_NaB-^2 - F_NaB+^2 - 2i F_NaB- F_NaB+
                    - 2 mu_m K_Na + 2 mu_m* K_Na*) / 2 ]

    |E_B+B-|^2 = exp(-|K_Na|^2) holds for any mu_m.
    """
    mu_m = complex(mu_m)
    k_na = f.f_nabm + 1j * f.f_nabp
    theta = 2.0 * (f.f_na2 + f.f_nabp * f.f_nabm)
    varphi = f.f_na + f.f_na2 + 2.0 * f.f_nabp * f.f_bm
    gamma = (alpha + beta) * f.f_bm - 1j * (alpha - beta) * f.f_bp
    delta = (alpha + beta) * f.f_nabm - 1j * (alpha - beta) * f.f_nabp
    e_bpbm = np.exp(0.5 * (
        -f.f_nabm ** 2 - f.f_nabp ** 2 - 2j * f.f_nabm * f.f_nabp
        - 2.0 * mu_m * k_na + 2.0 * np.conj(mu_m) * np.conj(k_na)
    ))
    return DerivedScalars(theta=theta, varphi=varphi, k_na=k_na,
                          gamma=gamma, delta=delta, e_bpbm=complex(e_bpbm))
