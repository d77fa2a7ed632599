"""The six F-coefficients of the decoupled evolution operator.

The coefficients are the single and nested integrals

    F_Na    = -2 int D1 Im(xi) int' G Re(xi)  -  2 int G Im(xi) int' D1 Re(xi),
    F_Na2   =  2 int G Im(xi) int' G Re(xi),
    F_B+    =  int D1 Re(xi),       F_B-    = -int D1 Im(xi),
    F_NaB+  = -int G Re(xi),        F_NaB-  =  int G Im(xi),

with all outer integrals over [0, tau] and primed integrals over [0, tau'].
``f_closed_form`` evaluates the analytic solution for the constant and
sinusoidally modulated drives that ``catalog_entry`` names; the two must
agree to fine tolerance and are tested against each other. Everything else
comes from :func:`decoupled_pass`, one adaptive DOP853 pass with dense output
over the subsystem, F and J, which carries the inner cumulative integrals as
states (exactly equivalent to the nested quadrature). The pass steps lists of
floats, so the integrated route, like the catalog, runs on the standard
library alone. :class:`Trajectory` is
the one object for a model solved on a whole range; ``f_path``,
``f_integrated``, ``solve_subsystem`` and ``j_coefficients_ode`` read the
same pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .mechanics import (STRICT, IntegrationError, JSet, _constant_dense,
                        check_squeezing, solve_ivp, unstable_squeezing)
from .params import ModelSpec, evaluate_drive

# the complex step h: a power of two, so Im v / h is exact, and h^2 negligible
STEP = 2.0 ** -100


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1, bit for bit ``np.sinc(x / np.pi)``: numpy
    forms t = pi (x / pi) and puts the machine epsilon in place of t = 0.
    An x that is not finite has overflowed, and raises OverflowError."""
    if not math.isfinite(x):
        raise OverflowError(f"sinc of {x}: its argument has overflowed")
    t = math.pi * (x / math.pi)
    if t == 0.0:
        t = 2.0 ** -52
    return math.sin(t) / t


@dataclass(frozen=True)
class FSet:
    """The six F-coefficients at a fixed time."""

    f_na: float
    f_na2: float
    f_bp: float
    f_bm: float
    f_nabp: float
    f_nabm: float

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


def decoupled_pass(spec: ModelSpec, tau_max: float, tol=STRICT, drives=None):
    """The 15 states of the decoupled solution, dense on [0, tau_max].

    Returns the dense output of one DOP853 pass on lists, tau -> the list
    of states as floats, which refuses a tau outside [0, tau_max] and counts
    its ``steps``: (P11, P11', I_P22, P22),
    I_G = int G Re(xi), I_D = int D1 Re(xi), F in FSet order at [6:12] and
    (j_b, j_+, j_-) at [12:15]. Its RMS error norm spans all n states,
    so both tolerances of ``tol`` are scaled by sqrt(3/n): each block, J
    (3 states) the smallest, then meets ``tol`` on its own.

    ``drives`` replaces the coupling, displacement and squeezing of ``spec``
    (whose squeezing is checked) by objects with a Drive's fields. A complex
    field theta + ih, h = STEP, steps the pass: its right-hand side runs on
    ``cmath``, and each state v becomes two, Re v at [0:15] and the
    derivative dv/dtheta = Im v / h at [15:30], held to ``tol`` as well.
    """
    check_squeezing(spec.squeezing)
    g, d1, d2 = drives or (spec.coupling, spec.displacement, spec.squeezing)
    stepped = any(isinstance(x, complex) for drive in (g, d1, d2)
                  for x in (drive.amplitude, drive.offset, drive.frequency))
    m = cmath if stepped else math

    def rhs(tau, y):
        p11, dp11, i22, p22, i_g, i_d, *_, jb, jp, _ = y
        gv = evaluate_drive(g, tau)
        dv = evaluate_drive(d1, tau)
        sv = evaluate_drive(d2, tau)
        w2 = 1.0 + 4.0 * sv
        re_xi, im_xi = p11, -i22
        return [
            dp11, -w2 * p11, p22, -w2 * i22,           # subsystem
            gv * re_xi,                                # I_G
            dv * re_xi,                                # I_D
            -2.0 * (dv * im_xi * i_g + gv * im_xi * i_d),  # F_Na
            2.0 * gv * im_xi * i_g,                    # F_Na2
            dv * re_xi,                                # F_B+
            -dv * im_xi,                               # F_B-
            -gv * re_xi,                               # F_NaB+
            gv * im_xi,                                # F_NaB-
            1.0 + 2.0 * sv * (1.0 - m.sin(2 * jb) * m.tanh(4 * jp)),  # j_b
            sv * m.cos(2 * jb),                        # j_+
            sv * m.sin(2 * jb) / m.cosh(4 * jp),       # j_-
        ]

    def stepped_rhs(tau, y):
        # (Re v, Im v / h) -> (Re v', Im v' / h); both scalings by h are exact
        rates = rhs(tau, [complex(v, STEP * dv) for v, dv in zip(y, y[15:])])
        return [x.real for x in rates] + [x.imag / STEP for x in rates]

    # P11 = P22 = I_P22' = 1 at 0, and no derivative is nonzero there
    y0 = [1.0, 0.0, 0.0, 1.0] + [0.0] * (26 if stepped else 11)
    scale = math.sqrt(3 / len(y0))
    rtol, atol = tol
    ivp = solve_ivp(stepped_rhs if stepped else rhs, (0.0, tau_max), y0,
                    rtol=rtol * scale, atol=atol * scale)
    if not ivp.success:
        raise IntegrationError(f"decoupled-solution integration failed near "
                               f"tau={ivp.t[-1]:.6g}: {ivp.message}")
    return ivp.sol


def f_path(spec: ModelSpec, sol: Trajectory, tau_max: float):
    """Dense evaluation of all six F-coefficients on [0, tau_max].

    Returns tau -> FSet from one :func:`decoupled_pass` at the tolerances
    of the :class:`Trajectory` ``sol``, whether or not the catalog covers
    ``spec``.
    """
    states = decoupled_pass(spec, tau_max, sol.tol)
    return lambda tau: FSet(*states(float(tau))[6:12])


def f_integrated(spec: ModelSpec, sol: Trajectory, tau: float) -> FSet:
    """Evaluate the defining F-integrals numerically at a single time."""
    return f_path(spec, sol, float(tau))(tau)


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------


def _f_all_constant(g0: float, d1: float, d2: float, tau: float) -> FSet:
    """All drives constant; zeta = sqrt(1 + 4 d2) (= 1 without squeezing)."""
    zeta2 = 1.0 + 4.0 * d2
    zeta = math.sqrt(zeta2)
    zt = zeta * tau
    common = (1.0 - sinc(2.0 * zt)) * tau
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
    m = cmath if isinstance(w, complex) else math
    s, c = m.sin(tau), m.cos(tau)
    sw, cw = m.sin(w * tau), m.cos(w * tau)
    s2, c2 = m.sin(2 * tau), m.cos(2 * tau)
    s2w, c2w = m.sin(2 * w * tau), m.cos(2 * w * tau)
    shalf = m.sin(0.5 * (1.0 - w) * tau)

    f_na2 = (
        -g0 ** 2 * (tau - s * c)
        + 2.0 * eps * g0 ** 2 / w * (s ** 2 * cw - 2.0 * m.sin(tau / 2.0) ** 2)
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
        + g0 / (1.0 - w ** 2) * eps * m.sin((1.0 + w) * tau)
        - 2.0 * g0 * m.sin(tau / 2.0) ** 2
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
    m = cmath if isinstance(w, complex) else math
    s, c = m.sin(tau), m.cos(tau)
    sw, cw = m.sin(w * tau), m.cos(w * tau)
    f_na = -g0 * d1 / (2.0 * w * (w ** 2 - 1.0)) * (
        2.0 * w ** 2 * c ** 2 * sw
        - 4.0 * w * s * c * cw
        + sw * (w ** 2 * m.cos(2.0 * tau) - 3.0 * w ** 2 + 4.0)
    )
    f_na2 = 0.5 * g0 ** 2 * (m.sin(2.0 * tau) - 2.0 * tau)
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


def catalog_entry(spec: ModelSpec) -> str | None:
    """The closed-form catalog entry that covers ``spec``, or None on a miss.

    Decided from the drives alone: 'all-constant' (with squeezing while
    1 + 4 d2 > 0); else, without squeezing, a coupling g0 (1 + eps sin(w tau))
    with D1 = 0 ('modulated-g') or a displacement d1 cos(w tau) with a
    constant coupling ('modulated-d1'), 'resonant-g' and 'resonant-d1' at w = 1.
    """
    g, d1, d2 = spec.coupling, spec.displacement, spec.squeezing
    if g.is_constant and d1.is_constant and d2.is_constant:
        return None if unstable_squeezing(d2) else "all-constant"
    if not d2.is_zero:
        return None
    if not g.is_constant:
        if g.phase != "sin" or not d1.is_zero:
            return None
        return "resonant-g" if g.frequency == 1.0 else "modulated-g"
    if d1.phase != "cos":
        return None
    return "resonant-d1" if d1.frequency == 1.0 else "modulated-d1"


def f_closed_form(spec: ModelSpec, tau: float) -> FSet:
    """The exact F-coefficients of the :func:`catalog_entry`, or CatalogMiss."""
    entry = catalog_entry(spec)
    if entry is None:
        raise CatalogMiss("no closed-form entry covers the drives; use f_integrated")
    return entry_f(entry, spec.coupling, spec.displacement, spec.squeezing,
                   float(tau))


def entry_f(entry: str, g, d1, d2, tau: float) -> FSet:
    """The F-coefficients of the catalog ``entry`` for the coupling ``g``,
    displacement ``d1`` and squeezing ``d2``: drives, or any objects with a
    Drive's fields, which may be complex (a complex-step derivative)."""
    if entry == "all-constant":
        return _f_all_constant(g.amplitude, d1.amplitude, d2.amplitude, tau)
    if entry == "modulated-g":
        return _f_modulated_g(g.amplitude, g.offset, g.frequency, tau)
    if entry == "resonant-g":
        return _f_resonant_g(g.amplitude, g.offset, tau)
    if entry == "modulated-d1":
        return _f_modulated_d1(g.amplitude, d1.amplitude, d1.frequency, tau)
    return _f_resonant_d1(g.amplitude, d1.amplitude, tau)


class Trajectory:
    """The decoupled solution of one model on [0, tau_max] at ``tol``.

    Reads the subsystem (``state_at``, ``xi``, ``dxi``, ``bogoliubov``), the
    F-coefficients (``f``) and the J parameters (``j``) at any tau in the
    range. Analytic paths come first: the subsystem of a constant squeezing,
    zero included, J = (tau, 0, 0) at D2 = 0, and ``route``, fixed on
    construction: the :func:`catalog_entry` of the drives, read by one
    :func:`f_closed_form` call per point. The rest (F on the 'integrated'
    route, J at D2 != 0, a modulated subsystem) is read from one
    :func:`decoupled_pass` over the range, run on first use, whose dense
    output refuses a tau outside the range; so ``traj.f(tau)`` equals
    ``f_integrated(spec, traj, tau)`` on a miss.
    """

    def __init__(self, spec: ModelSpec, tau_max: float, tol=STRICT):
        if tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        d2 = spec.squeezing
        check_squeezing(d2)
        self.spec, self.tau_max, self.tol = spec, float(tau_max), tol
        self.route = catalog_entry(spec) or "integrated"
        self._subsystem = (_constant_dense(d2.amplitude) if d2.is_constant
                           else lambda tau: self._pass(tau)[:4])

    @cached_property
    def _pass(self):
        return decoupled_pass(self.spec, self.tau_max, self.tol)

    def state_at(self, tau):
        """(P11, P11', I_P22, P22) at tau."""
        return self._subsystem(tau)

    def xi(self, tau) -> complex:
        p11, _, i22, _ = self.state_at(tau)
        return p11 - 1j * i22

    def dxi(self, tau) -> complex:
        _, dp11, _, p22 = self.state_at(tau)
        return dp11 - 1j * p22

    def bogoliubov(self, tau):
        """Bogoliubov pair (alpha, beta) of the squeezing subsystem."""
        xi = self.xi(tau)
        dxi = self.dxi(tau)
        alpha = 0.5 * (xi + 1j * dxi)
        beta = 0.5 * (xi.conjugate() + 1j * dxi.conjugate())
        return alpha, beta

    def f(self, tau) -> FSet:
        if self.route != "integrated":
            return f_closed_form(self.spec, tau)
        return FSet(*self._pass(float(tau))[6:12])

    def j(self, tau) -> JSet:
        if self.spec.squeezing.is_zero:
            return JSet(j_b=float(tau), j_plus=0.0, j_minus=0.0)
        return JSet(*self._pass(float(tau))[12:])


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
    e_bpbm = cmath.exp(0.5 * (
        -f.f_nabm ** 2 - f.f_nabp ** 2 - 2j * f.f_nabm * f.f_nabp
        - 2.0 * mu_m * k_na + 2.0 * mu_m.conjugate() * k_na.conjugate()
    ))
    return DerivedScalars(theta=theta, varphi=varphi, k_na=k_na,
                          gamma=gamma, delta=delta, e_bpbm=e_bpbm)
