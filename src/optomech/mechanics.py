"""Quadratic mechanical-subsystem dynamics.

Solves the pair of oscillator equations

    P11'' + (1 + 4 D2(tau)) P11 = 0,    P11(0) = 1, P11'(0) = 0,
    I22'' + (1 + 4 D2(tau)) I22 = 0,    I22(0) = 0, I22'(0) = 1,

whose solutions determine xi = P11 - i*I22, the Bogoliubov pair
alpha = (xi + i xi')/2, beta = (xi* + i xi'*)/2, and the rotation/squeezing
parameters (J_b, J_+, J_-) of the decoupled evolution operator.

One closed form covers every constant D2, zero included (zeta = 1):
xi = cos(zeta tau) - i sin(zeta tau)/zeta, zeta = sqrt(1 + 4 d2), refused by
:func:`unstable_squeezing` when 1 + 4 d2 <= 0. Everything else is read from
the one DOP853 pass that integrates the subsystem, F and J together. Both
are read through :class:`optomech.coefficients.Trajectory`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# IntegrationError, the error of a pass that fails, is importable here too
from .params import Drive, IntegrationError, ModelSpec  # noqa: F401

# (rtol, atol) of every adaptive integration unless a caller passes its own
STRICT = (1e-10, 1e-12)

# arcosh arguments this far below 1 are treated as rounding noise
ACOSH_CLAMP = 1e-12
# below this they signal an invalid Bogoliubov pair
ACOSH_REJECT = 1e-9


def solve_ivp(fun, t_span, y0, **options):
    """:func:`optomech.dop853.solve_ivp`, imported on the first call.

    Closed-form results never integrate, so importing the package does not
    load the stepper. ``coefficients`` and ``oracle`` import this name, so
    each module's integrations can be rebound separately.
    """
    from .dop853 import solve_ivp as dop853_solve_ivp
    return dop853_solve_ivp(fun, t_span, y0, **options)


@dataclass(frozen=True)
class JSet:
    """Rotation (j_b) and squeezing (j_plus, j_minus) parameters."""

    j_b: float
    j_plus: float
    j_minus: float


def unstable_squeezing(d2: Drive) -> bool:
    """A constant squeezing with 1 + 4 d2 <= 0: the subsystem oscillator then
    has no bounded solution, and no route serves the model."""
    return d2.is_constant and 1.0 + 4.0 * d2.amplitude <= 0.0


def check_squeezing(d2: Drive):
    """Raise the ValueError that refuses an :func:`unstable_squeezing`."""
    if unstable_squeezing(d2):
        raise ValueError(f"constant squeezing d2={d2.amplitude} gives 1+4*d2 <= 0; "
                         "the oscillator is unstable and has no bounded solution")


def _constant_dense(d2: float):
    """tau -> (P11, P11', I_P22, P22) of a constant squeezing d2, at any tau.
    At d2 = 0, zeta = 1.0 and every product and quotient below is exact."""
    zeta = math.sqrt(1.0 + 4.0 * d2)

    def dense(tau):
        # a float or int tau takes math.cos and math.sin, with the bits of the
        # numpy path (tests/test_mechanics.py checks it), and returns floats
        if isinstance(tau, (int, float)):
            c, s = math.cos(zeta * tau), math.sin(zeta * tau)
        else:
            import numpy as np
            zt = zeta * np.asarray(tau, dtype=float)
            c, s = np.cos(zt), np.sin(zt)
        return c, -zeta * s, s / zeta, c

    return dense


def solve_subsystem(spec: ModelSpec, tau_max: float, tol=STRICT) -> Trajectory:
    """The :class:`~optomech.coefficients.Trajectory` of ``spec`` on
    [0, tau_max] at ``tol`` = (rtol, atol), which reads the subsystem
    (``state_at``, ``xi``, ``dxi``, ``bogoliubov``) at any tau in the range.
    """
    from .coefficients import Trajectory  # that module imports this one
    return Trajectory(spec, tau_max, tol)


def _safe_acosh(x: float, what: str) -> float:
    if x < 1.0 - ACOSH_REJECT:
        raise ValueError(f"invalid Bogoliubov pair: arcosh argument for "
                         f"{what} is {x}, more than {ACOSH_REJECT} below 1")
    if x <= 1.0 + ACOSH_CLAMP:
        # rounding noise straddling 1 would otherwise be amplified by the
        # square-root branch point
        return 0.0
    return math.acosh(x)


def j_coefficients(alpha: complex, beta: complex) -> JSet:
    """J parameters reproducing the Bogoliubov pair (alpha, beta).

    j_b is the principal representative from -Arg(.)/2 and is therefore
    defined modulo pi; compose_bogoliubov(j_coefficients(a, b)) reproduces
    (a, b) up to that branch.
    """
    norm = abs(alpha) ** 2 - abs(beta) ** 2
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"|alpha|^2 - |beta|^2 = {norm}, not a Bogoliubov pair")
    z = alpha * alpha - beta * beta
    mod = abs(z)
    j_plus = 0.25 * _safe_acosh(mod, "J_+")
    j_minus = 0.25 * _safe_acosh((2.0 * abs(alpha) ** 2 - 1.0) / mod, "J_-")
    # numpy divides a complex by a real through the reciprocal, and Python
    # does not: this form rounds as numpy does for either kind of input
    j_b = -0.5 * cmath.phase(z * (1.0 / mod))
    return JSet(j_b=j_b, j_plus=j_plus, j_minus=j_minus)


def compose_bogoliubov(j: JSet):
    """Bogoliubov pair of rotation(j_b) . squeeze(2 j_+, pi/2) . squeeze(2 j_-, pi)."""
    cp, sp = math.cosh(2.0 * j.j_plus), math.sinh(2.0 * j.j_plus)
    cm, sm = math.cosh(2.0 * j.j_minus), math.sinh(2.0 * j.j_minus)
    rot = cmath.exp(-1j * j.j_b)
    alpha = rot * (cp * cm - 1j * sp * sm)
    beta = -rot * (1j * sp * cm - cp * sm)
    return alpha, beta


def j_coefficients_ode(spec: ModelSpec, tau, tol=STRICT) -> JSet:
    """(j_b, j_plus, j_minus) at ``tau`` from the equations

        j_b'  = 1 + 2 D2 (1 - sin(2 j_b) tanh(4 j_+)),
        j_+'  = D2 cos(2 j_b),
        j_-'  = D2 sin(2 j_b) / cosh(4 j_+),

    all vanishing at tau = 0, read from the :class:`Trajectory` pass on
    [0, tau] at ``tol`` = (rtol, atol); j_b is continuous, unwrapped.
    """
    from .coefficients import Trajectory  # that module imports this one
    return Trajectory(spec, tau, tol).j(tau)


def mathieu_perturbative(d2: float, tau):
    """Closed-form resonant (Omega = 2) approximants for small d2.

    Returns (P11, I_P22, xi) with

        P11   = cos t cosh(d2 t) - sin t sinh(d2 t),
        I_P22 = -(cos t sinh(d2 t) - sin t cosh(d2 t)) / (1 - d2),
        xi    = exp(-i t) cosh(d2 t) + i exp(i t) sinh(d2 t).

    Valid for d2 << 1; no hard rejection is applied.
    """
    import numpy as np
    tau = np.asarray(tau, dtype=float)
    ch, sh = np.cosh(d2 * tau), np.sinh(d2 * tau)
    c, s = np.cos(tau), np.sin(tau)
    p11 = c * ch - s * sh
    i22 = -(c * sh - s * ch) / (1.0 - d2)
    xi = np.exp(-1j * tau) * ch + 1j * np.exp(1j * tau) * sh
    if tau.ndim == 0:
        return float(p11), float(i22), complex(xi)
    return p11, i22, xi


def rwa_bogoliubov(d2: float, tau: float):
    """Resonant rotating-wave Bogoliubov pair; satisfies the identity exactly."""
    alpha = cmath.exp(-1j * tau) * math.cosh(d2 * tau)
    beta = -1j * cmath.exp(-1j * tau) * math.sinh(d2 * tau)
    return alpha, beta


@dataclass(frozen=True)
class FrequencyShift:
    """Equivalent description of a constant squeezing term.

    Evolution under the Hamiltonian with constant squeezing d2 equals (up to
    a global phase) evolution without squeezing at the shifted frequency
    omega_m' = omega_m sqrt(1 + 4 d2/omega_m), starting from a squeezed
    initial state with exp(-2r) = omega_m'/omega_m. First moments of the
    transformed input carry the coherent label cosh(r) mu - sinh(r) mu*
    (the sign on sinh is fixed by requiring the tau = 0 quadratures to be
    invariant), and lab quadratures are read back through
    x -> sqrt(omega_m/omega_m') x', p -> sqrt(omega_m'/omega_m) p'.
    """

    omega_m: float
    omega_m_shifted: float
    squeeze_r: float

    def map_coherent(self, mu_m: complex) -> complex:
        r = self.squeeze_r
        return mu_m * math.cosh(r) - complex(mu_m).conjugate() * math.sinh(r)


def map_constant_squeezing(omega_m: float, d2: float) -> FrequencyShift:
    """Shifted-frequency picture of a constant squeezing strength d2.

    ``d2`` carries the same units as ``omega_m`` (use omega_m = 1 for the
    dimensionless convention).
    """
    radicand = 1.0 + 4.0 * d2 / omega_m
    if radicand <= 0:
        raise ValueError("1 + 4 d2/omega_m must be positive")
    omega_shift = omega_m * math.sqrt(radicand)
    r = -0.5 * math.log(omega_shift / omega_m)
    return FrequencyShift(omega_m=omega_m, omega_m_shifted=omega_shift, squeeze_r=r)
