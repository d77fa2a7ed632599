"""Relative-entropy non-Gaussianity of the evolved state.

For a pure global state the measure reduces to the entropy of the Gaussian
reference built from the covariance matrix:

    delta = sum_j s_V(nu_j),    s_V(x) = (x+1)/2 ln((x+1)/2) - (x-1)/2 ln((x-1)/2),

with nu_j the global symplectic eigenvalues. The module hard-requires
closed evolution from pure inputs: a mixed-state delta needs S(rho) > 0,
which the covariance data alone cannot supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import Trajectory, derived_scalars
from .moments import (CovarianceMatrix, covariance, subsystem_eigenvalues,
                      symplectic_eigenvalues)
from .params import ModelSpec

NU_FLOOR = 1e-6


def entropy_sv(nu) -> float:
    """Binary entropy of a symplectic eigenvalue; s_V(1) = 0.

    Values within NU_FLOOR below 1 are clamped; anything lower raises.
    """
    nu = float(nu)
    if nu < 1.0 - NU_FLOOR:
        raise ValueError(f"symplectic eigenvalue {nu} below 1")
    nu = max(nu, 1.0)
    up = 0.5 * (nu + 1.0)
    dn = 0.5 * (nu - 1.0)
    return _xlogx(up) - _xlogx(dn)


def _xlogx(x: float) -> float:
    """x ln x with 0 ln 0 = 0; the same libm log as ``scipy.special.xlogy``."""
    return x * math.log(x) if x > 0.0 else 0.0


def delta(sigma: CovarianceMatrix) -> float:
    """Non-Gaussianity of a pure state with global covariance ``sigma``."""
    nus = symplectic_eigenvalues(sigma)
    return float(sum(entropy_sv(nu) for nu in nus))


def delta_bounds(nu_op: float, nu_me: float):
    """Araki-Lieb sandwich (delta_min, delta_max) from subsystem eigenvalues."""
    s_op, s_me = entropy_sv(nu_op), entropy_sv(nu_me)
    return abs(s_op - s_me), s_op + s_me


def delta_asymptotic(regime: str, mu_c: complex, k_na: complex,
                     theta: float = 0.0) -> float:
    """Closed-form approximants for small or large |mu_c|.

    ``small``: -(1 + (1 - 2 e^{-|K|^2}) |K|^2) |mu_c|^2 ln|mu_c|.
    ``large``: s_V applied to the dominant-eigenvalue forms, asymptoting to
    4 ln|mu_c|.
    """
    nc = abs(complex(mu_c)) ** 2
    k2 = abs(complex(k_na)) ** 2
    if regime == "small":
        if nc == 0.0:
            return 0.0
        return -(1.0 + (1.0 - 2.0 * math.exp(-k2)) * k2) * nc * math.log(math.sqrt(nc))
    if regime == "large":
        nu_plus = 1.0 + 2.0 * nc * (1.0 - math.exp(-4.0 * nc * math.sin(theta / 2.0) ** 2)
                                    * math.exp(-k2))
        nu_minus = math.sqrt(4.0 * nc * k2 + 1.0)
        return entropy_sv(nu_plus) + entropy_sv(nu_minus)
    raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")


@dataclass(frozen=True)
class NonGaussReport:
    """delta with its Araki-Lieb sandwich and the eigenvalues behind it."""

    delta: float
    delta_min: float
    delta_max: float
    nu_op: float
    nu_me: float
    nu_global: tuple[float, float]


def report(spec: ModelSpec, mu_c: complex, mu_m: complex, tau: float,
           traj: Trajectory | None = None) -> NonGaussReport:
    """Evaluate the measure and its bounds for coherent x coherent input.

    ``traj`` may be a :class:`Trajectory` of ``spec`` on a range containing
    ``tau``, so that a grid of reports integrates once.
    """
    if traj is None:
        traj = Trajectory(spec, tau)
    f = traj.f(tau)
    alpha, beta = traj.bogoliubov(tau)
    sigma = covariance(derived_scalars(f, alpha, beta, mu_m), alpha, beta, mu_c)
    nus = symplectic_eigenvalues(sigma)
    nu_op, nu_me = subsystem_eigenvalues(sigma)
    dmin, dmax = delta_bounds(nu_op, nu_me)
    return NonGaussReport(delta=float(sum(entropy_sv(n) for n in nus)),
                          delta_min=dmin, delta_max=dmax,
                          nu_op=nu_op, nu_me=nu_me,
                          nu_global=(float(nus[0]), float(nus[1])))
