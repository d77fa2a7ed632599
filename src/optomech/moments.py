"""First and second moments of the evolved two-mode state.

All expressions hold for coherent x coherent inputs evolving under the
decoupled operator, written in the frame rotating at the optical frequency.
The covariance matrix lives in the (a, b, a^dag, b^dag) basis, where it is
Hermitian and the symplectic form is diag(-i, -i, i, i). Both
:func:`evolve_moments` and :func:`covariance` read the phases theta and
varphi, and both refuse, with OverflowError, phases whose float spacing
alone moves a result by more than STRICT's rtol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coefficients import DerivedScalars
from .mechanics import STRICT

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class MomentSet:
    """First and second moments at a fixed time.

    Photon number is conserved, so adag_a always equals |mu_c|^2.
    """

    a: complex
    b: complex
    a2: complex
    b2: complex
    adag_a: float
    bdag_b: float
    ab: complex
    abdag: complex


def _check_phases(d: DerivedScalars, nc: float):
    """Refuse, with OverflowError, phases theta and varphi that have
    overflowed or whose float spacing alone moves a moment or a covariance
    at |mu_c|^2 = nc by more than STRICT's rtol."""
    theta, varphi = d.theta, d.varphi
    if not (math.isfinite(2.0 * theta) and math.isfinite(2.0 * varphi)):
        raise OverflowError(f"the phases 2 theta = {2.0 * theta} and 2 varphi = "
                            f"{2.0 * varphi} have overflowed")
    # a moment carries theta in e^{-i theta} exp(n_c e^{-2i theta}) and
    # varphi in e^{-2i varphi}, so one unit in the last place of either moves
    # it by up to (1 + 2 n_c) ulp(theta) or 2 ulp(varphi) of its size; at
    # n_c = 0 no moment depends on them
    if nc and max((1.0 + 2.0 * nc) * math.ulp(theta),
                  2.0 * math.ulp(varphi)) > STRICT[0]:
        raise OverflowError(f"the phases theta = {theta} and varphi = {varphi} "
                            f"have a float spacing past what rtol {STRICT[0]} "
                            f"allows at |mu_c|^2 = {nc}")


def evolve_moments(f, alpha: complex, beta: complex,
                   mu_c: complex, mu_m: complex = 0j) -> MomentSet:
    """All eight moments of the evolved state.

    ``f`` is the FSet at the evaluation time and (alpha, beta) the matching
    Bogoliubov pair. Phases theta and varphi whose float spacing alone moves
    a moment by more than STRICT's rtol raise OverflowError.
    """
    from .coefficients import derived_scalars

    mu_c, mu_m = complex(mu_c), complex(mu_m)
    d = derived_scalars(f, alpha, beta, mu_m)
    nc = abs(mu_c) ** 2
    _check_phases(d, nc)
    mu_m_c = mu_m.conjugate()
    theta, varphi = d.theta, d.varphi
    k, gam, dlt, e1 = d.k_na, d.gamma, d.delta, d.e_bpbm

    phase1 = cmath.exp(-1j * varphi) * cmath.exp(nc * (cmath.exp(-1j * theta) - 1.0))
    a = phase1 * e1 * mu_c
    b = alpha * mu_m + beta * mu_m_c + gam + dlt * nc

    a2 = (cmath.exp(-2j * varphi) * mu_c ** 2 * cmath.exp(-1j * theta)
          * cmath.exp(nc * (cmath.exp(-2j * theta) - 1.0))
          * cmath.exp(-abs(k) ** 2) * e1 ** 2)

    col = gam + dlt * nc
    b2 = (alpha ** 2 * mu_m ** 2 + alpha * beta * (2.0 * abs(mu_m) ** 2 + 1.0)
          + beta ** 2 * mu_m_c ** 2
          + 2.0 * (alpha * mu_m + beta * mu_m_c) * col
          + gam ** 2 + 2.0 * gam * dlt * nc + dlt ** 2 * nc * (1.0 + nc))

    bdag_b = ((abs(alpha) ** 2 + abs(beta) ** 2) * abs(mu_m) ** 2
              + alpha.conjugate() * beta * mu_m_c ** 2
              + alpha * beta.conjugate() * mu_m ** 2
              + (alpha.conjugate() * mu_m_c + beta.conjugate() * mu_m) * col
              + (alpha * mu_m + beta * mu_m_c) * col.conjugate()
              + (gam.conjugate() * dlt + gam * dlt.conjugate()) * nc
              + abs(dlt) ** 2 * nc * (1.0 + nc)
              + abs(beta) ** 2 + abs(gam) ** 2)

    bracket = nc * cmath.exp(-1j * theta) + 1.0
    ab = phase1 * mu_c * e1 * (alpha * mu_m + beta * (mu_m_c - k)
                               + gam + bracket * dlt)
    abdag = phase1 * mu_c * e1 * (alpha.conjugate() * (mu_m_c - k)
                                  + beta.conjugate() * mu_m
                                  + gam.conjugate() + bracket * dlt.conjugate())

    return MomentSet(a=a, b=b, a2=a2, b2=complex(b2),
                     adag_a=nc, bdag_b=float(bdag_b.real),
                     ab=ab, abdag=abdag)


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 Hermitian second-moment matrix in the (a, b, a^dag, b^dag) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        import numpy as np
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("covariance matrix must be 4x4")
        defect = np.max(np.abs(m - m.conj().T))
        if defect > HERMITICITY_TOL:
            raise ValueError(f"covariance matrix non-Hermitian by {defect:.3e}")
        object.__setattr__(self, "matrix", m)

    def optical_block(self) -> np.ndarray:
        return self.matrix[0::2, 0::2].copy()

    def mechanical_block(self) -> np.ndarray:
        return self.matrix[1::2, 1::2].copy()

    def cross_block(self) -> np.ndarray:
        """Optical-mechanical correlations (rows a, a^dag; columns b, b^dag)."""
        return self.matrix[0::2, 1::2].copy()


def _assemble(s11, s22, s31, s42, s21, s41) -> CovarianceMatrix:
    import numpy as np
    m = np.empty((4, 4), dtype=complex)
    m[0, 0] = m[2, 2] = s11
    m[1, 1] = m[3, 3] = s22
    m[2, 0] = s31
    m[0, 2] = np.conj(s31)
    m[3, 1] = s42
    m[1, 3] = np.conj(s42)
    m[1, 0] = m[2, 3] = s21
    m[0, 1] = m[3, 2] = np.conj(s21)
    m[3, 0] = m[2, 1] = s41
    m[0, 3] = m[1, 2] = np.conj(s41)
    return CovarianceMatrix(matrix=m)


def covariance_from_moments(m: MomentSet) -> CovarianceMatrix:
    """Covariance matrix from the eight moments (works for any source)."""
    import numpy as np
    s11 = 1.0 + 2.0 * m.adag_a - 2.0 * abs(m.a) ** 2
    s22 = 1.0 + 2.0 * m.bdag_b - 2.0 * abs(m.b) ** 2
    s31 = 2.0 * m.a2 - 2.0 * m.a ** 2
    s42 = 2.0 * m.b2 - 2.0 * m.b ** 2
    s21 = 2.0 * m.abdag - 2.0 * m.a * np.conj(m.b)
    s41 = 2.0 * m.ab - 2.0 * m.a * m.b
    return _assemble(s11, s22, s31, s42, s21, s41)


def covariance(derived: DerivedScalars, alpha: complex, beta: complex,
               mu_c: complex) -> CovarianceMatrix:
    """Covariance matrix from the analytically simplified element forms.

    Agrees with :func:`covariance_from_moments` to rounding; kept separate
    because the simplified forms are numerically stabler at large |mu_c|.
    It reads theta and varphi as the moments do, and refuses the same
    phases with OverflowError.
    """
    import numpy as np
    mu_c = complex(mu_c)
    nc = abs(mu_c) ** 2
    _check_phases(derived, nc)
    theta, varphi = derived.theta, derived.varphi
    k, dlt, e1 = derived.k_na, derived.delta, derived.e_bpbm
    ek2 = math.exp(-abs(k) ** 2)
    e_itheta = cmath.exp(-1j * theta)

    s11 = 1.0 + 2.0 * nc * (1.0 - math.exp(-4.0 * nc * math.sin(theta / 2.0) ** 2) * ek2)
    s31 = (2.0 * mu_c ** 2 * cmath.exp(-2j * varphi)
           * (e_itheta * cmath.exp(nc * (cmath.exp(-2j * theta) - 1.0)) * ek2
              - cmath.exp(2.0 * nc * (e_itheta - 1.0))) * e1 ** 2)
    s22 = 1.0 + 2.0 * abs(beta) ** 2 + 2.0 * abs(dlt) ** 2 * nc
    s42 = 2.0 * alpha * beta + 2.0 * dlt ** 2 * nc
    front = (2.0 * cmath.exp(-1j * varphi) * cmath.exp(nc * (e_itheta - 1.0))
             * e1 * mu_c)
    s21 = front * (np.conj(dlt) * (nc * (e_itheta - 1.0) + 1.0) - np.conj(alpha) * k)
    s41 = front * (dlt * (nc * (e_itheta - 1.0) + 1.0) - beta * k)
    return _assemble(s11, s22, s31, s42, s21, s41)


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    In this basis i Omega sigma = diag(1, ..., 1, -1, ..., -1) sigma for the
    interleaved mode ordering; eigenvalues come in +-nu pairs and the
    positive branch is returned (one value per mode).
    """
    import numpy as np
    m = sigma.matrix if isinstance(sigma, CovarianceMatrix) else np.asarray(sigma, dtype=complex)
    if m.shape == (4, 4):  # (a, b, a^dag, b^dag)
        signs = np.array([1.0, 1.0, -1.0, -1.0])
    elif m.shape == (2, 2):  # single-mode (a, a^dag) block
        signs = np.array([1.0, -1.0])
    else:
        raise ValueError("expected a 2x2 or 4x4 covariance matrix")
    vals = np.linalg.eigvals(signs[:, None] * m)
    out = np.sort(np.abs(np.real(vals)))[::2]
    return out[::-1]


def subsystem_eigenvalues(sigma: CovarianceMatrix):
    """(nu_op, nu_me) from the 2x2 optical and mechanical blocks."""
    nu_op = symplectic_eigenvalues(sigma.optical_block())[0]
    nu_me = symplectic_eigenvalues(sigma.mechanical_block())[0]
    return float(nu_op), float(nu_me)


def subsystem_eigenvalues_closed(derived: DerivedScalars, mu_c: complex):
    """Closed-form (nu_op, nu_me).

    nu_me^2 = 1 + 4 |K_Na|^2 |mu_c|^2 is exact. The nu_op form suffers
    catastrophic cancellation near theta = 2 pi n; prefer the numeric block
    path when |sin(theta/2)| < 1e-6.
    """
    nc = abs(complex(mu_c)) ** 2
    k2 = abs(derived.k_na) ** 2
    theta = derived.theta
    nu_me = math.sqrt(1.0 + 4.0 * k2 * nc)

    e4 = math.exp(-4.0 * nc * math.sin(theta / 2.0) ** 2)
    cross = (cmath.exp(1j * theta)
             * cmath.exp(nc * (cmath.exp(2j * theta) - 1.0))
             * cmath.exp(2.0 * nc * (cmath.exp(-1j * theta) - 1.0))).real
    nu_op_sq = (1.0 + 4.0 * nc * (1.0 - e4 * math.exp(-k2))
                + 4.0 * nc ** 2 * (1.0
                                   - 2.0 * e4 * math.exp(-k2)
                                   - math.exp(-4.0 * k2) * math.exp(-4.0 * nc * math.sin(theta) ** 2)
                                   + 2.0 * math.exp(-3.0 * k2) * cross))
    nu_op = math.sqrt(max(nu_op_sq, 1.0))
    return nu_op, nu_me


def quadratures(m: MomentSet):
    """(<x_c>, <p_c>, <x_m>, <p_m>) with x = (a^dag + a)/sqrt2, p = i(a^dag - a)/sqrt2."""
    s = math.sqrt(2.0)
    return (s * m.a.real, s * m.a.imag, s * m.b.real, s * m.b.imag)


def damped_coherent(n: int, m: int, kappa_m: float, tau: float, g0: float):
    """Phonon-damped branch label and decoherence exponent.

    Returns (phi_n, D_nm) for the analytically solvable phonon-dissipation
    evolution at constant coupling:

        phi_n = i g0 n / (i + kappa/2) (1 - exp(-(i + kappa/2) tau)),
        D_nm  = g0^2 (n-m)^2 kappa / (2 (1 + kappa^2/4))
                * [tau + (1 - exp(-kappa tau))/kappa - 2 Re z],
        z     = (exp((i - kappa/2) tau) - 1) / (i - kappa/2).

    D_nm is real, symmetric in (n, m), vanishes for kappa = 0 or n = m and
    is non-decreasing in tau.
    """
    if kappa_m < 0:
        raise ValueError("kappa_m must be >= 0")
    if kappa_m == 0.0:
        phi = g0 * n * (1.0 - cmath.exp(-1j * tau))
        return phi, 0.0
    pole = 1j + 0.5 * kappa_m
    phi = 1j * g0 * n / pole * (1.0 - cmath.exp(-pole * tau))
    z = (cmath.exp((1j - 0.5 * kappa_m) * tau) - 1.0) / (1j - 0.5 * kappa_m)
    bracket = tau - math.expm1(-kappa_m * tau) / kappa_m - 2.0 * z.real
    d_nm = (g0 ** 2 * (n - m) ** 2 * kappa_m
            / (2.0 * (1.0 + kappa_m ** 2 / 4.0)) * bracket)
    return phi, d_nm
