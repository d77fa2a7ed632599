import cmath
import math

import numpy as np
import pytest

from optomech.coefficients import FSet, derived_scalars, f_closed_form
from optomech.mechanics import STRICT, solve_subsystem
from optomech.moments import (CovarianceMatrix, covariance,
                              covariance_from_moments, damped_coherent,
                              evolve_moments, quadratures,
                              subsystem_eigenvalues,
                              subsystem_eigenvalues_closed,
                              symplectic_eigenvalues)
from optomech.params import Drive, ModelSpec

from conftest import random_spec


def moments_at(spec, mu_c, mu_m, tau, sol=None):
    from optomech.coefficients import catalog_entry, f_integrated

    if sol is None:
        sol = solve_subsystem(spec, max(tau, 1e-9))
    if catalog_entry(spec) is None:
        f = f_integrated(spec, sol, tau)
    else:
        f = f_closed_form(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    d = derived_scalars(f, alpha, beta, mu_m)
    m = evolve_moments(f, alpha, beta, mu_c, mu_m)
    return m, d, alpha, beta


def test_free_evolution_moments():
    spec = ModelSpec()
    m, *_ = moments_at(spec, 0.7 + 0.1j, 0.2 - 0.4j, 1.1)
    assert m.a == pytest.approx(0.7 + 0.1j, abs=1e-12)
    assert m.b == pytest.approx((0.2 - 0.4j) * cmath.exp(-1.1j), abs=1e-12)


def test_initial_time_reproduces_inputs():
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     displacement=Drive.constant(0.5),
                     squeezing=Drive.constant(0.2))
    mu_c, mu_m = 0.8 + 0.2j, -0.3 + 0.5j
    m, *_ = moments_at(spec, mu_c, mu_m, 1e-12)
    assert m.a == pytest.approx(mu_c, abs=1e-9)
    assert m.b == pytest.approx(mu_m, abs=1e-9)
    assert m.ab == pytest.approx(mu_c * mu_m, abs=1e-9)


def test_photon_number_conserved(rng):
    for _ in range(20):
        spec = random_spec(rng)
        mu_c = complex(rng.normal(), rng.normal())
        m, *_ = moments_at(spec, mu_c, 0.3, float(rng.uniform(0.1, 6)))
        assert m.adag_a == pytest.approx(abs(mu_c) ** 2, rel=1e-12)


def test_disentangling_at_two_pi():
    # constant drives, no squeezing: mechanics returns and cross-covariances
    # vanish at one mechanical period
    spec = ModelSpec.gravimetry(1.0, 0.7)
    mu_c, mu_m = 1.0, 0.4 + 0.2j
    m, d, alpha, beta = moments_at(spec, mu_c, mu_m, 2 * math.pi)
    assert m.b == pytest.approx(mu_m, abs=1e-10)
    sigma = covariance(d, alpha, beta, mu_c)
    assert np.max(np.abs(sigma.cross_block())) < 1e-8


def test_driven_mechanics_returns_home():
    # mu_m = 0, constant coupling: <x_m> = <p_m> = 0 at tau = 2 pi
    spec = ModelSpec.standard(1.0)
    m, *_ = moments_at(spec, 1.0, 0.0, 2 * math.pi)
    _, _, xm, pm = quadratures(m)
    assert abs(xm) < 1e-10 and abs(pm) < 1e-10
    assert m.b == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("nc", [1.0, 100.0])
@pytest.mark.parametrize("phase", ["theta", "varphi"])
def test_phases_past_their_float_spacing_are_refused(phase, nc):
    # one unit in the last place of theta moves a moment by up to
    # (1 + 2 n_c) ulp(theta) of its size, of varphi by 2 ulp(varphi); the
    # first power of two whose spacing passes STRICT's rtol is refused, the
    # float below it is not, and without photons no moment reads the phases
    weight = 1.0 + 2.0 * nc if phase == "theta" else 2.0
    edge = 1.0
    while weight * math.ulp(edge) <= STRICT[0]:
        edge *= 2.0

    def moments_with(x, mu_c):
        # theta = 2 F_Na2 and varphi = F_Na + F_Na2, one of them x, the other 0
        f = (FSet(-x / 2, x / 2, 0.0, 0.0, 0.0, 0.0) if phase == "theta"
             else FSet(x, 0.0, 0.0, 0.0, 0.0, 0.0))
        return evolve_moments(f, 1.0, 0.0, mu_c)

    with pytest.raises(OverflowError, match="^the phases"):
        moments_with(edge, math.sqrt(nc))
    assert math.isfinite(moments_with(math.nextafter(edge, 0.0),
                                      math.sqrt(nc)).a.real)
    assert moments_with(edge, 0.0).a == 0.0


def test_covariance_trivial_identity():
    m, d, alpha, beta = moments_at(ModelSpec(), 1.0, 0.0, 0.7)
    sigma = covariance(d, alpha, beta, 1.0)
    assert np.allclose(sigma.matrix, np.eye(4), atol=1e-12)


def test_covariance_pure_squeezing_block():
    # g = 0, constant d2: sigma_22 = 1 + 2 |beta|^2, sigma_42 = 2 alpha beta
    spec = ModelSpec(squeezing=Drive.constant(0.4))
    m, d, alpha, beta = moments_at(spec, 0.7, 0.0, 1.3)
    sigma = covariance(d, alpha, beta, 0.7)
    assert sigma.matrix[1, 1] == pytest.approx(1 + 2 * abs(beta) ** 2, rel=1e-12)
    assert sigma.matrix[3, 1] == pytest.approx(2 * alpha * beta, rel=1e-12)


def test_covariance_closed_matches_generic(rng):
    for _ in range(25):
        spec = random_spec(rng)
        mu_c = complex(rng.normal(), rng.normal()) * 0.7
        mu_m = complex(rng.normal(), rng.normal()) * 0.5
        m, d, alpha, beta = moments_at(spec, mu_c, mu_m,
                                       float(rng.uniform(0.1, 6)))
        closed = covariance(d, alpha, beta, mu_c).matrix
        generic = covariance_from_moments(m).matrix
        assert np.max(np.abs(closed - generic)) < 1e-10


def test_covariance_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        CovarianceMatrix(matrix=bad)


def test_symplectic_identity():
    assert np.allclose(symplectic_eigenvalues(np.eye(4, dtype=complex)),
                       [1.0, 1.0])


def test_symplectic_thermal_block():
    assert symplectic_eigenvalues(np.diag([3.0, 3.0]).astype(complex))[0] \
        == pytest.approx(3.0)


def test_purity_for_gaussian_preserving_evolution(rng):
    # with the nonlinearity off the global state stays pure Gaussian
    for _ in range(10):
        spec = ModelSpec(displacement=Drive.cosine(float(rng.uniform(-1, 1)),
                                                   float(rng.uniform(0.2, 2))),
                         squeezing=Drive.constant(float(rng.uniform(-0.1, 0.4))))
        mu_c = complex(rng.normal(), rng.normal()) * 0.5
        m, d, alpha, beta = moments_at(spec, mu_c, 0.3, float(rng.uniform(0.1, 5)))
        nus = symplectic_eigenvalues(covariance(d, alpha, beta, mu_c))
        assert np.allclose(nus, 1.0, atol=1e-6)


def test_purity_at_recurrence():
    spec = ModelSpec.standard(1.0)
    m, d, alpha, beta = moments_at(spec, 1.0, 0.5, 2 * math.pi)
    nus = symplectic_eigenvalues(covariance(d, alpha, beta, 1.0))
    assert np.allclose(nus, 1.0, atol=1e-6)


def test_subsystem_closed_form_nu_me():
    # constant coupling, tau = pi: |K|^2 = 4 sin^2(pi/2) g0^2 = 4, so
    # nu_me = sqrt(1 + 16) for mu_c = 1
    spec = ModelSpec.standard(1.0)
    m, d, alpha, beta = moments_at(spec, 1.0, 0.0, math.pi)
    nu_op_c, nu_me_c = subsystem_eigenvalues_closed(d, 1.0)
    assert nu_me_c == pytest.approx(math.sqrt(17.0), rel=1e-12)
    sigma = covariance(d, alpha, beta, 1.0)
    nu_op_n, nu_me_n = subsystem_eigenvalues(sigma)
    assert nu_me_c == pytest.approx(nu_me_n, rel=1e-10)
    assert nu_op_c == pytest.approx(nu_op_n, rel=1e-8)


def test_subsystem_closed_vs_blocks(rng):
    for _ in range(20):
        spec = random_spec(rng)
        mu_c = complex(rng.normal(), rng.normal()) * 0.8
        mu_m = complex(rng.normal(), rng.normal()) * 0.5
        tau = float(rng.uniform(0.2, 6.0))
        m, d, alpha, beta = moments_at(spec, mu_c, mu_m, tau)
        if abs(math.sin(d.theta / 2.0)) < 1e-6:
            continue  # closed nu_op is cancellation-limited there
        sigma = covariance(d, alpha, beta, mu_c)
        nu_op_n, nu_me_n = subsystem_eigenvalues(sigma)
        nu_op_c, nu_me_c = subsystem_eigenvalues_closed(d, mu_c)
        assert nu_me_c == pytest.approx(nu_me_n, abs=1e-8)
        assert nu_op_c == pytest.approx(nu_op_n, abs=1e-8)


def test_subsystem_maxima_large_mu():
    # strong coupling saturates nu_op ~ 1 + 2|mu_c|^2, nu_me ~ 2|K||mu_c|
    spec = ModelSpec.standard(10.0)
    mu_c = 30.0
    m, d, alpha, beta = moments_at(spec, mu_c, 0.0, math.pi / 2)
    nu_op, nu_me = subsystem_eigenvalues_closed(d, mu_c)
    assert nu_op == pytest.approx(1 + 2 * mu_c ** 2, rel=1e-3)
    assert nu_me == pytest.approx(2 * abs(d.k_na) * mu_c, rel=1e-3)


def test_quadratures_trivial():
    m, *_ = moments_at(ModelSpec(), 1.0, 0.0, 0.0001)
    xc, pc, xm, pm = quadratures(m)
    assert xc == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert pc == pytest.approx(0.0, abs=1e-9)


def test_quadrature_trajectory_closes():
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     displacement=Drive.constant(2.0))
    m0, *_ = moments_at(spec, 1.0, 1.0, 1e-10)
    m1, *_ = moments_at(spec, 1.0, 1.0, 2 * math.pi)
    assert np.allclose(quadratures(m0), quadratures(m1), atol=1e-8)


def test_damped_coherent_zero_damping():
    phi, d = damped_coherent(2, 0, 0.0, 1.7, 1.0)
    assert phi == pytest.approx(2.0 * (1 - cmath.exp(-1.7j)), abs=1e-14)
    assert d == 0.0


def test_damped_coherent_diagonal():
    for kappa, tau in ((0.1, 2.0), (0.5, 7.0)):
        _, d = damped_coherent(4, 4, kappa, tau, 1.3)
        assert d == 0.0


def test_damped_coherent_symmetric_and_monotone():
    _, d12 = damped_coherent(1, 2, 0.2, 3.0, 1.0)
    _, d21 = damped_coherent(2, 1, 0.2, 3.0, 1.0)
    assert d12 == pytest.approx(d21, rel=1e-14)
    assert d12 > 0
    values = [damped_coherent(1, 0, 0.1, t, 1.0)[1]
              for t in np.linspace(0.01, 12.0, 80)]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


def test_damped_coherent_small_kappa_continuity():
    phi0, d0 = damped_coherent(1, 0, 0.0, math.pi, 1.0)
    phi1, d1 = damped_coherent(1, 0, 1e-9, math.pi, 1.0)
    assert abs(phi1 - phi0) < 1e-8
    assert d1 < 1e-8
