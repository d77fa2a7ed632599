import cmath
import math

import numpy as np
import pytest

from optomech.coefficients import Trajectory, f_closed_form
from optomech.mechanics import (JSet, _constant_dense, compose_bogoliubov,
                                j_coefficients, j_coefficients_ode,
                                map_constant_squeezing,
                                mathieu_perturbative, rwa_bogoliubov,
                                solve_subsystem)
from optomech.moments import evolve_moments, quadratures
from optomech.params import Drive, ModelSpec

FREE = ModelSpec(coupling=Drive.constant(0.0))


def rk4_reference(d2_fn, tau_end, dt=1e-4):
    """Brute-force fixed-step RK4 for the subsystem equations."""
    y = np.array([1.0, 0.0, 0.0, 1.0])

    def rhs(t, y):
        w2 = 1.0 + 4.0 * d2_fn(t)
        return np.array([y[1], -w2 * y[0], y[3], -w2 * y[2]])

    steps = int(round(tau_end / dt))
    dt = tau_end / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return y


def test_free_evolution_analytic():
    sol = solve_subsystem(FREE, math.pi)
    assert sol.xi(math.pi / 2) == pytest.approx(-1j, abs=1e-15)
    p11, _, i22, _ = sol.state_at(math.pi / 2)
    assert p11 == pytest.approx(0.0, abs=1e-15)
    assert i22 == pytest.approx(1.0, abs=1e-15)
    alpha, beta = sol.bogoliubov(math.pi / 2)
    assert alpha == pytest.approx(cmath.exp(-1j * math.pi / 2), abs=1e-14)
    assert beta == pytest.approx(0.0, abs=1e-14)


def test_free_evolution_xi_exact(rng):
    sol = solve_subsystem(FREE, 20.0)
    for tau in rng.uniform(0, 20, size=20):
        assert sol.xi(tau) == pytest.approx(cmath.exp(-1j * tau), abs=1e-13)


def test_constant_squeezing_closed_form():
    d2 = 0.5
    zeta = math.sqrt(1 + 4 * d2)
    spec = ModelSpec(squeezing=Drive.constant(d2))
    sol = solve_subsystem(spec, 2.0)
    p11, _, i22, _ = sol.state_at(1.0)
    assert p11 == pytest.approx(math.cos(zeta), abs=1e-14)
    assert i22 == pytest.approx(math.sin(zeta) / zeta, abs=1e-14)
    alpha, beta = sol.bogoliubov(1.0)
    expect_alpha = 0.5 * (2 * math.cos(zeta) - 1j / zeta * (1 + zeta ** 2) * math.sin(zeta))
    expect_beta = -2j * d2 / zeta * math.sin(zeta)
    assert alpha == pytest.approx(expect_alpha, abs=1e-14)
    assert beta == pytest.approx(expect_beta, abs=1e-14)


def test_modulated_squeezing_vs_fixed_step_rk4():
    spec = ModelSpec(squeezing=Drive.cosine(0.05, 2.0))
    sol = solve_subsystem(spec, 3.0)
    ref = rk4_reference(lambda t: 0.05 * math.cos(2 * t), 3.0, dt=1e-4)
    p11, dp11, i22, p22 = sol.state_at(3.0)
    assert np.allclose([p11, dp11, i22, p22], ref, atol=1e-8)


def test_boundary_conditions():
    for spec in (FREE, ModelSpec(squeezing=Drive.constant(0.3)),
                 ModelSpec(squeezing=Drive.cosine(0.1, 2.0))):
        sol = solve_subsystem(spec, 1.0)
        p11, dp11, i_p22, p22 = sol.state_at(0.0)
        assert p11 == pytest.approx(1.0, abs=1e-12)
        assert dp11 == pytest.approx(0.0, abs=1e-12)
        assert i_p22 == pytest.approx(0.0, abs=1e-12)
        assert p22 == pytest.approx(1.0, abs=1e-12)
        assert sol.xi(0.0) == pytest.approx(1.0, abs=1e-12)
        assert sol.dxi(0.0) == pytest.approx(-1j, abs=1e-12)


def test_grid_outside_range_rejected():
    with pytest.raises(ValueError):
        solve_subsystem(FREE, -1.0)


def test_unstable_constant_squeezing_rejected():
    with pytest.raises(ValueError):
        solve_subsystem(ModelSpec(squeezing=Drive.constant(-0.3)), 1.0)


def test_bogoliubov_identity_analytic_paths(rng):
    worst = 0.0
    for _ in range(300):
        d2 = float(rng.uniform(-0.2, 1.0))
        tau = float(rng.uniform(0, 4 * math.pi))
        spec = ModelSpec(squeezing=Drive.constant(d2))
        sol = solve_subsystem(spec, max(tau, 0.1))
        alpha, beta = sol.bogoliubov(tau)
        worst = max(worst, abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0))
    assert worst < 1e-9


def test_bogoliubov_identity_ode_paths(rng):
    worst = 0.0
    for _ in range(40):
        amp = float(rng.uniform(-0.2, 0.2))
        freq = float(rng.uniform(0.3, 3.0))
        tau = float(rng.uniform(0.3, 3 * math.pi))
        spec = ModelSpec(squeezing=Drive.cosine(amp, freq))
        sol = solve_subsystem(spec, tau)
        alpha, beta = sol.bogoliubov(tau)
        worst = max(worst, abs(abs(alpha) ** 2 - abs(beta) ** 2 - 1.0))
    assert worst < 1e-7


def test_j_coefficients_free_rotation():
    for tau in (0.3, 1.0, 1.5):
        j = j_coefficients(cmath.exp(-1j * tau), 0.0)
        assert j.j_plus == 0.0
        assert j.j_minus == 0.0
        assert j.j_b == pytest.approx(tau, abs=1e-12)


def test_j_round_trip(rng):
    for _ in range(200):
        j = JSet(j_b=float(rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)),
                 j_plus=float(rng.uniform(0, 1.5)),
                 j_minus=float(rng.uniform(0, 1.5)))
        alpha, beta = compose_bogoliubov(j)
        back = j_coefficients(alpha, beta)
        alpha2, beta2 = compose_bogoliubov(back)
        assert abs(alpha - alpha2) < 1e-8
        assert abs(beta - beta2) < 1e-8


def test_scalar_paths_round_as_numpy_bit_for_bit(rng):
    # a catalog hit with a constant squeezing solves the subsystem and J on
    # Python scalars; they must give the bits numpy gives. _constant_dense
    # takes math for a float tau and numpy for an array; j_coefficients,
    # which sees Python complex, gives the bits it gives on np.complex128
    tau = np.concatenate([[0.0, 5e-324, 1e-300, math.pi, 2 * math.pi],
                          rng.uniform(0.0, 200.0, 20000)])
    for d2 in (0.0, 0.05, -0.2, 1.3):
        dense = _constant_dense(d2)
        scalar = np.array([dense(float(t)) for t in tau])
        assert scalar.tobytes() == np.array(dense(tau)).T.tobytes()

    pairs = [compose_bogoliubov(JSet(j_b=float(rng.uniform(-3.0, 3.0)),
                                     j_plus=float(rng.uniform(0.0, 1.5)),
                                     j_minus=float(rng.uniform(0.0, 1.5))))
             for _ in range(5000)]
    pairs += [(cmath.exp(-1j * t), 0j) for t in tau[:5000]]
    for alpha, beta in pairs:
        ours = j_coefficients(alpha, beta)
        assert ours == j_coefficients(np.complex128(alpha), np.complex128(beta))


def test_j_coefficients_rejects_invalid_pair():
    with pytest.raises(ValueError):
        j_coefficients(1.2, 0.0)


def test_j_ode_free():
    j = j_coefficients_ode(FREE, 2.2)
    assert (j.j_b, j.j_plus, j.j_minus) == (2.2, 0.0, 0.0)


def test_j_ode_constant_small_d2():
    d2 = 0.01
    spec = ModelSpec(squeezing=Drive.constant(d2))
    j = j_coefficients_ode(spec, 3.0)
    assert j.j_b == pytest.approx((1 + 2 * d2) * 3.0, abs=5e-3)
    assert abs(j.j_plus) < 5e-3
    assert abs(j.j_minus) < 5e-3


def test_j_ode_resonant_small_d2():
    d2 = 0.02
    spec = ModelSpec(squeezing=Drive.cosine(d2, 2.0))
    j = j_coefficients_ode(spec, 5.0)
    assert j.j_plus == pytest.approx(0.5 * d2 * 5.0, abs=3e-3)
    assert abs(j.j_minus) < 5e-3
    assert j.j_b == pytest.approx(5.0, abs=2e-2)


def test_j_ode_matches_bogoliubov_route():
    spec = ModelSpec(squeezing=Drive.cosine(0.08, 2.0))
    sol = solve_subsystem(spec, 4.2)
    traj = Trajectory(spec, 4.0)
    for tau in np.linspace(0.2, 4.0, 12):
        alpha, beta = sol.bogoliubov(tau)
        alg = j_coefficients(alpha, beta)
        ode = traj.j(tau)
        branch = (alg.j_b - ode.j_b) % math.pi
        branch = min(branch, math.pi - branch)
        assert branch < 1e-6
        assert alg.j_plus == pytest.approx(ode.j_plus, abs=1e-6)
        assert alg.j_minus == pytest.approx(ode.j_minus, abs=1e-6)


def test_mathieu_perturbative_d2_zero():
    p11, i22, xi = mathieu_perturbative(0.0, 1.3)
    assert p11 == pytest.approx(math.cos(1.3), abs=1e-15)
    assert i22 == pytest.approx(math.sin(1.3), abs=1e-15)
    assert xi == pytest.approx(cmath.exp(-1.3j), abs=1e-15)


@pytest.mark.parametrize("d2", [0.005, 0.01, 0.02])
def test_mathieu_perturbative_vs_ode(d2):
    # The two-scale closed forms track the resonant ODE solution with a
    # pointwise error that is first order in d2 (oracle-frozen bound
    # 1.1 * d2); the secular envelope carries no growth in tau.
    spec = ModelSpec(squeezing=Drive.cosine(d2, 2.0))
    sol = solve_subsystem(spec, 10.2)
    worst = 0.0
    for tau in np.linspace(0.25, 10.0, 40):
        p11, i22, _ = mathieu_perturbative(d2, tau)
        p11o, _, i22o, _ = sol.state_at(tau)
        worst = max(worst, abs(p11 - p11o), abs(i22 - i22o))
    assert worst < 1.1 * d2


def test_rwa_pair_identity_exact():
    for d2, tau in ((0.05, 1.0), (0.02, 7.0)):
        alpha, beta = rwa_bogoliubov(d2, tau)
        assert abs(alpha) ** 2 - abs(beta) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_map_constant_squeezing_trivial():
    shift = map_constant_squeezing(1.0, 0.0)
    assert shift.omega_m_shifted == 1.0
    assert shift.squeeze_r == 0.0
    assert shift.map_coherent(0.3 + 0.2j) == 0.3 + 0.2j


def test_map_constant_squeezing_radicand_four():
    shift = map_constant_squeezing(1.0, 0.75)
    assert shift.omega_m_shifted == pytest.approx(2.0, abs=1e-14)
    assert shift.squeeze_r == pytest.approx(-0.5 * math.log(2.0), abs=1e-14)


def test_map_constant_squeezing_rejects_unstable():
    with pytest.raises(ValueError):
        map_constant_squeezing(1.0, -0.3)


def test_map_constant_squeezing_dual_path_quadratures():
    # first-moment quadratures agree between the squeezed-frame evolution
    # at omega' and the direct constant-d2 evolution
    d2, d1 = 0.1, 0.4
    mu_m = 0.4 + 0.1j
    shift = map_constant_squeezing(1.0, d2)
    zeta = shift.omega_m_shifted
    spec_a = ModelSpec(displacement=Drive.constant(d1),
                       squeezing=Drive.constant(d2))
    sol_a = solve_subsystem(spec_a, 8.0)
    spec_b = ModelSpec(displacement=Drive.constant(d1 / zeta ** 1.5))
    sol_b = solve_subsystem(spec_b, 8.0 * zeta + 0.1)
    mu_shift = shift.map_coherent(mu_m)
    for tau in np.linspace(0.0, 7.9, 17):
        f_a = f_closed_form(spec_a, tau)
        al, be = sol_a.bogoliubov(tau)
        q_a = quadratures(evolve_moments(f_a, al, be, 0.0, mu_m))
        f_b = f_closed_form(spec_b, zeta * tau)
        al, be = sol_b.bogoliubov(zeta * tau)
        q_b = quadratures(evolve_moments(f_b, al, be, 0.0, mu_shift))
        assert q_a[2] == pytest.approx(q_b[2] / math.sqrt(zeta), abs=1e-6)
        assert q_a[3] == pytest.approx(q_b[3] * math.sqrt(zeta), abs=1e-6)
