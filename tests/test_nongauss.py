import math

import numpy as np
import pytest

from optomech.coefficients import Trajectory
from optomech.nongaussianity import (delta, delta_asymptotic, delta_bounds,
                                     entropy_sv, report)
from optomech.params import Drive, ModelSpec


def test_entropy_sv_limits():
    assert entropy_sv(1.0) == 0.0
    assert entropy_sv(1.0 - 1e-9) == 0.0
    with pytest.raises(ValueError):
        entropy_sv(0.9)
    # s_V(3) = 2 ln 2 exactly
    assert entropy_sv(3.0) == pytest.approx(2 * math.log(2.0), rel=1e-14)


def test_entropy_sv_bits_match_xlogy():
    xlogy = pytest.importorskip("scipy.special").xlogy
    nus = [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-16, 1.0, 1.0 + 1e-16, 1.0 + 1e-12,
           1.0 + 1e-6, *np.geomspace(1.001, 1e6, 200), 1e6]
    for nu in nus:
        clamped = max(nu, 1.0)
        up, dn = 0.5 * (clamped + 1.0), 0.5 * (clamped - 1.0)
        assert entropy_sv(nu) == float(xlogy(up, up) - xlogy(dn, dn)), nu


def test_delta_zero_without_nonlinearity(rng):
    # quadratic evolution preserves Gaussianity whatever D1, D2 do
    for _ in range(8):
        spec = ModelSpec(displacement=Drive.cosine(float(rng.uniform(-1, 1)),
                                                   float(rng.uniform(0.2, 2.0))),
                         squeezing=Drive.constant(float(rng.uniform(-0.1, 0.5))))
        rep = report(spec, 0.8, 0.4, float(rng.uniform(0.1, 5.0)))
        assert rep.delta == pytest.approx(0.0, abs=1e-8)


def test_delta_zero_at_start_and_recurrence():
    spec = ModelSpec.standard(1.0)
    assert report(spec, 1.0, 0.0, 1e-9).delta == pytest.approx(0.0, abs=1e-7)
    assert report(spec, 1.0, 0.0, 2 * math.pi).delta == pytest.approx(0.0, abs=1e-8)


def test_delta_positive_and_inside_bounds():
    rep = report(ModelSpec.standard(1.0), 1.0, 0.0, math.pi)
    assert rep.delta > 0
    assert rep.delta_min - 1e-8 <= rep.delta <= rep.delta_max + 1e-8


def test_delta_bounds_trivial():
    dmin, dmax = delta_bounds(2.0, 2.0)
    assert dmin == 0.0
    dmin, dmax = delta_bounds(3.0, 1.0)
    assert dmin == dmax == entropy_sv(3.0)


def test_bound_sandwich_scan():
    spec = ModelSpec.standard(10.0)
    taus = np.linspace(0.05, math.pi, 100)
    traj = Trajectory(spec, math.pi)
    for tau in taus:
        rep = report(spec, 1.0, 0.0, float(tau), traj=traj)
        assert rep.delta_min - 1e-8 <= rep.delta <= rep.delta_max + 1e-8


def test_resonant_growth():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 1.0, 1.0))
    d_2pi = report(spec, 1.0, 0.0, 2 * math.pi).delta
    d_6pi = report(spec, 1.0, 0.0, 6 * math.pi).delta
    assert d_2pi > 0
    assert d_6pi > d_2pi


def test_scaling_with_mu_c():
    spec = ModelSpec.standard(1.0)
    values = [report(spec, mu, 0.0, math.pi).delta for mu in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_squeezing_suppression():
    values = []
    for d2 in (0.0, 1.0, 5.0):
        spec = ModelSpec(coupling=Drive.constant(1.0),
                         squeezing=Drive.constant(d2))
        values.append(report(spec, 1.0, 0.0, math.pi).delta)
    assert values[0] >= values[1] >= values[2]


def test_small_mu_asymptotic():
    # The leading-log estimate tracks the exact measure's scale and
    # scaling but not its prefactor: its perturbative eigenvalue
    # coefficients drop an O(mu) cross covariance (the exact delta here is
    # Fock-oracle-verified, measured ratio ~ 0.51 of exact).
    spec = ModelSpec.standard(1.0)
    mu = 1e-2
    rep = report(spec, mu, 0.0, 1.3)
    approx = delta_asymptotic("small", mu, _k_na(spec, 1.3))
    assert 0.4 * rep.delta < approx < rep.delta
    # scaling in mu: ratio of approximants tracks ratio of exact values
    mu2 = 1e-3
    rep2 = report(spec, mu2, 0.0, 1.3)
    approx2 = delta_asymptotic("small", mu2, _k_na(spec, 1.3))
    assert approx / approx2 == pytest.approx(rep.delta / rep2.delta, rel=0.05)


def test_large_mu_asymptotic():
    spec = ModelSpec.standard(1.0)
    mu, tau = 10.0, math.pi / 2
    rep = report(spec, mu, 0.0, tau)
    from optomech.coefficients import derived_scalars, f_closed_form
    from optomech.mechanics import solve_subsystem

    sol = solve_subsystem(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    d = derived_scalars(f_closed_form(spec, tau), alpha, beta)
    approx = delta_asymptotic("large", mu, d.k_na, d.theta)
    assert approx == pytest.approx(rep.delta, rel=0.05)
    # asymptote ~ 4 ln mu
    assert approx == pytest.approx(4 * math.log(mu), rel=0.12)


def test_large_asymptotic_trivial():
    assert delta_asymptotic("large", 3.0, 0.0, 0.0) == 0.0


def test_delta_matches_oracle_covariance():
    from optomech.moments import covariance_from_moments
    from optomech.oracle import (InitialState, oracle_moments, propagate,
                                 recommended_dims)

    spec = ModelSpec.standard(1.0)
    state = InitialState.coherent(1.0, 0.0)
    tau = math.pi
    dims = recommended_dims(spec, state, tau)
    st = propagate(spec, state, tau, dims)
    sigma_oracle = covariance_from_moments(oracle_moments(st))
    assert delta(sigma_oracle) == pytest.approx(
        report(spec, 1.0, 0.0, tau).delta, abs=1e-5)


def _k_na(spec, tau):
    from optomech.coefficients import derived_scalars, f_closed_form
    from optomech.mechanics import solve_subsystem

    sol = solve_subsystem(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    return derived_scalars(f_closed_form(spec, tau), alpha, beta).k_na
