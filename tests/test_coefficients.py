import math

import numpy as np
import pytest

from optomech import coefficients
from optomech.coefficients import (CatalogMiss, Trajectory, derived_scalars,
                                   f_closed_form, f_integrated, sinc)
from optomech.mechanics import solve_subsystem
from optomech.params import Drive, ModelSpec

from conftest import random_spec


def test_sinc_at_zero():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-16)


def test_all_zero_drives():
    spec = ModelSpec()
    sol = solve_subsystem(spec, 1.0)
    f = f_integrated(spec, sol, 1.0)
    assert np.allclose(f.as_array(), 0.0, atol=1e-12)


def test_forced_closed_form_constant_coupling():
    # G = 1, tau = pi: F_NaB+ = -sin(pi) = 0, F_NaB- = cos(pi) - 1 = -2
    spec = ModelSpec.standard(1.0)
    sol = solve_subsystem(spec, math.pi)
    f = f_integrated(spec, sol, math.pi)
    assert f.f_nabp == pytest.approx(0.0, abs=1e-10)
    assert f.f_nabm == pytest.approx(-2.0, abs=1e-10)


def test_entry_constant_coupling_at_two_pi():
    f = f_closed_form(ModelSpec.standard(1.0), 2 * math.pi)
    assert f.f_na2 == pytest.approx(-2 * math.pi, abs=1e-14)
    assert f.f_nabp == pytest.approx(0.0, abs=1e-14)
    assert f.f_nabm == pytest.approx(0.0, abs=1e-14)


def test_entry_constant_displacement_at_pi():
    # The defining integrals give F_Na = 2 g0 d1 (tau - sin tau cos tau),
    # i.e. 2 pi here (the published tabulation misses the factor 2; the
    # integral route and the displacement-estimation information both pin
    # it). F_B+ = 0 and F_B- = 2 are unaffected.
    spec = ModelSpec.gravimetry(1.0, 1.0)
    f = f_closed_form(spec, math.pi)
    assert f.f_na == pytest.approx(2 * math.pi, rel=1e-12)
    assert f.f_bp == pytest.approx(0.0, abs=1e-14)
    assert f.f_bm == pytest.approx(2.0, abs=1e-14)
    sol = solve_subsystem(spec, math.pi)
    quad = f_integrated(spec, sol, math.pi)
    assert quad.f_na == pytest.approx(f.f_na, abs=1e-9)


def test_resonant_coupling_matches_quadrature():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.5, 1.0))
    sol = solve_subsystem(spec, math.pi / 2)
    a = f_closed_form(spec, math.pi / 2).as_array()
    b = f_integrated(spec, sol, math.pi / 2).as_array()
    assert np.max(np.abs(a - b)) < 1e-8


def test_catalog_miss_directs_to_quadrature():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.5, 1.0),
                     displacement=Drive.constant(1.0))
    with pytest.raises(CatalogMiss):
        f_closed_form(spec, 1.0)
    spec = ModelSpec(squeezing=Drive.cosine(0.1, 2.0))
    with pytest.raises(CatalogMiss):
        f_closed_form(spec, 1.0)


def test_trajectory_f_routes():
    # a hit is the catalog entry; a miss at its own end point is bit-identical
    # to the single-point integration on the same subsystem solution
    hit = ModelSpec(coupling=Drive.offset_sinusoid(0.7, 0.3, 0.6))
    assert Trajectory(hit, 5.0).f(2.0) == f_closed_form(hit, 2.0)
    miss = ModelSpec(coupling=Drive.offset_sinusoid(0.7, 0.3, 0.6),
                     squeezing=Drive.cosine(0.05, 2.0))
    tau = 3.0
    sol = solve_subsystem(miss, tau)
    assert Trajectory(miss, tau).f(tau) == f_integrated(miss, sol, tau)
    traj = Trajectory(miss, tau)
    assert traj.f(tau) == f_integrated(miss, traj.sol, tau)
    # one pass serves the whole range
    traj = Trajectory(miss, 2 * tau)
    for t in (0.5, tau, 2 * tau):
        assert np.allclose(traj.f(t).as_array(),
                           f_integrated(miss, traj.sol, t).as_array(),
                           atol=1e-9, rtol=0.0)



def test_trajectory_f_calls_per_point(monkeypatch):
    # a hit makes one catalog call per point; a miss, named by catalog_entry,
    # makes none and integrates once, however many points and parts are read
    calls = {"f_closed_form": 0, "decoupled_pass": 0}

    def counted(name):
        original = getattr(coefficients, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(coefficients, name, wrapper)

    counted("f_closed_form")
    counted("decoupled_pass")
    taus = np.linspace(0.0, 4.0, 9)
    hit = ModelSpec(coupling=Drive.offset_sinusoid(0.7, 0.3, 0.6))
    traj = Trajectory(hit, 4.0)
    for t in taus:
        traj.f(t)
    assert calls == {"f_closed_form": len(taus), "decoupled_pass": 0}
    calls.update(f_closed_form=0)
    miss = ModelSpec(coupling=Drive.offset_sinusoid(0.7, 0.3, 0.6),
                     squeezing=Drive.cosine(0.05, 2.0))
    traj = Trajectory(miss, 4.0)
    for t in taus:
        traj.f(t)
        traj.j(t)
        traj.bogoliubov(t)
    assert traj.route == "integrated"
    assert calls == {"f_closed_form": 0, "decoupled_pass": 1}

def _catalog_spec(rng):
    entry = rng.choice(["constant", "constant-d2", "mod-g", "res-g",
                        "mod-d1", "res-d1"])
    g0 = float(rng.uniform(-1.5, 1.5))
    if entry == "constant":
        return ModelSpec(coupling=Drive.constant(g0),
                         displacement=Drive.constant(float(rng.uniform(-2, 2))))
    if entry == "constant-d2":
        return ModelSpec(coupling=Drive.constant(g0),
                         displacement=Drive.constant(float(rng.uniform(-2, 2))),
                         squeezing=Drive.constant(float(rng.uniform(-0.2, 1.0))))
    if entry == "mod-g":
        freq = float(rng.uniform(0.05, 2.5))
        if abs(freq - 1.0) < 0.02:
            freq += 0.05
        return ModelSpec(coupling=Drive.offset_sinusoid(
            g0, float(rng.uniform(-1, 1)), freq))
    if entry == "res-g":
        return ModelSpec(coupling=Drive.offset_sinusoid(
            g0, float(rng.uniform(-1, 1)), 1.0))
    freq = 1.0 if entry == "res-d1" else float(rng.uniform(0.05, 2.5))
    if entry == "mod-d1" and abs(freq - 1.0) < 0.02:
        freq += 0.05
    return ModelSpec(coupling=Drive.constant(g0),
                     displacement=Drive.cosine(float(rng.uniform(-2, 2)), freq))


def test_catalog_vs_quadrature_random(rng):
    # acceptance-level check: 200 random draws across catalog entries
    worst = 0.0
    for _ in range(200):
        spec = _catalog_spec(rng)
        tau = float(rng.uniform(0.05, 4 * math.pi))
        sol = solve_subsystem(spec, tau)
        a = f_closed_form(spec, tau).as_array()
        b = f_integrated(spec, sol, tau).as_array()
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-8


def test_coupling_sign_parity(rng):
    for _ in range(20):
        spec = _catalog_spec(rng)
        flipped = ModelSpec(
            coupling=Drive(-spec.coupling.amplitude, spec.coupling.offset,
                           spec.coupling.frequency, spec.coupling.phase),
            displacement=spec.displacement, squeezing=spec.squeezing)
        tau = float(rng.uniform(0.1, 6.0))
        f = f_closed_form(spec, tau)
        g = f_closed_form(flipped, tau)
        assert g.f_nabp == pytest.approx(-f.f_nabp, abs=1e-12)
        assert g.f_nabm == pytest.approx(-f.f_nabm, abs=1e-12)
        assert g.f_na == pytest.approx(-f.f_na, abs=1e-12)
        assert g.f_na2 == pytest.approx(f.f_na2, abs=1e-12)


def test_derived_scalars_trivial():
    from optomech.coefficients import FSet

    d = derived_scalars(FSet.zero(), 1.0 + 0j, 0.0j, mu_m=0.7 - 0.2j)
    assert d.theta == 0.0
    assert d.varphi == 0.0
    assert d.k_na == 0.0
    assert d.gamma == 0.0
    assert d.delta == 0.0
    assert d.e_bpbm == pytest.approx(1.0, abs=1e-15)


def test_k_na_constant_coupling():
    # |K_Na|^2 = 4 g0^2 sin^2(tau/2)
    for tau in (0.3, 1.0, 2.5, math.pi):
        spec = ModelSpec.standard(1.3)
        sol = solve_subsystem(spec, tau)
        f = f_closed_form(spec, tau)
        alpha, beta = sol.bogoliubov(tau)
        d = derived_scalars(f, alpha, beta)
        assert abs(d.k_na) ** 2 == pytest.approx(
            4 * 1.3 ** 2 * math.sin(tau / 2) ** 2, rel=1e-10)


def test_k_na_constant_squeezing_closed_form():
    # |K_Na|^2 = g0^2/zeta^4 [(zeta^2+1) sin^2 + cos(2 z t) - 2 cos(z t) + 1]
    g0, d2 = 1.0, 0.4
    zeta = math.sqrt(1 + 4 * d2)
    tau = math.pi / (3 * zeta)
    spec = ModelSpec(coupling=Drive.constant(g0), squeezing=Drive.constant(d2))
    sol = solve_subsystem(spec, tau)
    f = f_closed_form(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    d = derived_scalars(f, alpha, beta)
    zt = zeta * tau
    expected = g0 ** 2 / zeta ** 4 * ((zeta ** 2 + 1) * math.sin(zt) ** 2
                                      + math.cos(2 * zt) - 2 * math.cos(zt) + 1)
    assert abs(d.k_na) ** 2 == pytest.approx(expected, rel=1e-10)


def test_theta_constant_squeezing_closed_form():
    g0, d2, tau = 1.2, 0.3, 1.7
    zeta = math.sqrt(1 + 4 * d2)
    spec = ModelSpec(coupling=Drive.constant(g0), squeezing=Drive.constant(d2))
    sol = solve_subsystem(spec, tau)
    f = f_closed_form(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    d = derived_scalars(f, alpha, beta)
    expected = 2 * g0 ** 2 / zeta ** 3 * (math.sin(zeta * tau) - zeta * tau)
    assert d.theta == pytest.approx(expected, rel=1e-10)


def test_e_bpbm_modulus_identity(rng):
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        tau = float(rng.uniform(0.1, 6.0))
        sol = solve_subsystem(spec, tau)
        f = f_integrated(spec, sol, tau)
        alpha, beta = sol.bogoliubov(tau)
        mu_m = complex(rng.normal(), rng.normal())
        d = derived_scalars(f, alpha, beta, mu_m)
        worst = max(worst, abs(abs(d.e_bpbm) ** 2
                               - math.exp(-abs(d.k_na) ** 2)))
    assert worst < 1e-10


def test_theta_starts_at_zero_and_continuous():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.5, 1.3))
    sol = solve_subsystem(spec, 6.0)
    taus = np.linspace(0.0, 6.0, 121)
    thetas = []
    for tau in taus:
        f = f_closed_form(spec, tau)
        alpha, beta = sol.bogoliubov(tau)
        thetas.append(derived_scalars(f, alpha, beta).theta)
    assert thetas[0] == pytest.approx(0.0, abs=1e-12)
    jumps = np.abs(np.diff(thetas))
    assert np.max(jumps) < 0.5
