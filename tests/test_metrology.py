import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest

from optomech.cli import model_from_config, resolve_config
from optomech.coefficients import CatalogMiss, catalog_entry, f_closed_form
from optomech.metrology import (N_MAX_CAP, QFI_MODES, QFI_PARAMS,
                                QfiCoefficients, _hermite_functions,
                                _trapezoid_nodes,
                                acceleration_qfi, cfi_homodyne, default_n_max,
                                gravimetry, gravimetry_qfi_closed,
                                measurement_window, photon_tail,
                                qfi_closed_form, qfi_coefficients,
                                qfi_coherent, qfi_derivatives, qfi_fock,
                                qfi_route, qfi_thermal)
from optomech.oracle import analytic_state_coefficients
from optomech.params import (ColdAtoms, Drive, FabryPerot, Levitated,
                             ModelSpec, coupling_constant, coupling_constant_hz)

from conftest import finite_diff_qfi_budget, random_spec, richardson_derivatives
from test_cli import MISS_CONFIG

TWO_PI = 2 * math.pi


def coeff_fields(c: QfiCoefficients):
    return {k: getattr(c, k) for k in
            ("c_a", "c_b", "c_cp", "c_cm", "c_cnp", "c_cnm",
             "c_e", "c_f", "c_g", "c_k")}


def test_d1_constant_coefficients():
    # cB = 2 g0 (sin tau - tau), cC+ = -sin tau, cC- = cos tau - 1
    spec = ModelSpec.gravimetry(1.0, 1.0)
    for tau in (0.7, 2.0, TWO_PI):
        c = qfi_coefficients(spec, "d1", tau)
        assert c.c_b == pytest.approx(2 * (math.sin(tau) - tau), rel=1e-12)
        assert c.c_cp == pytest.approx(-math.sin(tau), abs=1e-12)
        assert c.c_cm == pytest.approx(math.cos(tau) - 1, abs=1e-12)
        assert c.c_a == c.c_cnp == c.c_cnm == 0.0
        assert c.c_e == c.c_f == c.c_g == 0.0


def test_g0_constant_coefficient_at_two_pi():
    spec = ModelSpec.standard(1.0)
    c = qfi_coefficients(spec, "g0", TWO_PI)
    assert c.c_a == pytest.approx(4 * math.pi, rel=1e-12)
    assert abs(c.c_cnp) < 1e-12 and abs(c.c_cnm) < 1e-12


def test_squeezing_drive_zeroes_with_d2_off():
    # no squeezing: cE = cF = cG = 0 for any estimated parameter
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.4, 1.0))
    c = qfi_coefficients(spec, "epsilon", 1.7)
    assert c.c_e == c.c_f == c.c_g == 0.0


def test_displacement_off_zeroes_b_and_c():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.4, 1.3))
    c = qfi_coefficients(spec, "g0", 2.1)
    assert c.c_b == 0.0 and c.c_cp == 0.0 and c.c_cm == 0.0


def test_d1_estimation_kills_photon_terms():
    spec = ModelSpec.gravimetry(0.8, 1.2)
    c = qfi_coefficients(spec, "d1", 1.9)
    assert c.c_a == 0.0 and c.c_cnp == 0.0 and c.c_cnm == 0.0


def test_finite_diff_matches_analytic_epsilon():
    spec = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.7, 1.0))
    ca = qfi_coefficients(spec, "epsilon", math.pi)
    cf = qfi_coefficients(spec, "epsilon", math.pi, mode="finite_diff")
    for name, val in coeff_fields(ca).items():
        assert getattr(cf, name) == pytest.approx(val, rel=1e-6, abs=1e-9), name


def test_finite_diff_matches_analytic_g0_and_d1(rng):
    for _ in range(5):
        spec = ModelSpec(
            coupling=Drive.offset_sinusoid(float(rng.uniform(0.2, 2)),
                                           float(rng.uniform(-0.5, 0.5)),
                                           float(rng.uniform(0.3, 2.0))))
        ca = qfi_coefficients(spec, "g0", 2.2)
        cf = qfi_coefficients(spec, "g0", 2.2, mode="finite_diff")
        for name, val in coeff_fields(ca).items():
            assert getattr(cf, name) == pytest.approx(val, rel=1e-5, abs=1e-8)
        spec = ModelSpec(coupling=Drive.constant(float(rng.uniform(0.2, 2))),
                         displacement=Drive.cosine(float(rng.uniform(0.2, 2)),
                                                   float(rng.uniform(0.3, 2.0))))
        ca = qfi_coefficients(spec, "d1", 2.2)
        cf = qfi_coefficients(spec, "d1", 2.2, mode="finite_diff")
        for name, val in coeff_fields(ca).items():
            assert getattr(cf, name) == pytest.approx(val, rel=1e-5, abs=1e-8)


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        qfi_coefficients(ModelSpec.standard(1.0), "nonsense", 1.0)


def test_qfi_zero_coefficients():
    zero = QfiCoefficients(*([0.0] * 10))
    assert qfi_thermal(zero, 1.0, 1.0) == 0.0
    assert qfi_coherent(0, 0, 0, 1.0) == 0.0


def test_single_shot_table():
    g0, nc, r_t = 100.0, 1e6, 3.48
    assert qfi_closed_form("g0-resonant", TWO_PI, g0=g0, epsilon=0.5,
                           n_photons=nc, r_T=r_t) \
        == pytest.approx(3.02e25, rel=0.01)
    assert qfi_closed_form("d1-resonant", TWO_PI, g0=g0, n_photons=nc,
                           r_T=r_t) == pytest.approx(1.58e12, rel=0.01)
    assert qfi_closed_form("d2-resonant-approx", TWO_PI, g0=g0, n_photons=nc,
                           r_T=r_t) == pytest.approx(6.32e28, rel=0.01)


def test_closed_forms_match_generic_path(rng):
    checks = []
    for _ in range(12):
        g0 = float(rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(-0.8, 0.8))
        nc = float(rng.uniform(0.2, 9.0))
        r_t = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.3, 3 * math.pi))
        w = float(rng.uniform(0.2, 2.2))
        if abs(w - 1.0) < 0.05:
            w += 0.1
        checks.append((ModelSpec(coupling=Drive.offset_sinusoid(g0, eps, w)),
                       "g0", qfi_closed_form("g0-general-omega", tau, g0=g0,
                                             epsilon=eps, omega=w,
                                             n_photons=nc, r_T=r_t),
                       nc, r_t, tau))
        checks.append((ModelSpec(coupling=Drive.offset_sinusoid(g0, eps, 1.0)),
                       "g0", qfi_closed_form("g0-resonant", tau, g0=g0,
                                             epsilon=eps, n_photons=nc, r_T=r_t),
                       nc, r_t, tau))
        d1 = float(rng.uniform(0.2, 2.0))
        checks.append((ModelSpec(coupling=Drive.constant(g0),
                                 displacement=Drive.cosine(d1, w)),
                       "d1", qfi_closed_form("d1-general-omega", tau, g0=g0,
                                             omega=w, n_photons=nc, r_T=r_t),
                       nc, r_t, tau))
        checks.append((ModelSpec.gravimetry(g0, d1),
                       "d1", qfi_closed_form("d1-constant", tau, g0=g0,
                                             n_photons=nc, r_T=r_t),
                       nc, r_t, tau))
        checks.append((ModelSpec(coupling=Drive.constant(g0),
                                 displacement=Drive.cosine(d1, 1.0)),
                       "d1", qfi_closed_form("d1-resonant", tau, g0=g0,
                                             n_photons=nc, r_T=r_t),
                       nc, r_t, tau))
    for spec, param, closed, nc, r_t, tau in checks:
        coeffs = qfi_coefficients(spec, param, tau)
        generic = qfi_thermal(coeffs, math.sqrt(nc), r_t)
        assert generic == pytest.approx(closed, rel=1e-8), (param, tau)


def test_d2_resonant_approx_is_the_d2_to_0_limit(rng):
    # the d2 cos(2 tau) QFI at tau = 2 pi k as d2 -> 0: d2 = 0 itself, where
    # finite differences step to d2 = +-h, and the QFI is smooth in d2
    for _ in range(4):
        g0 = float(rng.uniform(0.3, 3.0))
        nc = float(rng.uniform(0.2, 9.0))
        r_t = float(rng.uniform(0.0, 2.0))
        tau = TWO_PI * int(rng.integers(1, 4))
        spec = ModelSpec(coupling=Drive.constant(g0),
                         squeezing=Drive.cosine(0.0, 2.0))
        limit = qfi_thermal(qfi_coefficients(spec, "d2", tau, mode="finite_diff"),
                            math.sqrt(nc), r_t)
        closed = qfi_closed_form("d2-resonant-approx", tau, g0=g0,
                                 n_photons=nc, r_T=r_t)
        assert limit == pytest.approx(
            closed, rel=finite_diff_qfi_budget(spec, "d2", tau)), (g0, tau)


@pytest.mark.xfail(strict=True, reason="d2-constant-approx drops the secular "
                   "term of dF_Na2/dd2 (F_Na2 carries 1/zeta^3, zeta^2 = 1 + "
                   "4 d2), so it is not the d2 -> 0 limit of the exact QFI")
def test_d2_constant_approx_is_the_d2_to_0_limit():
    g0, nc, tau = 1.0, 1.0, TWO_PI
    spec = ModelSpec(coupling=Drive.constant(g0), squeezing=Drive.constant(0.0))
    limit = qfi_thermal(qfi_coefficients(spec, "d2", tau, mode="finite_diff"),
                        math.sqrt(nc))
    closed = qfi_closed_form("d2-constant-approx", tau, g0=g0, n_photons=nc)
    assert limit == pytest.approx(
        closed, rel=finite_diff_qfi_budget(spec, "d2", tau))


def test_resonant_asymptote():
    g0, nc, tau = 2.0, 4.0, 40 * math.pi
    full = qfi_closed_form("g0-resonant", tau, g0=g0, epsilon=0.05,
                           n_photons=nc, r_T=0.0)
    asym = qfi_closed_form("g0-resonant-asymptotic", tau, g0=g0, n_photons=nc)
    assert full == pytest.approx(asym, rel=0.05)


def test_d1_constant_vs_resonant_large_tau_ratio():
    # I_const -> 4 I_res for tau >> 1 once g0^2 |mu_c|^2 dominates the bare
    # mechanical term (at g0 = mu_c = 1 the exact large-tau ratio is 16/5).
    tau = 40 * math.pi
    const = qfi_closed_form("d1-constant", tau, g0=3.0, n_photons=9.0)
    res = qfi_closed_form("d1-resonant", tau, g0=3.0, n_photons=9.0)
    assert const / res == pytest.approx(4.0, rel=0.02)
    const1 = qfi_closed_form("d1-constant", tau, g0=1.0, n_photons=1.0)
    res1 = qfi_closed_form("d1-resonant", tau, g0=1.0, n_photons=1.0)
    assert const1 / res1 == pytest.approx(16.0 / 5.0, rel=0.02)


def test_d2_resonant_vs_constant_ratio():
    g0, nc, tau = 3.0, 400.0, 10.0
    res = qfi_closed_form("d2-resonant-approx", tau, g0=g0, n_photons=nc)
    const = qfi_closed_form("d2-constant-approx", tau, g0=g0, n_photons=nc)
    assert res / const == pytest.approx(g0 ** 2 * nc, rel=0.05)


def test_temperature_monotonicity():
    g_vals = [qfi_closed_form("g0-resonant", TWO_PI, g0=1.0, epsilon=0.5,
                              n_photons=1.0, r_T=r) for r in (0.0, 1.0, 2.0)]
    assert g_vals[0] <= g_vals[1] <= g_vals[2]
    d_vals = [qfi_closed_form("d1-constant", 2.0, g0=1.0, n_photons=1.0,
                              r_T=r) for r in (0.0, 1.0, 2.0)]
    assert d_vals[0] >= d_vals[1] >= d_vals[2]


def _refusal(fn, *args, **kwargs):
    """The ValueError message ``fn`` raises, or None when it returns."""
    try:
        fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


def _unstable_constant_spec(rng, d2):
    return ModelSpec(coupling=Drive.constant(float(rng.uniform(-1.0, 1.5))),
                     displacement=Drive.constant(float(rng.uniform(-1.0, 1.5))),
                     squeezing=Drive.constant(d2))


def test_routes_are_decided_before_the_arithmetic(rng):
    # catalog_entry names no entry exactly when f_closed_form raises, and
    # qfi_route refuses exactly what qfi_coefficients refuses, with its message
    specs = [random_spec(rng) for _ in range(20)]
    specs += [_unstable_constant_spec(rng, d2)
              for d2 in (-0.25, -0.3, -0.6, float(rng.uniform(-1.0, -0.25)))]
    for spec in specs:
        miss = _refusal(f_closed_form, spec, 0.7)
        assert (catalog_entry(spec) is None) == (miss is not None), spec
        for param in QFI_PARAMS:
            for mode in QFI_MODES:
                refusal = _refusal(qfi_route, spec, param, mode)
                assert refusal == _refusal(qfi_coefficients, spec, param, 0.7,
                                           mode=mode), (spec, param, mode)
        assert _refusal(qfi_route, spec, "d2", "analytic") is not None
    for spec in (random_spec(rng) for _ in range(300)):
        miss = _refusal(f_closed_form, spec, 0.7)
        assert (catalog_entry(spec) is None) == (miss is not None), spec


def test_qfi_route_names():
    gravimetry_model = ModelSpec.gravimetry(1.0, 0.5)
    mod_g = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.3, 0.7))
    # a catalog route is the entry of the model near theta, in either mode
    for mode in QFI_MODES:
        assert qfi_route(gravimetry_model, "g0", mode) == "all-constant"
        assert qfi_route(gravimetry_model, "d1", mode) == "all-constant"
        assert qfi_route(mod_g, "epsilon", mode) == "modulated-g"
        assert qfi_route(mod_g, "omega_g", mode) == "modulated-g"
    # g0 = 0 makes the coupling constant, but not the model near it
    zero_g0 = ModelSpec(coupling=Drive.offset_sinusoid(0.0, 0.3, 0.7))
    assert catalog_entry(zero_g0) == "all-constant"
    assert qfi_route(zero_g0, "g0", "analytic") == "modulated-g"
    # d2 moves a squeezing term on, which the pass alone serves
    for squeezing in (Drive.constant(0.0), Drive.constant(0.1),
                      Drive.cosine(0.1, 2.0)):
        spec = ModelSpec(coupling=Drive.constant(1.0), squeezing=squeezing)
        with pytest.raises(ValueError, match="the catalog does not cover a "
                           "squeezing term; use mode finite_diff"):
            qfi_route(spec, "d2", "analytic")
        assert qfi_route(spec, "d2", "finite_diff") == "integrated"
    with pytest.raises(ValueError, match="does not cover a squeezing term"):
        qfi_route(ModelSpec(coupling=Drive.constant(1.0),
                            squeezing=Drive.constant(0.1)), "g0", "analytic")
    # the model is all-constant, but near g0 = 0 it is a modulated coupling
    # with a displacement, which the catalog misses
    variant_miss = ModelSpec(coupling=Drive.offset_sinusoid(0.0, 0.3, 0.7),
                             displacement=Drive.constant(0.5))
    assert catalog_entry(variant_miss) == "all-constant"
    with pytest.raises(ValueError, match="'g0' at 0.0: the closed-form F "
                       "catalog misses the model near it"):
        qfi_route(variant_miss, "g0", "analytic")
    assert qfi_route(variant_miss, "g0", "finite_diff") == "integrated"
    # a frequency at 0 or 1, where the general closed forms divide by w and
    # 1 - w^2, goes to the pass; a frequency near them does not
    resonant = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.3, 1.0))
    for spec in (gravimetry_model, resonant):
        with pytest.raises(ValueError, match="no analytic derivative route "
                           "for parameter 'omega_g' at"):
            qfi_route(spec, "omega_g", "analytic")
        assert qfi_route(spec, "omega_g", "finite_diff") == "integrated"
    assert qfi_route(ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.3, 1e-6)),
                     "omega_g", "finite_diff") == "modulated-g"


# the derivative routes' edge cases: an amplitude at 0, whose route is the
# model near it, and frequencies at 0 and 1, which go to the pass
DERIVATIVE_CASES = {
    "miss": model_from_config(resolve_config(MISS_CONFIG)),
    "g0-zero-modulated": ModelSpec(coupling=Drive.offset_sinusoid(0.0, 0.4, 0.7)),
    "d1-zero": ModelSpec(coupling=Drive.constant(0.5),
                         displacement=Drive.cosine(0.0, 0.7)),
    "d2-zero-constant": ModelSpec.gravimetry(0.5, 0.3),
    "d2-zero-cos": ModelSpec(coupling=Drive.constant(0.5),
                             squeezing=Drive.cosine(0.0, 2.0)),
    "omega_g-zero": ModelSpec(coupling=Drive.offset_sinusoid(0.5, 0.4, 0.0),
                              displacement=Drive.constant(0.3)),
    "omega_g-one": ModelSpec(coupling=Drive.offset_sinusoid(0.5, 0.4, 1.0)),
    "omega_d1-one": ModelSpec(coupling=Drive.constant(0.5),
                              displacement=Drive.cosine(0.3, 1.0)),
}


@pytest.mark.parametrize("case", DERIVATIVE_CASES)
def test_complex_step_matches_richardson_differences(case):
    # every parameter id, against Richardson differences of the real pass,
    # within the bound derived beside them
    spec, tau = DERIVATIVE_CASES[case], 3.0
    for param in QFI_PARAMS:
        _, df, _, dj = qfi_derivatives(spec, param, tau)(tau)
        ref_f, ref_j, bound = richardson_derivatives(spec, param, tau)
        got = np.array([*astuple(df), *astuple(dj)])
        want = np.array([*astuple(ref_f), *astuple(ref_j)])
        assert np.max(np.abs(got - want)) <= bound, (case, param)


def test_stepped_pass_refuses_tau_outside_its_range():
    # its dense output would extrapolate the last step
    read = qfi_derivatives(DERIVATIVE_CASES["miss"], "d2", 1.0)
    for tau in (-0.5, 1.5):
        with pytest.raises(ValueError, match="outside the solved range"):
            read(tau)
    read(1.0)  # the end of the range is in it


def test_qfi_coherent_example():
    # constant d1, g0 = 1, mu_c = 1, tau = 2 pi: I = 64 pi^2
    c = qfi_coefficients(ModelSpec.gravimetry(1.0, 1.0), "d1", TWO_PI)
    value = qfi_coherent(c.c_b, c.c_cp, c.c_cm, 1.0)
    assert value == pytest.approx(64 * math.pi ** 2, rel=1e-10)
    assert value == pytest.approx(qfi_closed_form("d1-constant", TWO_PI,
                                                  g0=1.0, n_photons=1.0),
                                  rel=1e-12)


def test_qfi_fock_vs_coherent_relation():
    # At tau = 2 pi and n = |mu_c|^2 the dimensionless formulas give
    # I_fock = |mu_c|^2 / 4 * I_coh (the published 1/2 contradicts the
    # underlying formulas; Var(N_a) = n^2/4 for the Fock superposition).
    c = qfi_coefficients(ModelSpec.gravimetry(1.0, 1.0), "d1", TWO_PI)
    n = 9
    fock = qfi_fock(c.c_b, c.c_cp, c.c_cm, n)
    coh = qfi_coherent(c.c_b, c.c_cp, c.c_cm, math.sqrt(n))
    assert fock == pytest.approx(0.25 * n * coh, rel=1e-12)


# --- homodyne CFI -----------------------------------------------------------


def test_cfi_zero_coupling():
    assert cfi_homodyne(0.0, 1.0, 1.0, 0.0, math.pi / 2, 2.0) == 0.0
    # mu_m turns the cavity state by 2 g0 Im(eta mu_m), so at g0 = 0 it
    # turns nothing, however large
    assert cfi_homodyne(0.0, 1.0, 1.0, 1e300j, math.pi / 2, TWO_PI) == 0.0


@pytest.mark.parametrize("amplitude", [1, 3, 10, 30])
def test_cfi_saturates_qfi_at_two_pi(amplitude):
    cfi = cfi_homodyne(1.0, 1.0, amplitude, 0.0, math.pi / 2, TWO_PI)
    assert cfi == pytest.approx(64 * math.pi ** 2 * amplitude ** 2, rel=1e-4)


@pytest.mark.parametrize("amplitude", [1, 3, 10])
@pytest.mark.parametrize("tau", [2.0, TWO_PI])
def test_cfi_bounded_by_qfi_over_quadratures(amplitude, tau):
    # the Cramer-Rao ordering must hold for every quadrature, including
    # those where most of the quadrature density is below rounding level
    c = qfi_coefficients(ModelSpec.gravimetry(1.0, 1.0), "d1", tau)
    qfi = qfi_coherent(c.c_b, c.c_cp, c.c_cm, amplitude)
    for lam in (0.0, 0.4, math.pi / 2, 2.5):
        cfi = cfi_homodyne(1.0, 1.0, amplitude, 0.3, lam, tau)
        assert math.isfinite(cfi)
        assert 0.0 <= cfi <= qfi * (1 + 1e-9), (lam, cfi, qfi)


def test_cfi_phase_covariance():
    base = cfi_homodyne(1.0, 0.5, 0.8, 0.2, 0.3, 2.0)
    rotated = cfi_homodyne(1.0, 0.5, 0.8 * np.exp(0.9j), 0.2, 0.3 + 0.9, 2.0)
    assert base == pytest.approx(rotated, rel=1e-10)
    # mu_m turns the cavity state by 2 g0 Im(eta mu_m), eta = 1 - e^{-i tau}
    # (test_mu_m_turns_the_reduced_cavity_state), and the angle follows it
    for mu_m in (0.3, 5.0, 1e3):
        turn = 2.0 * ((1.0 - cmath.exp(-2j)) * mu_m).imag
        assert cfi_homodyne(1.0, 0.5, 0.8, mu_m, 0.3, 2.0) == pytest.approx(
            cfi_homodyne(1.0, 0.5, 0.8, 0.0, 0.3 - turn, 2.0), rel=1e-10), mu_m


@pytest.mark.parametrize("mu_m", [0.3, 2.0 - 1.0j, 5.0j])
@pytest.mark.parametrize("d1, mu_c", [(0.4, 0.8 + 0.3j), (1.0, 1.0)])
def test_mu_m_turns_the_reduced_cavity_state(mu_m, d1, mu_c):
    # rho_nm = w_n w_m* <phi_m|phi_n> at mu_m is D rho(0) D*, with
    # D = diag(e^{i phi n}) and phi = 2 g0 Im(eta mu_m): the weights' drift
    # and the overlaps' phase each give half of phi
    g0, tau, n_max = 1.0, 2.0, 24

    def rho(mu):
        weights, labels = analytic_state_coefficients(g0, d1, mu_c, mu, tau,
                                                      n_max)
        half_sq = 0.5 * np.abs(labels) ** 2
        return np.outer(weights, weights.conj()) * np.exp(
            np.outer(labels, labels.conj()) - half_sq[:, None] - half_sq[None, :])

    phi = 2.0 * g0 * ((1.0 - cmath.exp(-1j * tau)) * mu_m).imag
    turn = np.exp(1j * phi * np.arange(n_max))
    turned = turn[:, None] * rho(0.0) * turn.conj()[None, :]
    assert np.max(np.abs(rho(mu_m) - turned)) <= 1e-13


def test_cfi_strictly_below_qfi_when_entangled():
    tau = 3 * math.pi / 2
    cfi = cfi_homodyne(1.0, 1.0, 1.0, 0.0, math.pi / 2, tau)
    c = qfi_coefficients(ModelSpec.gravimetry(1.0, 1.0), "d1", tau)
    assert 0 < cfi < qfi_coherent(c.c_b, c.c_cp, c.c_cm, 1.0)


def test_cfi_truncation_warning():
    with pytest.warns(UserWarning, match="tail mass"):
        cfi_homodyne(1.0, 1.0, 1.5, 0.0, math.pi / 2, 2.0, n_max=6)


def test_n_max_cap_bounds_the_dense_state_and_admits_mu_c_30():
    # rho and its eigenvectors are dense n_max x n_max complex matrices; the
    # cap is the largest n_max that keeps one within 2^27 bytes
    assert 16 * N_MAX_CAP ** 2 <= 2 ** 27 < 16 * (N_MAX_CAP + 1) ** 2
    assert default_n_max(30.0) == 1220 <= N_MAX_CAP


@pytest.mark.parametrize("mu_c, n_max", [
    (0.0, 1), (1.0, 2), (1.5, 6), (1.0, 10), (3.0, 40), (10.0, 40),
    (30.0, 40), (30.0, 900), (30.0, 1000), (30j, 1220)])
def test_photon_tail_is_the_poisson_mass_beyond_the_cut(mu_c, n_max):
    # against P(n >= n_max) = P(n_max, |mu_c|^2), the regularised lower
    # incomplete gamma function, in 40 digits; at |mu_c| = 30 every Poisson
    # term below n = 155 underflows in float64 unless formed in log space.
    # Each term's exponent, up to |n ln n| ~ 7e3, rounds to a few ulp of
    # that, so a term is good to about 1e-12 relative; a mass formed as
    # 1 - kept is good to the unit roundoff of 1 per term summed
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.gammainc(n_max, 0, abs(mu_c) ** 2,
                                      regularized=True))
    assert photon_tail(mu_c, n_max) == pytest.approx(exact, rel=1e-11,
                                                     abs=1e-13)


@pytest.mark.parametrize("amplitude", [1, 3, 10])
def test_uniform_rule_keeps_hermite_functions_orthonormal(amplitude):
    # cfi_homodyne's coarsest rule: 1200 nodes on its window [-L, L],
    # L = sqrt(2 n_max) + 8
    n_max = default_n_max(amplitude)
    x, weights = _trapezoid_nodes(math.sqrt(2.0 * n_max) + 8.0, 1200)
    psi = _hermite_functions(n_max, x)
    gram = (psi * weights) @ psi.T
    assert np.max(np.abs(gram - np.eye(n_max))) <= 1e-13


# |mu_c| = 30 centres the cavity's quadrature density at sqrt2 * 30 = 42.4,
# where the Hermite recurrence's start e^{-x^2/2} underflows to 0


def test_cfi_follows_sin_squared_lambda_at_large_amplitude():
    # at tau = 2 pi the cavity is in a coherent state, whose homodyne CFI
    # for the displacement scales as sin^2 lambda; each value is accepted
    # once two quadrature rules agree to 1e-10
    low, matched = (cfi_homodyne(1.0, 1.0, 30.0, 0.3, lam, TWO_PI)
                    for lam in (0.4, math.pi / 2))
    assert low / matched == pytest.approx(math.sin(0.4) ** 2, rel=1e-9)


def test_hermite_functions_match_mpmath_beyond_underflow():
    # psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), at nodes on both
    # sides of |x| = 38.6 and at n below, at and past the turning point
    # x^2 / 2; the start is accurate to x^2 u and each step adds about u
    mpmath = pytest.importorskip("mpmath")
    x = np.array([-50.0, -42.4, 0.5, 38.0, 42.4, 57.0])
    orders = (0, 1, 300, 899, 900, 1219, 1250, 1799)
    psi = _hermite_functions(max(orders) + 1, x)
    with mpmath.workdps(40):
        for n in orders:
            norm = mpmath.sqrt(2 ** mpmath.mpf(n) * mpmath.factorial(n)
                               * mpmath.sqrt(mpmath.pi))
            for j, xj in enumerate(x):
                exact = (mpmath.hermite(n, xj)
                         * mpmath.exp(-mpmath.mpf(xj) ** 2 / 2) / norm)
                assert abs(psi[n, j] - float(exact)) <= 1e-12, (n, xj)


def test_quadrature_density_integrates_to_one_at_large_amplitude():
    # at tau = 2 pi every photon row carries the same mechanical state, so
    # the lambda = 0 density is |sum_n w_n psi_n(x)|^2
    n_max = default_n_max(30.0)
    weights, _ = analytic_state_coefficients(1.0, 1.0, 30.0, 0.3, TWO_PI,
                                             n_max)
    x, wts = _trapezoid_nodes(math.sqrt(2.0 * n_max) + 8.0, 2400)
    density = np.abs(weights @ _hermite_functions(n_max, x)) ** 2
    assert abs(np.sum(wts * density) - 1.0) <= 1e-9


@pytest.mark.parametrize("n_nodes", [1200, 2400, 4800])
def test_trapezoid_nodes_integrate_gaussian_moments(n_nodes):
    # every rule cfi_homodyne may use, on its widest default window;
    # int x^2k exp(-x^2) dx = Gamma(k + 1/2)
    x, weights = _trapezoid_nodes(math.sqrt(2.0 * default_n_max(10)) + 8.0,
                                  n_nodes)
    assert abs(np.sum(weights) / (2.0 * x[-1]) - 1.0) <= 1e-12
    for k in range(30):
        moment = np.sum(weights * x ** (2 * k) * np.exp(-x ** 2))
        assert abs(moment / math.gamma(k + 0.5) - 1.0) <= 2e-13, k


# --- dimensionful layer ------------------------------------------------------


FP = FabryPerot(length=1e-5, mass=1e-6, omega_c=1e14, omega_m=1e3)
LEV = Levitated(volume=1e-18, cavity_volume=1e-14, relative_permittivity=5.7,
                wavelength=1064e-9, mass=1e-14, omega_c=1e14, omega_m=1e2)
ATOMS = ColdAtoms(n_atoms=10 ** 5, single_atom_coupling=1e7,
                  laser_wavevector=1e8, atom_mass=1e-25, detuning=1e11,
                  omega_m=1e2)


def test_gravimetry_fabry_perot():
    rep = gravimetry(FP, mu_c=1e3)
    assert rep.qfi_dimensionful == pytest.approx(1.58e28, rel=0.01)
    assert rep.std_dev == pytest.approx(7.96e-15, rel=0.02)
    assert rep.qfi_dimensionful == pytest.approx(
        gravimetry_qfi_closed(FP, 1e3), rel=1e-10)


def test_gravimetry_levitated():
    rep = gravimetry(LEV, mu_c=1e3)
    assert rep.qfi_dimensionful == pytest.approx(1.15e29, rel=0.01)
    assert rep.std_dev == pytest.approx(2.94e-15, rel=0.02)


def test_gravimetry_cold_atoms():
    # Formula-derived values; the published row (2.5e-10 with
    # I = 1.58e19) is internally inconsistent with its own coupling and
    # chain rule, but the mantissas agree with the computed values.
    rep = gravimetry(ATOMS, mu_c=1e3)
    assert rep.qfi_dimensionful == pytest.approx(1.5791e23, rel=0.01)
    assert rep.std_dev == pytest.approx(2.5165e-12, rel=0.02)


def test_gravimetry_mass_cancellation():
    heavy = FabryPerot(length=1e-5, mass=7e-6, omega_c=1e14, omega_m=1e3)
    a = gravimetry(FP, mu_c=1e3).std_dev
    b = gravimetry(heavy, mu_c=1e3).std_dev
    assert a == pytest.approx(b, rel=1e-12)


def test_gravimetry_thermal_equals_coherent_at_two_pi():
    a = gravimetry(FP, mu_c=1e3, state_family="coherent")
    b = gravimetry(FP, mu_c=1e3, state_family="thermal", r_T=3.0)
    assert a.qfi_dimensionful == pytest.approx(b.qfi_dimensionful, rel=1e-12)


@pytest.mark.parametrize("tau", [3.3, TWO_PI])
@pytest.mark.parametrize("n", [1, 3])
def test_gravimetry_fock_is_the_fock_qfi_of_the_d1_coefficients(tau, n):
    # the (|0> + |n>)/sqrt2 input away from tau = 2 pi k too, where the
    # displacement term 4 (c_cp^2 + c_cm^2) does not vanish
    c = qfi_coefficients(ModelSpec.gravimetry(coupling_constant(FP), 1.0),
                         "d1", tau)
    rep = gravimetry(FP, mu_c=0.0, state_family="fock", fock_n=n, tau=tau)
    assert rep.qfi_dimensionless == pytest.approx(
        qfi_fock(c.c_b, c.c_cp, c.c_cm, n), rel=1e-12)


def test_gravimetry_fock_needs_its_photon_number():
    with pytest.raises(ValueError, match="state_family='fock' needs fock_n"):
        gravimetry(FP, mu_c=0.0, state_family="fock")


def test_gravimetry_cramer_rao_with_repetitions():
    one = gravimetry(FP, mu_c=1e3, n_measurements=1)
    many = gravimetry(FP, mu_c=1e3, n_measurements=100)
    assert many.std_dev == pytest.approx(one.std_dev / 10.0, rel=1e-12)


def test_acceleration_sensing_values():
    rep = acceleration_qfi(mass=1e-14, omega_m=1e2, g0=100.0, mu_c=1e3,
                           r_T=3.48)
    assert rep.qfi_dimensionful == pytest.approx(7.48e25, rel=0.01)
    # Delta a0 = 1 / sqrt(I); the published companion value 1.16e-15 is a
    # known misprint (1.16e-13 is implied by both I and the published force)
    assert rep.std_dev == pytest.approx(1.156e-13, rel=0.01)
    assert 1e-14 * rep.std_dev == pytest.approx(1.16e-27, rel=0.01)


def test_acceleration_mass_scaling():
    # quadrupling the mass doubles the chain-rule factor sqrt(m)
    a = acceleration_qfi(mass=1e-14, omega_m=1e2, g0=100.0, mu_c=1e3)
    b = acceleration_qfi(mass=4e-14, omega_m=1e2, g0=100.0, mu_c=1e3)
    assert b.std_dev == pytest.approx(a.std_dev / 2.0, rel=1e-12)


def test_acceleration_without_cavity():
    # g0 = 0 leaves the bare mechanical term only
    rep = acceleration_qfi(mass=1e-14, omega_m=1e2, g0=0.0, mu_c=1e3,
                           tau=math.pi, scheme="constant")
    expected_dimless = 16.0 * math.sin(math.pi / 2) ** 2
    assert rep.qfi_dimensionless == pytest.approx(expected_dimless, rel=1e-12)


def test_measurement_window():
    g0 = coupling_constant_hz(LEV)
    window = measurement_window(g0)
    assert window == pytest.approx(1.0 / g0, rel=1e-15)
    assert 3e-6 < window < 1.1e-5  # the quoted microsecond scale
    assert measurement_window(1e8) < measurement_window(1e5)
