import cmath
import math

import numpy as np
import pytest

from optomech import dop853, oracle
from optomech.coefficients import f_closed_form
from optomech.mechanics import STRICT, solve_subsystem
from optomech.metrology import (_param_value, _with_param, qfi_coefficients,
                                qfi_thermal)
from optomech.moments import evolve_moments
from optomech.oracle import (TruncatedState, TruncationError, _bessel_j,
                             _branch_band, _branch_box, _chebyshev_branches,
                             _drive_bound, _gershgorin, _initial_tensor,
                             analytic_state_coefficients,
                             analytic_state_tensor, coherent_amplitudes,
                             mechanical_fidelity_with_coherent, oracle_moments,
                             propagate, recommended_dims)
from optomech.params import Drive, InitialState, ModelSpec, evaluate_drive

from conftest import (CLOSED_FORM_ROUNDINGS, UNIT_ROUNDOFF,
                      finite_diff_qfi_budget)


def test_coherent_amplitudes_normalised():
    amps = coherent_amplitudes(1.2 + 0.4j, 60)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_free_evolution_phases_exact():
    spec = ModelSpec()
    state = InitialState.coherent(0.5, 0.5)
    st = propagate(spec, state, math.pi, (12, 12))
    psi0 = np.outer(coherent_amplitudes(0.5, 12), coherent_amplitudes(0.5, 12))
    nb = np.arange(12)
    expected = psi0 * np.exp(-1j * math.pi * nb)[None, :]
    assert np.max(np.abs(st.amplitudes - expected)) < 1e-9


def test_norm_conservation():
    spec = ModelSpec.standard(1.0)
    st = propagate(spec, InitialState.coherent(0.8, 0.0), 2 * math.pi, (14, 220))
    assert st.norm_defect < 1e-8 * 2 * math.pi


def test_photon_number_conserved():
    spec = ModelSpec.standard(1.0)
    st = propagate(spec, InitialState.coherent(1.0, 0.0), math.pi, (16, 320))
    m = oracle_moments(st)
    assert m.adag_a == pytest.approx(1.0, abs=1e-8)


def test_mechanics_returns_to_vacuum_at_two_pi():
    spec = ModelSpec.standard(1.0)
    st = propagate(spec, InitialState.coherent(1.0, 0.0), 2 * math.pi, (17, 993))
    assert mechanical_fidelity_with_coherent(st, 0.0) > 0.9999


def test_truncation_detected_as_failure_to_close():
    # dims too small: the quadrature trajectory does not return at 2 pi,
    # even though the norm stays unit (truncated H is Hermitian)
    spec = ModelSpec.standard(1.0)
    with pytest.warns(UserWarning, match="tail mass"):
        small = propagate(spec, InitialState.coherent(1.0, 0.0), 2 * math.pi,
                          (10, 10))
    assert small.norm_defect < 1e-6
    assert mechanical_fidelity_with_coherent(small, 0.0) < 0.99


def test_initial_tail_warning():
    spec = ModelSpec()
    with pytest.warns(UserWarning, match="tail mass"):
        propagate(spec, InitialState.coherent(2.0, 0.0), 0.1, (6, 6))


def test_analytic_state_coefficients_two_pi():
    weights, labels = analytic_state_coefficients(1.3, 0.4, 1.0, 0.3 + 0.1j,
                                                  2 * math.pi, 12)
    assert np.allclose(labels, 0.3 + 0.1j)


def test_analytic_state_coefficients_plug_in():
    # g0 = 1, d1 = 0, n = 2, tau = pi: phi_2 = -mu_m + 4
    mu_m = 0.37 - 0.21j
    _, labels = analytic_state_coefficients(1.0, 0.0, 1.0, mu_m, math.pi, 4)
    assert labels[2] == pytest.approx(-mu_m + 4.0, abs=1e-12)


def test_analytic_state_overlap_with_propagation():
    g0, d1 = 1.0, 1.0
    mu_c, mu_m = 1.0, 0.2
    tau = math.pi / 3
    spec = ModelSpec.gravimetry(g0, d1)
    state = InitialState.coherent(mu_c, mu_m)
    dims = recommended_dims(spec, state, tau)
    st = propagate(spec, state, tau, dims)
    psi = analytic_state_tensor(g0, d1, mu_c, mu_m, tau, dims)
    assert abs(np.vdot(psi, st.amplitudes)) > 1.0 - 1e-6


@pytest.mark.parametrize("g0, d1, mu_c, mu_m, tau", [
    (1.0, 1.0, 1.0, 0.5, 1.3), (0.5, -0.7, 0.8 + 0.3j, 0.2 - 0.1j, 2.0),
    (1.0, 0.0, 1.0, 0.5, 1.3)])
def test_analytic_state_tensor_matches_propagate_amplitudes(g0, d1, mu_c,
                                                            mu_m, tau):
    # amplitude for amplitude, global phase exp(i d1^2 (tau - sin tau))
    # included: overlap alone cannot see a global phase, which at the first
    # case (0.336) moves amplitudes by 0.18. Both sides are exact up to
    # rounding inside a box whose top levels stay below 1e-12
    # (test_exact_force_box_holds_every_branch)
    spec = ModelSpec.gravimetry(g0, d1)
    state = InitialState.coherent(mu_c, mu_m)
    dims = recommended_dims(spec, state, tau)
    psi = propagate(spec, state, tau, dims).amplitudes
    closed = analytic_state_tensor(g0, d1, mu_c, mu_m, tau, dims)
    assert np.max(np.abs(psi - closed)) < 1e-12


def test_moments_match_squeezed_case():
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     squeezing=Drive.constant(0.2))
    state = InitialState.coherent(1.0, 0.0)
    tau = 1.0
    dims = recommended_dims(spec, state, tau)
    st = propagate(spec, state, tau, dims)
    mo = oracle_moments(st)
    sol = solve_subsystem(spec, tau)
    f = f_closed_form(spec, tau)
    alpha, beta = sol.bogoliubov(tau)
    ma = evolve_moments(f, alpha, beta, 1.0, 0.0)
    for name in ("a", "b", "a2", "b2", "adag_a", "bdag_b", "ab", "abdag"):
        assert abs(getattr(ma, name) - getattr(mo, name)) < 1e-6, name


def fixed_step_propagate(spec: ModelSpec, state0: InitialState, tau: float,
                         dims, step_factor: float = 0.05) -> TruncatedState:
    """Plain fixed-step RK4 on the full tensor with ||H|| dt <= step_factor.

    Slow reference used to spot-check the branch propagator on small cases.
    """
    na, nb = dims
    psi = _initial_tensor(state0, dims)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(psi) ** 2)))
    n_a = np.arange(na, dtype=float)[:, None]
    n_b = np.arange(nb, dtype=float)[None, :]
    sq = np.sqrt(np.arange(nb, dtype=float))

    def x_apply(y):
        out = np.zeros_like(y)
        out[:, :-1] += sq[1:] * y[:, 1:]
        out[:, 1:] += sq[1:] * y[:, :-1]
        return out

    def h_apply(t, y):
        g = evaluate_drive(spec.coupling, t)
        d1 = evaluate_drive(spec.displacement, t)
        d2 = evaluate_drive(spec.squeezing, t)
        x = x_apply(y)
        out = n_b * y + (d1 - g * n_a) * x
        if d2 != 0.0:
            out += d2 * x_apply(x)
        return out

    h_norm = (nb + (_drive_bound(spec.coupling) * (na - 1)
                    + _drive_bound(spec.displacement)) * 2.0 * math.sqrt(nb)
              + _drive_bound(spec.squeezing) * (4.0 * nb + 2.0))
    n_steps = max(1, math.ceil(tau * h_norm / step_factor))
    dt = tau / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = -1j * h_apply(t, psi)
        k2 = -1j * h_apply(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = -1j * h_apply(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = -1j * h_apply(t + dt, psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    defect = abs(float(np.sum(np.abs(psi) ** 2)) - (1.0 - tail))
    return TruncatedState(amplitudes=psi, norm_defect=defect)


def test_branch_propagator_matches_fixed_step_rk4():
    # small, fully resolvable case where the reference stepper is affordable
    spec = ModelSpec(coupling=Drive.offset_sinusoid(0.4, 0.5, 1.0),
                     displacement=Drive.cosine(0.3, 1.0),
                     squeezing=Drive.cosine(0.05, 2.0))
    state = InitialState.coherent(0.5, 0.2)
    dims = (11, 40)
    fast = propagate(spec, state, 1.5, dims)
    slow = fixed_step_propagate(spec, state, 1.5, dims)
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-5


def per_branch_reference(spec: ModelSpec, state0: InitialState, tau: float,
                         dims) -> np.ndarray:
    """Each live photon branch in its own box, one SciPy DOP853 run per
    branch at rtol 1e-13 / atol 1e-16."""
    from scipy.integrate import solve_ivp

    na, nb = dims
    psi0 = _initial_tensor(state0, dims)
    psi = np.zeros_like(psi0)
    for n in range(na):
        if np.linalg.norm(psi0[n]) < 1e-16:
            psi[n] = psi0[n]
            continue
        size = min(nb, _branch_box(spec, state0, n, tau))
        k = np.arange(size, dtype=float)
        sqk = np.sqrt(k[1:])

        def x_apply(y, sqk=sqk):
            x = np.zeros_like(y)
            x[:-1] += sqk * y[1:]
            x[1:] += sqk * y[:-1]
            return x

        def rhs(t, y, n=n, k=k, x_apply=x_apply):
            y = y.view(complex)
            x = x_apply(y)
            h_y = (k * y + (evaluate_drive(spec.displacement, t)
                            - evaluate_drive(spec.coupling, t) * n) * x
                   + evaluate_drive(spec.squeezing, t) * x_apply(x))
            return (-1j * h_y).view(float)

        sol = solve_ivp(rhs, (0.0, tau), psi0[n, :size].view(float),
                        method="DOP853", rtol=1e-13, atol=1e-16)
        psi[n, :size] = sol.y[:, -1].copy().view(complex)
    return psi


def test_modulated_branches_integrate_in_one_pass(monkeypatch):
    # every drive modulated; each branch must still meet STRICT's rtol on its
    # own, although DOP853's error norm averages over all branches at once
    spec = ModelSpec(coupling=Drive.offset_sinusoid(0.3, 0.4, 0.7),
                     displacement=Drive.cosine(0.2, 0.6),
                     squeezing=Drive.cosine(0.05, 2.0))
    state = InitialState.coherent(1.0, 0.5)
    dims = recommended_dims(spec, state, math.pi)
    assert dims == (17, 445)
    calls = []
    library_solve_ivp = oracle.solve_ivp

    def counting_solve_ivp(fun, t_span, y0, **kwargs):
        calls.append((y0, kwargs))
        return library_solve_ivp(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", counting_solve_ivp)
    st = propagate(spec, state, math.pi, dims)
    [(y0, kwargs)] = calls
    # an ndarray state: the stepper keeps the end state and no interpolant
    assert isinstance(y0, np.ndarray)
    # the norm is an RMS over the 17 branches; STRICT scaled by at most
    # sqrt(1 / 17) keeps the smallest branch's own RMS within STRICT
    scale = kwargs["rtol"] / STRICT[0]
    assert kwargs["atol"] / STRICT[1] == pytest.approx(scale, rel=1e-12)
    assert scale <= 1.0 / math.sqrt(17)
    ref = per_branch_reference(spec, state, math.pi, dims)
    assert np.max(np.abs(st.amplitudes - ref)) <= STRICT[0]

    # the library's stepper does SciPy's arithmetic in SciPy's order: the
    # same pass on SciPy's DOP853, keeping the end state by t_eval, gives
    # the same amplitudes to the last bit
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    def scipy_end_state(fun, t_span, y0, *, rtol, atol):
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                              atol=atol, t_eval=(t_span[1],))
        return dop853.OdeResult(t=ref.t.tolist(), y=ref.y[:, 0], sol=None,
                                nfev=ref.nfev, success=ref.success,
                                message=ref.message)

    monkeypatch.setattr(oracle, "solve_ivp", scipy_end_state)
    assert np.array_equal(st.amplitudes,
                          propagate(spec, state, math.pi, dims).amplitudes)


def test_unsqueezed_modulated_branches_meet_strict():
    # d2 = 0: the rotating-frame pass applies X once per evaluation
    spec = ModelSpec(coupling=Drive.offset_sinusoid(0.3, 0.4, 0.7),
                     displacement=Drive.cosine(0.2, 0.6))
    state = InitialState.coherent(1.0, 0.5)
    dims = recommended_dims(spec, state, math.pi)
    st = propagate(spec, state, math.pi, dims)
    ref = per_branch_reference(spec, state, math.pi, dims)
    assert np.max(np.abs(st.amplitudes - ref)) <= STRICT[0]


def test_rotating_frame_takes_fewer_evaluations(monkeypatch):
    # the benchmark's modulated oracle config: in the lab frame N_b's levels
    # set the step and the pass costs 4490 evaluations; without them, 3518
    spec = ModelSpec(coupling=Drive.constant(0.5),
                     squeezing=Drive.cosine(0.05, 2.0))
    state = InitialState.coherent(1.0, 0.1)
    nfev = []
    library_solve_ivp = oracle.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        sol = library_solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counting_solve_ivp)
    propagate(spec, state, math.pi, recommended_dims(spec, state, math.pi))
    assert len(nfev) == 1
    assert nfev[0] < 4490


def test_fock_superposition_on_modulated_drives():
    # only branches 0 and 4 are populated: the pass must carry those two and
    # give the second one photon number 4, not its position in the pass
    spec = ModelSpec(coupling=Drive.offset_sinusoid(0.4, 0.5, 1.0),
                     displacement=Drive.cosine(0.3, 1.0),
                     squeezing=Drive.cosine(0.05, 2.0))
    state = InitialState.fock(4, 0.2)
    dims = (6, 40)
    fast = propagate(spec, state, 1.5, dims)
    slow = fixed_step_propagate(spec, state, 1.5, dims)
    assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) < 1e-5
    assert not fast.amplitudes[[1, 2, 3, 5]].any()


EPS = np.finfo(float).eps


def diagonalised_reference(spec: ModelSpec, state0: InitialState, tau: float,
                           dims):
    """Each live branch of a constant drive propagated in its eigenbasis, in
    the same box as propagate: oracle.eigh_tridiagonal when d2 = 0, else
    oracle.eig_banded. Returns the amplitudes and the most Chebyshev terms
    any live branch takes."""
    na, nb = dims
    g, d1, d2 = (spec.coupling.amplitude, spec.displacement.amplitude,
                 spec.squeezing.amplitude)
    psi0 = _initial_tensor(state0, dims)
    psi = np.zeros_like(psi0)
    halves = []
    for n in range(na):
        if np.linalg.norm(psi0[n]) < 1e-16:
            psi[n] = psi0[n]
            continue
        size = min(nb, _branch_box(spec, state0, n, tau))
        band = _branch_band(n, g, d1, d2, size)
        if d2 == 0.0:
            evals, evecs = oracle.eigh_tridiagonal(band[0], band[1, :-1])
        else:
            evals, evecs = oracle.eig_banded(band, lower=True)
        psi[n, :size] = evecs @ (np.exp(-1j * evals * tau)
                                 * (evecs.T @ psi0[n, :size]))
        halves.append(_gershgorin(band)[1])
    return psi, _bessel_j(np.array(halves) * tau)[0].shape[0]


@pytest.mark.parametrize("d2", [0.0, 0.05])
@pytest.mark.parametrize("tau", [math.pi / 3, math.pi, 2 * math.pi])
def test_chebyshev_pass_matches_diagonalisation(tau, d2):
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     displacement=Drive.constant(0.5),
                     squeezing=Drive.constant(d2))
    # real labels give the pass a real vector, complex ones a complex one
    for state in (InitialState.coherent(0.6, 0.3),
                  InitialState.coherent(0.6j, 0.3 - 0.2j)):
        dims = recommended_dims(spec, state, tau)
        st = propagate(spec, state, tau, dims)
        ref, k_max = diagonalised_reference(spec, state, tau, dims)
        # the recurrence's rounding: eps * ||psi|| per step, over k_max steps
        bound = k_max * EPS * np.linalg.norm(_initial_tensor(state, dims))
        assert np.max(np.abs(st.amplitudes - ref)) <= bound


@pytest.mark.parametrize("d2", [0.0, 0.05])
def test_chebyshev_pass_at_tau_zero_returns_psi0(d2):
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     displacement=Drive.constant(0.5),
                     squeezing=Drive.constant(d2))
    state = InitialState.coherent(1.0, 0.5)
    dims = (17, 25)  # no branch box is below 25 levels, so none is trimmed
    st = propagate(spec, state, 0.0, dims)
    assert np.array_equal(st.amplitudes, _initial_tensor(state, dims))


def test_real_input_runs_as_a_real_vector():
    # real mu_c and mu_m give real branch vectors, which the Chebyshev pass
    # carries as floats; a unit phase makes them complex, and so the vector
    spec = ModelSpec(coupling=Drive.constant(1.0),
                     displacement=Drive.constant(0.5),
                     squeezing=Drive.constant(0.05))
    state, tau = InitialState.coherent(0.6, 0.3), math.pi
    dims = recommended_dims(spec, state, tau)
    psi0 = _initial_tensor(state, dims)
    live = {n: psi0[n, :min(dims[1], _branch_box(spec, state, n, tau))]
            for n in range(dims[0])}
    assert not any(v.imag.any() for v in live.values())
    real = _chebyshev_branches(spec, live, tau)
    # the phase rounds both parts; to the recurrence's rounding bound
    phase = cmath.exp(0.7j)
    rotated = _chebyshev_branches(
        spec, {n: phase * v for n, v in live.items()}, tau)
    halves = [_gershgorin(_branch_band(n, 1.0, 0.5, 0.05, v.size))[1]
              for n, v in live.items()]
    k_max = _bessel_j(np.array(halves) * tau)[0].shape[0]
    bound = k_max * EPS * np.linalg.norm(psi0)
    assert max(np.max(np.abs(a - b / phase))
               for a, b in zip(real, rotated)) <= bound


@pytest.mark.parametrize("g0, d1", [(1.0, 1.0), (0.5, 5.0)])
def test_exact_force_box_holds_every_branch(g0, d1):
    # a constant drive's branch n feels exactly d1 - g0 n, not the triangle
    # bound g0 n + d1. At tau = pi the wavepacket reaches its largest
    # amplitude; at g0 = 0.5, d1 = 5 branch 0 feels the largest force, so the
    # box must come from the largest branch, not the last covered one
    spec = ModelSpec(coupling=Drive.constant(g0),
                     displacement=Drive.constant(d1))
    state, tau = InitialState.coherent(1.0, 0.5), math.pi
    na, nb = recommended_dims(spec, state, tau)
    psi = propagate(spec, state, tau, (na, nb)).amplitudes
    # the dims cover every branch of weight above the budget, here n <= 12,
    # and none reaches the top levels of its box
    for n in range(13):
        box = _branch_box(spec, state, n, tau)
        assert box <= nb
        assert np.max(np.abs(psi[n, box - 3:box])) < 1e-12


def test_recommended_dims_of_the_golden_config():
    # d1 = 0: the exact force g0 n is the triangle bound, so the golden
    # oracle-check keeps its dims, and with them its fingerprint
    spec = ModelSpec.standard(1.0)
    for tau in (1.0, math.pi):
        assert recommended_dims(spec, InitialState.coherent(1.0), tau) == (17, 961)


def test_bessel_helper_matches_scipy():
    from scipy.special import jv

    x = np.array([1e-6, 0.5, 40.0, 3000.0])
    j, terms = _bessel_j(x)
    assert j.shape == (terms.max(), x.size)
    k = np.arange(j.shape[0])[:, None]
    # jv (AMOS) loses about log10(x) digits to argument reduction, so the
    # two agree to a few eps * max(1, x)
    assert np.all(np.abs(j - jv(k, x)) <= 2.0 * EPS * np.maximum(1.0, x))
    # J_0^2 + 2 sum J_k^2 = 1 is not the identity the helper normalises by,
    # so it checks the values where jv is the less accurate of the two
    neumann = j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2, axis=0)
    assert np.all(np.abs(neumann - 1.0) <= terms * EPS)
    # terms is the shortest series whose dropped tail is below unit roundoff
    for xb, count in zip(x, terms):
        tail = 2.0 * np.abs(jv(np.arange(count - 1, count + 400), xb))
        assert tail[1:].sum() <= 0.5 * EPS < tail.sum()


def test_bessel_terms_fall_with_the_argument():
    # _chebyshev_branches orders the branches by h tau, widest first, and
    # reads the Bessel table's columns in that order as the order of their
    # term counts; neighbours one ulp apart included
    x = np.geomspace(1e-3, 3000.0, 400)
    x = np.sort(np.concatenate([x, np.nextafter(x, np.inf), x * (1 + 1e-9)]))
    _, terms = _bessel_j(x[::-1])
    assert np.all(np.diff(terms) <= 0)


def test_chebyshev_series_past_the_term_cap_is_refused():
    # the recurrence's rounding, EPS ||psi|| per term, may not pass STRICT's
    # rtol. On the golden config the widest branch's half-width is 1103, so
    # the cap falls near tau = 408; at tau = 410 the table would hold
    # 4.5e5 x 17 floats, and its start order is refused before it is built
    assert oracle.TERM_CAP == int(STRICT[0] / EPS)
    spec, state = ModelSpec.standard(1.0), InitialState.coherent(1.0)
    tau = 410.0
    dims = recommended_dims(spec, state, tau)
    for refused in (oracle.check_dims, propagate):
        with pytest.raises(TruncationError, match="terms > cap 450359"):
            refused(spec, state, tau, dims)
    # a modulated drive takes no Chebyshev series, and a shorter one passes
    modulated = ModelSpec(coupling=Drive.offset_sinusoid(1.0, 0.5, 0.7))
    oracle.check_dims(modulated, state, tau, dims)
    oracle.check_dims(spec, state, 400.0, dims)


def test_recommended_dims_rejects_out_of_envelope():
    spec = ModelSpec.standard(8.0)
    with pytest.raises(TruncationError):
        recommended_dims(spec, InitialState.coherent(2.0, 0.0), math.pi)


def test_fock_superposition_initialisation():
    spec = ModelSpec()
    state = InitialState.fock(3, 0.0)
    st = propagate(spec, state, 0.5, (6, 6))
    m = oracle_moments(st)
    assert m.adag_a == pytest.approx(1.5, abs=1e-10)


# The QFI of a pure coherent x coherent input from the truncated state,
# F_Q = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2), with dpsi Richardson's
# (4 D(h/2) - D(h)) / 3 of central differences D of propagate, is an exact
# reference that shares nothing with the generator ledger.
ORACLE_QFI_TARGET = 1e-8
ORACLE_QFI_STEP = 1e-4
SQUEEZED_AT_2 = ModelSpec(coupling=Drive.constant(0.5),
                          displacement=Drive.constant(0.3),
                          squeezing=Drive.cosine(0.05, 2.0))


@pytest.mark.parametrize("spec, param, mode, tau", [
    pytest.param(ModelSpec(coupling=Drive.constant(0.5),
                           displacement=Drive.constant(0.3),
                           squeezing=Drive.constant(0.2)),
                 "d2", "finite_diff", 2.0, id="d2-constant"),
    pytest.param(SQUEEZED_AT_2, "d2", "finite_diff", 2.0, id="d2-at-omega-2"),
    pytest.param(ModelSpec.gravimetry(0.5, 0.3), "g0", "analytic", 4.5,
                 id="g0"),
    pytest.param(ModelSpec(coupling=Drive.constant(0.5),
                           displacement=Drive.cosine(0.3, 0.7)),
                 "d1", "analytic", 2.0, id="d1"),
    pytest.param(ModelSpec(coupling=Drive.offset_sinusoid(0.5, 0.4, 0.7)),
                 "epsilon", "analytic", 2.0, id="epsilon"),
    pytest.param(SQUEEZED_AT_2, "omega_d2", "finite_diff", 2.0, id="omega_d2"),
    pytest.param(ModelSpec(coupling=Drive.offset_sinusoid(0.5, 0.4, 0.7),
                           displacement=Drive.constant(0.3)),
                 "omega_g", "finite_diff", 2.0, id="omega_g"),
    pytest.param(ModelSpec(coupling=Drive.constant(0.5),
                           displacement=Drive.cosine(0.3, 0.7)),
                 "omega_d1", "finite_diff", 3.0, id="omega_d1"),
])
def test_qfi_matches_the_truncated_state(spec, param, mode, tau):
    mu_c = 0.6 + 0.5j
    state = InitialState.coherent(mu_c, 0.0)  # qfi_thermal's r_T = 0 vacuum
    dims = recommended_dims(spec, state, tau, target=ORACLE_QFI_TARGET)
    theta, h = _param_value(spec, param), ORACLE_QFI_STEP

    def psi(value):
        return propagate(_with_param(spec, param, value), state, tau,
                         dims).amplitudes

    def central(step):
        return (psi(theta + step) - psi(theta - step)) / (2.0 * step)

    d_h, d_half = central(h), central(h / 2.0)
    dpsi = (4.0 * d_half - d_h) / 3.0
    qfi_oracle = 4.0 * (np.vdot(dpsi, dpsi).real
                        - abs(np.vdot(psi(theta), dpsi)) ** 2)
    qfi = qfi_thermal(qfi_coefficients(spec, param, tau, mode=mode), mu_c)

    # The budget, relative to F_Q. An error e in dpsi moves sqrt(F_Q) by at
    # most 2 |e|, so F_Q by 4 |e| / sqrt(F_Q) relative:
    # - integration: the modulated pass meets STRICT's rtol (constant drives
    #   are exact to rounding), and a stencil this narrow keeps one step
    #   sequence, so |e| <= rtol |dpsi|;
    # - rounding: the weights turn rounding n u of the amplitudes into
    #   3 n u / h, with n <= N_b tau, which bounds the Chebyshev degree (the
    #   branch spectra's half-width times tau) and the pass's step count;
    # - Richardson's remainder -h^4 psi^(5) / 480: with Taylor coefficients
    #   falling geometrically it is |a h^2|^2 / (4 |dpsi|), where
    #   a h^2 = 4/3 (D(h) - D(h/2)) is the leading term the step removed.
    # The truncation adds 2 TARGET (recommended_dims holds the moments, and
    # with them the generator's variance, to TARGET), and the reference its
    # own budget: finite differences, or closed forms on the catalog routes.
    norm = float(np.linalg.norm(dpsi))
    a_h2 = 4.0 / 3.0 * float(np.linalg.norm(d_h - d_half))
    e = (STRICT[0] * norm + 3.0 * dims[1] * tau * UNIT_ROUNDOFF / h
         + a_h2 ** 2 / (4.0 * norm))
    reference = (finite_diff_qfi_budget(spec, param, tau) if mode == "finite_diff"
                 else 2.0 * CLOSED_FORM_ROUNDINGS * UNIT_ROUNDOFF)
    bound = 2.0 * ORACLE_QFI_TARGET + 4.0 * e / math.sqrt(qfi) + reference
    assert qfi_oracle == pytest.approx(qfi, rel=bound)
