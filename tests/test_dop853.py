"""The library's DOP853 stepper against scipy.integrate's, which only this
test imports. On an ndarray state: the same right-hand-side calls, the same
accepted steps and the same dense solution, bit for bit. On a list state,
the decoupled pass's: the same calls, and dense values within a bound on
the rounding that the list kernels' order of summation moves."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from conftest import UNIT_ROUNDOFF
from optomech import coefficients, dop853, mechanics
from optomech.cli import model_from_config, resolve_config
from optomech.coefficients import FSet, Trajectory
from optomech.mechanics import STRICT
from optomech.metrology import qfi_derivatives

# modulated coupling, displacement and squeezing: no closed form for any part
MISS_CONFIG = {"g0": 0.3, "epsilon": 0.4, "omega_g": 0.7,
               "d1": 0.2, "omega_d1": 0.6, "d2": 0.05, "omega_d2": 2.0}
TAU_MAX = 4 * math.pi


def _dense(sol, taus):
    """(n, len(taus)) states of a dense output, read at each tau."""
    return np.array([sol(t) for t in taus]).T


def _assert_same_integration(ours, ref, taus):
    # on an ndarray the stepper does SciPy's arithmetic in SciPy's order, so
    # the accepted steps and the dense values agree to the last bit
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert np.array_equal(_dense(ours.sol, taus), ref.sol(taus))


def _read_trajectory(spec, tol):
    traj = Trajectory(spec, TAU_MAX, tol)
    traj.f(1.0)
    traj.j(1.0)
    traj.bogoliubov(1.0)
    return 15  # one pass: subsystem, F and J


def _read_stepped(spec, tol):
    qfi_derivatives(spec, "d2", TAU_MAX, "finite_diff", tol)(1.0)
    return 30  # one stepped pass: the 15 values and their d2-derivatives


# the default and the tighter tolerance the tests' references integrate at,
# for the model's pass and the stepped pass of an 'integrated' QFI
TIGHT = (1e-13, 1e-15)


@pytest.mark.parametrize("tol, read", [
    pytest.param(STRICT, _read_trajectory, id="strict"),
    pytest.param(TIGHT, _read_trajectory, id="tight"),
    pytest.param(STRICT, _read_stepped, id="stepped-strict"),
    pytest.param(TIGHT, _read_stepped, id="stepped-tight"),
])
def test_decoupled_systems_match_scipy(tol, read, monkeypatch):
    calls = []

    def each(fun, t_span, y0, **options):
        ours = dop853.solve_ivp(fun, t_span, y0, **options)
        on_array = dop853.solve_ivp(fun, t_span, np.array(y0), **options)
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853",
                              dense_output=True, **options)
        calls.append((ours, on_array, ref))
        return ours

    monkeypatch.setattr(mechanics, "solve_ivp", each)
    monkeypatch.setattr(coefficients, "solve_ivp", each)
    n_states = read(model_from_config(resolve_config(MISS_CONFIG)), tol)
    [(ours, on_array, ref)] = calls  # one pass, on lists
    taus = np.linspace(0.0, TAU_MAX, 201)
    _assert_same_integration(on_array, ref, taus)
    assert isinstance(ours.y, list) and len(ours.y) == n_states
    assert ours.success and ours.nfev == ref.nfev
    n = ours.sol.steps
    assert n == len(ref.t) - 1
    # The list kernels sum each step's products in column order, BLAS in
    # its own. A sum of at most N_STAGES terms rounds by at most
    # (N_STAGES - 1) u of their magnitudes in either order, and a step's
    # terms h b_j k_j are within the state's magnitude; so the two passes
    # part by at most 2 N_STAGES u of it per step, which the flow carries
    # without growing it: 2 N_STAGES n u after n steps. The dense values
    # interpolate states that close.
    dense = ref.sol(taus)
    magnitude = max(1.0, np.max(np.abs(dense)))
    bound = 2 * dop853.N_STAGES * n * UNIT_ROUNDOFF * magnitude
    assert np.max(np.abs(_dense(ours.sol, taus) - dense)) <= bound


# modulated coupling and displacement without squeezing: F still misses
D2_ZERO_MISS = {"g0": 0.3, "epsilon": 0.4, "omega_g": 0.7,
                "d1": 0.2, "omega_d1": 0.6}


@pytest.mark.parametrize("config", [MISS_CONFIG, D2_ZERO_MISS],
                         ids=["squeezed", "d2-zero"])
def test_pass_meets_strict_on_each_block(config, monkeypatch):
    # the pass's RMS error norm spans all 15 states; its scaled tolerances
    # must hold each block, J (3 states) the smallest, to STRICT on its own:
    # against the same system run by SciPy's DOP853 at rtol 1e-13, every
    # state of a block stays within STRICT's rtol of the block's magnitude
    references = []

    def with_reference(fun, t_span, y0, **options):
        references.append(scipy_solve_ivp(fun, t_span, y0, method="DOP853",
                                          dense_output=True, rtol=1e-13,
                                          atol=1e-16))
        return dop853.solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(coefficients, "solve_ivp", with_reference)
    spec = model_from_config(resolve_config(config))
    states = coefficients.decoupled_pass(spec, TAU_MAX, STRICT)
    taus = np.linspace(0.0, TAU_MAX, 201)
    ours, ref = _dense(states, taus), references[0].sol(taus)
    for block in (slice(0, 4), slice(4, 6), slice(6, 12), slice(12, 15)):
        magnitude = max(1.0, np.max(np.abs(ref[block])))
        assert np.max(np.abs(ours[block] - ref[block])) <= STRICT[0] * magnitude


def test_step_end_derivative_is_taken_at_t_plus_h():
    # on this span an accepted step has t + (t_new - t) != t_new; SciPy
    # evaluates the derivative there at t + h, and the dense output shows it
    def fun(t, y):
        return [math.sin(t) + t]

    span = (0.014222002489539209, 3.6035826150574928)
    ours = dop853.solve_ivp(fun, span, np.array([0.0]), rtol=1e-3, atol=1e-3)
    ref = scipy_solve_ivp(fun, span, [0.0], method="DOP853", rtol=1e-3,
                          atol=1e-3, dense_output=True)
    assert any(t + (t_new - t) != t_new
               for t, t_new in zip(ours.t[:-1], ours.t[1:]))
    _assert_same_integration(ours, ref, np.linspace(*span, 201))
    # the list kernels run the same control flow: here, the same steps
    on_list = dop853.solve_ivp(fun, span, [0.0], rtol=1e-3, atol=1e-3)
    assert on_list.t == ours.t.tolist()


def _oscillator(t, y):
    w2 = 1.0 + 0.4 * math.cos(2.0 * t)
    return [y[1], -w2 * y[0]]


def test_zero_length_span():
    y0 = [1.0, 0.5]
    ref = scipy_solve_ivp(_oscillator, (2.0, 2.0), y0, method="DOP853",
                          rtol=1e-10, atol=1e-12, dense_output=True)
    for state in (np.array(y0), y0):
        ours = dop853.solve_ivp(_oscillator, (2.0, 2.0), state, rtol=1e-10,
                                atol=1e-12)
        assert ours.success
        assert ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t)
        assert np.array_equal(ours.y, ref.y)
        assert ours.sol(2.0) == y0
        end = dop853.solve_ivp(_oscillator, (2.0, 2.0), state, rtol=1e-10,
                               atol=1e-12, end_only=True)
        assert end.success and end.sol is None
        assert np.array_equal(end.t, [2.0])
        assert np.array_equal(end.y, np.array(y0)[:, None])


@pytest.mark.parametrize("span", [(0.0, 3.0), (2.0, 2.0)],
                         ids=["interval", "zero-length"])
def test_dense_output_refuses_times_outside_its_range(span):
    # an interpolant would extrapolate its step there; both ends and the
    # times between them read as SciPy's dense output does
    ref = scipy_solve_ivp(_oscillator, span, [1.0, 0.0], method="DOP853",
                          rtol=1e-10, atol=1e-12, dense_output=True)
    t0, t_end = span
    inside = np.linspace(t0, t_end, 7)
    for state in (np.array([1.0, 0.0]), [1.0, 0.0]):
        sol = dop853.solve_ivp(_oscillator, span, state, rtol=1e-10,
                               atol=1e-12).sol
        if isinstance(state, np.ndarray):
            assert np.array_equal(_dense(sol, inside), ref.sol(inside))
        for t in (np.nextafter(t0, -np.inf), np.nextafter(t_end, np.inf),
                  t_end + 1.0, math.nan):
            with pytest.raises(ValueError, match="outside the solved range"):
                sol(t)


def test_zero_length_trajectory_on_a_catalog_miss():
    traj = Trajectory(model_from_config(resolve_config(MISS_CONFIG)), 0.0)
    assert traj.f(0.0) == FSet.zero()
    alpha, beta = traj.bogoliubov(0.0)
    assert (alpha, beta) == (1.0, 0.0)


def test_dense_output_is_exact_at_both_ends():
    for state in (np.array([1.0, 0.0]), [1.0, 0.0]):
        ours = dop853.solve_ivp(_oscillator, (0.0, 3.0), state, rtol=1e-10,
                                atol=1e-12)
        assert ours.sol(0.0) == [1.0, 0.0]
        # the last step's interpolant at its end is y_old + (y_new - y_old)
        assert np.allclose(ours.sol(3.0), np.asarray(ours.y)[:, -1],
                           rtol=1e-15, atol=0.0)
        # the end-state mode takes the same steps without the three
        # dense-output stages of each, and keeps the last state alone
        end = dop853.solve_ivp(_oscillator, (0.0, 3.0), state, rtol=1e-10,
                               atol=1e-12, end_only=True)
        assert end.success and end.sol is None
        assert np.array_equal(end.t, ours.t[-1:])
        assert np.array_equal(end.y, np.asarray(ours.y)[:, -1:])
        assert end.nfev == ours.nfev - 3 * (len(ours.t) - 1)


def test_step_underflow_fails_instead_of_looping():
    # y' = y^2, y(0) = 1 blows up at t = 1
    def blow_up(t, y):
        return [v * v for v in y]

    ref = scipy_solve_ivp(blow_up, (0.0, 2.0), [1.0], method="DOP853",
                          rtol=1e-10, atol=1e-12, dense_output=True)
    assert not ref.success
    for state in (np.array([1.0]), [1.0]):
        ours = dop853.solve_ivp(blow_up, (0.0, 2.0), state, rtol=1e-10,
                                atol=1e-12)
        assert not ours.success
        assert ours.message == ref.message
        assert 1.0 <= ours.t[-1] < 1.0 + 1e-8
        if isinstance(state, np.ndarray):
            assert ours.nfev == ref.nfev


def test_backward_span_is_rejected():
    for state in (np.array([1.0, 0.0]), [1.0, 0.0]):
        with pytest.raises(ValueError):
            dop853.solve_ivp(_oscillator, (1.0, 0.0), state, rtol=1e-8,
                             atol=1e-10)
