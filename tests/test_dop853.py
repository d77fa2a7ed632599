"""The library's DOP853 stepper against scipy.integrate's, which only this
test imports: the same right-hand-side calls, the same accepted steps and
the same dense solution."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from optomech import coefficients, dop853, mechanics
from optomech.cli import model_from_config, resolve_config
from optomech.coefficients import FSet, Trajectory
from optomech.mechanics import STRICT, TOLERANCES

# modulated coupling, displacement and squeezing: no closed form for any part
MISS_CONFIG = {"g0": 0.3, "epsilon": 0.4, "omega_g": 0.7,
               "d1": 0.2, "omega_d1": 0.6, "d2": 0.05, "omega_d2": 2.0}
TAU_MAX = 4 * math.pi


def _assert_same_integration(ours, ref, taus):
    # the stepper does SciPy's arithmetic in SciPy's order, so the accepted
    # steps and the dense values agree to the last bit
    assert ours.success and ref.success
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert np.array_equal(ours.sol(taus), ref.sol(taus))
    assert all(np.array_equal(ours.sol(t), ref.sol(t)) for t in taus[::10])


@pytest.mark.parametrize("profile", sorted(TOLERANCES))
def test_decoupled_systems_match_scipy(profile, monkeypatch):
    calls = []

    def both(fun, t_span, y0, **options):
        ours = dop853.solve_ivp(fun, t_span, y0, **options)
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853",
                              dense_output=True, **options)
        calls.append((ours, ref))
        return ours

    monkeypatch.setattr(mechanics, "solve_ivp", both)
    monkeypatch.setattr(coefficients, "solve_ivp", both)
    traj = Trajectory(model_from_config(resolve_config(MISS_CONFIG)), TAU_MAX,
                      TOLERANCES[profile])
    traj.f(1.0)
    traj.j(1.0)
    traj.bogoliubov(1.0)
    assert len(calls) == 1  # one pass: subsystem, F and J
    taus = np.linspace(0.0, TAU_MAX, 201)
    for ours, ref in calls:
        _assert_same_integration(ours, ref, taus)


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
    ours, ref = states(taus), references[0].sol(taus)
    for block in (slice(0, 4), slice(4, 6), slice(6, 12), slice(12, 15)):
        magnitude = max(1.0, np.max(np.abs(ref[block])))
        assert np.max(np.abs(ours[block] - ref[block])) <= STRICT[0] * magnitude


def test_step_end_derivative_is_taken_at_t_plus_h():
    # on this span an accepted step has t + (t_new - t) != t_new; SciPy
    # evaluates the derivative there at t + h, and the dense output shows it
    def fun(t, y):
        return [math.sin(t) + t]

    span = (0.014222002489539209, 3.6035826150574928)
    ours = dop853.solve_ivp(fun, span, [0.0], rtol=1e-3, atol=1e-3)
    ref = scipy_solve_ivp(fun, span, [0.0], method="DOP853", rtol=1e-3,
                          atol=1e-3, dense_output=True)
    assert any(t + (t_new - t) != t_new
               for t, t_new in zip(ours.t[:-1], ours.t[1:]))
    _assert_same_integration(ours, ref, np.linspace(*span, 201))


def _oscillator(t, y):
    w2 = 1.0 + 0.4 * math.cos(2.0 * t)
    return [y[1], -w2 * y[0]]


def test_zero_length_span():
    y0 = [1.0, 0.5]
    ours = dop853.solve_ivp(_oscillator, (2.0, 2.0), y0, rtol=1e-10,
                            atol=1e-12)
    ref = scipy_solve_ivp(_oscillator, (2.0, 2.0), y0, method="DOP853",
                          rtol=1e-10, atol=1e-12, dense_output=True)
    assert ours.success
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert np.array_equal(ours.sol(2.0), y0)
    assert np.array_equal(ours.sol([2.0, 2.0]), [[1.0, 1.0], [0.5, 0.5]])
    end = dop853.solve_ivp(_oscillator, (2.0, 2.0), y0, rtol=1e-10,
                           atol=1e-12, end_only=True)
    assert end.success and end.sol is None
    assert np.array_equal(end.t, [2.0])
    assert np.array_equal(end.y, np.array(y0)[:, None])


def test_zero_length_trajectory_on_a_catalog_miss():
    traj = Trajectory(model_from_config(resolve_config(MISS_CONFIG)), 0.0)
    assert traj.f(0.0) == FSet.zero()
    alpha, beta = traj.bogoliubov(0.0)
    assert (alpha, beta) == (1.0, 0.0)


def test_dense_output_is_exact_at_both_ends():
    ours = dop853.solve_ivp(_oscillator, (0.0, 3.0), [1.0, 0.0], rtol=1e-10,
                            atol=1e-12)
    assert np.array_equal(ours.sol(0.0), [1.0, 0.0])
    # the last step's interpolant at its end is y_old + (y_new - y_old)
    assert np.allclose(ours.sol(3.0), ours.y[:, -1], rtol=1e-15, atol=0.0)
    assert np.array_equal(ours.sol(np.array([0.0, 3.0])),
                          np.column_stack([ours.sol(0.0), ours.sol(3.0)]))
    # the end-state mode takes the same steps without the three
    # dense-output stages of each, and keeps the last state alone
    end = dop853.solve_ivp(_oscillator, (0.0, 3.0), [1.0, 0.0], rtol=1e-10,
                           atol=1e-12, end_only=True)
    assert end.success and end.sol is None
    assert np.array_equal(end.t, ours.t[-1:])
    assert np.array_equal(end.y, ours.y[:, -1:])
    assert end.nfev == ours.nfev - 3 * (len(ours.t) - 1)


def test_step_underflow_fails_instead_of_looping():
    # y' = y^2, y(0) = 1 blows up at t = 1
    def blow_up(t, y):
        return y * y

    ours = dop853.solve_ivp(blow_up, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    ref = scipy_solve_ivp(blow_up, (0.0, 2.0), [1.0], method="DOP853",
                          rtol=1e-10, atol=1e-12, dense_output=True)
    assert not ours.success and not ref.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert 1.0 <= ours.t[-1] < 1.0 + 1e-8


def test_backward_span_is_rejected():
    with pytest.raises(ValueError):
        dop853.solve_ivp(_oscillator, (1.0, 0.0), [1.0, 0.0], rtol=1e-8,
                         atol=1e-10)
