"""The library's DOP853 stepper against scipy.integrate's, which only this
test imports. On an ndarray state, the oracle's pass: the same
right-hand-side calls, the same accepted steps and the same end state, bit
for bit, against SciPy without dense output. On a list state, the decoupled
pass's: the same calls as SciPy with dense output, and dense values within a
bound on the rounding that the list kernels' order of summation moves."""

import math
import tracemalloc

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


def _scipy_dop853(fun, t_span, y0, **options):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", **options)


def _on_array(fun):
    """A list right-hand side as an ndarray pass takes it: returning a float
    ndarray, as SciPy wraps every right-hand side."""
    return lambda t, y: np.asarray(fun(t, y), dtype=float)


def _assert_same_end_state(ours, ref):
    # on an ndarray the stepper does SciPy's arithmetic in SciPy's order,
    # without the dense-output stages: the same calls, the same accepted
    # steps and the same end state to the last bit
    assert ours.success == ref.success
    assert ours.sol is None
    assert ours.nfev == ref.nfev
    assert ours.t == ref.t.tolist()
    assert np.array_equal(ours.y, ref.y[:, -1])


def _rounding_bound(steps, dense):
    # The list kernels sum each step's products in column order, BLAS in
    # its own. A sum of at most N_STAGES terms rounds by at most
    # (N_STAGES - 1) u of their magnitudes in either order, and a step's
    # terms h b_j k_j are within the state's magnitude; so the two passes
    # part by at most 2 N_STAGES u of it per step, which the flow carries
    # without growing it: 2 N_STAGES n u after n steps. The dense values
    # interpolate states that close.
    magnitude = max(1.0, np.max(np.abs(dense)))
    return 2 * dop853.N_STAGES * steps * UNIT_ROUNDOFF * magnitude


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
        calls.append((
            ours, dop853.solve_ivp(_on_array(fun), t_span, np.array(y0),
                                   **options),
            _scipy_dop853(fun, t_span, y0, dense_output=True, **options),
            _scipy_dop853(fun, t_span, y0, **options)))
        return ours

    monkeypatch.setattr(mechanics, "solve_ivp", each)
    monkeypatch.setattr(coefficients, "solve_ivp", each)
    n_states = read(model_from_config(resolve_config(MISS_CONFIG)), tol)
    [(ours, on_array, ref, ref_end)] = calls  # one pass, on lists
    _assert_same_end_state(on_array, ref_end)
    assert isinstance(ours.y, list) and len(ours.y) == n_states
    assert ours.success and ours.nfev == ref.nfev
    n = ours.sol.steps
    assert n == len(ref.t) - 1 == len(ours.t) - 1
    taus = np.linspace(0.0, TAU_MAX, 201)
    dense = ref.sol(taus)
    assert np.max(np.abs(_dense(ours.sol, taus) - dense)) <= \
        _rounding_bound(n, dense)


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
    # evaluates the derivative there at t + h, and so does each pass
    def fun(t, y):
        return [math.sin(t) + t]

    def times_called(integrate, state, **options):
        times = []

        def recorded(t, y):
            times.append(t)
            return fun(t, y)
        return integrate(recorded, span, state, rtol=1e-3, atol=1e-3,
                         **options), times

    span = (0.014222002489539209, 3.6035826150574928)
    ours, times = times_called(
        lambda f, *args, **options: dop853.solve_ivp(_on_array(f), *args,
                                                     **options),
        np.array([0.0]))
    assert any(t + (t_new - t) != t_new
               for t, t_new in zip(ours.t[:-1], ours.t[1:]))
    ref, ref_times = times_called(_scipy_dop853, [0.0])
    _assert_same_end_state(ours, ref)
    assert times == ref_times
    # the list kernels run the same control flow: here, the same steps, and
    # SciPy's calls with dense output
    on_list, times = times_called(dop853.solve_ivp, [0.0])
    assert on_list.t == ours.t
    assert times == times_called(_scipy_dop853, [0.0], dense_output=True)[1]


def _oscillator(t, y):
    w2 = 1.0 + 0.4 * math.cos(2.0 * t)
    return [y[1], -w2 * y[0]]


def test_zero_length_span():
    # one zero-length step, as SciPy takes: its end state is y0, and a list
    # pass's interpolant of it is the constant y0
    y0 = [1.0, 0.5]
    options = dict(rtol=1e-10, atol=1e-12)
    _assert_same_end_state(
        dop853.solve_ivp(_on_array(_oscillator), (2.0, 2.0), np.array(y0),
                         **options),
        _scipy_dop853(_oscillator, (2.0, 2.0), y0, **options))
    ours = dop853.solve_ivp(_oscillator, (2.0, 2.0), y0, **options)
    assert ours.success and ours.nfev == 1
    assert ours.t == [2.0, 2.0]
    assert ours.y == y0
    assert ours.sol(2.0) == y0


@pytest.mark.parametrize("span", [(0.0, 3.0), (2.0, 2.0)],
                         ids=["interval", "zero-length"])
def test_dense_output_refuses_times_outside_its_range(span):
    # an interpolant would extrapolate its step there; both ends and the
    # times between them read as SciPy's dense output does, up to rounding
    ref = _scipy_dop853(_oscillator, span, [1.0, 0.0], rtol=1e-10,
                        atol=1e-12, dense_output=True)
    t0, t_end = span
    inside = np.linspace(t0, t_end, 7)
    sol = dop853.solve_ivp(_oscillator, span, [1.0, 0.0], rtol=1e-10,
                           atol=1e-12).sol
    dense = ref.sol(inside)
    assert np.max(np.abs(_dense(sol, inside) - dense)) <= \
        _rounding_bound(sol.steps, dense)
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
    ours = dop853.solve_ivp(_oscillator, (0.0, 3.0), [1.0, 0.0], rtol=1e-10,
                            atol=1e-12)
    assert ours.sol(0.0) == [1.0, 0.0]
    # the last step's interpolant at its end is y_old + (y_new - y_old)
    assert np.allclose(ours.sol(3.0), ours.y, rtol=1e-15, atol=0.0)
    # the ndarray pass takes as many steps without the three dense-output
    # stages of each
    on_array = dop853.solve_ivp(_on_array(_oscillator), (0.0, 3.0),
                                np.array([1.0, 0.0]), rtol=1e-10, atol=1e-12)
    assert len(on_array.t) == len(ours.t)
    assert on_array.nfev == ours.nfev - 3 * ours.sol.steps


def test_step_underflow_fails_instead_of_looping():
    # y' = y^2, y(0) = 1 blows up at t = 1
    def blow_up(t, y):
        return [v * v for v in y]

    ref = _scipy_dop853(blow_up, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    assert not ref.success
    for fun, state in ((_on_array(blow_up), np.array([1.0])),
                       (blow_up, [1.0])):
        ours = dop853.solve_ivp(fun, (0.0, 2.0), state, rtol=1e-10,
                                atol=1e-12)
        assert not ours.success
        assert ours.message == ref.message
        assert 1.0 <= ours.t[-1] < 1.0 + 1e-8
        if isinstance(state, np.ndarray):
            _assert_same_end_state(ours, ref)


def test_backward_span_is_rejected():
    for state in (np.array([1.0, 0.0]), [1.0, 0.0]):
        with pytest.raises(ValueError):
            dop853.solve_ivp(_oscillator, (1.0, 0.0), state, rtol=1e-8,
                             atol=1e-10)


def test_list_pass_stores_its_interpolants_alone():
    # a step of the list pass stores 8 doubles per state (y_old and F0..F6)
    # and its end t in the list of step ends (an 8-byte pointer and a
    # 24-byte float); neither the per-step states nor the step lengths,
    # which are differences of the step ends, are kept.
    # The containers over-allocate by at most 1/8 of what they hold, and
    # the pass's set-up and one step's working lists stay within 64 KiB.
    spec = model_from_config(resolve_config(MISS_CONFIG))
    coefficients.decoupled_pass(spec, 1.0, STRICT)  # imports the stepper
    n = 15
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        states = coefficients.decoupled_pass(spec, 200.0, STRICT)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_step = 8 * 8 * n + (8 + 24)
    assert peak <= states.steps * per_step * 9 / 8 + 64 * 1024
