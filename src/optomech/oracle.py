"""Brute-force Fock-truncated propagator.

Independent ground truth for the analytic moments, covariances and state
coefficients. The two-mode state is an amplitude tensor on the truncated
Fock lattice, evolved by direct Schrodinger integration of the truncated
Hamiltonian; no decoupling results enter anywhere. Everything runs in the
frame rotating at the optical frequency (the Omega_c N_a term commutes with
the rest and only adds a photon-number phase).

The Hamiltonian conserves photon number, so the tensor splits into
independent mechanical problems, one per photon branch n, each generated by

    H_n = N_b + (d1(tau) - g(tau) n)(b^dag + b) + d2(tau) (b^dag + b)^2.

Each branch lives in its own mechanical box, sized from the force it feels:
with constant coupling and displacement that force is exactly
c_n = d1 - g n, and a modulated drive takes the triangle bound g n + d1.
Both routes carry every live branch in one pass over the branches laid
end to end. Constant drives expand exp(-i H_n tau) in Chebyshev polynomials
(Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)): each H_n is scaled
onto [-1, 1] by its Gershgorin interval, the series is cut where the Bessel
tail bounds the rest below unit roundoff, and it costs about h tau banded
matvecs per branch, h the interval's half-width, so it grows linearly with
tau. The scaled H_n is real, so a real input (real mu_c and mu_m) is
carried as a real vector rather than a complex one, at half the cost and
with the same bits. Time-dependent drives integrate in one
adaptive eighth-order Runge-Kutta pass on the library's DOP853 stepper
(:mod:`optomech.dop853`), in the frame rotating with N_b, where the drive
terms alone set the step; the pass runs on an ndarray, so the stepper keeps
the end state and no interpolant. Neither route imports SciPy.
Truncation shows up as loss of recurrence, not loss of norm: the truncated
Hamiltonian is Hermitian, so norm drift measures integrator quality, while
a tau = 2 pi trajectory failing to close signals insufficient dims.
:func:`check_dims` owns every refusal of a truncation before anything is
propagated: dims above NA_CAP or NB_CAP, an input tail above
INITIAL_TAIL_LIMIT and a Chebyshev series past TERM_CAP.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

# not used here: imported so that bench/trace_shim.py, which imports cli,
# coefficients, metrology and oracle, finds every layer module in sys.modules
from . import nongaussianity  # noqa: F401
from .mechanics import STRICT, solve_ivp
from .moments import MomentSet
from .params import InitialState, ModelSpec, evaluate_drive

NORM_DEFECT_LIMIT = 1e-6
INITIAL_TAIL_LIMIT = 1e-12
# caps on the truncation: photon levels N_a, where recommended_dims cuts a
# coherent input's photon tail, and mechanical levels N_b, above which it
# refuses the parameters
NA_CAP = 401
NB_CAP = 4000
# the most terms a constant-drive Chebyshev series may take: its recurrence
# rounds by about eps ||psi|| per term (the bound tests/test_oracle.py holds
# the pass to), so past STRICT's rtol / eps terms its rounding alone could
# exceed the tolerance the oracle checks the decoupled solution to
TERM_CAP = int(STRICT[0] / np.finfo(float).eps)  # 450359


class TruncationError(RuntimeError):
    pass


# propagate reaches neither eigensolver wrapper, so no oracle route imports
# SciPy. They stay, importing scipy.linalg on the first call, only because
# bench/trace_shim.py wraps them by name and tests/test_bench_contract.py
# names them; the tests diagonalise through them to check the Chebyshev
# pass. The oracle's integrations call solve_ivp by this module's name, so
# the benchmark can time them apart from the decoupled solution's.
def eig_banded(*args, **kwargs):
    from scipy.linalg import eig_banded as scipy_eig_banded
    return scipy_eig_banded(*args, **kwargs)


def eigh_tridiagonal(*args, **kwargs):
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
    return scipy_eigh_tridiagonal(*args, **kwargs)


@dataclass(frozen=True)
class TruncatedState:
    """Two-mode amplitudes on the truncated Fock lattice."""

    amplitudes: np.ndarray  # shape (N_a, N_b)
    norm_defect: float


def coherent_amplitudes(mu: complex, dim: int) -> np.ndarray:
    """Fock amplitudes of |mu> up to dim (tail simply cut)."""
    n = np.arange(dim)
    if mu == 0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    # |mu|^2 saturates at 1e308, which leaves no amplitude below any cap;
    # atan2 is cmath.phase, but underflows to 0 where cmath.phase raises
    logmod = (n * math.log(abs(mu)) - 0.5 * log_fact
              - 0.5 * min(abs(mu), 1e154) ** 2)
    return np.exp(logmod) * np.exp(1j * n * math.atan2(mu.imag, mu.real))


def _initial_tensor(state0: InitialState, dims) -> np.ndarray:
    na, nb = dims
    if state0.optical == "coherent":
        ca = coherent_amplitudes(state0.mu_c, na)
    else:
        if state0.fock_n >= na:
            raise ValueError("optical dim too small for the Fock component")
        ca = np.zeros(na, dtype=complex)
        ca[0] = ca[state0.fock_n] = 1.0 / math.sqrt(2.0)
    if state0.mechanical != "coherent":
        raise ValueError("the propagator takes coherent x coherent inputs")
    return np.outer(ca, coherent_amplitudes(state0.mu_m, nb))


def _tail(psi0: np.ndarray) -> float:
    return max(0.0, 1.0 - float(np.sum(np.abs(psi0) ** 2)))


def _drive_bound(drive) -> float:
    if drive.phase == "sin":
        return abs(drive.amplitude) * (1.0 + abs(drive.offset))
    return abs(drive.amplitude)


def _branch_force(spec: ModelSpec, n_photon: int) -> float:
    """Bound on |d1(tau) - g(tau) n|, the force on branch n: exact when
    coupling and displacement are constant, the triangle bound otherwise."""
    g, d1 = spec.coupling, spec.displacement
    if g.is_constant and d1.is_constant:
        return abs(d1.amplitude - g.amplitude * n_photon)
    return _drive_bound(g) * n_photon + _drive_bound(d1)


def _branch_band(n_photon: int, g: float, d1: float, d2: float,
                 nb: int) -> np.ndarray:
    """H_n in lower banded storage (diag, first and second subdiagonals)."""
    k = np.arange(nb, dtype=float)
    band = np.zeros((3, nb))
    band[0, :] = k + d2 * (2.0 * k + 1.0)
    band[1, :-1] = (d1 - g * n_photon) * np.sqrt(k[1:])
    band[2, :-2] = d2 * np.sqrt(k[2:] * (k[2:] - 1.0))
    return band


def _squeezing_factors(spec: ModelSpec, tau: float):
    """(displacement response, spread boost) induced by the squeezing drive."""
    if spec.squeezing.is_constant:
        zeta2 = max(1e-9, 1.0 + 4.0 * spec.squeezing.amplitude)
        zeta = math.sqrt(zeta2)
        return max(1.0, 1.0 / zeta2), max(math.sqrt(zeta), 1.0 / math.sqrt(zeta))
    # the exponent is held below exp's overflow; such a boost passes any cap
    boost = math.exp(min(abs(_drive_bound(spec.squeezing)) * tau, 709.0))
    return boost, boost


def _branch_amplitude(spec: ModelSpec, state0: InitialState, n_photon: int,
                      tau: float) -> float:
    """Bound on the coherent amplitude branch n's wavepacket reaches by tau,
    about 2 |d1 - g n| from the drives, widened by the squeezing."""
    resp, boost = _squeezing_factors(spec, tau)
    return (abs(state0.mu_m)
            + 2.0 * _branch_force(spec, n_photon) * resp) * boost


def _branch_box(spec: ModelSpec, state0: InitialState, n_photon: int,
                tau: float):
    """Mechanical Fock levels needed to hold branch n without edge effects:
    an int, or inf where the bound passes the float range."""
    amp = _branch_amplitude(spec, state0, n_photon, tau)
    levels = amp * amp + 10.0 * amp + 25.0
    return math.ceil(levels) if levels < math.inf else math.inf  # nan too


def propagate(spec: ModelSpec, state0: InitialState, tau: float,
              dims) -> TruncatedState:
    """Integrate the Schrodinger equation on the truncated lattice.

    dims = (N_a, N_b). Photon number is conserved, so branches propagate
    independently; a branch whose wavepacket provably stays far below the
    declared mechanical box is evolved in a trimmed sub-box (the amplitudes
    outside differ from the full-box evolution by less than rounding).
    Constant drives apply exp(-i H_n tau) to all live branches in one
    Chebyshev pass (``_chebyshev_branches``): exact to rounding, with
    banded matvecs only, and no SciPy. Its cost is linear in tau, about
    h tau matvecs for a branch whose Gershgorin half-width is h, on a real
    vector for a real input and a complex one otherwise; a series longer than
    TERM_CAP raises TruncationError (see :func:`check_dims`). Modulated
    drives integrate all live branches in one adaptive eighth-order
    Runge-Kutta pass (the library's DOP853 on an ndarray, which keeps the
    end state alone and does SciPy's arithmetic in SciPy's order) in the
    frame rotating with N_b, at STRICT tolerances scaled so that each
    branch alone meets them.
    """
    psi0, live = _live_branches(spec, state0, tau, dims)
    tail = _tail(psi0)
    if tail > INITIAL_TAIL_LIMIT:
        warnings.warn(f"initial truncation tail mass {tail:.2e} exceeds "
                      f"{INITIAL_TAIL_LIMIT:.0e}; increase dims", stacklevel=2)

    psi = psi0.copy()
    if live:
        step = _chebyshev_branches if _constant(spec) else _step_branches
        for n, branch in zip(live, step(spec, live, tau)):
            psi[n] = 0.0
            psi[n, :branch.size] = branch

    norm_sq = float(np.sum(np.abs(psi) ** 2))
    defect = abs(norm_sq - (1.0 - tail))
    if not defect <= NORM_DEFECT_LIMIT:  # nan too
        raise TruncationError(
            f"norm drifted by {defect:.2e} (> {NORM_DEFECT_LIMIT:.0e}); "
            "integration failed for these dims")
    return TruncatedState(amplitudes=psi, norm_defect=defect)


def _constant(spec: ModelSpec) -> bool:
    return (spec.coupling.is_constant and spec.displacement.is_constant
            and spec.squeezing.is_constant)


def _live_branches(spec: ModelSpec, state0: InitialState, tau: float, dims):
    """The input tensor, and {n: input amplitudes in branch n's box} for
    every photon branch n whose input norm is at least 1e-16."""
    psi0 = _initial_tensor(state0, dims)
    return psi0, {n: psi0[n, :min(dims[1], _branch_box(spec, state0, n, tau))]
                  for n in range(dims[0])
                  if float(np.linalg.norm(psi0[n, :])) >= 1e-16}


def check_dims(spec: ModelSpec, state0: InitialState, tau: float, dims):
    """Refuse, with TruncationError, dims (N_a, N_b) that :func:`propagate`
    cannot be trusted with at tau: above NA_CAP or NB_CAP (checked before
    anything is built), cutting more than INITIAL_TAIL_LIMIT off the input,
    or asking for a Chebyshev series longer than TERM_CAP (checked before
    its Bessel table is built)."""
    na, nb = dims
    if na > NA_CAP or nb > NB_CAP:
        raise TruncationError(f"dims '{na},{nb}' exceed the oracle's caps "
                              f"NA <= {NA_CAP}, NB <= {NB_CAP}")
    psi0, live = _live_branches(spec, state0, tau, dims)
    tail = _tail(psi0)
    if tail > INITIAL_TAIL_LIMIT:
        raise TruncationError(f"dims {na},{nb} cut an initial tail mass "
                              f"{tail:.2e} off the input, above "
                              f"{INITIAL_TAIL_LIMIT:.0e}; increase dims")
    if live and _constant(spec):
        _miller_start(_spectra(spec, live)[2] * tau)


def _step_branches(spec: ModelSpec, live: dict, tau: float) -> list:
    """One adaptive DOP853 pass over the live photon branches.

    live maps photon number n to the branch's initial amplitudes in its own
    box. The boxes are laid end to end in one vector; returns the final
    amplitudes of each branch, in the order of live.

    The pass runs in the frame rotating with N_b, y = exp(-i N_b t) z, where

        z' = -i [c_n(t) X(t) + d2(t) X(t)^2] z,
        X(t) = exp(-i t) b + exp(i t) b^dag,  c_n = d1 - g n,

    and maps z back by exp(-i k tau) on level k at the end. That is
    free-oscillator evolution only; no decoupling result enters. N_b's
    levels would otherwise set the step (they roughly double the largest
    branch's spectral radius), and |z| = |y| level by level, so the
    tolerances mean what they meant in the lab frame.
    """
    sizes = [branch.size for branch in live.values()]
    k = np.concatenate([np.arange(size, dtype=float) for size in sizes])
    # photons and b's band are complex, so every product is one numpy loop.
    # sqrt(k) is 0 on each box's first level, so X never couples one box to
    # the next; X^2 is X applied twice, the same truncated operator, with
    # diagonal k + (k + 1) inside a box and k on its top level
    photons = np.repeat(np.array(list(live), dtype=complex), sizes)
    sqk = np.sqrt(k[1:]).astype(complex)
    squeezed = not spec.squeezing.is_zero

    def rhs(t, y):
        z = y.view(complex)
        down = sqk * cmath.exp(-1j * t)  # b picks up exp(-i t) in this frame
        up = down.conjugate()

        def x_apply(v):
            out = np.empty_like(v)
            np.multiply(down, v[1:], out=out[:-1])
            out[-1] = 0.0
            out[1:] += up * v[:-1]
            return out

        x = x_apply(z)
        # -i (d1 - g n) X z, plus -i d2 X^2 z
        out = photons * (1j * evaluate_drive(spec.coupling, t))
        out -= 1j * evaluate_drive(spec.displacement, t)
        out *= x
        if squeezed:
            x = x_apply(x)
            x *= -1j * evaluate_drive(spec.squeezing, t)
            out += x
        return out.view(float)

    # always strict: the oracle is the reference that oracle-check measures
    # the decoupled solution against. DOP853's error norm is an RMS over the
    # whole vector; with both tolerances scaled by sqrt(smallest box / total)
    # that RMS is at least each branch's own RMS at STRICT, so a step the
    # pass accepts is one every branch would accept alone (up to the E3 part
    # of DOP853's norm) and no branch's error is averaged away by the others.
    scale = math.sqrt(min(sizes) / k.size)
    rtol, atol = STRICT
    y0 = np.concatenate(list(live.values())).astype(complex).view(float)
    sol = solve_ivp(rhs, (0.0, tau), y0, rtol=rtol * scale, atol=atol * scale)
    if not sol.success:
        raise TruncationError(f"branch integration failed: {sol.message}")
    psi = sol.y.view(complex) * np.exp(-1j * tau * k)
    return np.split(psi, np.cumsum(sizes)[:-1])


def _gershgorin(band: np.ndarray):
    """(centre, half-width) of the Gershgorin interval of a banded H_n."""
    radius = np.abs(band[1]) + np.abs(band[2])
    radius[1:] += np.abs(band[1, :-1])
    radius[2:] += np.abs(band[2, :-2])
    lo, hi = np.min(band[0] - radius), np.max(band[0] + radius)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _spectra(spec: ModelSpec, live: dict):
    """The band of each live branch's H_n, and the centres and half-widths
    of their Gershgorin intervals."""
    g, d1, d2 = (spec.coupling.amplitude, spec.displacement.amplitude,
                 spec.squeezing.amplitude)
    bands = [_branch_band(n, g, d1, d2, branch.size)
             for n, branch in live.items()]
    centre, half = np.array([_gershgorin(band) for band in bands]).T
    return bands, centre, half


def _miller_start(x: np.ndarray) -> int:
    """The order Miller's recurrence for J_k(x) starts from, which bounds
    the series' term count; refused past TERM_CAP before anything is built,
    and as inf where x passes the float range."""
    top = np.max(x + 20.0 * np.cbrt(x))
    top = int(top) + 30 if top < math.inf else math.inf  # nan too
    if top > TERM_CAP:
        raise TruncationError(
            f"the Chebyshev series needs up to {top} terms > cap {TERM_CAP}; "
            "outside the validity envelope of the truncated oracle")
    return top


def _bessel_j(x: np.ndarray):
    """Bessel J_k(x_b) for k = 0..K - 1 and the number of terms each x_b needs.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started
    from order x + 20 x^(1/3) + 30, far past the turning point k = x where
    J_k starts to decay faster than exponentially, and normalised by
    J_0 + 2 sum_k J_2k = 1. A column is rescaled whenever it nears overflow.
    terms[b] is the smallest count with 2 sum_{k >= terms[b]} |J_k(x_b)| at
    or below unit roundoff; K = max(terms). x at or below unit roundoff,
    x = 0 included, gives J_0 = 1 alone, so tau = 0 returns the initial
    amplitudes without dividing by x.
    """
    x = np.asarray(x, dtype=float)
    roundoff = 0.5 * np.finfo(float).eps
    # at x <= roundoff, J_0 = 1 - x^2 / 4 rounds to 1 and the rest of the
    # series sums to about x, so the J_0 term alone is the whole series;
    # skipping these also keeps 2k / x finite
    moving = x > roundoff
    xs = np.where(moving, x, 1.0)
    top = _miller_start(x)
    j = np.zeros((top + 2, x.size))
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2.0 * k / xs) * j[k] - j[k + 1]
        big = np.abs(j[k - 1]) > 1e250
        if big.any():
            j[k - 1:, big] *= 1e-250
    j /= j[0] + 2.0 * np.sum(j[2::2], axis=0)
    j[:, ~moving] = 0.0
    j[0, ~moving] = 1.0
    # each column's tail is summed from the top down on its own, so no copy
    # of the whole table is made
    terms = np.array([np.sum(2.0 * np.cumsum(np.abs(j[::-1, b])) > roundoff)
                      for b in range(x.size)])
    return j[:np.max(terms)], terms


def _chebyshev_branches(spec: ModelSpec, live: dict, tau: float) -> list:
    """exp(-i H_n tau) on every live branch of a constant drive, in one pass.

    Each H_n is mapped onto [-1, 1] by its own Gershgorin interval, centre c
    and half-width h, and

        exp(-i H tau) v = exp(-i c tau) sum_k (2 - delta_k0) (-i)^k
                          J_k(h tau) T_k((H - c) / h) v,

    the T_k(.)v from the three-term Chebyshev recurrence on the branches laid
    end to end (their boxes do not couple: the off-diagonals vanish at each
    box edge). ||T_k|| <= 1 on the scaled spectrum, so cutting the series
    where the Bessel tail falls to unit roundoff is a bound, not a fit. The
    branches are ordered by the terms they need, widest first, and a branch
    leaves the working slice once its series has ended. Returns the final
    amplitudes, in the order of live.
    """
    bands, centre, half = _spectra(spec, live)
    # a one-level box has h = 0: its series is the J_0 term alone and
    # (H - c) / h is never applied to it
    inv_half = np.divide(1.0, half, out=np.zeros_like(half), where=half > 0.0)
    # the branches in order of h tau, widest first, so that the Bessel
    # table's columns come in the order of the terms they need and it is
    # never reordered. J_k(x) grows with x for the k past the turning point
    # k = x where the series is cut, so a narrower branch needs no more
    # terms; should rounding give it one more, the wider branches before it
    # take as many, whose extra weights are below unit roundoff
    order = np.argsort(-half, kind="stable")
    weights, terms = _bessel_j(half[order] * tau)
    terms = np.maximum.accumulate(terms[::-1])[::-1]
    sizes = np.array([bands[b].shape[1] for b in order])
    ends = np.cumsum(sizes)
    band = np.concatenate([bands[b] for b in order], axis=1)
    scale = np.repeat(inv_half[order], sizes)
    diag = (band[0] - np.repeat(centre[order], sizes)) * scale
    off1 = band[1, :-1] * scale[:-1]
    off2 = band[2, :-2] * scale[:-2] if not spec.squeezing.is_zero else None
    # (2 - delta_k0) (-i)^k J_k = w_k for even k and -i w_k for odd k, with
    # the real w_k = (2 - delta_k0) (-1)^(k // 2) J_k; the scalings are exact
    # and made in place on the one table
    weights[1:] *= 2.0
    weights[2::4] *= -1.0
    weights[3::4] *= -1.0

    def apply(y):
        """(H - c) / h on the first y.size levels."""
        end = y.size
        out = diag[:end] * y
        out[:-1] += off1[:end - 1] * y[1:]
        out[1:] += off1[:end - 1] * y[:-1]
        if off2 is not None:
            out[:-2] += off2[:end - 2] * y[2:]
            out[2:] += off2[:end - 2] * y[:-2]
        return out

    branches = list(live.values())
    v = np.concatenate([branches[b] for b in order])
    # the scaled H_n is real, so a real input stays real under every T_k and
    # is carried as floats: a real factor times a complex entry is the two
    # real products, so this is the complex pass to the bit
    prev = v if v.imag.any() else v.real
    sums = [np.repeat(weights[0], sizes) * prev, np.zeros_like(prev)]
    # counts[k]: the branches whose series reaches term k, a prefix of order
    counts = np.searchsorted(-terms, -np.arange(weights.shape[0]))
    cur = None
    for k in range(1, weights.shape[0]):
        count = counts[k]
        end = ends[count - 1]
        prev = prev[:end]
        if cur is None:
            cur = apply(prev)
        else:
            cur = cur[:end]
            nxt = apply(cur)
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        sums[k % 2][:end] += np.repeat(weights[k, :count], sizes[:count]) * cur
    even, odd = sums
    out = even - 1j * odd
    out *= np.repeat(np.exp(-1j * centre[order] * tau), sizes)
    pieces = np.split(out, ends[:-1])
    return [pieces[i] for i in np.argsort(order)]


def analytic_state_coefficients(g0: float, d1: float, mu_c: complex,
                                mu_m: complex, tau: float, n_max: int):
    """Closed-form branch decomposition for constant drives without squeezing.

    Returns (weights, labels): weights[n] is the full complex amplitude of
    photon branch |n> (coherent weight times accumulated phase, including
    the coherent-drift phase that early literature dropped) and labels[n]
    the mechanical coherent-state parameter

        phi_n = mu_m exp(-i tau) + (g0 n - d1) (1 - exp(-i tau)).

    The weights leave out the global phase exp(i d1^2 (tau - sin tau)) of
    every :func:`propagate` branch, on which no density matrix, moment or
    Fisher information depends; :func:`analytic_state_tensor` restores it.
    """
    n = np.arange(n_max)
    eta = 1.0 - cmath.exp(-1j * tau)
    weights = coherent_amplitudes(mu_c, n_max)
    weights = weights * np.exp(1j * (g0 ** 2 * n ** 2 - 2.0 * g0 * d1 * n)
                               * (tau - math.sin(tau)))
    drift = eta * mu_m - np.conj(eta) * np.conj(mu_m)
    weights = weights * np.exp((g0 * n - d1) * drift / 2.0)
    labels = mu_m * cmath.exp(-1j * tau) + (g0 * n - d1) * eta
    return weights, labels


def analytic_state_tensor(g0: float, d1: float, mu_c: complex, mu_m: complex,
                          tau: float, dims) -> np.ndarray:
    """Truncated tensor of the closed-form state, amplitude for amplitude
    that of :func:`propagate`, global phase included."""
    na, nb = dims
    weights, labels = analytic_state_coefficients(g0, d1, mu_c, mu_m, tau, na)
    weights = weights * cmath.exp(1j * d1 ** 2 * (tau - math.sin(tau)))
    psi = np.zeros((na, nb), dtype=complex)
    for n in range(na):
        psi[n, :] = weights[n] * coherent_amplitudes(labels[n], nb)
    return psi


def oracle_moments(state: TruncatedState) -> MomentSet:
    """The eight moments from the truncated amplitudes."""
    psi = state.amplitudes
    na, nb = psi.shape
    n_a = np.arange(na, dtype=float)[:, None]
    n_b = np.arange(nb, dtype=float)[None, :]
    sqa = np.sqrt(np.arange(na, dtype=float))
    sqb = np.sqrt(np.arange(nb, dtype=float))

    a_psi = np.zeros_like(psi)
    a_psi[:-1, :] = sqa[1:, None] * psi[1:, :]
    b_psi = np.zeros_like(psi)
    b_psi[:, :-1] = sqb[None, 1:] * psi[:, 1:]
    aa_psi = np.zeros_like(psi)
    aa_psi[:-1, :] = sqa[1:, None] * a_psi[1:, :]
    bb_psi = np.zeros_like(psi)
    bb_psi[:, :-1] = sqb[None, 1:] * b_psi[:, 1:]
    ab_psi = np.zeros_like(psi)
    ab_psi[:-1, :] = sqa[1:, None] * b_psi[1:, :]

    return MomentSet(
        a=complex(np.vdot(psi, a_psi)),
        b=complex(np.vdot(psi, b_psi)),
        a2=complex(np.vdot(psi, aa_psi)),
        b2=complex(np.vdot(psi, bb_psi)),
        adag_a=float(np.real(np.vdot(psi, n_a * psi))),
        bdag_b=float(np.real(np.vdot(psi, n_b * psi))),
        ab=complex(np.vdot(psi, ab_psi)),
        abdag=complex(np.vdot(b_psi, a_psi)),
    )


def mechanical_fidelity_with_coherent(state: TruncatedState, mu: complex) -> float:
    """Fidelity <mu| rho_mech |mu> of the reduced mechanical state."""
    psi = state.amplitudes
    target = coherent_amplitudes(mu, psi.shape[1])
    amps = psi @ np.conj(target)
    return float(np.sum(np.abs(amps) ** 2))


def recommended_dims(spec: ModelSpec, state0: InitialState, tau: float,
                     target: float = 3e-8, nb_cap: int = NB_CAP):
    """Truncation dims for moment agreement around ``target`` accuracy.

    N_a keeps the initial photon tail below 1e-13. N_b covers the branch
    coherent amplitudes phi_n ~ 2 |d1 - g n| for every branch whose weighted
    contribution p_n (|phi_n| + sqrt(N_b)) exceeds the error budget.
    """
    if state0.optical == "coherent":
        nc = min(abs(state0.mu_c), 1e154) ** 2  # as coherent_amplitudes
        probs = [math.exp(-nc)]
        # one level is left for the tail appended below
        while sum(probs) < 1.0 - 1e-13 and len(probs) < NA_CAP - 1:
            n = len(probs)
            probs.append(probs[-1] * nc / n)
        probs.append(probs[-1] * nc / len(probs))
        na = len(probs)
    else:
        na = state0.fock_n + 2
        probs = [0.0] * na
        probs[0] = probs[state0.fock_n] = 0.5

    # largest branch that must be fully covered
    residual = 0.0
    n_star = na - 1
    for n in range(na - 1, -1, -1):
        residual += probs[n] * (_branch_amplitude(spec, state0, n, tau) + 40.0)
        if residual > target:
            n_star = n
            break
    # the exact force |d1 - g n| of a constant drive is not monotone in n, so
    # the box is the largest over the covered branches
    nb = max(_branch_box(spec, state0, n, tau)
             for n in range(min(n_star + 1, na - 1) + 1))
    if nb > nb_cap:
        raise TruncationError(
            f"parameters need N_b ~ {nb} > cap {nb_cap}; outside the "
            "validity envelope of the truncated oracle")
    return na, nb
