"""Adaptive Dormand-Prince 8(5,3) integration with 7th-order dense output.

The explicit Runge-Kutta pair DOP853 of Hairer, Norsett and Wanner
(Solving Ordinary Differential Equations I, 2nd ed., Springer 1993,
Sec. II.10 and its code DOP853): twelve stages of order 8, an error
estimate that blends embedded 5th- and 3rd-order solutions, and three more
stages for a 7th-degree interpolant on every step. Step control is that of
``scipy.integrate``'s ``DOP853``: safety 0.9, step factors between 0.2 and
10, error exponent -1/8 and the initial step of HNW Sec. II.4.

:func:`solve_ivp` stands for ``scipy.integrate.solve_ivp(..., method=
"DOP853")`` with the arguments the library passes, and returns the
attributes the library reads. One control flow runs on either of two sets
of vector kernels (the stage combination and the error norm), chosen by the
type of the state, which also decides what the pass keeps. The state and
the right-hand side's values are taken as given, in that one type:
- a list of floats is the decoupled pass of 15 or 30 states, which the
  library reads anywhere in its range. Its kernels run in plain Python over
  the nonzero entries of the tableau, so it needs no numpy, and each step
  also runs the three dense-output stages and stores its interpolant. They
  sum in column order, not in BLAS's, so the steps are SciPy's up to
  rounding, which moves the last bits;
- a float ndarray is the truncated oracle's pass, which reads only its end
  state. Its kernels do SciPy's arithmetic in SciPy's order, so the steps
  and the end state are SciPy's to the last bit; each step skips the
  dense-output stages (3 of its 15 right-hand-side calls) and stores
  nothing but its end time. They use the numpy that the caller has loaded;
  this module imports none.

States are real, and a pass takes at most MAX_STEPS steps. The package
imports this module on the first integration.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from operator import truediv

N_STAGES = 12  # the 13th row of A gives the solution weights B
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."
# the most steps a pass takes: a list pass stores 64 n + 32 B a step (8
# doubles per state, and its end), so a stepped pass of 30 states stores
# at most 32 MiB; at 15 right-hand-side calls a step it bounds the time too
MAX_STEPS = 2 ** 25 // (64 * 30 + 32)  # 17189

# nodes: stages 0-11, the step end (stage 12) and the dense-output stages
C = (
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778)

# nonzero entries {column: a_ij} of each row i of the Runge-Kutta matrix
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}
# the solution weights B are row 12 of the Runge-Kutta matrix
B = _A_ROWS[N_STAGES]

# error weights on stages 0-11: E5 gives the 5th-order estimate; E3 is B
# less the 3rd-order weights bhh at stages 0, 8 and 11
E5 = dict(zip((0, 5, 6, 7, 8, 9, 10, 11), (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)))
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
E3 = {j: b - _BHH.get(j, 0.0) for j, b in B.items()}

# coefficients of the four highest interpolant terms on stages 0 and 5-15
_D_STAGES = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
D = tuple(dict(zip(_D_STAGES, row)) for row in (
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]))


@dataclass(frozen=True)
class OdeResult:
    t: list                # t0 and the end of every accepted step
    y: list                # the state at t[-1], of y0's type
    sol: "DenseOutput | None"  # a list pass's, once a step is accepted
    nfev: int              # right-hand-side evaluations
    success: bool
    message: str


class DenseOutput:
    """The 7th-degree interpolants of all accepted steps, as one callable.

    ``sol(t)`` is the list of the n states at a scalar t. The step that ends
    at t serves t. A time outside [t0, t_end], where an interpolant would
    extrapolate its step, raises ValueError. A step's length is the
    difference of its ends, read at its start if 0. ``steps`` counts them.
    """

    def __init__(self, ts, terms, n):
        self._ts = ts        # t0 and the end of every step
        self._terms = terms  # per step and state: y_old and F0..F6, flat
        self._n = n
        self.steps = len(ts) - 1

    def __call__(self, t):
        t = float(t)
        ts = self._ts
        if not ts[0] <= t <= ts[-1]:  # nan is outside too
            raise ValueError(f"t={t} is outside the solved range "
                             f"[{ts[0]}, {ts[-1]}]")
        # the count of inner step boundaries below t is its step
        seg = bisect_left(ts, t, 1, len(ts) - 1) - 1
        h = ts[seg + 1] - ts[seg]
        x = (t - ts[seg]) / h if h else 0.0
        u = 1 - x
        size = 8 * self._n
        terms = self._terms[seg * size:(seg + 1) * size]
        # y_old + F0 x + F1 x(1-x) + F2 x^2(1-x) + ... + F6 x^4(1-x)^3, in
        # the order SciPy's dense output rounds it
        return [((((((f6 * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u
                 + f0) * x + y_old
                for y_old, f0, f1, f2, f3, f4, f5, f6
                in zip(*[iter(terms)] * 8)]


def _sums(K, row):
    """sum_j a_j K[j] over the entries {j: a_j} of ``row``, state by state."""
    entries = iter(row.items())
    j, a = next(entries)
    total = [a * k for k in K[j]]
    for j, a in entries:
        total = [s + a * k for s, k in zip(total, K[j])]
    return total


def _sum_sq(x, scale):
    return sum(v * v for v in map(truediv, x, scale))


class _ListKernels:
    """The vector algebra on lists of floats, over the tableau's nonzero
    entries. It gives inf or nan where numpy would and raises nowhere: no
    ``**`` or ``math`` function that raises on overflow takes a state. A
    list pass keeps the interpolant of every step."""

    def stages(self, n):
        return [None] * 16

    def scale(self, y, y_new, rtol, atol):
        return [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]

    def rms(self, x, scale):
        return math.sqrt(_sum_sq(x, scale)) / len(scale) ** 0.5

    def axpy(self, y, a, x):
        return [v + a * w for v, w in zip(y, x)]

    def stage(self, y, K, s, h):
        """y + (sum_j A[s, j] K[j]) h: stage s's argument, or at s = 12 the
        step's solution."""
        return [v + d * h for v, d in zip(y, _sums(K, _A_ROWS[s]))]

    def error_norm(self, K, h, scale):
        """RMS error of a step, the 5th-order estimate damped by the 3rd."""
        err5_sq = _sum_sq(_sums(K, E5), scale)
        err3_sq = _sum_sq(_sums(K, E3), scale)
        if err5_sq == 0 and err3_sq == 0:
            return 0.0
        return abs(h) * err5_sq / math.sqrt((err5_sq + 0.01 * err3_sq)
                                            * len(scale))

    def store(self, terms, y, y_new, f, f_new, K, h):
        """Append y and the interpolant terms F0..F6 of each state."""
        high = (_sums(K, row) for row in D)
        for v, v_new, g, g_new, d3, d4, d5, d6 in zip(y, y_new, f, f_new,
                                                      *high):
            delta = v_new - v
            terms.extend((v, delta, h * g - delta, 2 * delta - h * (g_new + g),
                          h * d3, h * d4, h * d5, h * d6))


class _ArrayKernels:
    """The vector algebra on float ndarrays, over the dense tableau: SciPy's
    operations in SciPy's order, bit for bit. An ndarray pass keeps its end
    state alone."""

    def __init__(self):
        import numpy as np  # loaded already: the caller's state is an ndarray

        def dense(rows, shape):
            table = np.zeros(shape)
            for i, row in rows.items():
                for j, a in row.items():
                    table[i, j] = a
            return table

        self.np = np
        self.A = dense(_A_ROWS, (16, 16))
        self.E5, self.E3 = dense({0: E5, 1: E3}, (2, N_STAGES + 1))

    def stages(self, n):
        return self.np.empty((N_STAGES + 1, n))

    def scale(self, y, y_new, rtol, atol):
        np = self.np
        return atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol

    def rms(self, x, scale):
        return self.np.linalg.norm(x / scale) / x.size ** 0.5

    def axpy(self, y, a, x):
        return y + a * x

    def stage(self, y, K, s, h):
        return y + self.np.dot(K[:s].T, self.A[s, :s]) * h

    def error_norm(self, K, h, scale):
        np = self.np
        err5_sq = np.linalg.norm(np.dot(K.T, self.E5) / scale) ** 2
        err3_sq = np.linalg.norm(np.dot(K.T, self.E3) / scale) ** 2
        if err5_sq == 0 and err3_sq == 0:
            return 0.0
        return np.abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq)
                                             * len(scale))


_LIST_KERNELS = _ListKernels()
_array_kernels = cache(_ArrayKernels)


def _initial_step(k, fun, t0, y0, f0, interval, rtol, atol) -> float:
    """HNW Sec. II.4 starting step; costs one right-hand-side evaluation."""
    scale = k.scale(y0, y0, rtol, atol)
    d0 = k.rms(y0, scale)
    d1 = k.rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, k.axpy(y0, h0, f0))
    # f1 + (-1) f0 is f1 - f0 to the bit. h0 is 0 only where 0.01 d0 / d1
    # underflows; then so is the step, and d2, which numpy would make inf or
    # nan, decides nothing
    d2 = k.rms(k.axpy(f1, -1.0, f0), scale) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def solve_ivp(fun, t_span, y0, *, rtol, atol) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] >= t_span[0].

    A list ``y0`` of floats runs the list kernels, a float ndarray the
    ndarray kernels, and ``fun`` returns the type of ``y0``; neither is
    copied or converted. ``rtol`` and ``atol`` bound each step's error
    relative to atol + rtol |y|. The result holds the step ends and the
    state at the last; a list pass's ``sol`` evaluates the solution anywhere
    in the range and refuses a time outside it. If the step falls below ten
    units in the last place of t, or more than MAX_STEPS steps are needed,
    the integration stops with ``success`` False.
    """
    t0, t_bound = map(float, t_span)
    if t_bound < t0:
        raise ValueError("only forward integration is implemented")
    dense = isinstance(y0, list)  # a list pass keeps every interpolant
    k = _LIST_KERNELS if dense else _array_kernels()
    # no state is written in place, so y0 needs no copy; a copy of the
    # oracle's state freed after the first step would let glibc trim and
    # regrow its heap on each right-hand side, about 30 page faults a call
    t, y = t0, y0
    f = fun(t, y)
    nfev, n = 1, len(y)
    ts = [t]
    terms = array("d")  # a list pass's interpolant per step
    message, success = REACHED_END, True
    if t_bound == t0:
        # one zero-length step, whose interpolant is the constant y0
        ts.append(t)
        if dense:
            for v in y:
                terms.extend((v, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    else:
        h_abs = _initial_step(k, fun, t0, y, f, t_bound - t0, rtol, atol)
        nfev += 1
    K = k.stages(n)
    while t < t_bound:
        if len(ts) > MAX_STEPS:
            message, success = f"Required number of steps exceeds {MAX_STEPS}.", False
            break
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                message, success = TOO_SMALL_STEP, False
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, N_STAGES):
                K[s] = fun(t + C[s] * h, k.stage(y, K, s, h))
            y_new = k.stage(y, K, N_STAGES, h)
            # at t + h, as SciPy does: it need not round back to t_new
            f_new = K[N_STAGES] = fun(t + h, y_new)
            nfev += N_STAGES
            scale = k.scale(y, y_new, rtol, atol)
            error_norm = k.error_norm(K, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if not success:
            break
        if dense:
            for s in range(N_STAGES + 1, 16):
                K[s] = fun(t + C[s] * h, k.stage(y, K, s, h))
            nfev += 3
            k.store(terms, y, y_new, f, f_new, K, h)
        ts.append(t_new)
        t, y, f = t_new, y_new, f_new

    sol = DenseOutput(ts, terms, n) if terms else None
    return OdeResult(t=ts, y=y, sol=sol, nfev=nfev, success=success,
                     message=message)
