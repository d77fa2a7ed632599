"""Adaptive Dormand-Prince 8(5,3) integration with 7th-order dense output.

The explicit Runge-Kutta pair DOP853 of Hairer, Norsett and Wanner
(Solving Ordinary Differential Equations I, 2nd ed., Springer 1993,
Sec. II.10 and its code DOP853): twelve stages of order 8, an error
estimate that blends embedded 5th- and 3rd-order solutions, and three more
stages for a 7th-degree interpolant on every step. Step control is that of
``scipy.integrate``'s ``DOP853``: safety 0.9, step factors between 0.2 and
10, error exponent -1/8 and the initial step of HNW Sec. II.4.

:func:`solve_ivp` stands for ``scipy.integrate.solve_ivp(..., method=
"DOP853", dense_output=True)`` with the arguments the library passes: it
does SciPy's arithmetic in SciPy's order, so its steps and dense values are
SciPy's, and it returns the attributes the library reads. The package
imports this module on the first integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_STAGES = 12  # the 13th row of A gives the solution weights B
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."

# nodes: stages 0-11, the step end (stage 12) and the dense-output stages
C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])

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
A = np.zeros((16, 16))
for _i, _row in _A_ROWS.items():
    for _j, _a in _row.items():
        A[_i, _j] = _a
B = A[N_STAGES, :N_STAGES]

# error weights on stages 0-12: E5 gives the 5th-order estimate; E3 is B
# less the 3rd-order weights bhh at stages 0, 8 and 11
E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

# coefficients of the four highest interpolant terms on stages 0 and 5-15
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
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
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]]


@dataclass(frozen=True)
class OdeResult:
    t: np.ndarray          # t0 and the end of every accepted step
    y: np.ndarray          # (n, len(t)) states at those times
    sol: "DenseOutput | None"  # None only if no step was accepted
    nfev: int              # right-hand-side evaluations
    success: bool
    message: str


class DenseOutput:
    """The 7th-degree interpolants of all accepted steps, as one callable.

    ``sol(t)`` is (n,) at a scalar t and (n, m) at m times. The step that
    ends at t serves t; times outside the range extrapolate from the first
    or last step.
    """

    def __init__(self, ts, y_old, h, F):
        self._t_old = ts[:-1]  # (steps,) step starts
        self._inner = ts[1:-1]  # step boundaries inside the range
        self._y_old = y_old    # (steps, n) state at each step start
        self._h = h            # (steps,) step lengths
        self._F = F            # (7, steps, n) interpolant terms

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # the count of inner boundaries below t is its step, in range
        seg = np.searchsorted(self._inner, t)
        x = (t - self._t_old[seg]) / self._h[seg]
        if t.ndim:
            x = x[:, None]
        # y_old + F0 x + F1 x(1-x) + F2 x^2(1-x) + ... + F6 x^4(1-x)^3
        F = self._F[:, seg]
        y = F[6] * x
        for k in range(5, -1, -1):
            y += F[k]
            y *= x if k % 2 == 0 else 1 - x
        y += self._y_old[seg]
        return y.T


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, interval, rtol, atol) -> float:
    """HNW Sec. II.4 starting step; costs one right-hand-side evaluation."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K, h, scale) -> float:
    """RMS error of a step, the 5th-order estimate damped by the 3rd."""
    err5_sq = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
    err3_sq = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
    if err5_sq == 0 and err3_sq == 0:
        return 0.0
    return np.abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * len(scale))


def _stages(fun, t, y, h, K, first, last):
    """Fill K[first:last] with the stage derivatives of a step of size h."""
    for s in range(first, last):
        K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)


def solve_ivp(fun, t_span, y0, *, rtol, atol) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] to t_span[1] >= t_span[0].

    ``rtol`` and ``atol`` bound each step's error relative to
    atol + rtol |y|. The result's ``sol`` evaluates the solution anywhere
    in the range. If the step falls below ten units in the last place of t
    the integration stops with ``success`` False.
    """
    t0, t_bound = map(float, t_span)
    if t_bound < t0:
        raise ValueError("only forward integration is implemented")

    def f_of(t, y):
        return np.asarray(fun(t, y), dtype=float)

    t, y = t0, np.array(y0, dtype=float)
    f = f_of(t, y)
    nfev, n = 1, y.size
    ts, ys, steps = [t], [y], []  # steps: (h, F) of each accepted step
    message, success = REACHED_END, True
    if t_bound == t0:
        # one zero-length step whose interpolant is the constant y0
        ts.append(t)
        ys.append(y)
        steps.append((1.0, np.zeros((7, n))))
    else:
        h_abs = _initial_step(f_of, t0, y, f, t_bound - t0, rtol, atol)
        nfev += 1
    K = np.empty((16, n))
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                message, success = TOO_SMALL_STEP, False
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(f_of, t, y, h, K, 1, N_STAGES)
            y_new = y + h * np.dot(K[:N_STAGES].T, B)
            # at t + h, as SciPy does: it need not round back to t_new
            f_new = K[N_STAGES] = f_of(t + h, y_new)
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if not success:
            break
        _stages(f_of, t, y, h, K, N_STAGES + 1, 16)
        nfev += 3
        F = np.empty((7, n))
        delta = F[0] = y_new - y
        F[1] = h * f - delta
        F[2] = 2 * delta - h * (f_new + f)
        F[3:] = h * np.dot(D, K)
        steps.append((h, F))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)

    ts = np.array(ts)
    sol = None
    if steps:
        h, F = zip(*steps)
        sol = DenseOutput(ts, np.array(ys[:len(steps)]), np.array(h),
                          np.stack(F, axis=1))
    return OdeResult(t=ts, y=np.array(ys).T, sol=sol, nfev=nfev,
                     success=success, message=message)
